//! Steady-state allocation audit for the hot kernels.
//!
//! A counting global allocator wraps the system allocator; each test
//! warms a kernel up (first calls may grow the [`Workspace`] arena or the
//! delta table) and then asserts that further iterations perform **zero**
//! heap allocations. This is the enforcement half of the "allocation-free
//! kernels" claim — the benches measure speed, this pins the invariant.

#[global_allocator]
static GLOBAL: ew_sim::CountingAlloc = ew_sim::CountingAlloc;

use ew_ramsey::{
    count_total_ws, flip_delta_ws, ColoredGraph, DeltaTable, GreedyLocal, Heuristic, OpsCounter,
    SearchState, Workspace,
};
use ew_sim::{thread_allocs, Xoshiro256};

#[test]
fn flip_delta_ws_is_allocation_free_after_warmup() {
    let mut rng = Xoshiro256::seed_from_u64(7);
    let g = ColoredGraph::random(43, &mut rng);
    let mut ops = OpsCounter::new();
    let mut ws = Workspace::new();
    flip_delta_ws(&g, 5, 0, 1, &mut ops, &mut ws); // size the arena
    let before = thread_allocs();
    for u in 0..20usize {
        for v in (u + 1)..21 {
            std::hint::black_box(flip_delta_ws(&g, 5, u, v, &mut ops, &mut ws));
        }
    }
    assert_eq!(
        thread_allocs() - before,
        0,
        "flip_delta_ws allocated in steady state"
    );
}

#[test]
fn count_total_ws_is_allocation_free_after_warmup() {
    let mut rng = Xoshiro256::seed_from_u64(8);
    let g = ColoredGraph::random(43, &mut rng);
    let mut ops = OpsCounter::new();
    let mut ws = Workspace::new();
    count_total_ws(&g, 5, &mut ops, &mut ws);
    let before = thread_allocs();
    for _ in 0..5 {
        std::hint::black_box(count_total_ws(&g, 5, &mut ops, &mut ws));
    }
    assert_eq!(
        thread_allocs() - before,
        0,
        "count_total_ws allocated in steady state"
    );
}

#[test]
fn table_maintenance_is_allocation_free_after_warmup() {
    let mut rng = Xoshiro256::seed_from_u64(9);
    let mut g = ColoredGraph::random(40, &mut rng);
    let mut ops = OpsCounter::new();
    let mut ws = Workspace::new();
    let mut table = DeltaTable::new(&g, 5, &mut ops, &mut ws);
    // Warm flips: the `verts` scratch list grows to its high-water mark.
    for i in 0..10usize {
        let (u, v) = (i % 40, (i * 7 + 1) % 40);
        if u == v {
            continue;
        }
        g.flip(u.min(v), u.max(v));
        table.apply_flip(&g, u.min(v), u.max(v), &mut ops, &mut ws);
    }
    let before = thread_allocs();
    for i in 0..200usize {
        let (u, v) = (i % 40, (i * 13 + 3) % 40);
        if u == v {
            continue;
        }
        g.flip(u.min(v), u.max(v));
        table.apply_flip(&g, u.min(v), u.max(v), &mut ops, &mut ws);
        std::hint::black_box(table.delta(&g, 0, 1));
    }
    assert_eq!(
        thread_allocs() - before,
        0,
        "table maintenance allocated in steady state"
    );
    assert!(table.verify_against(&g));
}

#[test]
fn greedy_steps_on_table_state_are_allocation_free_after_warmup() {
    let mut rng = Xoshiro256::seed_from_u64(10);
    let mut state = SearchState::new_incremental(ColoredGraph::random(40, &mut rng), 5);
    let mut greedy = GreedyLocal::default();
    for _ in 0..5 {
        greedy.step(&mut state, &mut rng); // warm the workspace + scratch
    }
    let before = thread_allocs();
    for _ in 0..50 {
        greedy.step(&mut state, &mut rng);
    }
    assert_eq!(
        thread_allocs() - before,
        0,
        "greedy steady-state steps allocated with the table enabled"
    );
}
