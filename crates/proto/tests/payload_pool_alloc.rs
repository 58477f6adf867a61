//! Steady-state allocation audit for the pooled send path (PR 8).
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up round that seeds the thread-local payload pool, every
//! `Packet::to_sim_payload` / `WireEncode::to_wire_payload` call must
//! take its buffer from the pool (a hit) and perform **zero** heap
//! allocations — the benches measure the speedup, this pins the
//! invariant that steady-state sends recycle instead of allocating.

#[global_allocator]
static GLOBAL: ew_sim::CountingAlloc = ew_sim::CountingAlloc;

use ew_proto::{mtype, Packet, WireEncode};
use ew_sim::{pool_reset, pool_stats, thread_allocs};

/// A small request body, shaped like the gossip/scheduler messages that
/// dominate steady-state traffic.
struct Body {
    a: u64,
    b: u32,
    tail: [u8; 24],
}

impl WireEncode for Body {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.a.to_le_bytes());
        out.extend_from_slice(&self.b.to_le_bytes());
        out.extend_from_slice(&self.tail);
    }
}

#[test]
fn steady_state_sends_take_buffers_from_the_pool() {
    // The pool is thread-local, so this test owns its pool entirely.
    pool_reset();
    let body = Body {
        a: 0xDEAD_BEEF,
        b: 42,
        tail: [7; 24],
    };

    // Warm up: the first round misses (allocating the class buffers and
    // the pool's free-list capacity), then recycles on drop.
    for i in 0..8u64 {
        let pkt = Packet::request(mtype::GOSSIP_BASE, i, body.to_wire_payload());
        std::hint::black_box(pkt.to_sim_payload());
    }

    let stats_before = pool_stats();
    let before = thread_allocs();
    const ROUNDS: u64 = 100;
    for i in 0..ROUNDS {
        // One simulated send: encode the body into a pooled payload,
        // frame it, encode the frame into the wire payload the simulated
        // network carries, then drop both (returning them to the pool).
        let pkt = Packet::request(mtype::GOSSIP_BASE, i, body.to_wire_payload());
        std::hint::black_box(pkt.to_sim_payload());
    }
    let after = thread_allocs();
    let stats_after = pool_stats();

    assert_eq!(
        after - before,
        0,
        "steady-state sends allocated instead of hitting the payload pool"
    );
    assert!(
        stats_after.hits - stats_before.hits >= 2 * ROUNDS,
        "each send must take both buffers from the pool ({} hits over {ROUNDS} sends)",
        stats_after.hits - stats_before.hits,
    );
    assert_eq!(
        stats_after.misses, stats_before.misses,
        "no pool misses once warmed up"
    );
    assert!(
        stats_after.recycled - stats_before.recycled >= 2 * ROUNDS,
        "dropped payloads must recycle back into the pool"
    );
}
