//! Steady-state allocation audit for the forecast paths.
//!
//! A forecast runs on every RPC round trip (time-out discovery), every
//! scheduler progress report and every sensor sample (dynamic
//! benchmarking). A counting global allocator wraps the system allocator;
//! once a stream exists, observing a measurement and forecasting from it
//! must perform **zero** heap allocations.

use std::hint::black_box;

use ew_forecast::{DynamicBenchmark, ForecastTimeout};
use ew_proto::{EventTag, TimeoutPolicy};
use ew_sim::{thread_allocs, SimDuration, Xoshiro256};

#[global_allocator]
static GLOBAL: ew_sim::CountingAlloc = ew_sim::CountingAlloc;

const STEPS: usize = 10_000;

/// A load-like series with spikes, so the selected method changes.
fn series(seed: u64) -> Vec<f64> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..STEPS)
        .map(|i| {
            let spike = if i % 97 == 0 { 20.0 } else { 1.0 };
            (0.05 + 0.1 * rng.next_f64()) * spike
        })
        .collect()
}

#[test]
fn timeout_observe_and_decide_are_allocation_free() {
    let rtts: Vec<SimDuration> = series(1)
        .into_iter()
        .map(SimDuration::from_secs_f64)
        .collect();
    let tags = [
        EventTag {
            peer: 3,
            mtype: 0x101,
        },
        EventTag {
            peer: 4,
            mtype: 0x102,
        },
    ];
    let mut ft = ForecastTimeout::wan_default();
    for &tag in &tags {
        ft.observe_rtt(tag, rtts[0]); // create the streams
        ft.observe_timeout(tag);
    }
    let before = thread_allocs();
    for (i, &rtt) in rtts.iter().enumerate() {
        let tag = tags[i % 2];
        black_box(ft.timeout_for(tag));
        ft.observe_rtt(tag, rtt);
        if i % 500 == 0 {
            ft.observe_timeout(tag);
        }
    }
    assert_eq!(
        thread_allocs() - before,
        0,
        "ForecastTimeout allocated in steady state"
    );
    assert_eq!(ft.samples(tags[0]), 1 + STEPS as u64 / 2);
}

#[test]
fn dynamic_benchmark_observe_and_forecast_are_allocation_free() {
    let rates = series(2);
    let mut db: DynamicBenchmark<u64> = DynamicBenchmark::new();
    for client in 0..8 {
        db.observe(client, rates[0]); // create the streams
    }
    let before = thread_allocs();
    for (i, &rate) in rates.iter().enumerate() {
        let client = i as u64 % 8;
        db.observe(client, rate);
        black_box(db.forecast(&client).expect("stream exists").value);
    }
    assert_eq!(
        thread_allocs() - before,
        0,
        "DynamicBenchmark allocated in steady state"
    );
}
