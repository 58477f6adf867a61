//! Layer probes: the per-call host cost of one layer's public function,
//! measured in isolation at the sizes the workload uses. Each probe runs
//! batches for a fixed host-time budget and reports the median cost per
//! call. Multiplied by the number of times the workload's run made that
//! call, a probe estimates the layer's share of the run (attribution).

use std::hint::black_box;
use std::time::{Duration, Instant};

use ew_forecast::ForecasterSet;
use ew_gossip::messages::TypeRegistration;
use ew_gossip::{GossipStore, VersionedBlob};
use ew_proto::{Packet, WireEncode};
use ew_ramsey::{ColoredGraph, RamseyProblem};
use ew_sched::scm;
use ew_sim::{
    Ctx, Event, HostSpec, HostTable, NetModel, Process, ProcessId, Sim, SimDuration, SimTime,
    SiteSpec, Xoshiro256,
};
use ew_workload::{execute_unit, ramsey_validator, WorkResult, WorkUnit};

use crate::stats::median;

/// Run `batch` (which performs `per_batch` calls) repeatedly for about
/// `budget`, at least `min_batches` times; median ns per call.
fn per_call_ns(
    budget: Duration,
    min_batches: usize,
    per_batch: u64,
    mut batch: impl FnMut(),
) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_batches || start.elapsed() < budget {
        let t = Instant::now();
        batch();
        samples.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&samples)
}

/// One side of a ping-pong pair: every delivered message is computed on
/// (a short chunk against the host's load trace) and then answered with
/// the same 64-byte payload, as a client answers a grant with a result.
struct PingPong {
    peer: ProcessId,
    serve: bool,
    inbox: Option<ew_sim::Payload>,
}

impl Process for PingPong {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started if self.serve => ctx.send(self.peer, 1, vec![7u8; 64]),
            Event::Message { payload, .. } => {
                self.inbox = Some(payload);
                ctx.compute(1_000_000, 0);
            }
            Event::ComputeDone { .. } => {
                if let Some(p) = self.inbox.take() {
                    ctx.send(self.peer, 1, p);
                }
            }
            _ => {}
        }
    }
}

/// `ew-sim`: host ns per dispatched event of the bare kernel (wheel
/// insert and drain, dispatch, delay sampling, payload hand-off, compute
/// completion on a loaded host) with `processes` processes in ping-pong
/// pairs across a 15 ms wide-area link, so the queue holds as many
/// in-flight events as the workload has hosts.
pub fn sim_event_ns(budget: Duration, processes: usize) -> f64 {
    const EVENTS: u64 = 50_000;
    let pairs = (processes / 2).max(1);
    per_call_ns(budget, 5, EVENTS, || {
        let mut net = NetModel::new(0.0);
        let sites = [0, 1].map(|i| {
            net.add_site(SiteSpec::simple(
                &format!("probe{i}"),
                SimDuration::from_millis(15),
                2.5e6,
                0.05,
            ))
        });
        let mut hosts = HostTable::new();
        let ids: Vec<_> = (0..2 * pairs)
            .map(|i| hosts.add(HostSpec::dedicated(&format!("h{i}"), sites[i % 2], 1e8)))
            .collect();
        let mut sim = Sim::new(net, hosts, 1);
        for (i, &h) in ids.iter().enumerate() {
            let peer = ProcessId((i ^ 1) as u32);
            let pp = PingPong {
                peer,
                serve: i % 2 == 0,
                inbox: None,
            };
            sim.spawn("pp", h, Box::new(pp));
        }
        let mut done = 0;
        while done < EVENTS {
            done += sim.run_to_exhaustion(EVENTS - done).events;
        }
        black_box(sim.now() > SimTime::ZERO);
    })
}

/// `ew-proto`: ns to encode a work envelope into a packet and decode it
/// back, averaged over the grant (`WorkUnit`) and result (`WorkResult`)
/// messages of the workload.
pub fn codec_ns(budget: Duration, unit: &WorkUnit, result: &WorkResult) -> f64 {
    const ROUNDS: u64 = 2_000;
    per_call_ns(budget, 5, 2 * ROUNDS, || {
        for i in 0..ROUNDS {
            let p = Packet::request(scm::GET_WORK, i, unit.to_wire());
            let back =
                Packet::from_sim_payload(scm::GET_WORK, &p.to_sim_payload()).expect("decodes");
            black_box(back.body::<WorkUnit>().expect("unit decodes"));
            let p = Packet::request(scm::RESULT, i, result.to_wire());
            let back = Packet::from_sim_payload(scm::RESULT, &p.to_sim_payload()).expect("decodes");
            black_box(back.body::<WorkResult>().expect("result decodes"));
        }
    })
}

/// `ew-forecast`: ns per `update` + `predict` of the standard NWS
/// forecaster battery on a seeded load-like series.
pub fn forecast_ns(budget: Duration, seed: u64) -> f64 {
    const ROUNDS: u64 = 500;
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let series: Vec<f64> = (0..ROUNDS).map(|_| 0.5 + 0.3 * rng.next_f64()).collect();
    let mut set = ForecasterSet::standard();
    per_call_ns(budget, 5, ROUNDS, || {
        for &v in &series {
            set.update(v);
            black_box(set.predict());
        }
    })
}

/// `ew-gossip`: µs per `GossipStore::pairwise_reconcile` over
/// `components` registered components with distinct versions.
pub fn reconcile_us(budget: Duration, components: usize) -> f64 {
    const STYPE: u16 = 1;
    let reg = [TypeRegistration {
        stype: STYPE,
        comparator: 0,
    }];
    let ns = per_call_ns(budget, 5, 1, || {
        let mut store = GossipStore::new();
        for c in 0..components as u64 {
            store.register(c, &reg);
            store.record_component_state(c, STYPE, VersionedBlob::new(c + 1, vec![c as u8; 16]));
        }
        black_box(store.pairwise_reconcile(STYPE));
    });
    ns / 1e3
}

/// `ew-state`: µs per validation of a stored R(4,4) counter-example (the
/// Paley graph on 17 vertices) by the Ramsey validator.
pub fn validate_us(budget: Duration) -> f64 {
    let validator = ramsey_validator();
    let bytes = ColoredGraph::paley(17).to_bytes();
    let ns = per_call_ns(budget, 5, 1, || {
        validator("ramsey/best/4", &bytes).expect("Paley(17) is a counter-example");
    });
    ns / 1e3
}

/// `ew-ramsey`: ms per `execute_unit` at the problem and step budget the
/// workload's schedulers issue, over a rotation of heuristics and seeds,
/// and the delta-table lookups one such unit makes on average.
pub fn unit_ms(
    budget: Duration,
    problem: RamseyProblem,
    step_budget: u64,
    seed: u64,
) -> (f64, f64) {
    let mut id = 0u64;
    let mut lookups = 0u64;
    let ns = per_call_ns(budget, 3, 1, || {
        id += 1;
        let unit = WorkUnit {
            id,
            arg0: problem.k,
            arg1: problem.n,
            variant: (id % 3) as u8,
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(id),
            step_budget,
            payload: Vec::new(),
        };
        lookups += black_box(execute_unit(&unit)).1.table_lookups;
    });
    (ns / 1e6, lookups as f64 / id as f64)
}
