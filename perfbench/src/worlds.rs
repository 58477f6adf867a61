//! The simulated worlds behind each workload, built, run and read back
//! through the crates' public functions only.
//!
//! Each builder reproduces the world of the program's own entry point for the
//! same scenario (`figures -- mega` shard 0, `run_sc98`, one cell of the
//! chaos campaign) call for call, so the benchmark times the same event
//! order the program produces; `tests` pins that against those entry points.
//! Construction is split into the calls `setup_s` sums: the `ew-infra`
//! world builder, `FaultPlan::compile`, `Sim::new`, and the process
//! spawns (`Deployment::builder(..).spawn` plus supervisors and sensors).

use std::collections::BTreeMap;

use everyware::{bin_rate, BinnedPoint, DeployConfig, Deployment, JUDGING_START_S, WINDOW_S};
use ew_chaos::{CompiledFaults, FaultPlan, HostRole, SiteRole, N_COMPUTE};
use ew_forecast::{NwsSensor, NwsServer, SensorConfig};
use ew_infra::{
    build_mega_shard, build_sc98, InfraSpec, InfraSupervisor, JudgingSpike, MegaSpec, Relay,
};
use ew_ramsey::{verify_counter_example, ColoredGraph, OpsCounter, RamseyProblem, Verification};
use ew_sched::{ClientConfig, SchedulerConfig, SchedulerServer};
use ew_sim::{
    CompositeLoad, ConstantLoad, Ctx, Event, HostId, HostSpec, HostTable, Impairment, LoadTrace,
    NetModel, NetworkModel, Partition, Process, Sim, SimDuration, SimTime, SiteId, SiteSpec,
    SpikeLoad,
};
use ew_state::PersistentStateServer;
use ew_workload::WorkloadSpec;

use crate::alloc::thread_allocs;
use crate::spans::Tracer;

/// `figures -- mega` unit sizing: 200 steps × 10k ops ≈ 20 ms per unit.
const MEGA_STEP_BUDGET: u64 = 200;
const MEGA_OPS_PER_STEP: u64 = 10_000;
/// One full mega shard runs 60 simulated seconds per repetition.
pub const MEGA_HORIZON_S: u64 = 60;
/// The real-execution shard runs 10 simulated seconds per repetition.
pub const RAMSEY_REAL_HORIZON_S: u64 = 10;
/// R(4,4) on 17 vertices: the problem of the mega, real-execution and
/// chaos Ramsey worlds.
pub const R44_17: RamseyProblem = RamseyProblem { k: 4, n: 17 };
/// The SC98 target: R(5,5) on 43 vertices, 6000-step units.
const SC98_PROBLEM: RamseyProblem = RamseyProblem { k: 5, n: 43 };
const SC98_STEP_BUDGET: u64 = 6_000;
/// Chaos units: 6000 steps × 1e6 ops ≈ 60 s at 100 Mop/s.
const CHAOS_STEP_BUDGET: u64 = 6_000;
/// Chaos campaign cells run the standard (full) campaign horizon.
pub const CHAOS_HORIZON_S: u64 = 1800;
/// Chaos throughput bin (the campaign's `BIN_SECS`).
pub const CHAOS_BIN_S: u64 = 60;
/// SC98 averaging window (the paper's 5 minutes).
pub const SC98_BIN_S: u64 = 300;

/// One world to build and run.
#[derive(Clone, Debug)]
pub enum Spec {
    /// A full 134-host `figures -- mega` shard (shard 0 at `seed`).
    Mega { seed: u64 },
    /// The paper's 12-hour SC98 run with the judging spike.
    Sc98 { seed: u64 },
    /// One chaos-campaign cell; `plan: None` is the no-fault reference.
    Chaos {
        workload: WorkloadSpec,
        plan: Option<FaultPlan>,
        seed: u64,
        static_arm: bool,
    },
    /// A 14-host shard whose eight clients execute R(4,4) units for real.
    RamseyReal { seed: u64 },
}

impl Spec {
    /// The Ramsey units this world's schedulers issue: problem, base step
    /// budget, and whether clients execute them for real.
    pub fn ramsey_units(&self) -> (RamseyProblem, u64, bool) {
        match self {
            Spec::Mega { .. } => (R44_17, MEGA_STEP_BUDGET, false),
            Spec::RamseyReal { .. } => (R44_17, MEGA_STEP_BUDGET, true),
            Spec::Sc98 { .. } => (SC98_PROBLEM, SC98_STEP_BUDGET, false),
            Spec::Chaos { .. } => (R44_17, CHAOS_STEP_BUDGET, false),
        }
    }
}

/// Host time spent constructing one world, by layer call.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `ew-infra` world builder (or the chaos world's net/host tables).
    pub infra_ns: u64,
    /// `FaultPlan::compile` (chaos cells only).
    pub compile_ns: u64,
    /// `Sim::new`.
    pub sim_new_ns: u64,
    /// Process spawns: the `Deployment` stack, supervisors, NWS.
    pub spawn_ns: u64,
}

impl SetupTimes {
    /// Whole construction time.
    pub fn total_ns(&self) -> u64 {
        self.infra_ns + self.compile_ns + self.sim_new_ns + self.spawn_ns
    }

    /// Accumulate another world's times.
    pub fn add(&mut self, o: &SetupTimes) {
        self.infra_ns += o.infra_ns;
        self.compile_ns += o.compile_ns;
        self.sim_new_ns += o.sim_new_ns;
        self.spawn_ns += o.spawn_ns;
    }
}

/// A constructed world, ready to run.
pub struct Built {
    sim: Sim,
    horizon: SimTime,
    dep: Deployment,
    /// When the chaos plan's last fault clears (`ZERO` otherwise).
    fault_end: SimTime,
    /// Infrastructure labels whose `ops_series.*` the report reads.
    infra: Vec<String>,
}

/// Host-side measurements of one world's run.
#[derive(Clone, Debug, Default)]
pub struct RunTimes {
    /// Host time of all `run_until` calls.
    pub run_ns: u64,
    /// Events dispatched.
    pub events: u64,
    /// Allocations made on this thread while the kernel ran.
    pub allocs: u64,
    /// Host time of each fixed simulated slice (sliced runs only).
    pub slice_ns: Vec<u64>,
}

/// The counters read from every world's registry after its run.
pub const COUNTERS: &[&str] = &[
    "client.units_completed",
    "ops.total",
    "sched.grants",
    "sched.results",
    "sched.reports",
    "client.abandons",
    "client.failovers",
    "kernel.wheel_cascades",
    "kernel.insert_fast_path",
    "kernel.timers_cancelled",
    "kernel.batch_ties",
    "net.messages",
    "net.bytes",
    "net.dropped_partition",
    "net.dropped_impaired",
    "net.flows_started",
    "net.payload_pool_hits",
    "net.payload_pool_misses",
    "rpc.retries",
    "rpc.breaker_open",
    "nws.reports",
    "nws.probes_lost",
    "gossip.polls_sent",
    "gossip.poll_timeouts",
    "gossip.syncs_sent",
    "clique.elections",
    "state.stores_ok",
    "state.stores_rejected",
    "client.stores_accepted",
    "client.stores_rejected",
    "ramsey.table_lookups",
    "chaos.faults_injected",
];

/// Everything deterministic one world produced: a pure function of its
/// spec, compared exactly across every run of a set.
#[derive(Clone, Debug, PartialEq)]
pub struct WorldOut {
    /// Kernel event-order hash.
    pub order_hash: u64,
    /// Events dispatched.
    pub events: u64,
    /// [`COUNTERS`], in order.
    pub counters: Vec<f64>,
    /// `ramsey.table_hit_rate` gauge at the end of the run.
    pub table_hit_rate: f64,
    /// Ops-per-second series in the workload's bins (SC98: 5-minute
    /// totals; chaos: 60 s ops per bin; otherwise empty).
    pub bins: Vec<f64>,
    /// Chaos: when the last fault cleared, in seconds.
    pub fault_end_s: f64,
    /// Simulated horizon, in seconds.
    pub horizon_s: f64,
    /// Hosts in the world (the size the kernel probe runs at).
    pub hosts: usize,
    /// Gossip-registered components: schedulers plus gossip servers (the
    /// size the reconcile probe runs at).
    pub components: usize,
    /// Distinct units credited with a result, summed over schedulers
    /// (duplicate deliveries of one result count once).
    pub credited: u64,
    /// Artifacts re-verified after the run.
    pub artifacts_checked: u64,
    /// Artifacts that did not verify (must be 0).
    pub artifacts_invalid: u64,
}

impl WorldOut {
    /// Value of counter `name` (must be listed in [`COUNTERS`]).
    pub fn counter(&self, name: &str) -> f64 {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .unwrap_or_else(|| panic!("counter {name} is not read"));
        self.counters[i]
    }
}

/// Injects nothing itself — the compiled plan is baked into the world —
/// but owns `chaos.faults_injected`, exactly as the campaign's injector.
struct ChaosInjector {
    faults: u64,
}

impl Process for ChaosInjector {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        if let Event::Started = ev {
            let c = ctx.counter("chaos.faults_injected");
            ctx.add(c, self.faults as f64);
        }
    }
}

/// Build `spec`, timing each construction call into `tr`.
pub fn build(spec: &Spec, tr: &mut Tracer) -> (Built, SetupTimes) {
    match spec {
        Spec::Mega { seed } => shard(*seed, MegaSpec::full(NetworkModel::Flow), false, tr),
        Spec::RamseyReal { seed } => {
            let spec = MegaSpec {
                workers_per_site: 4,
                ..MegaSpec::short(NetworkModel::Flow)
            };
            shard(*seed, spec, true, tr)
        }
        Spec::Sc98 { seed } => sc98(*seed, tr),
        Spec::Chaos {
            workload,
            plan,
            seed,
            static_arm,
        } => chaos(workload, plan.as_ref(), *seed, *static_arm, tr),
    }
}

/// A mega-shaped shard: the `figures -- mega` world, optionally with
/// clients that execute their units for real.
/// With real execution the seed also salts the schedulers' unit seeds, so
/// each seed searches different graphs; synthetic units never read them.
fn shard(seed: u64, spec: MegaSpec, execute_real: bool, tr: &mut Tracer) -> (Built, SetupTimes) {
    let mut t = SetupTimes::default();
    let (world, ns) = tr.time("infra.build", || build_mega_shard(&spec, 0));
    t.infra_ns = ns;
    let workload = WorkloadSpec::ramsey(R44_17);
    let (mut sim, ns) = tr.time("sim.new", || Sim::new(world.net, world.hosts, seed));
    t.sim_new_ns = ns;
    let (dep, ns) = tr.time("toolkit.spawn", || {
        let dep = Deployment::builder(DeployConfig {
            sched: SchedulerConfig {
                workload: workload.clone(),
                step_budget: MEGA_STEP_BUDGET,
                seed_salt: if execute_real { seed } else { 0 },
                ..SchedulerConfig::default()
            },
            ..DeployConfig::default()
        })
        .gossip_pool(&world.services.gossips)
        .schedulers(&world.services.schedulers)
        .state_manager(world.services.state)
        .log_server(world.services.log)
        .spawn(&mut sim);
        sim.spawn(
            "mega-sup",
            world.services.log,
            Box::new(InfraSupervisor::new(InfraSpec {
                name: "mega".into(),
                hosts: world.pool,
                invocation_delay: SimDuration::from_secs(2),
                stagger: SimDuration::from_millis(50),
                client_template: ClientConfig {
                    workload,
                    schedulers: dep.scheduler_addrs(),
                    state_server: Some(dep.state_addr()),
                    chunk_ops: MEGA_STEP_BUDGET * MEGA_OPS_PER_STEP,
                    ops_per_step: MEGA_OPS_PER_STEP,
                    checkpoint_every_chunks: None,
                    execute_real,
                    ..ClientConfig::default()
                },
                sample_interval: SimDuration::from_secs(30),
            })),
        );
        dep
    });
    t.spawn_ns = ns;
    let horizon = if execute_real {
        RAMSEY_REAL_HORIZON_S
    } else {
        MEGA_HORIZON_S
    };
    let built = Built {
        sim,
        horizon: SimTime::from_secs(horizon),
        dep,
        fault_end: SimTime::ZERO,
        infra: vec!["mega".into()],
    };
    (built, t)
}

/// The `run_sc98` world at its default configuration and `seed`.
fn sc98(seed: u64, tr: &mut Tracer) -> (Built, SetupTimes) {
    let mut t = SetupTimes::default();
    let duration = SimDuration::from_secs(WINDOW_S);
    let spike = Some(JudgingSpike {
        start: SimTime::from_secs(JUDGING_START_S),
        end: SimTime::from_secs(everyware::JUDGING_END_S),
        level: 0.48,
    });
    let (pool, ns) = tr.time("infra.build", || build_sc98(seed, duration, spike));
    t.infra_ns = ns;
    let infra_builds = pool.infra;
    let services = pool.services;
    let (mut sim, ns) = tr.time("sim.new", || Sim::new(pool.net, pool.hosts, seed));
    t.sim_new_ns = ns;
    let open = tr.begin("toolkit.spawn");
    let dep = Deployment::builder(DeployConfig {
        sched: SchedulerConfig {
            workload: WorkloadSpec::ramsey(SC98_PROBLEM),
            step_budget: SC98_STEP_BUDGET,
            use_forecasts: true,
            ..SchedulerConfig::default()
        },
        ..DeployConfig::default()
    })
    .service_hosts(&services)
    .spawn(&mut sim);
    let sched_addrs = dep.scheduler_addrs();

    let nws_server = sim.spawn("nws-server", services.state, Box::new(NwsServer::new()));
    let sensor_hosts: Vec<HostId> = services
        .gossips
        .iter()
        .chain(services.schedulers.iter())
        .copied()
        .collect();
    let first = nws_server.0 + 1;
    let sensor_pids: Vec<u64> = (0..sensor_hosts.len() as u32)
        .map(|i| (first + i) as u64)
        .collect();
    for (i, &host) in sensor_hosts.iter().enumerate() {
        let peers: Vec<u64> = sensor_pids
            .iter()
            .copied()
            .filter(|&p| p != sensor_pids[i])
            .collect();
        sim.spawn(
            &format!("nws-sensor-{i}"),
            host,
            Box::new(NwsSensor::new(SensorConfig {
                peers,
                server: nws_server.0 as u64,
                ..SensorConfig::default()
            })),
        );
    }

    let infra: Vec<String> = infra_builds.iter().map(|b| b.name.clone()).collect();
    for build in infra_builds {
        let client_scheds: Vec<u64> = match (&build.relay, build.relay_host) {
            (Some(label), Some(host)) => {
                let relay = sim.spawn(
                    label,
                    host,
                    Box::new(Relay::new(label, sched_addrs.clone())),
                );
                vec![relay.0 as u64]
            }
            _ => sched_addrs.clone(),
        };
        let template = ClientConfig {
            workload: WorkloadSpec::ramsey(SC98_PROBLEM),
            schedulers: client_scheds,
            state_server: Some(dep.state_addr()),
            report_interval: SimDuration::from_secs(60),
            chunk_ops: build.chunk_ops,
            ops_per_step: (build.chunk_ops / 100).max(1),
            execute_real: false,
            infra: build.name.clone(),
            checkpoint_every_chunks: Some(10),
            static_timeouts: None,
        };
        sim.spawn(
            &format!("sup-{}", build.name),
            services.log,
            Box::new(InfraSupervisor::new(InfraSpec {
                name: build.name.clone(),
                hosts: build.hosts,
                invocation_delay: build.invocation_delay,
                stagger: build.stagger,
                client_template: template,
                sample_interval: SimDuration::from_secs(300),
            })),
        );
    }
    t.spawn_ns = tr.end(open);
    let built = Built {
        sim,
        horizon: SimTime::ZERO + duration,
        dep,
        fault_end: SimTime::ZERO,
        infra,
    };
    (built, t)
}

fn site_spec(name: &str, spikes: Vec<SpikeLoad>) -> SiteSpec {
    let base = ConstantLoad(0.05);
    let load: Box<dyn LoadTrace> = if spikes.is_empty() {
        Box::new(base)
    } else {
        let mut parts: Vec<Box<dyn LoadTrace>> = vec![Box::new(base)];
        for s in spikes {
            parts.push(Box::new(s));
        }
        Box::new(CompositeLoad(parts))
    };
    SiteSpec {
        name: name.to_string(),
        lan_latency: SimDuration::from_micros(200),
        lan_bandwidth: 12.5e6,
        wan_latency: SimDuration::from_millis(15),
        wan_bandwidth: 2.5e6,
        load,
    }
}

fn spikes_for(compiled: Option<&CompiledFaults>, role: SiteRole) -> Vec<SpikeLoad> {
    compiled
        .map(|c| {
            c.spikes
                .iter()
                .filter(|s| s.site == role)
                .map(|s| SpikeLoad {
                    start: s.from,
                    end: s.until,
                    level: s.level,
                })
                .collect()
        })
        .unwrap_or_default()
}

/// One chaos-campaign cell: the three-site world of `ew-chaos` with the
/// compiled plan applied.
fn chaos(
    workload: &WorkloadSpec,
    plan: Option<&FaultPlan>,
    seed: u64,
    static_arm: bool,
    tr: &mut Tracer,
) -> (Built, SetupTimes) {
    let mut t = SetupTimes::default();
    let horizon = SimDuration::from_secs(CHAOS_HORIZON_S);
    let (compiled, ns) = tr.time("chaos.compile", || {
        plan.map(|p| p.compile(seed, horizon, N_COMPUTE))
    });
    t.compile_ns = ns;
    let compiled = compiled.as_ref();

    let open = tr.begin("infra.build");
    let mut net = NetModel::new(0.05);
    let service = net.add_site(site_spec(
        "service",
        spikes_for(compiled, SiteRole::Service),
    ));
    let backup = net.add_site(site_spec("backup", spikes_for(compiled, SiteRole::Backup)));
    let pool_site = net.add_site(site_spec("pool", spikes_for(compiled, SiteRole::Pool)));
    let site_of = |role: SiteRole| -> SiteId {
        match role {
            SiteRole::Service => service,
            SiteRole::Backup => backup,
            SiteRole::Pool => pool_site,
        }
    };
    if let Some(c) = compiled {
        for p in &c.partitions {
            net.add_partition(Partition {
                a: site_of(p.site),
                b: p.peer.map(site_of),
                from: p.from,
                until: p.until,
            });
        }
        for i in &c.impairments {
            net.add_impairment(Impairment {
                site: site_of(i.site),
                from: i.from,
                until: i.until,
                drop: i.drop,
                duplicate: i.duplicate,
            });
        }
    }
    let mut hosts = HostTable::new();
    let avail = |role: HostRole| {
        compiled
            .and_then(|c| c.host_fault(role))
            .cloned()
            .unwrap_or_default()
    };
    let add_host = |hosts: &mut HostTable, name: &str, site, speed, role| -> HostId {
        let mut h = HostSpec::dedicated(name, site, speed);
        h.availability = avail(role);
        hosts.add(h)
    };
    let g0 = hosts.add(HostSpec::dedicated("gossip0", service, 5e7));
    let g1 = hosts.add(HostSpec::dedicated("gossip1", service, 5e7));
    let h_s0 = add_host(
        &mut hosts,
        "sched0",
        service,
        8e7,
        HostRole::PrimaryScheduler,
    );
    let h_state = add_host(&mut hosts, "state", service, 5e7, HostRole::StateServer);
    let h_log = hosts.add(HostSpec::dedicated("log", service, 5e7));
    let h_s1 = add_host(&mut hosts, "sched1", backup, 8e7, HostRole::BackupScheduler);
    let pool: Vec<HostId> = (0..N_COMPUTE)
        .map(|i| {
            add_host(
                &mut hosts,
                &format!("pool{i}"),
                pool_site,
                1e8,
                HostRole::Compute(i),
            )
        })
        .collect();
    t.infra_ns = tr.end(open);

    let (mut sim, ns) = tr.time("sim.new", || Sim::new(net, hosts, seed));
    t.sim_new_ns = ns;
    let (dep, ns) = tr.time("toolkit.spawn", || {
        let dep = Deployment::builder(DeployConfig {
            sched: SchedulerConfig {
                workload: workload.clone(),
                step_budget: CHAOS_STEP_BUDGET,
                ..SchedulerConfig::default()
            },
            ..DeployConfig::default()
        })
        .gossip_pool(&[g0, g1])
        .schedulers(&[h_s0, h_s1])
        .state_manager(h_state)
        .log_server(h_log)
        .spawn(&mut sim);
        sim.spawn(
            "chaos",
            h_log,
            Box::new(ChaosInjector {
                faults: compiled.map_or(0, |c| c.faults_injected),
            }),
        );
        sim.spawn(
            "pool-sup",
            h_log,
            Box::new(InfraSupervisor::new(InfraSpec {
                name: "pool".into(),
                hosts: pool,
                invocation_delay: SimDuration::from_secs(5),
                stagger: SimDuration::from_secs(2),
                client_template: ClientConfig {
                    workload: workload.clone(),
                    schedulers: dep.scheduler_addrs(),
                    state_server: Some(dep.state_addr()),
                    chunk_ops: 100_000_000,
                    ops_per_step: 1_000_000,
                    checkpoint_every_chunks: Some(5),
                    static_timeouts: static_arm.then_some(ew_chaos::campaign::STATIC_TIMEOUT),
                    ..ClientConfig::default()
                },
                sample_interval: SimDuration::from_secs(30),
            })),
        );
        dep
    });
    t.spawn_ns = ns;
    let built = Built {
        sim,
        horizon: SimTime::ZERO + horizon,
        dep,
        fault_end: compiled.map_or(SimTime::ZERO, |c| c.last_fault_end),
        infra: vec!["pool".into()],
    };
    (built, t)
}

/// Run a built world to its horizon: in one `run_until` call, or in
/// fixed simulated slices of `slice` (each timed as its own span).
pub fn run(b: &mut Built, slice: Option<SimDuration>, tr: &mut Tracer) -> RunTimes {
    let mut out = RunTimes::default();
    let end = b.horizon.as_micros();
    let allocs = thread_allocs();
    let open = tr.begin("sim.run");
    match slice {
        None => {
            let (stats, _) = tr.time("sim.run_until", || b.sim.run_until(b.horizon));
            out.events = stats.events;
        }
        Some(step) => {
            let mut t = 0;
            while t < end {
                t = (t + step.as_micros()).min(end);
                let (stats, ns) =
                    tr.time("sim.run_until", || b.sim.run_until(SimTime::from_micros(t)));
                out.events += stats.events;
                out.slice_ns.push(ns);
            }
        }
    }
    out.run_ns = tr.end(open);
    out.allocs = thread_allocs() - allocs;
    out
}

/// Re-verify every counter-example the schedulers received and the one
/// persistent state holds, with `ew_ramsey::verify_counter_example`.
fn verify_artifacts(b: &Built, k: usize) -> (u64, u64) {
    let mut blobs: Vec<Vec<u8>> = Vec::new();
    for &s in &b.dep.schedulers {
        if let Some(a) = b
            .sim
            .with_process::<SchedulerServer, _>(s, |s| s.artifacts.clone())
        {
            blobs.extend(a);
        }
    }
    let key = format!("ramsey/best/{k}");
    if let Some(Some(v)) = b
        .sim
        .with_process::<PersistentStateServer, _>(b.dep.state, |p| p.get(&key).cloned())
    {
        blobs.push(v);
    }
    let invalid = blobs
        .iter()
        .filter(|bytes| {
            let valid = ColoredGraph::from_bytes(bytes).is_some_and(|g| {
                matches!(
                    verify_counter_example(&g, k, &mut OpsCounter::new()),
                    Verification::Valid { .. }
                )
            });
            !valid
        })
        .count() as u64;
    (blobs.len() as u64, invalid)
}

/// Read a finished world back: counters, the workload's throughput bins
/// and, where clients executed for real, the re-verified artifacts.
pub fn report(spec: &Spec, b: &Built, events: u64) -> WorldOut {
    let tele = b.sim.telemetry();
    let m = b.sim.metrics();
    let counters = COUNTERS.iter().map(|c| m.counter(c)).collect();
    let table_hit_rate = tele
        .gauges()
        .into_iter()
        .find(|(n, _)| *n == "ramsey.table_hit_rate")
        .map_or(0.0, |(_, v)| v);
    let end = b.horizon;
    let bins = match spec {
        Spec::Sc98 { .. } => {
            // Summed in name order, as `run_sc98` sums its per-infra map.
            let mut names = b.infra.clone();
            names.sort();
            let per: Vec<Vec<BinnedPoint>> = names
                .iter()
                .map(|name| {
                    bin_rate(
                        &m.series(&format!("ops_series.{name}")),
                        SimTime::ZERO,
                        end,
                        SimDuration::from_secs(SC98_BIN_S),
                    )
                })
                .collect();
            let n = per.first().map_or(0, Vec::len);
            (0..n)
                .map(|i| per.iter().map(|s| s[i].value).sum())
                .collect()
        }
        Spec::Chaos { .. } => {
            let bin_us = CHAOS_BIN_S * 1_000_000;
            let n = (end.as_micros() / bin_us) as usize;
            let mut bins = vec![0.0; n];
            for (t, ops) in m.series("ops_series.pool") {
                let i = (t.as_micros() / bin_us) as usize;
                if i < n {
                    bins[i] += ops;
                }
            }
            bins
        }
        Spec::Mega { .. } | Spec::RamseyReal { .. } => Vec::new(),
    };
    let (artifacts_checked, artifacts_invalid) = match spec {
        Spec::RamseyReal { .. } => verify_artifacts(b, R44_17.k as usize),
        _ => (0, 0),
    };
    let credited = b
        .dep
        .schedulers
        .iter()
        .filter_map(|&s| {
            b.sim.with_process::<SchedulerServer, _>(s, |s| {
                let mut ids: Vec<u64> = s.results.iter().map(|r| r.unit_id).collect();
                ids.sort_unstable();
                ids.dedup();
                ids.len() as u64
            })
        })
        .sum();
    WorldOut {
        order_hash: b.sim.event_order_hash(),
        credited,
        events,
        counters,
        table_hit_rate,
        bins,
        fault_end_s: b.fault_end.as_secs_f64(),
        horizon_s: b.horizon.as_secs_f64(),
        hosts: b.sim.hosts().len(),
        components: b.dep.schedulers.len() + b.dep.gossips.len(),
        artifacts_checked,
        artifacts_invalid,
    }
}

/// Counter values summed over worlds.
pub fn sum_counters(worlds: &[WorldOut]) -> BTreeMap<&'static str, f64> {
    COUNTERS
        .iter()
        .map(|&c| (c, worlds.iter().map(|w| w.counter(c)).sum()))
        .collect()
}

#[cfg(test)]
mod tests {
    //! The benchmark's worlds must be the program's own: same event
    //! order, same outcomes.

    use super::*;

    #[test]
    fn chaos_cell_matches_the_campaign_runner() {
        let plan = ew_chaos::standard_plans().remove(0);
        let workload = WorkloadSpec::ramsey(R44_17);
        let cfg = ew_chaos::CampaignConfig {
            seeds: vec![5],
            horizon: SimDuration::from_secs(CHAOS_HORIZON_S),
            plans: vec![plan.clone()],
            workload: workload.clone(),
        };
        let campaign = ew_chaos::run_campaign_threads(&cfg, 1);
        let rep = &campaign.reports[0];
        let mut tr = Tracer::new(false);
        for (static_arm, arm) in [(false, &rep.adaptive), (true, &rep.static_baseline)] {
            let spec = Spec::Chaos {
                workload: workload.clone(),
                plan: Some(plan.clone()),
                seed: 5,
                static_arm,
            };
            let (mut b, _) = build(&spec, &mut tr);
            let r = run(&mut b, None, &mut tr);
            let out = report(&spec, &b, r.events);
            assert_eq!(out.counter("client.units_completed") as u64, arm.units);
            assert_eq!(out.bins, arm.bins);
            assert_eq!(out.fault_end_s, rep.fault_end_secs);
        }
    }

    #[test]
    fn sc98_world_matches_run_sc98() {
        let seed = 11;
        let expected = everyware::run_sc98(&everyware::Sc98Config {
            seed,
            ..everyware::Sc98Config::default()
        });
        let mut tr = Tracer::new(false);
        let spec = Spec::Sc98 { seed };
        let (mut b, _) = build(&spec, &mut tr);
        let r = run(&mut b, None, &mut tr);
        let out = report(&spec, &b, r.events);
        assert_eq!(out.order_hash, expected.event_order_hash);
        let total: Vec<f64> = expected.total.iter().map(|p| p.value).collect();
        assert_eq!(out.bins, total);
    }

    #[test]
    fn mega_world_matches_the_mega_campaign_and_slicing_keeps_the_order() {
        let seed = 21;
        let cfg = ew_bench::mega::MegaConfig::full(seed, NetworkModel::Flow);
        let cfg = ew_bench::mega::MegaConfig {
            shards: 1,
            horizon: SimDuration::from_secs(MEGA_HORIZON_S),
            ..cfg
        };
        let expected = ew_bench::mega::run_mega(&cfg, 1).shards.remove(0);
        let mut tr = Tracer::new(false);
        let spec = Spec::Mega { seed };
        let (mut b, _) = build(&spec, &mut tr);
        let r = run(&mut b, Some(SimDuration::from_secs(5)), &mut tr);
        let out = report(&spec, &b, r.events);
        assert_eq!(r.slice_ns.len() as u64, MEGA_HORIZON_S / 5);
        assert_eq!(out.order_hash, expected.order_hash);
        assert_eq!(out.events, expected.events);
        assert_eq!(out.counter("client.units_completed") as u64, expected.units);
    }

    #[test]
    fn ramsey_real_stores_only_verified_counter_examples() {
        let spec = Spec::RamseyReal { seed: 3 };
        let mut tr = Tracer::new(false);
        let (mut b, _) = build(&spec, &mut tr);
        b.horizon = SimTime::from_secs(10);
        let r = run(&mut b, None, &mut tr);
        let out = report(&spec, &b, r.events);
        assert!(out.counter("ramsey.table_lookups") > 0.0);
        assert!(out.artifacts_checked > 0, "no counter-example found");
        assert_eq!(out.artifacts_invalid, 0);
        assert_eq!(out.counter("client.stores_rejected"), 0.0);
    }
}
