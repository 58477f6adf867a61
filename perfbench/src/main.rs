//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <mega-rpc|sc98-day|chaos-mixed|ramsey-real>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process, on one thread. The run builds and runs the
//! workload's simulated worlds repeatedly for `--seconds` of host time,
//! checks that every repetition produced the same Grid outcomes and
//! event-order hashes, and prints one JSON object as its last line.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! untraced and traced repetitions (spans around each call into a crate,
//! the run cut into fixed simulated slices), runs the layer probes, and
//! reports the per-layer metrics. See `NOTES.md` for the metric map.

mod alloc;
mod probes;
mod spans;
mod stats;
mod worlds;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use everyware::{coefficient_of_variation, BinnedPoint, JUDGING_END_S, JUDGING_START_S, WINDOW_S};
use ew_sim::{SimDuration, SimTime};
use ew_workload::WorkloadSpec;

use spans::Tracer;
use stats::{failed_share, mean, median, quantile, recovery_s};
use worlds::{SetupTimes, Spec, WorldOut};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    MegaRpc,
    Sc98Day,
    ChaosMixed,
    RamseyReal,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::MegaRpc,
        Workload::Sc98Day,
        Workload::ChaosMixed,
        Workload::RamseyReal,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::MegaRpc => "mega-rpc",
            Workload::Sc98Day => "sc98-day",
            Workload::ChaosMixed => "chaos-mixed",
            Workload::RamseyReal => "ramsey-real",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The worlds one repetition builds and runs, all derived from `seed`.
    fn specs(self, seed: u64) -> Vec<Spec> {
        match self {
            Workload::MegaRpc => vec![Spec::Mega { seed }],
            Workload::Sc98Day => vec![Spec::Sc98 { seed }],
            Workload::RamseyReal => vec![Spec::RamseyReal { seed }],
            Workload::ChaosMixed => {
                let mut specs = Vec::new();
                // The standard full campaign: seeds `seed` and `seed + 1`.
                for (workload, seed) in chaos_workloads()
                    .into_iter()
                    .flat_map(|w| [(w.clone(), seed), (w, seed.wrapping_add(1))])
                {
                    let plans = std::iter::once(None)
                        .chain(ew_chaos::standard_plans().into_iter().map(Some));
                    for plan in plans {
                        for static_arm in [false, true] {
                            specs.push(Spec::Chaos {
                                workload: workload.clone(),
                                plan: plan.clone(),
                                seed,
                                static_arm,
                            });
                        }
                    }
                }
                specs
            }
        }
    }

    /// Simulated slice length of the traced run.
    fn slice(self) -> SimDuration {
        SimDuration::from_secs(match self {
            Workload::MegaRpc => 5,
            Workload::Sc98Day => 600,
            Workload::ChaosMixed => 60,
            Workload::RamseyReal => 1,
        })
    }
}

/// The applications the chaos campaign sweeps, in the campaign's shapes.
fn chaos_workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::ramsey(worlds::R44_17),
        WorkloadSpec::by_name("dag").expect("dag workload"),
        WorkloadSpec::by_name("faas").expect("faas workload"),
    ]
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <mega-rpc|sc98-day|chaos-mixed|ramsey-real> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One repetition: every world of the workload built, run and read back.
struct Rep {
    traced: bool,
    setup: SetupTimes,
    run_ns: u64,
    report_ns: u64,
    events: u64,
    allocs: u64,
    slice_ns: Vec<u64>,
    worlds: Vec<WorldOut>,
}

fn run_rep(specs: &[Spec], slice: Option<SimDuration>, tr: &mut Tracer) -> Rep {
    let mut rep = Rep {
        traced: tr.enabled(),
        setup: SetupTimes::default(),
        run_ns: 0,
        report_ns: 0,
        events: 0,
        allocs: 0,
        slice_ns: Vec::new(),
        worlds: Vec::new(),
    };
    for spec in specs {
        let (mut built, setup) = worlds::build(spec, tr);
        rep.setup.add(&setup);
        let r = worlds::run(&mut built, slice, tr);
        let (out, ns) = tr.time("core.report", || worlds::report(spec, &built, r.events));
        rep.run_ns += r.run_ns;
        rep.report_ns += ns;
        rep.events += r.events;
        rep.allocs += r.allocs;
        rep.slice_ns.extend(r.slice_ns);
        rep.worlds.push(out);
    }
    rep
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Metrics in print order: name → (value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The Grid outcomes every workload reports end to end.
fn grid_metrics(specs: &[Spec], worlds: &[WorldOut], failed_checks: u64) -> Metrics {
    // Chaos counts its adaptive arms; every other workload all its worlds.
    let counted: Vec<&WorldOut> = specs
        .iter()
        .zip(worlds)
        .filter(|(s, _)| {
            !matches!(
                s,
                Spec::Chaos {
                    static_arm: true,
                    ..
                }
            )
        })
        .map(|(_, w)| w)
        .collect();
    let sum = |name: &str| counted.iter().map(|w| w.counter(name)).sum::<f64>();
    // Useful ops per simulated second of one world, averaged over the
    // counted worlds.
    let sim_s: f64 = counted.iter().map(|w| w.horizon_s).sum();
    let granted = worlds
        .iter()
        .map(|w| w.counter("sched.grants"))
        .sum::<f64>();
    let credited = worlds.iter().map(|w| w.credited).sum();
    vec![
        ("units", sum("client.units_completed"), "count"),
        ("grid_gops", sum("ops.total") / sim_s / 1e9, "Gop/s"),
        (
            "failed_share",
            failed_share(granted as u64, credited, failed_checks),
            "ratio",
        ),
    ]
}

/// Workload-specific Grid outcomes (0 where the workload has no such
/// outcome): the SC98 figure criteria, the chaos A/B figures, and the
/// validated artifacts of real execution.
fn outcome_metrics(wl: Workload, specs: &[Spec], worlds: &[WorldOut]) -> Metrics {
    let mut cov = 0.0;
    let mut judging = 0.0;
    let mut recovery = 0.0;
    let mut lost = 0.0;
    let mut slo = 0.0;
    let mut artifacts = 0.0;
    match wl {
        Workload::Sc98Day => {
            let bins = &worlds[0].bins;
            let bin = worlds::SC98_BIN_S;
            let at = |i: usize| i as u64 * bin;
            let points: Vec<BinnedPoint> = bins
                .iter()
                .enumerate()
                .map(|(i, &value)| BinnedPoint {
                    t: SimTime::from_secs(at(i)),
                    value,
                })
                .collect();
            cov = coefficient_of_variation(&points);
            // Pre-judging reference: after the first hour of ramp-up, up to
            // the bin before the judging window (the `run_sc98` window).
            let pre: Vec<f64> = (0..bins.len())
                .filter(|&i| at(i) >= 3600 && at(i) < JUDGING_START_S - bin)
                .map(|i| bins[i])
                .collect();
            let reference = mean(&pre);
            let dip = (0..bins.len())
                .filter(|&i| at(i) >= JUDGING_START_S - bin && at(i) < JUDGING_END_S + 1800)
                .map(|i| bins[i])
                .fold(f64::INFINITY, f64::min);
            judging = dip / reference;
            recovery = recovery_s(
                bins,
                bin as f64,
                JUDGING_END_S as f64,
                reference,
                ew_chaos::campaign::RECOVERY_FRACTION,
                WINDOW_S as f64,
            );
        }
        Workload::ChaosMixed => {
            use ew_chaos::campaign::{RECOVERY_FRACTION, SLO_FRACTION, WARMUP_BINS};
            fn post_warmup(bins: &[f64]) -> &[f64] {
                &bins[WARMUP_BINS.min(bins.len())..]
            }
            let (mut l, mut r, mut s) = (Vec::new(), Vec::new(), Vec::new());
            // Each plan's adaptive arm against the no-fault adaptive arm
            // of its (application, seed), which `specs` lists first.
            let mut base: Option<&WorldOut> = None;
            for (spec, w) in specs.iter().zip(worlds) {
                match spec {
                    Spec::Chaos {
                        static_arm: true, ..
                    } => {}
                    Spec::Chaos { plan: None, .. } => base = Some(w),
                    _ => {
                        let b = base.expect("no-fault reference precedes its plans");
                        let b_units = b.counter("client.units_completed");
                        let units = w.counter("client.units_completed");
                        l.push((100.0 * (b_units - units) / b_units.max(1.0)).max(0.0));
                        let b_mean = mean(post_warmup(&b.bins));
                        r.push(recovery_s(
                            &w.bins,
                            worlds::CHAOS_BIN_S as f64,
                            w.fault_end_s,
                            b_mean,
                            RECOVERY_FRACTION,
                            w.horizon_s,
                        ));
                        let tail = post_warmup(&w.bins);
                        let ok = tail.iter().filter(|&&v| v >= SLO_FRACTION * b_mean);
                        s.push(ok.count() as f64 / tail.len().max(1) as f64);
                    }
                }
            }
            lost = mean(&l);
            recovery = mean(&r);
            slo = mean(&s);
        }
        Workload::RamseyReal => {
            artifacts = worlds
                .iter()
                .map(|w| w.counter("client.stores_accepted"))
                .sum();
        }
        Workload::MegaRpc => {}
    }
    vec![
        ("grid_cov", cov, "ratio"),
        ("judging_min_frac", judging, "ratio"),
        ("recovery_s", recovery, "s"),
        ("work_lost_pct", lost, "%"),
        ("slo_ok_frac", slo, "ratio"),
        ("artifacts", artifacts, "count"),
    ]
}

/// Host-time budgets of the layer probes.
const PROBE_BUDGET: Duration = Duration::from_millis(150);

/// The per-layer metrics of the traced run.
fn layer_metrics(wl: Workload, specs: &[Spec], reps: &[Rep], seed: u64) -> Metrics {
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let med =
        |rs: &[&Rep], f: &dyn Fn(&Rep) -> f64| median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>());
    let ms = |ns: u64| ns as f64 / 1e6;
    let first = traced[0];
    let c = worlds::sum_counters(&first.worlds);
    let run_ms = med(&traced, &|r| ms(r.run_ns));
    let untraced_ms = med(&untraced, &|r| ms(r.run_ns));
    let events = first.events as f64;
    let slices: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.slice_ns.iter().map(|&ns| ms(ns)))
        .collect();
    let hits = c["net.payload_pool_hits"];
    let pool_total = hits + c["net.payload_pool_misses"];
    let real_worlds: Vec<&WorldOut> = first
        .worlds
        .iter()
        .filter(|w| w.counter("ramsey.table_lookups") > 0.0)
        .collect();

    // Probes, at the workload's sizes.
    let (problem, step_budget, real) = specs[0].ramsey_units();
    let spec = WorkloadSpec::ramsey(problem);
    let mut gen = spec.build(1);
    let unit = gen
        .generate(1, SimTime::ZERO, 0, step_budget)
        .expect("ramsey generates units");
    let result = if real {
        ew_workload::execute_unit(&unit).0
    } else {
        gen.synth_result(&unit, step_budget, step_budget * 10_000)
    };
    let largest = |f: fn(&WorldOut) -> usize| first.worlds.iter().map(f).max().unwrap_or(0);
    let sim_ns = probes::sim_event_ns(PROBE_BUDGET, largest(|w| w.hosts));
    let codec_ns = probes::codec_ns(PROBE_BUDGET, &unit, &result);
    let forecast_ns = probes::forecast_ns(PROBE_BUDGET, seed);
    let reconcile_us = probes::reconcile_us(PROBE_BUDGET, largest(|w| w.components));
    let validate_us = probes::validate_us(PROBE_BUDGET);
    let (unit_ms, lookups_per_unit) = probes::unit_ms(PROBE_BUDGET, problem, step_budget, seed);

    // Attribution: probe cost × the layer's count ÷ traced run time.
    // Real units have rate-scaled budgets, so the Ramsey count is the
    // run's delta-table lookups in probe-unit equivalents.
    let real_units = c["ramsey.table_lookups"] / lookups_per_unit;
    // Only artifact stores pass the validator; checkpoints do not.
    let validated = c["client.stores_accepted"] + c["client.stores_rejected"];
    let credited = first.worlds.iter().map(|w| w.credited).sum::<u64>() as f64;
    let share = |cost_ms: f64| cost_ms / run_ms;
    let attr = [
        ("attr.sim_share", share(sim_ns * events / 1e6)),
        (
            "attr.proto_share",
            share(codec_ns * c["net.messages"] / 1e6),
        ),
        (
            "attr.forecast_share",
            share(forecast_ns * (c["nws.reports"] + c["sched.reports"]) / 1e6),
        ),
        (
            "attr.gossip_share",
            share(reconcile_us * (c["gossip.polls_sent"] + c["gossip.syncs_sent"]) / 1e3),
        ),
        ("attr.state_share", share(validate_us * validated / 1e3)),
        ("attr.ramsey_share", share(unit_ms * real_units)),
    ];
    let attributed: f64 = attr.iter().map(|(_, v)| v).sum();

    let mut m: Metrics = vec![
        ("sim.run_ms", run_ms, "ms"),
        ("sim.events", events, "count"),
        ("sim.ns_per_event", run_ms * 1e6 / events, "ns"),
        ("sim.slice_ms_p50", quantile(&slices, 0.5), "ms"),
        ("sim.slice_ms_p90", quantile(&slices, 0.9), "ms"),
        ("sim.slice_samples", slices.len() as f64, "count"),
        (
            "sim.allocs_per_event",
            first.allocs as f64 / events,
            "ratio",
        ),
        ("sim.probe_ns_per_event", sim_ns, "ns"),
        ("kernel.wheel_cascades", c["kernel.wheel_cascades"], "count"),
        (
            "kernel.insert_fast_path",
            c["kernel.insert_fast_path"],
            "count",
        ),
        (
            "kernel.timers_cancelled",
            c["kernel.timers_cancelled"],
            "count",
        ),
        ("kernel.batch_ties", c["kernel.batch_ties"], "count"),
        ("net.messages", c["net.messages"], "count"),
        ("net.bytes", c["net.bytes"], "B"),
        (
            "net.dropped",
            c["net.dropped_partition"] + c["net.dropped_impaired"],
            "count",
        ),
        ("net.flows_started", c["net.flows_started"], "count"),
        (
            "net.pool_hit_ratio",
            if pool_total > 0.0 {
                hits / pool_total
            } else {
                0.0
            },
            "ratio",
        ),
        ("rpc.retries", c["rpc.retries"], "count"),
        ("rpc.breaker_open", c["rpc.breaker_open"], "count"),
        ("proto.codec_ns", codec_ns, "ns"),
        ("nws.reports", c["nws.reports"], "count"),
        ("nws.probes_lost", c["nws.probes_lost"], "count"),
        ("sched.reports", c["sched.reports"], "count"),
        ("forecast.update_predict_ns", forecast_ns, "ns"),
        ("gossip.polls_sent", c["gossip.polls_sent"], "count"),
        ("gossip.poll_timeouts", c["gossip.poll_timeouts"], "count"),
        ("gossip.syncs_sent", c["gossip.syncs_sent"], "count"),
        ("clique.elections", c["clique.elections"], "count"),
        ("gossip.reconcile_us", reconcile_us, "us"),
        ("sched.grants", c["sched.grants"], "count"),
        ("sched.results", c["sched.results"], "count"),
        (
            "sched.useful_ratio",
            if c["sched.grants"] > 0.0 {
                credited / c["sched.grants"]
            } else {
                0.0
            },
            "ratio",
        ),
        ("client.abandons", c["client.abandons"], "count"),
        ("client.failovers", c["client.failovers"], "count"),
        ("state.stores_ok", c["state.stores_ok"], "count"),
        ("state.stores_rejected", c["state.stores_rejected"], "count"),
        ("state.validate_us", validate_us, "us"),
        ("ramsey.table_lookups", c["ramsey.table_lookups"], "count"),
        (
            "ramsey.table_hit_rate",
            mean(
                &real_worlds
                    .iter()
                    .map(|w| w.table_hit_rate)
                    .collect::<Vec<_>>(),
            ),
            "ratio",
        ),
        ("ramsey.unit_ms", unit_ms, "ms"),
        (
            "infra.build_ms",
            med(&traced, &|r| ms(r.setup.infra_ns)),
            "ms",
        ),
        (
            "sim.new_ms",
            med(&traced, &|r| ms(r.setup.sim_new_ns)),
            "ms",
        ),
        (
            "toolkit.spawn_ms",
            med(&traced, &|r| ms(r.setup.spawn_ns)),
            "ms",
        ),
        (
            "chaos.compile_ms",
            med(&traced, &|r| ms(r.setup.compile_ns)),
            "ms",
        ),
        ("core.report_ms", med(&traced, &|r| ms(r.report_ns)), "ms"),
        ("chaos.faults_injected", c["chaos.faults_injected"], "count"),
    ];
    m.extend(attr.iter().map(|&(n, v)| (n, v, "ratio")));
    m.push(("attr.unattributed_share", 1.0 - attributed, "ratio"));
    m.push((
        "trace.overhead_pct",
        100.0 * (run_ms - untraced_ms) / untraced_ms,
        "%",
    ));
    m.extend(outcome_metrics(wl, specs, &first.worlds));
    m
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Set-up samples per repetition: at least `SETUP_MIN_PER_REP`, then
/// more (up to `SETUP_MAX_PER_REP`) while set-up sampling has used less
/// than `SETUP_SHARE` of the elapsed time.
const SETUP_MIN_PER_REP: usize = 3;
const SETUP_MAX_PER_REP: usize = 50;
const SETUP_SHARE: f64 = 0.05;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    let specs = wl.specs(args.seed);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut tr = Tracer::new(false);

    // Set-up samples (every world constructed, then dropped) interleaved
    // with the measured repetitions (untraced, or alternating untraced
    // and traced), so both see the same stretch of host time.
    let mut setup_s = Vec::new();
    let mut setup_spent = 0.0;
    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        let mut k = 0;
        while k < SETUP_MIN_PER_REP
            || (k < SETUP_MAX_PER_REP && setup_spent < SETUP_SHARE * start.elapsed().as_secs_f64())
        {
            let mut t = SetupTimes::default();
            for spec in &specs {
                let (built, st) = worlds::build(spec, &mut tr);
                t.add(&st);
                drop(built);
            }
            let secs = t.total_ns() as f64 / 1e9;
            setup_s.push(secs);
            setup_spent += secs;
            k += 1;
        }
        let traced = args.trace && reps.len() % 2 == 1;
        tr.set_enabled(traced);
        let slice = traced.then(|| wl.slice());
        let t = Instant::now();
        reps.push(run_rep(&specs, slice, &mut tr));
        let last = t.elapsed();
        if reps.len() == 1 {
            // The workload's peak, independent of how many repetitions
            // the host's speed lets into the budget.
            peak_rss = peak_rss_mib();
        }
        let need = if args.trace { 2 } else { 1 };
        if reps.len() >= need && start.elapsed() + last / 2 >= budget {
            break;
        }
    }
    tr.set_enabled(false);

    // Output checks: every repetition must reproduce the first exactly
    // (Grid outcomes, counters, event-order hashes), every artifact must
    // re-verify, and persistent state must have refused none of them.
    let reference = &reps[0].worlds;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for rep in &reps {
        for (i, w) in rep.worlds.iter().enumerate() {
            attempted += 1;
            let ok = *w == reference[i]
                && w.artifacts_invalid == 0
                && w.counter("client.stores_rejected") == 0.0
                && w.events > 0;
            if !ok {
                failed += 1;
                eprintln!(
                    "perfbench: check failed on {} world {i} ({} repetition)",
                    wl.name(),
                    if rep.traced { "traced" } else { "untraced" }
                );
            }
        }
    }

    let mut metrics: Metrics = if args.trace {
        layer_metrics(wl, &specs, &reps, args.seed)
    } else {
        let walls: Vec<f64> = reps.iter().map(|r| r.run_ns as f64 / 1e9).collect();
        setup_s.extend(reps.iter().map(|r| r.setup.total_ns() as f64 / 1e9));
        let mut m = vec![
            ("wall_s", median(&walls), "s"),
            ("setup_s", median(&setup_s), "s"),
            ("peak_rss_mib", peak_rss, "MiB"),
        ];
        m.extend(grid_metrics(&specs, &reps[0].worlds, failed));
        m
    };
    for (name, v, _) in metrics.iter_mut() {
        if !v.is_finite() {
            eprintln!("perfbench: metric {name} is not a number");
            *v = 0.0;
            failed += 1;
        }
    }

    if args.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{}-seed{}.jsonl", wl.name(), args.seed);
        let written =
            std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tr.to_jsonl()));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }

    println!(
        "# {} seed {} trace {}: {} repetitions of {} worlds in {:.1} s",
        wl.name(),
        args.seed,
        u8::from(args.trace),
        reps.len(),
        specs.len(),
        start.elapsed().as_secs_f64()
    );
    let walls: Vec<String> = reps
        .iter()
        .map(|r| {
            format!(
                "{:.3}{}",
                r.run_ns as f64 / 1e9,
                if r.traced { "t" } else { "" }
            )
        })
        .collect();
    println!(
        "#   repetition run times (s, t = traced): {}",
        walls.join(" ")
    );
    for (name, v, unit) in &metrics {
        println!("#   {name:<28} {v:.6} {unit}");
    }
    println!("{}", json_line(failed == 0, attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload sc98-day --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::Sc98Day);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload mega-rpc --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload mega-rpc --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload mega-rpc --seed 1 --seconds 1 --trace 2")).is_err());
    }

    #[test]
    fn json_line_has_the_result_schema() {
        let line = json_line(true, 3, 0, &vec![("wall_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
