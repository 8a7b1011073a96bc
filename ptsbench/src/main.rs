//! `ptsbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path ptsbench/Cargo.toml -- \
//!     --workload <qap-kernel|qap-swarm|place-paper|qap-proc> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One closed loop: a single process runs one search at a time and starts
//! the next only when the previous one returns. Instances and run seeds
//! come from `--seed`; the program receives only the generated inputs.
//! Every sample's output is checked. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `README.md` next to this file for what each workload
//! and metric is for.

mod calib;
mod layers;
mod stats;
mod wirebench;

use calib::Calibrator;
use layers::{Layer, TracedDomain};
use pts_core::domain::{PtsDomain, SnapshotOf};
use pts_core::proc::ProcDomain;
use pts_core::wire::WireProblem;
use pts_core::{
    take_snapshot_meter, take_trials, AsyncEngine, ClockDomain, ExecutionEngine, PlacementDomain,
    ProcEngine, Pts, PtsConfig, PtsRun, QapDomain, RunControl, RunReport, SnapshotMeter,
    SyncPolicy, VirtualEngine,
};
use stats::{median, median_of};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Facilities in every QAP workload's instance.
const QAP_N: usize = 256;
/// Timed samples per run, whatever `--seconds` allows.
const MIN_SAMPLES: usize = 3;
/// Set-up repetitions: at least this many, and more until
/// [`SETUP_BUDGET_S`] is spent.
const MIN_SETUPS: usize = 5;
const SETUP_BUDGET_S: f64 = 1.0;
/// Shortest stretch of back-to-back set-ups one repetition times.
const SETUP_BATCH_S: f64 = 0.02;
/// Directory (under this package) for socket files and trace output.
const OUT_DIR: &str = "out";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Engine {
    Async,
    Vt,
    Proc,
}

/// The four workloads; `README.md` records why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    QapKernel,
    QapSwarm,
    PlacePaper,
    QapProc,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::QapKernel,
        Workload::QapSwarm,
        Workload::PlacePaper,
        Workload::QapProc,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::QapKernel => "qap-kernel",
            Workload::QapSwarm => "qap-swarm",
            Workload::PlacePaper => "place-paper",
            Workload::QapProc => "qap-proc",
        }
    }

    fn engine(self) -> Engine {
        match self {
            Workload::QapKernel | Workload::QapSwarm => Engine::Async,
            Workload::PlacePaper => Engine::Vt,
            Workload::QapProc => Engine::Proc,
        }
    }

    /// The quality target as a fraction of the initial cost: one every
    /// seed tried reaches, as late in the run as that allows.
    fn target_frac(self) -> f64 {
        match self {
            Workload::QapKernel => 0.96,
            Workload::QapSwarm => 0.99,
            Workload::PlacePaper => 0.88,
            Workload::QapProc => 0.985,
        }
    }

    /// Seed of the initial solution for a run seeded `run_seed`.
    /// place-paper fixes its initial placement and varies only the run
    /// seed: the fuzzy cost's goals are frozen from the initial placement,
    /// so a new start rescales the cost (best ÷ initial ranged from 0.62 to
    /// 0.81 across starts), far more than the search itself varies.
    fn initial_seed(self, run_seed: u64) -> u64 {
        match self {
            Workload::PlacePaper => 0x3540,
            _ => run_seed,
        }
    }

    /// Distinct searches (instance, initial solution, run seed) a run
    /// cycles through; each runs at least twice within a 20-second run, so
    /// every one is checked to repeat its best cost exactly.
    fn searches(self) -> usize {
        match self {
            Workload::QapKernel | Workload::QapProc | Workload::PlacePaper => 8,
            Workload::QapSwarm => 6,
        }
    }

    fn run(self, run_seed: u64) -> PtsRun {
        let b = Pts::builder().seed(run_seed);
        let b = match self {
            Workload::QapKernel => b
                .tsw_workers(4)
                .clw_workers(2)
                .candidates(32)
                .depth(3)
                .global_iters(4)
                .local_iters(150)
                .sync(SyncPolicy::WaitAll),
            Workload::QapSwarm => b
                .tsw_workers(1024)
                .clw_workers(1)
                .shard_fanout_auto()
                .candidates(5)
                .depth(2)
                .global_iters(5)
                .local_iters(3)
                .differentiate_streams(true)
                .sync(SyncPolicy::WaitAll),
            Workload::PlacePaper => b
                .tsw_workers(8)
                .clw_workers(2)
                .candidates(8)
                .depth(3)
                .global_iters(5)
                .local_iters(30)
                .sync(SyncPolicy::HalfReport),
            // One TSW: with two, the TSWs now and then report the same cost
            // in a round, the master keeps whichever report arrives first,
            // and on proc that is socket timing — about one run in thirty
            // then parts ways with its async twin.
            Workload::QapProc => b
                .tsw_workers(1)
                .clw_workers(1)
                .candidates(5)
                .depth(2)
                .global_iters(500)
                .local_iters(2)
                .sync(SyncPolicy::WaitAll),
        };
        b.build().expect("workload configurations are valid")
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name} <value>"))
    };
    let name = flag("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let number = |name: &str| -> Result<u64, String> {
        flag(name)?
            .parse()
            .map_err(|_| format!("{name} takes a whole number"))
    };
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace,
    })
}

/// SplitMix64: independent, reproducible sub-seeds of the `--seed`.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Progress-callback instants of one proc run.
type Ticks = Arc<Mutex<Vec<Instant>>>;

fn engine<D: ProcDomain>(kind: Engine, ticks: &Ticks) -> Box<dyn ExecutionEngine<D>>
where
    D::Problem: WireProblem,
{
    match kind {
        Engine::Async => Box::new(AsyncEngine::new()),
        Engine::Vt => Box::new(VirtualEngine::paper()),
        Engine::Proc => {
            let ticks = Arc::clone(ticks);
            let control = RunControl::unlimited().with_progress(Arc::new(move |_, _| {
                ticks.lock().expect("ticks lock").push(Instant::now())
            }));
            Box::new(
                ProcEngine::from_current_exe()
                    .expect("the benchmark binary can re-enter itself")
                    .with_control(control),
            )
        }
    }
}

/// The engine a traced search runs on: proc ranks live in other
/// processes, out of the wrapper's reach, so `qap-proc` traces its async
/// twin (the same search, bit for bit, under WaitAll).
fn traced_engine<D: PtsDomain>(kind: Engine) -> Box<dyn ExecutionEngine<TracedDomain<D>>> {
    match kind {
        Engine::Vt => Box::new(VirtualEngine::paper()),
        Engine::Async | Engine::Proc => Box::new(AsyncEngine::new()),
    }
}

/// One sub-seed's search: its own instance, initial solution and run
/// seed. A run cycles through several, so its medians cover more than one
/// trajectory.
struct Search<D: PtsDomain> {
    run: PtsRun,
    domain: D,
    initial: SnapshotOf<D>,
    frozen: D,
    /// The best cost every run of this search must repeat bit for bit: the
    /// first run's, or on qap-proc the async twin's.
    reference: Option<f64>,
    /// The async twin's metered trial count (qap-proc only): the proc run's
    /// exact count, which its workers meter in their own address spaces.
    twin_trials: u64,
}

/// One timed, checked search.
struct Sample {
    calib_loop_s: f64,
    raw_s: f64,
    /// Calibrated wall seconds of `PtsRun::execute_from`.
    run_s: f64,
    trials: u64,
    meter: SnapshotMeter,
    best_cost: f64,
    /// Time at which the merged trace first reaches the workload's quality
    /// target (the run's end when it never does), in the report's clock;
    /// calibrated when that clock is wall time.
    time_to_target_s: f64,
    makespan_s: f64,
    report: RunReport,
    forced_reports: u64,
    /// Calibrated seconds from the start of `execute` to each progress
    /// callback (proc runs only).
    ticks_s: Vec<f64>,
    failure: Option<String>,
}

/// Everything a sample must satisfy, whatever the workload.
fn check<D: PtsDomain>(
    frozen: &D,
    out: &pts_core::EngineOutput<D>,
    expect_best: Option<f64>,
) -> Result<(), String> {
    let o = &out.outcome;
    let recomputed = frozen.cost_of(&o.best);
    if (recomputed - o.best_cost).abs() > 1e-9 * o.best_cost.abs().max(1.0) {
        return Err(format!(
            "best solution re-evaluates to {recomputed}, reported {}",
            o.best_cost
        ));
    }
    if o.best_per_global_iter.windows(2).any(|w| w[1] > w[0]) {
        return Err("best cost per global iteration increased".into());
    }
    if o.best_cost > o.initial_cost {
        return Err(format!(
            "best {} is worse than initial {}",
            o.best_cost, o.initial_cost
        ));
    }
    if !out.report.dead_ranks.is_empty() {
        return Err(format!("ranks died: {:?}", out.report.dead_ranks));
    }
    if let Some(expect) = expect_best {
        if o.best_cost.to_bits() != expect.to_bits() {
            return Err(format!(
                "best cost {} differs from the reference run's {expect}",
                o.best_cost
            ));
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn sample<D: PtsDomain>(
    cal: &Calibrator,
    run: &PtsRun,
    domain: &D,
    initial: &SnapshotOf<D>,
    frozen: &D,
    engine: &dyn ExecutionEngine<D>,
    ticks: &Ticks,
    target_frac: f64,
    expect_best: Option<f64>,
    expect_s: f64,
) -> Sample {
    let c = cal.factor(expect_s);
    // The meters are process-wide: drain whatever an earlier run left.
    let _ = take_trials();
    let _ = take_snapshot_meter();
    ticks.lock().expect("ticks lock").clear();
    let start = Instant::now();
    let out = run.execute_from(domain, engine, initial.clone());
    let raw_s = start.elapsed().as_secs_f64();
    let trials = take_trials();
    let meter = take_snapshot_meter();
    let clock = match out.report.clock {
        ClockDomain::Wall => c.factor,
        ClockDomain::Virtual => 1.0,
    };
    let target = target_frac * out.outcome.initial_cost;
    let reached = out.outcome.trace.time_to_reach(target);
    let ticks_s = ticks
        .lock()
        .expect("ticks lock")
        .iter()
        .map(|t| t.saturating_duration_since(start).as_secs_f64() * c.factor)
        .collect();
    Sample {
        calib_loop_s: c.loop_s,
        raw_s,
        run_s: raw_s * c.factor,
        trials,
        meter,
        best_cost: out.outcome.best_cost,
        time_to_target_s: reached.unwrap_or(out.report.end_time) * clock,
        makespan_s: out.report.end_time * clock,
        forced_reports: out.outcome.forced_reports,
        failure: check(frozen, &out, expect_best).err(),
        report: out.report,
        ticks_s,
    }
}

/// Median gap between progress callbacks, and the launch time before the
/// first one (spawn + barrier: the first callback less one round).
fn proc_rounds(s: &Sample) -> (f64, f64) {
    let mut gaps: Vec<f64> = s.ticks_s.windows(2).map(|w| w[1] - w[0]).collect();
    let round = median(&mut gaps);
    let first = s.ticks_s.first().copied().unwrap_or(f64::NAN);
    (round, first - round)
}

/// Calibrated set-up times of one repetition.
struct Setup {
    build_s: f64,
    freeze_s: f64,
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Tally of checked search runs.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn count(&mut self, s: &Sample) {
        self.attempted += 1;
        if let Some(why) = &s.failure {
            self.failed += 1;
            self.problems.push(why.clone());
        }
    }

    fn problem(&mut self, why: String) {
        self.problems.push(why);
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Builds a workload's domain from the run configuration and an instance
/// seed.
type Build<'a, D> = &'a dyn Fn(&PtsConfig, u64) -> D;

/// The measured engine, the async twin and everything the samples share.
struct Bench<D: PtsDomain> {
    w: Workload,
    cal: Calibrator,
    /// The last raw sample time per engine (and for traced samples), which
    /// sizes the calibration before the next one.
    last_raw_s: HashMap<&'static str, f64>,
    ticks: Ticks,
    measured: Box<dyn ExecutionEngine<D>>,
    searches: Vec<Search<D>>,
    tally: Tally,
}

impl<D: ProcDomain> Bench<D>
where
    D::Problem: WireProblem,
{
    fn sample(&mut self, k: usize, engine: Option<&dyn ExecutionEngine<D>>) -> Sample {
        let frac = self.w.target_frac();
        let s = &mut self.searches[k];
        let engine = engine.unwrap_or(&*self.measured);
        let key = engine.name();
        let mut x = sample(
            &self.cal,
            &s.run,
            &s.domain,
            &s.initial,
            &s.frozen,
            engine,
            &self.ticks,
            frac,
            s.reference,
            self.last_raw_s.get(key).copied().unwrap_or(0.0),
        );
        self.last_raw_s.insert(key, x.raw_s);
        s.reference.get_or_insert(x.best_cost);
        if engine.name() == "proc" {
            x.trials = s.twin_trials;
        }
        self.tally.count(&x);
        x
    }

    /// Make sure search `k` has its reference best: on qap-proc, from one
    /// untimed run of the async twin.
    fn reference(&mut self, k: usize) {
        if self.w.engine() == Engine::Proc && self.searches[k].reference.is_none() {
            let t = self.sample(k, Some(&AsyncEngine::new()));
            self.searches[k].twin_trials = t.trials;
        }
    }

    fn traced(&mut self, k: usize, id: u32) -> (Sample, layers::Totals) {
        let s = &self.searches[k];
        let engine = traced_engine::<D>(self.w.engine());
        layers::begin_sample(id);
        let start = Instant::now();
        let x = sample(
            &self.cal,
            &s.run,
            &TracedDomain(s.domain.clone()),
            &s.initial,
            &TracedDomain(s.frozen.clone()),
            &*engine,
            &self.ticks,
            self.w.target_frac(),
            s.reference,
            self.last_raw_s.get("traced").copied().unwrap_or(0.0),
        );
        self.last_raw_s.insert("traced", x.raw_s);
        layers::keep_span("run", start, Instant::now(), id);
        self.tally.count(&x);
        (x, layers::sample_totals())
    }
}

fn bench<D: ProcDomain>(w: Workload, args: &Args, build: Build<'_, D>) -> (Tally, Vec<Metric>)
where
    D::Problem: WireProblem,
{
    let cal = if w.engine() == Engine::Proc {
        Calibrator::with_round_trips().expect("a Unix socket pair for calibration")
    } else {
        Calibrator::new()
    };
    let search = |k: u64| {
        let run = w.run(sub_seed(args.seed, 2 * k + 1));
        let domain = build(run.config(), sub_seed(args.seed, 2 * k + 2));
        let initial = domain.initial(w.initial_seed(run.config().seed));
        let frozen = domain.freeze(&initial);
        Search {
            run,
            domain,
            initial,
            frozen,
            reference: None,
            twin_trials: 0,
        }
    };

    // Set-up, repeated: build the instance, draw the initial solution,
    // freeze. Each repetition sets up back to back for at least
    // SETUP_BATCH_S after its calibration, so even a millisecond set-up is
    // timed over a stretch long enough to measure.
    let mut setups = Vec::new();
    let setup_start = Instant::now();
    while setups.len() < MIN_SETUPS || setup_start.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        let run = w.run(sub_seed(args.seed, 1));
        let cfg = run.config();
        let c = cal.factor(SETUP_BATCH_S);
        let (mut build_s, mut freeze_s, mut n) = (0.0, 0.0, 0u32);
        while build_s + freeze_s < SETUP_BATCH_S {
            let t0 = Instant::now();
            let domain = build(cfg, sub_seed(args.seed, 2));
            let initial: SnapshotOf<D> = domain.initial(w.initial_seed(cfg.seed));
            let t1 = Instant::now();
            std::hint::black_box(domain.freeze(&initial));
            let t2 = Instant::now();
            build_s += (t1 - t0).as_secs_f64();
            freeze_s += (t2 - t1).as_secs_f64();
            n += 1;
        }
        setups.push(Setup {
            build_s: build_s * c.factor / n as f64,
            freeze_s: freeze_s * c.factor / n as f64,
        });
    }
    let setup_s = median_of(&setups, |s| s.build_s + s.freeze_s);

    let kind = w.engine();
    let ticks = Ticks::default();
    let mut b = Bench {
        w,
        cal,
        last_raw_s: HashMap::new(),
        measured: engine::<D>(kind, &ticks),
        ticks,
        searches: (0..w.searches() as u64).map(search).collect(),
        tally: Tally::default(),
    };
    let n = b.searches.len();
    // Untimed warm-up; it also fixes search 0's reference best.
    b.reference(0);
    b.sample(0, None);

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut plain: Vec<Sample> = Vec::new();
    if !args.trace {
        while plain.len() < MIN_SAMPLES || Instant::now() < deadline {
            let k = plain.len() % n;
            b.reference(k);
            plain.push(b.sample(k, None));
        }
        let ok: Vec<&Sample> = plain.iter().filter(|s| s.failure.is_none()).collect();
        let launch_s = if kind == Engine::Proc {
            median_of(&ok, |s| proc_rounds(s).1)
        } else {
            0.0
        };
        let metrics = vec![
            metric("run_s", median_of(&ok, |s| s.run_s), "s"),
            metric(
                "trials_per_s",
                median_of(&ok, |s| s.trials as f64 / s.run_s),
                "1/s",
            ),
            metric(
                "best_cost",
                {
                    // Over the searches this run reached: a short run may
                    // not cycle through all of them.
                    let mut bests: Vec<f64> =
                        b.searches.iter().filter_map(|s| s.reference).collect();
                    median(&mut bests)
                },
                "cost",
            ),
            metric("setup_s", setup_s + launch_s, "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
            metric("makespan_s", median_of(&ok, |s| s.makespan_s), "s"),
        ];
        return (b.tally, metrics);
    }

    // Traced run: untraced and traced samples alternate, so the tracing
    // overhead is measured under the same host conditions.
    let codec = {
        let s = &b.searches[0];
        wirebench::measure(&b.cal, &s.frozen, &s.initial, sub_seed(args.seed, 0))
    };
    let codec = codec.unwrap_or_else(|e| {
        b.tally.problem(e);
        wirebench::CodecCost {
            encode_ns_per_kb: f64::NAN,
            decode_ns_per_kb: f64::NAN,
        }
    });
    let mut twins: Vec<Sample> = Vec::new();
    let mut traced: Vec<(Sample, layers::Totals)> = Vec::new();
    while traced.len() < MIN_SAMPLES || Instant::now() < deadline {
        let k = traced.len() % n;
        b.reference(k);
        plain.push(b.sample(k, None));
        if kind == Engine::Proc {
            twins.push(b.sample(k, Some(&AsyncEngine::new())));
        }
        let id = traced.len() as u32;
        traced.push(b.traced(k, id));
    }
    let Bench {
        searches,
        mut tally,
        ..
    } = b;
    let rounds = searches[0].run.config().global_iters as f64;

    let path =
        std::path::Path::new(OUT_DIR).join(format!("trace-{}-seed{}.json", w.name(), args.seed));
    if let Err(e) = layers::write_chrome_trace(&path, w.name()) {
        tally.problem(format!("writing {}: {e}", path.display()));
    }
    eprintln!("span file: ptsbench/{}", path.display());

    // Per-layer figures come from the traced samples (the twin's, on
    // qap-proc); counts repeat exactly, times are calibrated medians.
    let layer = |l: Layer, f: &dyn Fn(&layers::Busy, &Sample) -> f64| {
        median_of(&traced, |(s, t)| f(&t.of(l), s))
    };
    let per_item = |l: Layer| {
        layer(l, &|b, s| {
            b.ns as f64 * (s.run_s / s.raw_s) / (b.items.max(1)) as f64
        })
    };
    let per_call = |l: Layer| {
        layer(l, &|b, s| {
            b.ns as f64 * (s.run_s / s.raw_s) / (b.calls.max(1)) as f64
        })
    };
    let share = |l: Layer| layer(l, &|b, s| b.ns as f64 / (s.raw_s * 1e9));
    let protocol_ns = |(s, t): &(Sample, layers::Totals)| s.raw_s * 1e9 - t.wrapped_ns() as f64;
    let search = if kind == Engine::Proc { &twins } else { &plain };
    let (proc_overhead, proc_round, proc_launch) = if kind == Engine::Proc {
        (
            median_of(&plain, |s| s.run_s) - median_of(&twins, |s| s.run_s),
            median_of(&plain, |s| proc_rounds(s).0),
            median_of(&plain, |s| proc_rounds(s).1),
        )
    } else {
        (0.0, 0.0, 0.0)
    };
    let vt = kind == Engine::Vt;
    let metrics = vec![
        metric(
            "search.time_to_target_s",
            median_of(&plain, |s| s.time_to_target_s),
            "s",
        ),
        metric(
            "kernel.trials",
            layer(Layer::Kernel, &|b, _| b.items as f64),
            "count",
        ),
        metric("kernel.ns_per_trial", per_item(Layer::Kernel), "ns"),
        metric("kernel.share", share(Layer::Kernel), "frac"),
        metric("sample.ns_per_move", per_item(Layer::Sample), "ns"),
        metric("tabu.share", share(Layer::Tabu), "frac"),
        metric(
            "tabu.apply_calls",
            median_of(&traced, |(_, t)| t.apply_calls as f64),
            "count",
        ),
        metric(
            "tabu.attr_calls",
            median_of(&traced, |(_, t)| t.attr_calls as f64),
            "count",
        ),
        metric(
            "snapshot.calls",
            layer(Layer::Snapshot, &|b, _| b.calls as f64),
            "count",
        ),
        metric("snapshot.ns_per_call", per_call(Layer::Snapshot), "ns"),
        metric("snapshot.share", share(Layer::Snapshot), "frac"),
        metric(
            "snapshot.materializations",
            median_of(search, |s| s.meter.allocs as f64),
            "count",
        ),
        metric(
            "snapshot.bytes_per_round",
            median_of(search, |s| s.meter.round_payload_bytes as f64 / rounds),
            "B",
        ),
        metric(
            "tabu.bytes_per_round",
            median_of(search, |s| s.meter.tabu_payload_bytes as f64 / rounds),
            "B",
        ),
        metric(
            "diversify.calls",
            layer(Layer::Diversify, &|b, _| b.calls as f64),
            "count",
        ),
        metric("diversify.ns_per_call", per_call(Layer::Diversify), "ns"),
        metric("diversify.share", share(Layer::Diversify), "frac"),
        metric(
            "protocol.messages",
            median_of(search, |s| s.report.total_messages() as f64),
            "count",
        ),
        metric(
            "protocol.root_messages",
            median_of(search, |s| {
                let root = &s.report.per_proc[0];
                (root.messages_sent + root.messages_received) as f64
            }),
            "count",
        ),
        metric(
            "protocol.ns_per_message",
            median_of(&traced, |p| {
                protocol_ns(p) * (p.0.run_s / p.0.raw_s) / p.0.report.total_messages() as f64
            }),
            "ns",
        ),
        metric(
            "protocol.share",
            median_of(&traced, |p| protocol_ns(p) / (p.0.raw_s * 1e9)),
            "frac",
        ),
        metric(
            "vt.utilization",
            if vt {
                median_of(&plain, |s| s.report.utilization())
            } else {
                0.0
            },
            "frac",
        ),
        metric(
            "vt.forced_reports",
            median_of(&plain, |s| s.forced_reports as f64),
            "count",
        ),
        metric(
            "vt.wall_per_virtual_s",
            if vt {
                median_of(&plain, |s| s.run_s / s.makespan_s)
            } else {
                0.0
            },
            "s/s",
        ),
        metric(
            "wire.bytes_per_round",
            median_of(&plain, |s| s.report.total_bytes() as f64 / rounds),
            "B",
        ),
        metric("wire.encode_ns_per_kb", codec.encode_ns_per_kb, "ns/KiB"),
        metric("wire.decode_ns_per_kb", codec.decode_ns_per_kb, "ns/KiB"),
        metric("proc.overhead_s", proc_overhead, "s"),
        metric("proc.round_s", proc_round, "s"),
        metric("proc.launch_s", proc_launch, "s"),
        metric("setup.build_s", median_of(&setups, |s| s.build_s), "s"),
        metric("setup.freeze_s", median_of(&setups, |s| s.freeze_s), "s"),
        metric("host.calib_s", median_of(&plain, |s| s.calib_loop_s), "s"),
        metric(
            "trace.overhead_frac",
            {
                // Each traced sample against the untraced one run just
                // before it, on the same search.
                let mut ratios: Vec<f64> = traced
                    .iter()
                    .zip(search)
                    .map(|((t, _), u)| t.run_s / u.run_s - 1.0)
                    .collect();
                median(&mut ratios)
            },
            "frac",
        ),
    ];
    (tally, metrics)
}

fn main() {
    // The qap-proc workload spawns its ranks by re-entering this binary.
    pts_core::proc::maybe_worker();

    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ptsbench: {e}");
            eprintln!(
                "usage: ptsbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    // Socket files and span files stay inside this package's directory;
    // relative socket paths keep the Unix-socket address short.
    let here = env!("CARGO_MANIFEST_DIR");
    if let Err(e) = std::env::set_current_dir(here)
        .and_then(|()| std::fs::create_dir_all(std::path::Path::new(OUT_DIR).join("sock")))
    {
        eprintln!("ptsbench: preparing {here}/{OUT_DIR}: {e}");
        std::process::exit(1);
    }
    std::env::set_var("TMPDIR", std::path::Path::new(OUT_DIR).join("sock"));

    let (tally, metrics) = match args.workload {
        // The paper's circuit and one initial placement for every search;
        // the seed draws the run seeds.
        Workload::PlacePaper => bench(args.workload, &args, &|cfg, _| {
            PlacementDomain::new(Arc::new(pts_netlist::c3540()), cfg)
        }),
        w => bench(w, &args, &|_, seed| QapDomain::random(QAP_N, seed)),
    };

    let mut problems = tally.problems;
    for m in &metrics {
        if !m.value.is_finite() {
            problems.push(format!("metric {} is not a finite number", m.name));
        }
    }
    for p in &problems {
        eprintln!("ptsbench: check failed: {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}
