//! Regression gates for the two committed baselines, `BENCH_wire.json`
//! and `BENCH_time.json`. Per-layer and end-to-end measurements with
//! spreads are ptsbench's job (`ptsbench/README.md`); this binary only
//! re-measures what CI gates on.
//!
//! ## The wire gate (`BENCH_wire.json`)
//!
//! A delta-vs-full pair at `n_tsw = 1024` (async engine, QAP-256,
//! adaptive fan-out 32, WaitAll so both modes are provably the same
//! search) measures the per-round snapshot payload bytes and snapshot
//! allocations of each mode. `--wire-check` fails if the fresh delta-mode
//! per-round bytes exceed the committed baseline by more than 10%, or if
//! the delta/full reduction falls below 5×.
//!
//! ## The time gate (`BENCH_time.json`)
//!
//! Two wall-clock measurements anchor the batched candidate-evaluation
//! kernel: (a) the QAP-256 kernel microbench — scalar `trial_cost` loop
//! vs batched `trial_costs` over the same candidate lists, interleaved
//! in the same process run — whose speedup must stay ≥ 1.5×, as must the
//! committed speedup, and (b) end-to-end ns per metered trial on the
//! async engine at `n_tsw` = 4, 64, 1024 (QAP-256), each the median of
//! five runs, gated with a deliberately generous 2.5× band because
//! absolute wall time on shared CI hosts is noisy (the `n_tsw` 4 run
//! lasts about a millisecond). The same-run kernel ratio is the hard
//! floor; the end-to-end figures catch order-of-magnitude regressions
//! only.
//!
//! Flags: `--wire-check` / `--time-check` compare against the committed
//! baseline and exit 1 on a regression; `--wire-only` / `--time-only`
//! measure and rewrite it instead. With no flag, both checks run, as CI
//! runs them. Any other argument is an error.

use pts_bench::kernel::{bench_qap_kernel, KernelBench};
use pts_core::{take_snapshot_meter, take_trials, AsyncEngine, Pts, QapDomain, SnapshotMode};
use std::path::PathBuf;

/// The wire-benchmark configuration: the communication-bound regime the
/// delta protocol targets — 1024 TSWs shipping QAP-256 solutions every
/// round through the adaptive collection tree.
const WIRE_N_TSW: usize = 1024;
const WIRE_QAP_N: usize = 256;
const WIRE_GLOBAL_ITERS: u32 = 2;

/// One wire-benchmark run: per-round snapshot payload bytes, snapshot
/// allocations, wall seconds, the best cost (for the
/// trajectory-unchanged assertion), and the one-time `Init` bytes.
struct WireRun {
    bytes_per_round: f64,
    allocs: u64,
    wall_seconds: f64,
    best_cost: f64,
    init_bytes: u64,
}

fn wire_run(domain: &QapDomain, mode: SnapshotMode) -> WireRun {
    let run = Pts::builder()
        .tsw_workers(WIRE_N_TSW)
        .clw_workers(1)
        .global_iters(WIRE_GLOBAL_ITERS)
        .local_iters(2)
        .candidates(4)
        .depth(2)
        .differentiate_streams(true)
        .sync(pts_core::SyncPolicy::WaitAll)
        .shard_fanout_auto()
        .snapshot_mode(mode)
        .seed(0xC0FFEE)
        .build()
        .expect("wire benchmark config is valid");
    let _ = take_snapshot_meter(); // drain
    let out = run.execute(domain, &AsyncEngine::new());
    let meter = take_snapshot_meter();
    WireRun {
        bytes_per_round: meter.round_payload_bytes as f64 / WIRE_GLOBAL_ITERS as f64,
        allocs: meter.allocs,
        wall_seconds: out.report.wall_seconds,
        best_cost: out.outcome.best_cost,
        init_bytes: meter.init_payload_bytes,
    }
}

/// Workspace root (this crate lives at `<root>/crates/bench`).
fn workspace_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

fn wire_path() -> PathBuf {
    workspace_root().join("BENCH_wire.json")
}

fn time_path() -> PathBuf {
    workspace_root().join("BENCH_time.json")
}

/// Extract `"key": <number>` from a flat baseline JSON (the files are
/// machine-written with unique keys; no general parser needed offline).
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Write a baseline file, reporting where it went.
fn write_baseline(path: PathBuf, json: String) {
    match std::fs::write(&path, json) {
        Ok(()) => println!("[baseline] wrote {}", path.display()),
        Err(e) => eprintln!("[baseline] failed to write {}: {e}", path.display()),
    }
}

/// Run the delta-vs-full wire pair; returns (delta, full, reduction).
fn measure_wire(domain: &QapDomain) -> (WireRun, WireRun, f64) {
    println!(
        "== Wire benchmark: delta vs full snapshots, n_tsw = {WIRE_N_TSW}, QAP-{WIRE_QAP_N}, \
         async engine, shard fan-out auto =="
    );
    let full = wire_run(domain, SnapshotMode::Full);
    let delta = wire_run(domain, SnapshotMode::Delta);
    assert_eq!(
        delta.best_cost, full.best_cost,
        "delta mode changed the search outcome"
    );
    let reduction = full.bytes_per_round / delta.bytes_per_round;
    for (name, r) in [("full ", &full), ("delta", &delta)] {
        println!(
            "{name}: {:>12.0} snapshot B/round  {:>8} snapshot allocs  {:>7.3} s wall",
            r.bytes_per_round, r.allocs, r.wall_seconds
        );
    }
    println!(
        "reduction: {reduction:.1}x per-round snapshot bytes (same best cost {:.1}; \
         Init fan-out excluded: {} B, identical in both modes)",
        full.best_cost, full.init_bytes
    );
    (delta, full, reduction)
}

fn write_wire_baseline(delta: &WireRun, full: &WireRun, reduction: f64) {
    let json = format!(
        "{{\n  \"n_tsw\": {WIRE_N_TSW},\n  \"qap_n\": {WIRE_QAP_N},\n  \
         \"global_iters\": {WIRE_GLOBAL_ITERS},\n  \
         \"engine\": \"async\",\n  \"shard_fanout\": \"auto\",\n  \
         \"full_snapshot_bytes_per_round\": {:.0},\n  \
         \"delta_snapshot_bytes_per_round\": {:.0},\n  \
         \"snapshot_bytes_reduction\": {:.2},\n  \
         \"full_snapshot_allocs\": {},\n  \"delta_snapshot_allocs\": {},\n  \
         \"full_wall_seconds\": {:.3},\n  \"delta_wall_seconds\": {:.3},\n  \
         \"best_cost\": {:.4}\n}}\n",
        full.bytes_per_round,
        delta.bytes_per_round,
        reduction,
        full.allocs,
        delta.allocs,
        full.wall_seconds,
        delta.wall_seconds,
        full.best_cost,
    );
    write_baseline(wire_path(), json);
}

/// Compare a fresh wire run against the committed baseline. Returns
/// `false` (and prints why) on regression.
fn check_wire_baseline(delta: &WireRun, reduction: f64) -> bool {
    let path = wire_path();
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[wire-check] cannot read {}: {e}", path.display());
            return false;
        }
    };
    let committed = match json_number(&text, "delta_snapshot_bytes_per_round") {
        Some(v) => v,
        None => {
            eprintln!("[wire-check] baseline is missing delta_snapshot_bytes_per_round");
            return false;
        }
    };
    let mut ok = true;
    let limit = committed * 1.10;
    if delta.bytes_per_round > limit {
        eprintln!(
            "[wire-check] REGRESSION: delta per-round snapshot bytes {:.0} exceed committed \
             {committed:.0} by more than 10% (limit {limit:.0})",
            delta.bytes_per_round
        );
        ok = false;
    } else {
        println!(
            "[wire-check] delta per-round snapshot bytes {:.0} within 10% of committed {committed:.0}",
            delta.bytes_per_round
        );
    }
    if reduction < 5.0 {
        eprintln!("[wire-check] REGRESSION: delta/full reduction {reduction:.2}x fell below 5x");
        ok = false;
    } else {
        println!("[wire-check] delta/full reduction {reduction:.2}x (>= 5x required)");
    }
    ok
}

/// End-to-end time points: async engine, QAP-256, flat master.
const TIME_POINTS: [usize; 3] = [4, 64, 1024];
/// Runs per end-to-end point; the gate reads their median.
const TIME_SAMPLES: usize = 5;
/// Kernel microbench shape for the gated point: the engine's typical
/// candidate-list length band, enough rounds for stable aggregates.
const TIME_KERNEL_BATCH: usize = 32;
const TIME_KERNEL_ROUNDS: usize = 300;

struct TimePoint {
    n_tsw: usize,
    wall_seconds: f64,
    ns_per_trial: f64,
}

struct TimeBench {
    kernel: KernelBench,
    points: Vec<TimePoint>,
}

fn measure_time(domain: &QapDomain) -> TimeBench {
    println!(
        "== Time benchmark: QAP-{WIRE_QAP_N} kernel microbench + async end-to-end ns/trial =="
    );
    let kernel = bench_qap_kernel(WIRE_QAP_N, TIME_KERNEL_BATCH, TIME_KERNEL_ROUNDS, 17);
    println!(
        "kernel (batch {TIME_KERNEL_BATCH}, {TIME_KERNEL_ROUNDS} rounds): scalar {:.1} ns/trial, \
         batched {:.1} ns/trial, speedup {:.2}x (same-run, bit-identical paths)",
        kernel.scalar_ns_per_trial,
        kernel.batched_ns_per_trial,
        kernel.speedup()
    );
    let points = TIME_POINTS
        .iter()
        .map(|&n_tsw| {
            let run = Pts::builder()
                .tsw_workers(n_tsw)
                .clw_workers(1)
                .global_iters(2)
                .local_iters(3)
                .candidates(5)
                .depth(2)
                .differentiate_streams(true)
                .seed(0xC0FFEE)
                .build()
                .expect("time configs are valid");
            let mut walls = Vec::with_capacity(TIME_SAMPLES);
            let mut trials = 0;
            for i in 0..TIME_SAMPLES {
                let _ = take_trials(); // drain any prior run's count
                let out = run.execute(domain, &AsyncEngine::new());
                // Exact: the meter counts every trial the batches executed,
                // early accepts and cut-short investigations included.
                let counted = take_trials();
                assert!(
                    counted > 0,
                    "async runs in-process; the trial meter must see it"
                );
                // The median wall time is divided by one count, so every
                // run must count the same: the engine is deterministic.
                if i == 0 {
                    trials = counted;
                }
                assert_eq!(
                    counted, trials,
                    "n_tsw {n_tsw}: runs counted different trials"
                );
                walls.push(out.report.wall_seconds);
            }
            walls.sort_by(f64::total_cmp);
            let wall_seconds = walls[TIME_SAMPLES / 2];
            let p = TimePoint {
                n_tsw,
                wall_seconds,
                ns_per_trial: wall_seconds * 1e9 / trials as f64,
            };
            println!(
                "async n_tsw {:>4}: {:>7.3} s wall, {:>8.0} ns per trial ({} trials, exact; \
                 median of {TIME_SAMPLES} runs)",
                p.n_tsw, p.wall_seconds, p.ns_per_trial, trials
            );
            p
        })
        .collect();
    TimeBench { kernel, points }
}

fn write_time_baseline(t: &TimeBench) {
    let mut json = format!(
        "{{\n  \"qap_n\": {WIRE_QAP_N},\n  \
         \"kernel_batch\": {TIME_KERNEL_BATCH},\n  \"kernel_rounds\": {TIME_KERNEL_ROUNDS},\n  \
         \"kernel_scalar_ns_per_trial\": {:.1},\n  \
         \"kernel_batched_ns_per_trial\": {:.1},\n  \
         \"kernel_speedup\": {:.2},\n  \
         \"engine\": \"async\"",
        t.kernel.scalar_ns_per_trial,
        t.kernel.batched_ns_per_trial,
        t.kernel.speedup(),
    );
    for p in &t.points {
        json.push_str(&format!(
            ",\n  \"wall_seconds_n_tsw_{}\": {:.3},\n  \"ns_per_trial_n_tsw_{}\": {:.0}",
            p.n_tsw, p.wall_seconds, p.n_tsw, p.ns_per_trial
        ));
    }
    json.push_str("\n}\n");
    write_baseline(time_path(), json);
}

/// Gate the fresh time measurements: the same-run kernel speedup is the
/// hard floor (≥ 1.5×, robust to host noise because both sides run in
/// the same process seconds apart); the end-to-end points get a
/// deliberately generous 2.5× band against the committed baseline —
/// they exist to catch order-of-magnitude regressions, not jitter.
fn check_time_baseline(t: &TimeBench) -> bool {
    let mut ok = true;
    if t.kernel.speedup() < 1.5 {
        eprintln!(
            "[time-check] REGRESSION: batched kernel speedup {:.2}x fell below the 1.5x floor \
             (scalar {:.1} ns, batched {:.1} ns)",
            t.kernel.speedup(),
            t.kernel.scalar_ns_per_trial,
            t.kernel.batched_ns_per_trial
        );
        ok = false;
    } else {
        println!(
            "[time-check] batched kernel speedup {:.2}x (>= 1.5x required, same-run)",
            t.kernel.speedup()
        );
    }
    let path = time_path();
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[time-check] cannot read {}: {e}", path.display());
            return false;
        }
    };
    match json_number(&text, "kernel_speedup") {
        Some(committed) if committed >= 1.5 => {
            println!("[time-check] committed kernel speedup {committed:.2}x (>= 1.5x required)");
        }
        Some(committed) => {
            eprintln!(
                "[time-check] REGRESSION: committed kernel speedup {committed:.2}x is below 1.5x \
                 — rewrite BENCH_time.json from a healthy build"
            );
            ok = false;
        }
        None => {
            eprintln!("[time-check] baseline is missing kernel_speedup");
            ok = false;
        }
    }
    for p in &t.points {
        let key = format!("ns_per_trial_n_tsw_{}", p.n_tsw);
        match json_number(&text, &key) {
            Some(committed) => {
                let limit = committed * 2.5;
                if p.ns_per_trial > limit {
                    eprintln!(
                        "[time-check] REGRESSION: {key} {:.0} exceeds committed {committed:.0} \
                         by more than 2.5x (limit {limit:.0})",
                        p.ns_per_trial
                    );
                    ok = false;
                } else {
                    println!(
                        "[time-check] {key} {:.0} within 2.5x of committed {committed:.0}",
                        p.ns_per_trial
                    );
                }
            }
            None => {
                eprintln!("[time-check] baseline is missing {key}");
                ok = false;
            }
        }
    }
    ok
}

/// What a run does with one baseline.
#[derive(Clone, Copy)]
enum Gate {
    /// Compare against the committed file.
    Check,
    /// Rewrite the committed file.
    Write,
}

fn main() {
    let mut wire = None;
    let mut time = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--wire-check" => wire = Some(Gate::Check),
            "--wire-only" => wire = Some(Gate::Write),
            "--time-check" => time = Some(Gate::Check),
            "--time-only" => time = Some(Gate::Write),
            other => {
                eprintln!(
                    "engine_compare: unknown argument '{other}' (expected --wire-check, \
                     --wire-only, --time-check or --time-only)"
                );
                std::process::exit(2);
            }
        }
    }
    if wire.is_none() && time.is_none() {
        wire = Some(Gate::Check);
        time = Some(Gate::Check);
    }

    // One QAP-256 instance shared by both gates: the time points measure
    // the exact regime the wire pair (and the committed baselines)
    // measures, not a same-constants reconstruction that could drift.
    let domain = QapDomain::random(WIRE_QAP_N, 17);
    let mut ok = true;

    if let Some(gate) = wire {
        let (delta, full, reduction) = measure_wire(&domain);
        match gate {
            Gate::Check => ok &= check_wire_baseline(&delta, reduction),
            Gate::Write => write_wire_baseline(&delta, &full, reduction),
        }
    }
    if let Some(gate) = time {
        let t = measure_time(&domain);
        match gate {
            Gate::Check => ok &= check_time_baseline(&t),
            Gate::Write => write_time_baseline(&t),
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
