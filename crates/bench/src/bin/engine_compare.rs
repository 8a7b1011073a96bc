//! Engine comparison — the four execution substrates at growing worker
//! counts, flat vs sharded master, full vs delta snapshot wire format.
//!
//! Not a paper figure: the paper had one substrate (a twelve-workstation
//! PVM cluster), one flat master, and full-snapshot messages. This
//! harness measures what each of our engines costs as `n_tsw` scales
//! through 4 → 64 → 1024 on one host, what the sharded master
//! (sub-master collection tree, `shard_fanout = sqrt(n_tsw)`) does to the
//! root's message load, and what the delta-encoded snapshot protocol
//! saves in simulated wire bytes and real snapshot allocations:
//!
//! * `threads` spends one OS thread per logical process — at
//!   `n_tsw = 1024` that is 2049 threads, which is where hosts start to
//!   push back (and why it only runs that point under `PTS_FULL=1`);
//! * `async` multiplexes all logical processes on the calling thread and
//!   runs every point, flat and sharded;
//! * `vt` does the same under the paper cluster's *virtual clock*, so it
//!   also runs every point, and uniquely reports virtual end time and
//!   utilization at `n_tsw = 1024`;
//! * `proc` runs one OS process per rank over a socket star (this binary
//!   re-enters itself as the workers), measuring what real process
//!   isolation and the explicit wire codec cost; its flat rows run at
//!   `n_tsw = 4` and `64`, higher points under `PTS_FULL=1`;
//! * the `root msgs` column counts rank 0's sent+received messages: flat
//!   collection is O(`n_tsw`) at the root, the sharded tree is
//!   O(fan-out) per round at every process;
//! * `wire MB` is total simulated traffic, `snap allocs` the number of
//!   full-solution materializations — both shrink under the (default)
//!   delta snapshot mode.
//!
//! ## The wire benchmark (`BENCH_wire.json`)
//!
//! A dedicated delta-vs-full pair at `n_tsw = 1024` (async engine,
//! QAP-256, adaptive fan-out 32, WaitAll so both modes are provably the
//! same search) measures the per-round snapshot payload bytes and
//! snapshot allocations of each mode and writes the baseline to
//! `BENCH_wire.json` at the workspace root. CI reruns it with
//! `--wire-check`: the fresh delta-mode per-round bytes must not regress
//! more than 10% over the committed baseline, and the delta/full
//! reduction must stay ≥ 5×.
//!
//! The same file carries the broadcast tabu-payload columns: a second,
//! longer-horizon pair (`n_tsw = 64`, eight rounds — enough broadcasts
//! for consecutive rounds to share tabu entries) measures per-round tabu
//! wire bytes with the `tabu_delta` knob off (full lists, the pre-delta
//! format) and on (aged-diff against the previous broadcast, fallback to
//! full when the diff would not pay).
//!
//! ## The time benchmark (`BENCH_time.json`)
//!
//! Two wall-clock measurements anchor the batched candidate-evaluation
//! kernel: (a) the QAP-256 kernel microbench — scalar `trial_cost` loop
//! vs batched `trial_costs` over the same candidate lists, interleaved
//! in the same process run — whose speedup must stay ≥ 1.5×, and (b)
//! end-to-end ns per nominal trial on the async engine at `n_tsw` = 4,
//! 64, 1024 (QAP-256), gated with a deliberately generous 2.5× band
//! because absolute wall time on shared CI hosts is noisy. The same-run
//! kernel ratio is the hard floor; the end-to-end figures catch
//! order-of-magnitude regressions only.
//!
//! Flags: `--wire-only` runs just the wire section and rewrites
//! `BENCH_wire.json` (the only mode that writes it); `--wire-check`
//! runs just the wire section and *compares* (exit 1 on regression).
//! `--time-only` / `--time-check` do the same for the time section and
//! `BENCH_time.json`. The default run prints the full table plus both
//! benchmark sections and leaves the committed baselines untouched.

use pts_bench::emit;
use pts_bench::kernel::{bench_qap_kernel, KernelBench};
use pts_core::{
    take_snapshot_meter, take_trials, AsyncEngine, ExecutionEngine, ProcEngine, Pts, PtsConfig,
    QapDomain, RunBuilder, SearchStrategy, SnapshotMeter, SnapshotMode, ThreadEngine,
    VirtualEngine,
};
use pts_util::csv::CsvWriter;
use pts_util::table::{fmt_f64, Table};
use std::path::PathBuf;

fn builder(n_tsw: usize) -> RunBuilder {
    Pts::builder()
        .tsw_workers(n_tsw)
        .clw_workers(1)
        .global_iters(2)
        .local_iters(3)
        .candidates(5)
        .depth(2)
        .differentiate_streams(true)
        .seed(0xC0FFEE)
}

/// One wire-benchmark run: per-round snapshot payload bytes, per-round
/// tabu payload bytes, snapshot allocations, wall seconds, and the best
/// cost (for the trajectory-unchanged assertion).
struct WireRun {
    bytes_per_round: f64,
    tabu_bytes_per_round: f64,
    allocs: u64,
    wall_seconds: f64,
    best_cost: f64,
    meter: SnapshotMeter,
}

/// The fixed wire-benchmark configuration: the communication-bound
/// regime the delta protocol targets — 1024 TSWs shipping QAP-256
/// solutions every round through the adaptive collection tree.
const WIRE_N_TSW: usize = 1024;
const WIRE_QAP_N: usize = 256;
const WIRE_GLOBAL_ITERS: u32 = 2;

/// The tabu-payload pair runs a longer horizon at a smaller width: tabu
/// lists are tens of entries, not kilobytes, so the interesting quantity
/// is how their bytes behave across *many* broadcasts — and the delta
/// encoding only has a usable base from the second broadcast on.
const TABU_N_TSW: usize = 64;
const TABU_GLOBAL_ITERS: u32 = 8;

fn wire_builder(
    n_tsw: usize,
    global_iters: u32,
    mode: SnapshotMode,
    tabu_delta: bool,
) -> RunBuilder {
    Pts::builder()
        .tsw_workers(n_tsw)
        .clw_workers(1)
        .global_iters(global_iters)
        .local_iters(2)
        .candidates(4)
        .depth(2)
        .differentiate_streams(true)
        .sync(pts_core::SyncPolicy::WaitAll)
        .shard_fanout_auto()
        .snapshot_mode(mode)
        .tabu_delta(tabu_delta)
        .seed(0xC0FFEE)
}

fn wire_config(mode: SnapshotMode) -> pts_core::PtsRun {
    wire_builder(WIRE_N_TSW, WIRE_GLOBAL_ITERS, mode, false)
        .build()
        .expect("wire benchmark config is valid")
}

fn meter_run(domain: &QapDomain, run: pts_core::PtsRun, rounds: u32) -> WireRun {
    let _ = take_snapshot_meter(); // drain
    let out = run.execute(domain, &AsyncEngine::new());
    let meter = take_snapshot_meter();
    WireRun {
        bytes_per_round: meter.round_payload_bytes as f64 / rounds as f64,
        tabu_bytes_per_round: meter.tabu_payload_bytes as f64 / rounds as f64,
        allocs: meter.allocs,
        wall_seconds: out.report.wall_seconds,
        best_cost: out.outcome.best_cost,
        meter,
    }
}

fn wire_run(domain: &QapDomain, mode: SnapshotMode) -> WireRun {
    meter_run(domain, wire_config(mode), WIRE_GLOBAL_ITERS)
}

/// Workspace root (this crate lives at `<root>/crates/bench`).
fn workspace_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

fn baseline_path() -> PathBuf {
    workspace_root().join("BENCH_wire.json")
}

/// Extract `"key": <number>` from the flat baseline JSON (the file is
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
    println!(
        "full : {:>12.0} snapshot B/round  {:>8} snapshot allocs  {:>7.3} s wall",
        full.bytes_per_round, full.allocs, full.wall_seconds
    );
    println!(
        "delta: {:>12.0} snapshot B/round  {:>8} snapshot allocs  {:>7.3} s wall",
        delta.bytes_per_round, delta.allocs, delta.wall_seconds
    );
    println!(
        "reduction: {reduction:.1}x per-round snapshot bytes (same best cost {:.1}; \
         Init fan-out excluded: {} B, identical in both modes)",
        full.best_cost, full.meter.init_payload_bytes
    );
    println!(
        "(zero-copy Arc fan-out: {} snapshot-bearing sends per run would each have been a deep \
         copy before the payload redesign — now {} / {} materializations in full / delta mode.)",
        full.meter.payload_sends, full.allocs, delta.allocs
    );
    (delta, full, reduction)
}

/// Run the tabu-payload pair: same QAP-256 domain, `TABU_N_TSW` workers
/// over `TABU_GLOBAL_ITERS` rounds (delta snapshots in both runs — the
/// knob under test is `tabu_delta` alone), full tabu lists vs the aged
/// broadcast diff. Returns (delta-on, delta-off, reduction).
fn measure_tabu(domain: &QapDomain) -> (WireRun, WireRun, f64) {
    println!(
        "== Tabu-payload benchmark: broadcast tabu delta vs full lists, n_tsw = {TABU_N_TSW}, \
         {TABU_GLOBAL_ITERS} rounds, QAP-{WIRE_QAP_N} =="
    );
    let run = |tabu_delta| {
        let cfg = wire_builder(
            TABU_N_TSW,
            TABU_GLOBAL_ITERS,
            SnapshotMode::Delta,
            tabu_delta,
        )
        .build()
        .expect("tabu benchmark config is valid");
        meter_run(domain, cfg, TABU_GLOBAL_ITERS)
    };
    let full = run(false);
    let delta = run(true);
    assert_eq!(
        delta.best_cost, full.best_cost,
        "tabu delta changed the search outcome"
    );
    assert!(
        delta.tabu_bytes_per_round <= full.tabu_bytes_per_round,
        "tabu delta must never cost bytes (fallback-to-full guarantees this)"
    );
    let reduction = full.tabu_bytes_per_round / delta.tabu_bytes_per_round;
    println!(
        "full lists: {:>8.0} tabu B/round\ntabu delta: {:>8.0} tabu B/round\nreduction: \
         {reduction:.2}x (same best cost {:.1}; upward Report lists always ship full — only the \
         broadcast share shrinks)",
        full.tabu_bytes_per_round, delta.tabu_bytes_per_round, full.best_cost
    );
    (delta, full, reduction)
}

/// Report-only vt row for the wire benchmark: the same delta-mode run on
/// the virtual-time cooperative engine, which uniquely measures the
/// *virtual* timeline of the communication-bound regime — end time and
/// utilization on the paper cluster at `n_tsw = 1024`, numbers the
/// wall-clock engines cannot produce at this scale. No baseline gate:
/// this row contextualizes `BENCH_wire.json`, it does not anchor it.
fn report_wire_vt(domain: &QapDomain) {
    let run = wire_config(SnapshotMode::Delta);
    let _ = take_snapshot_meter(); // drain
    let out = run.execute(domain, &VirtualEngine::paper());
    let meter = take_snapshot_meter();
    println!(
        "vt   : {:>12.0} snapshot B/round  {:>8} snapshot allocs  {:>7.3} s wall  \
         (virtual: end {:.1} s, utilization {:.0}%, best cost {:.1}; report-only, no gate)",
        meter.round_payload_bytes as f64 / WIRE_GLOBAL_ITERS as f64,
        meter.allocs,
        out.report.wall_seconds,
        out.report.end_time,
        out.report.utilization() * 100.0,
        out.outcome.best_cost,
    );
}

#[allow(clippy::too_many_arguments)]
fn write_baseline(
    delta: &WireRun,
    full: &WireRun,
    reduction: f64,
    tabu_delta: &WireRun,
    tabu_full: &WireRun,
    tabu_reduction: f64,
) {
    let path = baseline_path();
    let json = format!(
        "{{\n  \"n_tsw\": {WIRE_N_TSW},\n  \"qap_n\": {WIRE_QAP_N},\n  \
         \"global_iters\": {WIRE_GLOBAL_ITERS},\n  \
         \"engine\": \"async\",\n  \"shard_fanout\": \"auto\",\n  \
         \"full_snapshot_bytes_per_round\": {:.0},\n  \
         \"delta_snapshot_bytes_per_round\": {:.0},\n  \
         \"snapshot_bytes_reduction\": {:.2},\n  \
         \"full_snapshot_allocs\": {},\n  \"delta_snapshot_allocs\": {},\n  \
         \"full_wall_seconds\": {:.3},\n  \"delta_wall_seconds\": {:.3},\n  \
         \"best_cost\": {:.4},\n  \
         \"tabu_n_tsw\": {TABU_N_TSW},\n  \"tabu_global_iters\": {TABU_GLOBAL_ITERS},\n  \
         \"tabu_bytes_per_round_full_list\": {:.0},\n  \
         \"tabu_bytes_per_round_delta\": {:.0},\n  \
         \"tabu_bytes_reduction\": {:.2}\n}}\n",
        full.bytes_per_round,
        delta.bytes_per_round,
        reduction,
        full.allocs,
        delta.allocs,
        full.wall_seconds,
        delta.wall_seconds,
        full.best_cost,
        tabu_full.tabu_bytes_per_round,
        tabu_delta.tabu_bytes_per_round,
        tabu_reduction,
    );
    match std::fs::write(&path, json) {
        Ok(()) => println!("[baseline] wrote {}", path.display()),
        Err(e) => eprintln!("[baseline] failed to write {}: {e}", path.display()),
    }
}

/// Compare a fresh wire run against the committed baseline. Returns
/// `false` (and prints why) on regression.
fn check_baseline(
    delta: &WireRun,
    reduction: f64,
    tabu_delta: &WireRun,
    tabu_reduction: f64,
) -> bool {
    let path = baseline_path();
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
    match json_number(&text, "tabu_bytes_per_round_delta") {
        Some(committed_tabu) => {
            let limit = committed_tabu * 1.10;
            if tabu_delta.tabu_bytes_per_round > limit {
                eprintln!(
                    "[wire-check] REGRESSION: tabu-delta per-round bytes {:.0} exceed committed \
                     {committed_tabu:.0} by more than 10% (limit {limit:.0})",
                    tabu_delta.tabu_bytes_per_round
                );
                ok = false;
            } else {
                println!(
                    "[wire-check] tabu-delta per-round bytes {:.0} within 10% of committed \
                     {committed_tabu:.0}",
                    tabu_delta.tabu_bytes_per_round
                );
            }
        }
        None => {
            eprintln!("[wire-check] baseline is missing tabu_bytes_per_round_delta");
            ok = false;
        }
    }
    // The tabu delta must actually pay on the multi-round regime, not
    // merely never lose (the fallback already guarantees the latter).
    if tabu_reduction < 1.1 {
        eprintln!(
            "[wire-check] REGRESSION: tabu delta/full reduction {tabu_reduction:.2}x fell below 1.1x"
        );
        ok = false;
    } else {
        println!("[wire-check] tabu delta/full reduction {tabu_reduction:.2}x (>= 1.1x required)");
    }
    ok
}

/// End-to-end time points: async engine, QAP-256, the engine-table
/// iteration counts, flat master.
const TIME_POINTS: [usize; 3] = [4, 64, 1024];
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

/// Upper-bound trial count a configuration can evaluate: every CLW
/// investigation runs up to `depth` steps of `candidates` trials per
/// local iteration. Early accepts, forced-early rounds, cut-short
/// investigations and dead CLWs all evaluate *fewer* — the exact count
/// comes from `pts_core::take_trials()`, metered at the batch that
/// actually executed. This nominal figure survives only as the fallback
/// denominator for the proc engine, whose evaluations happen in worker
/// OS processes where the parent's meter cannot see them.
fn nominal_trials(cfg: &PtsConfig) -> u64 {
    (cfg.n_tsw * cfg.n_clw * cfg.search.candidates * cfg.search.depth) as u64
        * cfg.global_iters as u64
        * cfg.local_iters as u64
}

/// Exact-first trial denominator: the metered count when the run
/// executed in this process, the nominal upper bound otherwise (proc
/// workers meter in their own address spaces). Returns the count and
/// whether it is exact.
fn measured_trials(cfg: &PtsConfig) -> (u64, bool) {
    let measured = take_trials();
    if measured > 0 {
        (measured, true)
    } else {
        (nominal_trials(cfg), false)
    }
}

/// Portfolio column cell: `uniform` when every TSW group runs the single
/// `search` strategy, `k-strat` for a k-entry heterogeneous portfolio.
fn portfolio_label(cfg: &PtsConfig) -> String {
    if cfg.portfolio.is_empty() {
        "uniform".to_string()
    } else {
        format!("{}-strat", cfg.portfolio.len())
    }
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
            let run = builder(n_tsw).build().expect("time configs are valid");
            let _ = take_trials(); // drain any prior section's count
            let out = run.execute(domain, &AsyncEngine::new());
            let (trials, exact) = measured_trials(run.config());
            assert!(exact, "async runs in-process; the trial meter must see it");
            let p = TimePoint {
                n_tsw,
                wall_seconds: out.report.wall_seconds,
                ns_per_trial: out.report.wall_seconds * 1e9 / trials as f64,
            };
            println!(
                "async n_tsw {:>4}: {:>7.3} s wall, {:>8.0} ns per trial ({} trials, exact)",
                p.n_tsw, p.wall_seconds, p.ns_per_trial, trials
            );
            p
        })
        .collect();
    TimeBench { kernel, points }
}

fn time_path() -> PathBuf {
    workspace_root().join("BENCH_time.json")
}

fn write_time_baseline(t: &TimeBench) {
    let path = time_path();
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
    match std::fs::write(&path, json) {
        Ok(()) => println!("[baseline] wrote {}", path.display()),
        Err(e) => eprintln!("[baseline] failed to write {}: {e}", path.display()),
    }
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

fn main() {
    // The proc rows spawn worker ranks by re-entering this binary.
    pts_core::proc::maybe_worker();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let wire_check = args.iter().any(|a| a == "--wire-check");
    let wire_write = args.iter().any(|a| a == "--wire-only");
    let time_check = args.iter().any(|a| a == "--time-check");
    let time_write = args.iter().any(|a| a == "--time-only");
    let wire_flagged = wire_check || wire_write;
    let time_flagged = time_check || time_write;

    if !wire_flagged && !time_flagged {
        run_engine_table();
    }

    // One QAP-256 instance shared by every benchmark section: the vt
    // report row and the time points must measure the exact regime the
    // gated wire pair (and the committed baselines) measures, not a
    // same-constants reconstruction that could drift.
    let wire_domain = QapDomain::random(WIRE_QAP_N, 17);

    if !time_flagged {
        let (delta, full, reduction) = measure_wire(&wire_domain);
        let (tabu_delta, tabu_full, tabu_reduction) = measure_tabu(&wire_domain);
        report_wire_vt(&wire_domain);
        if wire_check {
            if !check_baseline(&delta, reduction, &tabu_delta, tabu_reduction) {
                std::process::exit(1);
            }
        } else if wire_write {
            // Only an explicit --wire-only rewrites the committed baseline —
            // a plain table run must never silently re-anchor the CI gate.
            write_baseline(
                &delta,
                &full,
                reduction,
                &tabu_delta,
                &tabu_full,
                tabu_reduction,
            );
        } else {
            println!(
                "(committed wire baseline untouched: rewrite deliberately with --wire-only, \
                 compare with --wire-check)"
            );
        }
    }

    if !wire_flagged {
        let time = measure_time(&wire_domain);
        if time_check {
            if !check_time_baseline(&time) {
                std::process::exit(1);
            }
        } else if time_write {
            write_time_baseline(&time);
        } else {
            println!(
                "(committed time baseline untouched: rewrite deliberately with --time-only, \
                 compare with --time-check)"
            );
        }
    }
}

fn run_engine_table() {
    let full_profile = std::env::var("PTS_FULL").map(|v| v == "1").unwrap_or(false);
    println!("== Engine comparison: threads vs async vs vt vs proc, flat vs sharded, at n_tsw = 4, 64, 1024 ==\n");

    // One QAP instance for the whole sweep; workers outnumber facilities
    // at the top end (ranges wrap), so streams are differentiated.
    let domain = QapDomain::random(64, 17);

    let mut table = Table::new([
        "n_tsw",
        "engine",
        "master",
        "portfolio",
        "best cost",
        "host wall s",
        "ns/trial",
        "cand batch",
        "messages",
        "root msgs",
        "wire MB",
        "snap allocs",
        "logical procs",
    ]);
    let mut csv = CsvWriter::new([
        "n_tsw",
        "engine",
        "master",
        "portfolio",
        "best_cost",
        "wall_seconds",
        "ns_per_trial",
        "candidate_batch",
        "messages",
        "root_messages",
        "wire_mb",
        "snapshot_allocs",
        "procs",
    ]);

    for &n_tsw in &[4usize, 64, 1024] {
        // Fan-out sqrt(n_tsw): one level of sub-masters, root degree ==
        // fan-out. 0 = the flat single-master baseline. Clamped to >= 2
        // (a fan-out of 1 is rejected at validation) in case the sweep
        // ever gains a tiny point.
        let fanout = ((n_tsw as f64).sqrt().round() as usize).max(2);
        let proc_engine = ProcEngine::from_current_exe().expect("own path resolvable");
        let engines: [(&str, &dyn ExecutionEngine<QapDomain>); 4] = [
            ("threads", &ThreadEngine),
            ("async", &AsyncEngine::new()),
            ("vt", &VirtualEngine::paper()),
            // One OS process per rank over a socket star: the real
            // cross-process deployment the wire codec exists for.
            ("proc", &proc_engine),
        ];
        for (name, engine) in engines {
            for shard_fanout in [0usize, fanout] {
                let sharded = shard_fanout != 0 && shard_fanout < n_tsw;
                if shard_fanout != 0 && !sharded {
                    continue; // fan-out covers all TSWs: identical to flat
                }
                let master = if sharded {
                    format!("shard/{shard_fanout}")
                } else {
                    "flat".to_string()
                };
                let run = builder(n_tsw)
                    .shard_fanout(shard_fanout)
                    .build()
                    .expect("sweep configs are valid");
                // Thread-per-process engines at 1024 TSWs ask the OS for
                // 2049+ threads; keep that behind the full profile. The
                // sharded run is the async engine's headline, so the
                // thread-backed engines only run it under PTS_FULL too.
                let single_threaded = name == "async" || name == "vt";
                let skip = (n_tsw >= 1024 || sharded) && !single_threaded && !full_profile;
                if skip {
                    table.row([
                        n_tsw.to_string(),
                        name.to_string(),
                        master.clone(),
                        portfolio_label(run.config()),
                        "- (PTS_FULL=1)".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        run.config().search.candidates.to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        run.config().total_procs().to_string(),
                    ]);
                    // Keep the CSV row-complete: downstream plots must see
                    // "skipped", not a silently missing series.
                    csv.row([
                        n_tsw.to_string(),
                        name.to_string(),
                        master,
                        portfolio_label(run.config()),
                        "skipped".to_string(),
                        "skipped".to_string(),
                        "skipped".to_string(),
                        run.config().search.candidates.to_string(),
                        "skipped".to_string(),
                        "skipped".to_string(),
                        "skipped".to_string(),
                        "skipped".to_string(),
                        run.config().total_procs().to_string(),
                    ]);
                    continue;
                }
                let _ = take_snapshot_meter(); // drain
                let _ = take_trials(); // drain
                let out = run.execute(&domain, engine);
                let meter = take_snapshot_meter();
                let root = &out.report.per_proc[0];
                let root_msgs = root.messages_sent + root.messages_received;
                let wire_mb = out.report.total_bytes() as f64 / 1e6;
                // Host wall time over the trial count: an end-to-end
                // throughput figure (messaging and scheduling included),
                // comparable across engines at fixed n_tsw. Exact where
                // the run executed in-process; the proc engine's workers
                // meter in their own address spaces, so its rows fall
                // back to the nominal upper bound (marked with a `~`).
                let (trials, exact) = measured_trials(run.config());
                let ns_per_trial = out.report.wall_seconds * 1e9 / trials as f64;
                let ns_cell = if exact {
                    format!("{ns_per_trial:.0}")
                } else {
                    format!("~{ns_per_trial:.0}")
                };
                table.row([
                    n_tsw.to_string(),
                    name.to_string(),
                    master.clone(),
                    portfolio_label(run.config()),
                    fmt_f64(out.outcome.best_cost),
                    format!("{:.3}", out.report.wall_seconds),
                    ns_cell,
                    run.config().search.candidates.to_string(),
                    out.report.total_messages().to_string(),
                    root_msgs.to_string(),
                    format!("{wire_mb:.2}"),
                    meter.allocs.to_string(),
                    out.report.num_procs().to_string(),
                ]);
                csv.row([
                    n_tsw.to_string(),
                    name.to_string(),
                    master,
                    portfolio_label(run.config()),
                    fmt_f64(out.outcome.best_cost),
                    format!("{:.4}", out.report.wall_seconds),
                    format!("{ns_per_trial:.1}"),
                    run.config().search.candidates.to_string(),
                    out.report.total_messages().to_string(),
                    root_msgs.to_string(),
                    format!("{wire_mb:.4}"),
                    meter.allocs.to_string(),
                    out.report.num_procs().to_string(),
                ]);
            }
        }

        // The portfolio column's non-uniform case: one sharded vt row
        // per scale running a two-strategy portfolio (the pinned
        // vt_scenarios pair — an intensifier and a diversifier), so the
        // table shows what the heterogeneous mode costs and wins next
        // to the uniform rows it rides alongside.
        let run = builder(n_tsw)
            .shard_fanout(fanout)
            .portfolio([
                SearchStrategy {
                    tenure: 5,
                    candidates: 6,
                    depth: 3,
                    ..Default::default()
                },
                SearchStrategy {
                    tenure: 13,
                    candidates: 4,
                    depth: 2,
                    ..Default::default()
                },
            ])
            .build()
            .expect("sweep configs are valid");
        let _ = take_snapshot_meter();
        let _ = take_trials();
        let out = run.execute(&domain, &VirtualEngine::paper());
        let meter = take_snapshot_meter();
        let root = &out.report.per_proc[0];
        let root_msgs = root.messages_sent + root.messages_received;
        let wire_mb = out.report.total_bytes() as f64 / 1e6;
        let (trials, exact) = measured_trials(run.config());
        assert!(exact, "vt runs in-process; trials must be metered");
        let ns_per_trial = out.report.wall_seconds * 1e9 / trials as f64;
        let batches = run
            .config()
            .portfolio
            .iter()
            .map(|s| s.candidates.to_string())
            .collect::<Vec<_>>()
            .join("/");
        let master = format!("shard/{fanout}");
        table.row([
            n_tsw.to_string(),
            "vt".to_string(),
            master.clone(),
            portfolio_label(run.config()),
            fmt_f64(out.outcome.best_cost),
            format!("{:.3}", out.report.wall_seconds),
            format!("{ns_per_trial:.0}"),
            batches.clone(),
            out.report.total_messages().to_string(),
            root_msgs.to_string(),
            format!("{wire_mb:.2}"),
            meter.allocs.to_string(),
            out.report.num_procs().to_string(),
        ]);
        csv.row([
            n_tsw.to_string(),
            "vt".to_string(),
            master,
            portfolio_label(run.config()),
            fmt_f64(out.outcome.best_cost),
            format!("{:.4}", out.report.wall_seconds),
            format!("{ns_per_trial:.1}"),
            batches,
            out.report.total_messages().to_string(),
            root_msgs.to_string(),
            format!("{wire_mb:.4}"),
            meter.allocs.to_string(),
            out.report.num_procs().to_string(),
        ]);
    }

    emit("engine_compare", &table, &csv);
    println!("\n(threads/proc at n_tsw = 1024 and all sharded threads/proc rows run only with PTS_FULL=1 — proc at 1024 means 2049 OS processes.)");
    println!("(root msgs: rank-0 sent+received — O(n_tsw) flat, O(fan-out) sharded.)");
    println!("(ns/trial: wall time over the *metered* evaluation count — exact, early accepts and cut-shorts included; `~` marks proc rows, whose workers meter in their own processes, so the nominal upper bound is used.)");
    println!("(portfolio: `uniform` = single strategy; `k-strat` = heterogeneous portfolio — the 2-strat vt rows run the pinned intensify/diversify pair from tests/vt_scenarios.rs; see `pts run --portfolio`.)");
    println!("(wire MB / snap allocs: simulated traffic and full-solution materializations — both drop under the default delta snapshot mode; see BENCH_wire.json.)\n");
}
