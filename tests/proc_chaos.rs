//! Real-OS chaos for the multi-process engine: a worker rank SIGKILLed
//! mid-run must be *excused*, not fatal — the run completes over the
//! surviving ranks, [`RunReport::dead_ranks`] names exactly who was
//! lost, and no worker process outlives the engine on any path. The
//! flip side is pinned too: with no chaos at all, the armed supervision
//! layer (down routes, heartbeats, monitor thread) must not perturb the
//! search — the proc engine stays bit-identical to the in-process
//! [`AsyncEngine`].
//!
//! Worker processes re-enter this test binary's companion CLI (`pts`),
//! which calls `maybe_worker()` first thing in `main`. The seeded
//! many-scenario sweep lives in the `proc_chaos` bench driver
//! (`crates/bench/src/bin/proc_chaos.rs`); these are the always-on
//! cases.

use parallel_tabu_search::core::{
    AsyncEngine, EngineOutput, ProcEngine, Pts, PtsRun, QapDomain, RunControl, SyncPolicy,
};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The binary that hosts worker ranks (calls `proc::maybe_worker()`).
fn worker_exe() -> &'static str {
    env!("CARGO_BIN_EXE_pts")
}

/// All tests here scan `/proc` for children of *this* process, so they
/// must not overlap — a concurrent test's workers would read as orphans
/// (and as candidate victims).
static CHAOS: std::sync::Mutex<()> = std::sync::Mutex::new(());

// SIGKILL and SIGSTOP delivery without a libc dependency — same
// offline-FFI precedent as `pts_util::cputime` and the serve signal
// handler. Linux signal numbers: this suite reads `/proc` anyway.
extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGKILL: i32 = 9;
const SIGSTOP: i32 = 19;

/// Worker-rank processes among this test process's children: scan
/// `/proc` for `__pts-worker` cmdlines whose ppid is us, returning
/// `(pid, rank)` pairs.
fn worker_children() -> Vec<(i32, usize)> {
    let me = std::process::id().to_string();
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let Ok(cmd) = std::fs::read(format!("/proc/{name}/cmdline")) else {
            continue;
        };
        let args: Vec<&str> = cmd
            .split(|&b| b == 0)
            .map(|a| std::str::from_utf8(a).unwrap_or(""))
            .collect();
        if !args.contains(&"__pts-worker") {
            continue;
        }
        let Some(rank) = args
            .iter()
            .position(|a| *a == "--rank")
            .and_then(|i| args.get(i + 1))
            .and_then(|r| r.parse::<usize>().ok())
        else {
            continue;
        };
        // Only our own children: field 4 of /proc/<pid>/stat is the ppid
        // (fields after the parenthesized comm).
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{name}/stat")) else {
            continue;
        };
        let ppid = stat
            .rsplit(')')
            .next()
            .and_then(|rest| rest.split_whitespace().nth(1))
            .unwrap_or("");
        if ppid == me {
            out.push((name.parse().unwrap(), rank));
        }
    }
    out
}

fn chaos_run(n_tsw: usize, global: u32, seed: u64) -> PtsRun {
    Pts::builder()
        .tsw_workers(n_tsw)
        .clw_workers(1)
        .global_iters(global)
        .local_iters(30)
        .sync(SyncPolicy::WaitAll)
        .heartbeat_ms(50)
        .seed(seed)
        .build()
        .unwrap()
}

/// Execute `run` on the proc engine while SIGKILLing worker `victim`
/// once the search is demonstrably mid-run (first round completed).
/// Returns the engine output and whether the kill landed.
fn run_with_midrun_kill(
    run: &PtsRun,
    domain: QapDomain,
    victim: usize,
) -> (EngineOutput<QapDomain>, bool) {
    let (out, struck) = run_with_midrun_signal(run, domain, victim, SIGKILL);
    (out, struck.is_some())
}

/// Execute `run` on the proc engine while sending worker `victim`
/// signal `sig` once the search is demonstrably mid-run (first round
/// completed). Returns the engine output and when the signal landed.
fn run_with_midrun_signal(
    run: &PtsRun,
    domain: QapDomain,
    victim: usize,
    sig: i32,
) -> (EngineOutput<QapDomain>, Option<Instant>) {
    let rounds = Arc::new(AtomicU32::new(0));
    let rounds2 = Arc::clone(&rounds);
    let ctl = RunControl::unlimited().with_progress(Arc::new(move |_g, _b| {
        rounds2.fetch_add(1, Ordering::SeqCst);
    }));
    let engine = ProcEngine::new(worker_exe()).with_control(ctl);
    let run2 = run.clone();
    let search = std::thread::spawn(move || run2.execute(&domain, &engine));

    // Find the victim's pid while the barrier forms, then strike only
    // after the first progress report — mid-collection, not pre-run.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut victim_pid = None;
    let mut struck = None;
    while Instant::now() < deadline && !search.is_finished() {
        if victim_pid.is_none() {
            victim_pid = worker_children()
                .into_iter()
                .find(|(_, r)| *r == victim)
                .map(|(pid, _)| pid);
        }
        if let Some(pid) = victim_pid {
            if rounds.load(Ordering::SeqCst) >= 1 {
                // SAFETY: `kill` takes no pointers and touches no memory
                // of this process.
                struck = (unsafe { kill(pid, sig) } == 0).then(Instant::now);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let out = search.join().expect("chaos run must complete, not hang");
    (out, struck)
}

#[test]
fn sigkilled_tsw_is_excused_and_truthfully_reported() {
    let _serial = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    let run = chaos_run(3, 10, 0xC4405);
    let domain = QapDomain::random(24, 17);
    let victim = run.config().tsw_rank(1); // a non-rank-0 worker
    let (out, killed) = run_with_midrun_kill(&run, domain, victim);

    assert!(
        killed,
        "the chaos kill never landed — run too short to observe"
    );
    assert!(
        out.report.dead_ranks.contains(&victim),
        "rank {victim} was SIGKILLed but dead_ranks = {:?}",
        out.report.dead_ranks
    );
    assert!(out.outcome.best_cost.is_finite());
    assert!(out.outcome.best_cost <= out.outcome.initial_cost);
    assert_eq!(
        out.outcome.best_per_global_iter.len(),
        10,
        "the degraded run must still complete every round over the living"
    );

    // Zero orphans: every child the engine spawned is reaped.
    assert!(
        worker_children().is_empty(),
        "worker processes outlived the engine: {:?}",
        worker_children()
    );
}

#[test]
fn sigkilled_clw_is_excused_and_truthfully_reported() {
    let _serial = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    let run = chaos_run(2, 10, 0xC4406);
    let domain = QapDomain::random(24, 19);
    let victim = run.config().clw_rank(0, 0); // leaf worker, deepest layer
    let (out, killed) = run_with_midrun_kill(&run, domain, victim);

    assert!(
        killed,
        "the chaos kill never landed — run too short to observe"
    );
    assert!(
        out.report.dead_ranks.contains(&victim),
        "rank {victim} was SIGKILLed but dead_ranks = {:?}",
        out.report.dead_ranks
    );
    assert_eq!(out.outcome.best_per_global_iter.len(), 10);
    assert!(
        worker_children().is_empty(),
        "worker processes outlived the engine: {:?}",
        worker_children()
    );
}

#[test]
fn empty_chaos_plan_is_bit_identical_to_async() {
    let _serial = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    // Supervision fully armed (heartbeats on, down routes set, monitor
    // polling) but nothing killed: the proc engine must report no dead
    // ranks and agree with the async engine bit for bit.
    let run = chaos_run(3, 4, 0xFEED);
    let domain = QapDomain::random(14, 21);

    let async_out = run.execute(&domain, &AsyncEngine::new());
    let proc_out = run.execute(&domain, &ProcEngine::new(worker_exe()));

    assert!(
        proc_out.report.dead_ranks.is_empty(),
        "fault-free run reported deaths: {:?}",
        proc_out.report.dead_ranks
    );
    assert_eq!(proc_out.outcome.best_cost, async_out.outcome.best_cost);
    assert_eq!(
        proc_out.outcome.initial_cost,
        async_out.outcome.initial_cost
    );
    assert_eq!(
        proc_out.outcome.best_per_global_iter, async_out.outcome.best_per_global_iter,
        "armed-but-idle supervision must not perturb the search"
    );
    assert!(
        worker_children().is_empty(),
        "worker processes outlived the engine: {:?}",
        worker_children()
    );
}

#[test]
fn stopped_worker_is_excused_and_killed_at_detection() {
    let _serial = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    // A SIGSTOPped rank is alive but silent: its links stay open, so no
    // link end tells anyone. Its heartbeats stop, the monitor finds it
    // hung, and killing it there ends its links at once.
    let run = chaos_run(2, 10, 0xC4407);
    let domain = QapDomain::random(24, 23);
    let victim = run.config().clw_rank(1, 0);
    assert_eq!(victim, 4);
    let (out, struck) = run_with_midrun_signal(&run, domain, victim, SIGSTOP);
    let stopped = struck.expect("the SIGSTOP never landed — run too short to observe");
    let after = stopped.elapsed();

    assert!(
        out.report.dead_ranks.contains(&victim),
        "rank {victim} hung but dead_ranks = {:?}",
        out.report.dead_ranks
    );
    assert_eq!(out.outcome.best_per_global_iter.len(), 10);
    assert!(
        after < Duration::from_secs(5),
        "the engine returned {after:?} after the stop"
    );
    assert!(
        worker_children().is_empty(),
        "worker processes outlived the engine: {:?}",
        worker_children()
    );
}

#[test]
fn sigkilled_tsw_under_a_sub_master_is_excused_and_truthfully_reported() {
    let _serial = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    // Sharded: the victim's links lead to a sub-master and to its CLW,
    // and those two are the ranks that read its end.
    let run = Pts::builder()
        .tsw_workers(4)
        .clw_workers(1)
        .shard_fanout(2)
        .global_iters(10)
        .local_iters(30)
        .sync(SyncPolicy::WaitAll)
        .heartbeat_ms(50)
        .seed(0xC4408)
        .build()
        .unwrap();
    assert!(run.config().n_shards() > 0, "the tree must be sharded");
    let domain = QapDomain::random(24, 29);
    let victim = run.config().tsw_rank(1);
    let (out, killed) = run_with_midrun_kill(&run, domain, victim);

    assert!(
        killed,
        "the chaos kill never landed — run too short to observe"
    );
    // Truthful both ways: the victim, and nobody else (its CLW winds down
    // cleanly on the victim's end).
    assert_eq!(out.report.dead_ranks, vec![victim]);
    assert!(out.outcome.best_cost <= out.outcome.initial_cost);
    assert_eq!(out.outcome.best_per_global_iter.len(), 10);
    assert!(
        worker_children().is_empty(),
        "worker processes outlived the engine: {:?}",
        worker_children()
    );
}
