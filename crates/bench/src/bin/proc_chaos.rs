//! Seeded OS-level chaos sweep for the multi-process engine (release-mode
//! CI driver; the small always-on corpus lives in `tests/proc_chaos.rs`).
//!
//! Each scenario runs a real `ProcEngine` search — worker ranks as child
//! OS processes of this driver — while `kill -9`ing seeded victims
//! mid-run, and asserts the crash-tolerance invariants:
//!
//! * the run completes over the surviving ranks (no hang, no panic);
//! * `RunReport::dead_ranks` is truthful both ways — it contains every
//!   rank whose SIGKILL landed and accuses nobody else;
//! * the degraded best cost is finite and no worse than the initial;
//! * every child is reaped: no worker process outlives its run;
//! * with an empty chaos plan the engine is deterministic — two clean
//!   runs agree bit for bit and report zero deaths.
//!
//! Victims and strike times reuse the vt fault model's coordinates:
//! [`FaultSpec::seeded`] with [`FaultMix::Crashes`] yields `KillTsw` /
//! `KillClw` events whose virtual times are rescaled onto global-round
//! indices, so a `CHAOS-REPRO:` line (seed, shape, sync) rebuilds the
//! identical kill plan.
//!
//! Environment knobs: `CHAOS_SEEDS` (seeds per sync policy, default 8).

use pts_core::qap_domain::QapDomain;
use pts_core::{
    EngineOutput, FaultMix, FaultSpec, ProcEngine, Pts, PtsRun, RunControl, SyncPolicy, WorkerFault,
};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// SIGKILL delivery without a libc dependency — same offline-FFI
// precedent as `pts_util::cputime` and the serve signal handler.
extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGKILL: i32 = 9;

/// Virtual horizon handed to the fault model; only the *fraction*
/// `at / HORIZON` survives into the wall-clock plan.
const CHAOS_HORIZON: f64 = 100.0;

/// Field `n` of `/proc/<pid>/stat`, numbered from 1 as in proc(5). The
/// command name (field 2) may hold spaces, so fields 3 on are counted
/// after its closing parenthesis.
fn stat_field(pid: &str, n: usize) -> Option<String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = stat.rsplit(')').next()?;
    rest.split_whitespace()
        .nth(n.checked_sub(3)?)
        .map(str::to_owned)
}

/// Whether `pid` is a zombie that exited with status 0: a CLW winds
/// down on its own once its TSW is gone. `kill` still returns 0 on such
/// a zombie but lands on nothing. A zombie that ended any other way
/// (killed, or crashed before its planned kill) does not count: the
/// engine must still report it dead. The exit status is field 52.
fn exited_cleanly(pid: i32) -> bool {
    let pid = pid.to_string();
    stat_field(&pid, 3).as_deref() == Some("Z") && stat_field(&pid, 52).as_deref() == Some("0")
}

/// Worker-rank processes among this driver's children: scan `/proc` for
/// `__pts-worker` cmdlines whose ppid is us, returning `(pid, rank)`.
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
        if stat_field(&name, 4).as_deref() == Some(me.as_str()) {
            out.push((name.parse().unwrap(), rank));
        }
    }
    out
}

struct Scenario {
    seed: u64,
    sync: SyncPolicy,
    n_tsw: usize,
    global: u32,
}

impl Scenario {
    fn repro(&self) -> String {
        format!(
            "CHAOS-REPRO: seed={:#x} n_tsw={} sync={:?} global={}",
            self.seed, self.n_tsw, self.sync, self.global,
        )
    }

    fn build_run(&self) -> PtsRun {
        Pts::builder()
            .tsw_workers(self.n_tsw)
            .clw_workers(1)
            .global_iters(self.global)
            .local_iters(20)
            .sync(self.sync)
            .heartbeat_ms(50)
            .seed(self.seed ^ 0xC0DE)
            .build()
            .expect("valid chaos configuration")
    }

    /// The seeded kill plan as `(trigger_round, victim_rank)` pairs:
    /// process-level crash events from the shared fault model, with each
    /// virtual time mapped to the global round after which to strike.
    fn kill_plan(&self, run: &PtsRun) -> Vec<(u32, usize)> {
        let cfg = run.config();
        let spec = FaultSpec::seeded(self.seed, FaultMix::Crashes, cfg, 4, CHAOS_HORIZON);
        let mut plan: Vec<(u32, usize)> = Vec::new();
        for ev in &spec.events {
            let (at, rank) = match *ev {
                WorkerFault::KillTsw { at, tsw } => (at, cfg.tsw_rank(tsw)),
                WorkerFault::KillClw { at, tsw, clw } => (at, cfg.clw_rank(tsw, clw)),
                // Machine-level and route faults have no process analogue.
                _ => continue,
            };
            // Strike mid-run: rounds 1 ..= global-1, never before the
            // first progress report and never after the last round ends.
            let span = self.global.saturating_sub(2) as f64;
            let round = 1 + ((at / CHAOS_HORIZON) * span) as u32;
            if !plan.iter().any(|(_, r)| *r == rank) {
                plan.push((round, rank));
            }
        }
        plan.sort_unstable();
        plan
    }

    /// Execute under the kill plan and check every invariant; returns an
    /// error string on any violation (panics included).
    fn check(&self, domain: &QapDomain) -> Result<(), String> {
        let run = self.build_run();
        let plan = self.kill_plan(&run);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;

        let rounds = Arc::new(AtomicU32::new(0));
        let rounds2 = Arc::clone(&rounds);
        let ctl = RunControl::unlimited().with_progress(Arc::new(move |_g, _b| {
            rounds2.fetch_add(1, Ordering::SeqCst);
        }));
        let engine = ProcEngine::new(exe).with_control(ctl);
        let run2 = run.clone();
        let domain2 = domain.clone();
        let search = std::thread::spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run2.execute(&domain2, &engine)
            }))
        });

        // Killer loop: resolve victim pids as the barrier forms, strike
        // each when its trigger round has been reported.
        let deadline = Instant::now() + Duration::from_secs(120);
        let mut pids: Vec<Option<i32>> = vec![None; plan.len()];
        let mut landed: Vec<usize> = Vec::new();
        let mut struck = vec![false; plan.len()];
        while Instant::now() < deadline && !search.is_finished() && !plan.is_empty() {
            if pids.iter().any(Option::is_none) {
                let kids = worker_children();
                for (slot, (_, rank)) in plan.iter().enumerate() {
                    if pids[slot].is_none() {
                        pids[slot] = kids.iter().find(|(_, r)| r == rank).map(|(p, _)| *p);
                    }
                }
            }
            let seen = rounds.load(Ordering::SeqCst);
            for (slot, (round, rank)) in plan.iter().enumerate() {
                if struck[slot] || seen < *round {
                    continue;
                }
                if let Some(pid) = pids[slot] {
                    struck[slot] = true;
                    // Skip a victim that already exited cleanly, and do
                    // not count a kill that raced such an exit: checked
                    // again after the kill.
                    // SAFETY: `kill` takes no pointers and touches no
                    // memory of this process.
                    let sent = !exited_cleanly(pid) && unsafe { kill(pid, SIGKILL) } == 0;
                    if sent && !exited_cleanly(pid) {
                        landed.push(*rank);
                    }
                }
            }
            if struck.iter().all(|s| *s) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }

        let out: EngineOutput<QapDomain> = match search.join().expect("search thread") {
            Ok(out) => out,
            Err(p) => {
                let msg = p
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".into());
                return Err(format!("panicked: {msg}"));
            }
        };

        let dead = &out.report.dead_ranks;
        for rank in &landed {
            if !dead.contains(rank) {
                return Err(format!(
                    "rank {rank} was SIGKILLed but dead_ranks = {dead:?}"
                ));
            }
        }
        let planned: Vec<usize> = plan.iter().map(|(_, r)| *r).collect();
        for rank in dead {
            if !planned.contains(rank) {
                return Err(format!(
                    "rank {rank} reported dead but was never a victim (plan {planned:?})"
                ));
            }
        }
        let o = &out.outcome;
        if !o.best_cost.is_finite() {
            return Err(format!("best cost not finite: {}", o.best_cost));
        }
        if o.best_cost > o.initial_cost {
            return Err(format!(
                "best {} worse than initial {}",
                o.best_cost, o.initial_cost
            ));
        }
        if o.best_per_global_iter.len() != self.global as usize {
            return Err(format!(
                "degraded run stopped early: {} of {} rounds",
                o.best_per_global_iter.len(),
                self.global
            ));
        }
        let orphans = worker_children();
        if !orphans.is_empty() {
            return Err(format!("worker processes outlived the run: {orphans:?}"));
        }
        Ok(())
    }
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Two clean runs of the same scenario must agree bit for bit and
/// report no deaths — the armed supervision layer is inert without chaos.
fn check_clean_determinism(domain: &QapDomain) -> Result<(), String> {
    let run = Scenario {
        seed: 0xD0_0D,
        sync: SyncPolicy::WaitAll,
        n_tsw: 3,
        global: 4,
    }
    .build_run();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let a: EngineOutput<QapDomain> = run.execute(domain, &ProcEngine::new(&exe));
    let b: EngineOutput<QapDomain> = run.execute(domain, &ProcEngine::new(&exe));
    if !a.report.dead_ranks.is_empty() || !b.report.dead_ranks.is_empty() {
        return Err(format!(
            "clean runs reported deaths: {:?} / {:?}",
            a.report.dead_ranks, b.report.dead_ranks
        ));
    }
    if a.outcome.best_cost != b.outcome.best_cost
        || a.outcome.best_per_global_iter != b.outcome.best_per_global_iter
    {
        return Err("clean runs diverged bit-wise".into());
    }
    Ok(())
}

fn main() {
    // Worker-rank re-entry: the engine spawns `<this exe> __pts-worker ...`
    // children for every rank.
    pts_core::proc::maybe_worker();

    let n_seeds = env_u64("CHAOS_SEEDS", 8);
    let domain = QapDomain::random(18, 3);
    let started = Instant::now();

    let mut ran = 0usize;
    let mut failures: Vec<String> = Vec::new();

    for sync in [SyncPolicy::WaitAll, SyncPolicy::HalfReport] {
        for seed in 0..n_seeds {
            let s = Scenario {
                seed,
                sync,
                n_tsw: 3,
                global: 6,
            };
            ran += 1;
            if let Err(why) = s.check(&domain) {
                eprintln!("{}\n  -> {}", s.repro(), why);
                failures.push(s.repro());
            }
        }
    }

    ran += 1;
    if let Err(why) = check_clean_determinism(&domain) {
        eprintln!("CHAOS-REPRO: clean-determinism\n  -> {why}");
        failures.push("CHAOS-REPRO: clean-determinism".into());
    }

    println!(
        "proc-chaos: {ran} scenarios, {} failures, {:.1}s",
        failures.len(),
        started.elapsed().as_secs_f64()
    );
    if !failures.is_empty() {
        eprintln!("failing scenarios:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
