//! Seeded adversarial fault fuzzer for the vt engine (release-mode CI
//! sweep; the small always-on corpus lives in `tests/fault_scenarios.rs`).
//!
//! Sweeps `seeds × fault mixes × sync policies` small scenarios in two
//! shapes — 3 TSW × 2 CLW flat for 2 rounds, and 4 TSW × 2 CLW under the
//! automatic fan-out (2) for 3 rounds — plus a thousand-TSW sharded
//! scenario per sync policy, all on one OS thread, and asserts the fault
//! invariants on every run:
//!
//! * the run terminates and the master deposits an outcome;
//! * the best cost is finite, no worse than the initial solution, and its
//!   snapshot re-evaluates to the reported cost;
//! * the per-round best trajectory never worsens;
//! * panics anywhere in the protocol are caught and reported as failures.
//!
//! Every violation prints one `FAULT-REPRO:` line carrying the complete
//! scenario coordinates — seed, mix, shape (workers, rounds, fan-out),
//! sync, machines, horizon — which rebuilds the identical run, bit for
//! bit.
//!
//! Environment knobs: `FUZZ_SEEDS` (seeds per mix, default 100),
//! `FUZZ_LARGE` (`0` skips the n_tsw=1024 scenarios).

use pts_core::qap_domain::QapDomain;
use pts_core::{
    EngineOutput, FaultMix, FaultSpec, Pts, PtsConfig, PtsRun, SyncPolicy, VirtualEngine,
};
use pts_vcluster::{ClusterSpec, LinkModel, LoadModel, Machine};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Paper-proportioned heterogeneous cluster (mirrors the integration
/// suites' `scaled_paper_cluster`, which lives outside this crate).
fn het_cluster(n: usize) -> ClusterSpec {
    let fast_end = (7 * n / 12).max(1);
    let medium_end = (10 * n / 12).max(fast_end + 1);
    let machines = (0..n)
        .map(|i| {
            if i < fast_end {
                Machine::new(format!("fast{i}"), 1.0)
            } else if i < medium_end {
                Machine::new(format!("medium{}", i - fast_end), 0.6)
            } else {
                Machine::new(format!("slow{}", i - medium_end), 0.35).with_load(
                    LoadModel::Periodic {
                        period: 20.0,
                        duty: 0.4,
                        busy_factor: 0.5,
                    },
                )
            }
        })
        .collect();
    ClusterSpec::new(machines, LinkModel::default())
}

struct Scenario {
    seed: u64,
    mix: FaultMix,
    sync: SyncPolicy,
    n_tsw: usize,
    n_clw: usize,
    rounds: u32,
    /// Sub-master fan-out; 0 is the flat tree.
    fanout: usize,
    machines: usize,
    horizon: f64,
    liveness: f64,
}

impl Scenario {
    fn repro(&self) -> String {
        format!(
            "FAULT-REPRO: seed={:#x} mix={} n_tsw={} n_clw={} rounds={} fanout={} sync={:?} \
             machines={} horizon={} liveness={}",
            self.seed,
            self.mix,
            self.n_tsw,
            self.n_clw,
            self.rounds,
            self.fanout,
            self.sync,
            self.machines,
            self.horizon,
            self.liveness,
        )
    }

    fn build_run(&self) -> PtsRun {
        Pts::builder()
            .tsw_workers(self.n_tsw)
            .clw_workers(self.n_clw)
            .global_iters(self.rounds)
            .local_iters(2)
            .candidates(3)
            .depth(2)
            .sync(self.sync)
            .seed(self.seed ^ 0xF00D)
            .liveness_timeout(self.liveness)
            .shard_fanout(self.fanout)
            .build()
            .expect("valid fuzz configuration")
    }

    /// Execute and check invariants; returns an error string on any
    /// violation (panics included).
    fn check(&self, domain: &QapDomain) -> Result<(), String> {
        let run = self.build_run();
        let spec = FaultSpec::seeded(
            self.seed,
            self.mix,
            run.config(),
            self.machines,
            self.horizon,
        );
        let engine = VirtualEngine::new(het_cluster(self.machines)).with_faults(spec);
        let out: EngineOutput<QapDomain> =
            match catch_unwind(AssertUnwindSafe(|| run.execute(domain, &engine))) {
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
        if o.best_per_global_iter.windows(2).any(|w| w[1] > w[0]) {
            return Err(format!(
                "best-per-iteration worsened: {:?}",
                o.best_per_global_iter
            ));
        }
        if let Some(&last) = o.best_per_global_iter.last() {
            if last != o.best_cost {
                return Err(format!("trajectory end {last} != best {}", o.best_cost));
            }
        }
        let recomputed = pts_core::PtsDomain::instantiate(domain, &o.best);
        let recomputed = pts_tabu::SearchProblem::cost(&recomputed);
        if (recomputed - o.best_cost).abs() > 1e-6 * o.best_cost.abs().max(1.0) {
            return Err(format!(
                "best snapshot re-evaluates to {recomputed}, reported {}",
                o.best_cost
            ));
        }
        if !(out.report.end_time.is_finite() && out.report.end_time > 0.0) {
            return Err(format!("bad end time {}", out.report.end_time));
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

fn main() {
    let n_seeds = env_u64("FUZZ_SEEDS", 100);
    let run_large = env_u64("FUZZ_LARGE", 1) != 0;
    let domain = QapDomain::random(12, 3);
    let started = std::time::Instant::now();

    let mut ran = 0usize;
    let mut failures: Vec<String> = Vec::new();
    let mut check = |s: &Scenario, domain: &QapDomain| {
        ran += 1;
        if let Err(why) = s.check(domain) {
            eprintln!("{}\n  -> {}", s.repro(), why);
            failures.push(s.repro());
        }
    };

    // Small-shape sweep: every shape × mix × sync, n_seeds seeds each.
    // The sharded 3-round shape is the smallest where a broadcast can
    // close a later round than a node's own and a sub-master waits on one.
    let small_shapes = [(3, 2, 0), (4, 3, PtsConfig::auto_shard_fanout(4))];
    for (n_tsw, rounds, fanout) in small_shapes {
        for mix in FaultMix::ALL {
            for seed in 0..n_seeds {
                for sync in [SyncPolicy::WaitAll, SyncPolicy::HalfReport] {
                    let s = Scenario {
                        seed,
                        mix,
                        sync,
                        n_tsw,
                        n_clw: 2,
                        rounds,
                        fanout,
                        machines: 6,
                        horizon: 300.0,
                        liveness: 80.0,
                    };
                    check(&s, &domain);
                }
            }
        }
    }

    // Thousand-TSW sharded scenarios: one Mixed run per sync policy on a
    // 48-machine cluster — the scale where the sub-master tree, death
    // notices, and liveness timeouts all interact.
    if run_large {
        let large_domain = QapDomain::random(64, 7);
        for sync in [SyncPolicy::WaitAll, SyncPolicy::HalfReport] {
            let s = Scenario {
                seed: 0x1024,
                mix: FaultMix::Mixed,
                sync,
                n_tsw: 1024,
                n_clw: 1,
                rounds: 2,
                fanout: PtsConfig::auto_shard_fanout(1024),
                machines: 48,
                horizon: 200.0,
                liveness: 60.0,
            };
            check(&s, &large_domain);
        }
    }

    println!(
        "fault-fuzz: {ran} scenarios, {} failures, {:.1}s",
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
