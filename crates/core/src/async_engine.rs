//! The cooperative async engine: thousands of logical workers on one
//! OS thread, on the wall clock.
//!
//! [`ThreadEngine`](crate::engine::ThreadEngine) spends one OS thread per
//! logical process, which caps `n_tsw` at what the host will give us in
//! threads and stacks (a few thousand at best, with megabytes of stack
//! each). [`AsyncEngine`] runs the *same* master/TSW/CLW protocol — the
//! loops are `async` and generic over [`crate::transport::Transport`] —
//! as cooperatively scheduled futures on
//! [`pts_vcluster::async_runtime::TaskCluster`]: a blocked receive is a
//! parked future, not a parked thread, so `n_tsw` in the thousands fits
//! in one thread's worth of OS resources.
//!
//! Like the thread engine it executes in real time (no virtual clock):
//! `compute` records work units only, reports carry wall-clock seconds,
//! and [`ClockDomain::Wall`] marks the report. Unlike the thread engine
//! it is *deterministic*: tasks are polled in FIFO send order on one
//! thread, so identical inputs replay identical executions — the
//! `engines_agree` integration tests pin the async engine to the
//! virtual-time engine's search results seed-for-seed under WaitAll.

use crate::config::PtsConfig;
use crate::control::RunControl;
use crate::domain::{PtsDomain, SearchOutcome, SnapshotOf};
use crate::engine::{run_role, EngineOutput, ExecutionEngine};
use crate::master::run_master;
use crate::messages::PtsMsg;
use crate::report::{ClockDomain, RunReport};
use crate::transport::TaskTransport;
use pts_vcluster::TaskCluster;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Cooperative-futures engine: the whole PTS process tree multiplexed on
/// the calling thread.
///
/// Construction is free of configuration — every run-shape decision lives
/// in the validated [`PtsConfig`] (see [`crate::builder::Pts::builder`]).
///
/// ```
/// use pts_core::{AsyncEngine, Pts};
/// use pts_core::qap_domain::QapDomain;
///
/// let run = Pts::builder()
///     .tsw_workers(64) // one OS thread would be 193 with ThreadEngine
///     .clw_workers(2)
///     .global_iters(2)
///     .local_iters(2)
///     .seed(11)
///     .build()
///     .expect("valid configuration");
/// let out = run.execute(&QapDomain::random(24, 3), &AsyncEngine::new());
/// assert!(out.outcome.best_cost <= out.outcome.initial_cost);
/// assert_eq!(out.report.engine, "async");
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct AsyncEngine;

impl AsyncEngine {
    /// A new cooperative engine (stateless — all state is per-run).
    pub fn new() -> AsyncEngine {
        AsyncEngine
    }
}

impl<D: PtsDomain> ExecutionEngine<D> for AsyncEngine {
    fn name(&self) -> &'static str {
        "async"
    }

    fn execute(&self, cfg: &PtsConfig, domain: &D, initial: SnapshotOf<D>) -> EngineOutput<D> {
        let wall = Instant::now();
        let mut cluster: TaskCluster<PtsMsg<D::Problem>> = TaskCluster::new();
        let outcome_slot: Rc<RefCell<Option<SearchOutcome<SnapshotOf<D>>>>> =
            Rc::new(RefCell::new(None));

        // Spawn order must equal rank order: TaskTransport identifies rank
        // with task id.
        {
            let cfg = cfg.clone();
            let domain = domain.clone();
            let slot = Rc::clone(&outcome_slot);
            cluster.spawn(move |ctx| async move {
                let mut t = TaskTransport { ctx };
                let outcome =
                    run_master(&mut t, &cfg, &domain, initial, &RunControl::unlimited()).await;
                *slot.borrow_mut() = Some(outcome);
            });
        }
        for rank in 1..cfg.total_procs() {
            let cfg = cfg.clone();
            let domain = domain.clone();
            cluster.spawn(move |ctx| async move {
                run_role(&mut TaskTransport { ctx }, &cfg, &domain, rank).await;
            });
        }

        let cluster_report = cluster.run();
        let outcome = outcome_slot
            .borrow_mut()
            .take()
            .expect("master deposits its outcome");
        let wall_seconds = wall.elapsed().as_secs_f64();
        EngineOutput {
            outcome,
            report: RunReport {
                engine: "async",
                clock: ClockDomain::Wall,
                end_time: cluster_report.end_time,
                wall_seconds,
                per_proc: cluster_report.per_proc,
                dead_ranks: vec![],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Pts;
    use crate::qap_domain::QapDomain;

    fn small_run() -> crate::builder::PtsRun {
        Pts::builder()
            .tsw_workers(3)
            .clw_workers(2)
            .global_iters(2)
            .local_iters(4)
            .candidates(4)
            .depth(2)
            .seed(42)
            .build()
            .unwrap()
    }

    #[test]
    fn async_engine_runs_qap_pipeline() {
        let domain = QapDomain::random(20, 5);
        let out = small_run().execute(&domain, &AsyncEngine::new());
        assert!(out.outcome.best_cost <= out.outcome.initial_cost);
        assert_eq!(out.report.engine, "async");
        assert_eq!(out.report.clock, ClockDomain::Wall);
        assert_eq!(out.report.num_procs(), small_run().config().total_procs());
        assert!(out.report.total_messages() > 0);
        // Every worker computed and communicated.
        for (rank, p) in out.report.per_proc.iter().enumerate().skip(1) {
            assert!(p.messages_sent > 0, "rank {rank} sent nothing");
            assert!(p.work_done > 0.0, "rank {rank} never computed");
        }
    }

    #[test]
    fn async_engine_is_deterministic() {
        let domain = QapDomain::random(18, 9);
        let a = small_run().execute(&domain, &AsyncEngine::new());
        let b = small_run().execute(&domain, &AsyncEngine::new());
        assert_eq!(a.outcome.best_cost, b.outcome.best_cost);
        assert_eq!(
            a.outcome.best_per_global_iter, b.outcome.best_per_global_iter,
            "cooperative schedule must replay identically"
        );
        assert_eq!(a.report.total_messages(), b.report.total_messages());
    }

    #[test]
    fn clw_half_report_has_an_effect_on_the_cooperative_schedule() {
        // CLWs yield between compound-move steps, so a TSW that reaches
        // quorum can cut stragglers mid-investigation even on the
        // single-threaded executor. If the yield were missing, every CLW
        // would finish its whole investigation before the TSW ran again,
        // CutShort would always arrive stale, and HalfReport would be
        // indistinguishable from WaitAll at this tier.
        use crate::config::SyncPolicy;
        let domain = QapDomain::random(32, 21);
        let outcome_with = |clw_sync: SyncPolicy| {
            Pts::builder()
                .tsw_workers(2)
                .clw_workers(4)
                .global_iters(2)
                .local_iters(6)
                .candidates(4)
                .depth(4)
                .tsw_sync(SyncPolicy::WaitAll)
                .clw_sync(clw_sync)
                .report_fraction(0.5)
                .seed(77)
                .build()
                .unwrap()
                .execute(&domain, &AsyncEngine::new())
        };
        let half = outcome_with(SyncPolicy::HalfReport);
        let all = outcome_with(SyncPolicy::WaitAll);
        assert_ne!(
            half.outcome.best_per_global_iter, all.outcome.best_per_global_iter,
            "cut-short proposals must alter the search trajectory"
        );
    }
}
