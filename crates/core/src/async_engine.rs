//! The async engine: thousands of logical workers on one OS thread, on
//! the wall clock.
//!
//! [`ThreadEngine`](crate::engine::ThreadEngine) spends one OS thread per
//! logical process, which caps `n_tsw` at what the host will give us in
//! threads and stacks. [`AsyncEngine`] runs the *same* master/TSW/CLW
//! protocol as futures on the workspace's one cooperative executor,
//! [`pts_vcluster::VirtualTaskCluster`], on the zero-cost cluster
//! ([`pts_vcluster::topology::zero_cost`]): one speed-1.0 machine, a
//! link with no latency and unlimited bandwidth, and exclusive compute.
//! A blocked receive is a parked future, not a parked thread, so `n_tsw`
//! in the thousands fits in one thread's worth of OS resources.
//!
//! The executor orders ranks by the work they charge, so identical inputs
//! replay identical executions; the `engines_agree` integration tests pin
//! this engine to [`crate::virtual_engine::VirtualEngine`]'s search
//! results seed for seed under WaitAll. Under HalfReport the schedule is
//! the zero-cost cluster's: a rank is forced when its charged work puts
//! it behind its siblings. Its transport stamps host seconds
//! ([`crate::transport::VirtualTransport::wall`]), so trace points, the
//! outcome's end time and the report are in [`ClockDomain::Wall`], and
//! `recv_deadline` never times out.

use crate::config::PtsConfig;
use crate::domain::{PtsDomain, SnapshotOf};
use crate::engine::{EngineOutput, ExecutionEngine};
use crate::report::{ClockDomain, RunReport};
use crate::virtual_engine::run_tree;
use pts_vcluster::topology::zero_cost;
use pts_vcluster::{ProcStats, VirtualTaskCluster};
use std::time::Instant;

/// Cooperative-futures engine: the whole PTS process tree multiplexed on
/// the calling thread.
///
/// Construction is free of configuration — every run-shape decision lives
/// in the validated [`PtsConfig`] (see [`crate::builder::Pts::builder`]).
///
/// ```
/// use pts_core::{AsyncEngine, ClockDomain, Pts};
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
/// assert_eq!(out.report.clock, ClockDomain::Wall);
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
        let start = Instant::now();
        let (outcome, cluster_report, finished) = run_tree(
            VirtualTaskCluster::new(zero_cost()),
            &vec![0; cfg.total_procs()],
            Some(start),
            cfg,
            domain,
            initial,
        );
        // Counters carry over; times are wall seconds. Busy and wait have
        // no per-rank meaning when every rank shares one thread, so they
        // read 0 (and utilization with them).
        let per_proc: Vec<ProcStats> = cluster_report
            .per_proc
            .into_iter()
            .zip(&finished)
            .map(|(p, &finished_at)| ProcStats {
                busy_time: 0.0,
                wait_time: 0.0,
                finished_at,
                ..p
            })
            .collect();
        EngineOutput {
            outcome,
            report: RunReport {
                engine: "async",
                clock: ClockDomain::Wall,
                end_time: finished.iter().copied().fold(0.0, f64::max),
                wall_seconds: start.elapsed().as_secs_f64(),
                per_proc,
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
    fn async_engine_stamps_wall_seconds() {
        // ptsbench reads this report's end time as wall seconds (its
        // `makespan_s`). The executor's own clock counts work units at
        // speed 1.0, far more than the run's wall time, so a virtual
        // stamp anywhere below would break the bound.
        let domain = QapDomain::random(20, 5);
        let out = small_run().execute(&domain, &AsyncEngine::new());
        let wall = out.report.wall_seconds;
        assert!(
            out.report.total_work() > wall,
            "work units must dwarf wall seconds"
        );
        assert!(!out.outcome.trace.is_empty());
        for p in out.outcome.trace.points() {
            assert!(
                p.time <= wall,
                "trace point at {} s after a {wall} s run",
                p.time
            );
        }
        assert!(out.outcome.end_time > 0.0 && out.outcome.end_time <= wall);
        assert!(out.report.end_time >= out.outcome.end_time);
        assert!(out.report.end_time <= wall);
        for p in &out.report.per_proc {
            assert!(p.finished_at > 0.0 && p.finished_at <= out.report.end_time);
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
        // A CLW's `compute` suspends between compound-move steps, so a
        // TSW that reaches quorum can cut stragglers mid-investigation
        // even on the single-threaded executor. If computes ran through,
        // every CLW would finish its whole investigation before the TSW
        // ran again, CutShort would always arrive stale, and HalfReport
        // would be indistinguishable from WaitAll at this tier.
        use crate::config::SyncPolicy;
        let domain = QapDomain::random(32, 21);
        // One TSW: a one-child group never forces, so only the TSW's cut
        // of its CLWs tells the two policies apart.
        let outcome_with = |sync: SyncPolicy| {
            Pts::builder()
                .tsw_workers(1)
                .clw_workers(4)
                .global_iters(2)
                .local_iters(6)
                .candidates(4)
                .depth(4)
                .sync(sync)
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
