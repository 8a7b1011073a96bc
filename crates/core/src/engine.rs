//! Execution engines: the substrates a PTS run executes on.
//!
//! The paper runs one algorithm on one substrate (a PVM cluster of twelve
//! heterogeneous workstations). Here the same master/TSW/CLW pipeline runs
//! on any [`ExecutionEngine`]:
//!
//! * [`crate::virtual_engine::VirtualEngine`] — the deterministic
//!   heterogeneous cluster under a discrete-event virtual clock (the
//!   paper's testbed substitute: exact replay, virtual metrics, thousands
//!   of logical workers on one OS thread);
//! * [`ThreadEngine`] — native OS threads (real wall-clock parallelism);
//! * [`crate::async_engine::AsyncEngine`] — the same executor on the
//!   zero-cost cluster (thousands of logical workers, deterministic
//!   replay, wall clock);
//! * [`crate::proc::ProcEngine`] — one OS process per worker rank over
//!   sockets and the wire codec.
//!
//! Every engine runs rank 0 through [`run_master`] and every other rank
//! through [`run_role`], so an engine only decides how ranks are hosted
//! and wired: it builds one [`crate::transport::Transport`] per rank.
//! Engines are chosen via trait objects (`&dyn ExecutionEngine<D>`), so
//! run configuration code is substrate-independent, and all return the
//! same unified [`RunReport`] — no engine-specific output types.

use crate::config::{PtsConfig, Role};
use crate::control::RunControl;
use crate::domain::{PtsDomain, SearchOutcome, SnapshotOf};
use crate::master::{run_master, run_sub_master};
use crate::messages::PtsMsg;
use crate::report::{ClockDomain, RunReport};
use crate::transport::{drive_sync, StatsSink, ThreadTransport, Transport};
use crate::{clw::run_clw, tsw::run_tsw};
use pts_vcluster::ProcStats;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Result of a run on any engine: algorithmic outcome + unified metrics.
pub struct EngineOutput<D: PtsDomain> {
    /// What the search found (best solution, trace, statistics).
    pub outcome: SearchOutcome<SnapshotOf<D>>,
    /// How the substrate carried it (times, messages, per-process stats).
    pub report: RunReport,
}

/// A substrate that can carry the master/TSW/CLW pipeline for domain `D`.
///
/// Implementations must spawn `cfg.total_procs()` logical processes wired
/// per the [`PtsConfig`] rank topology and return the master's outcome
/// plus a fully populated [`RunReport`]. `cfg` is validated by the caller
/// ([`crate::builder::PtsRun`] guarantees it).
pub trait ExecutionEngine<D: PtsDomain> {
    /// Short engine name ("threads", "async", "vt", "proc") for logs and
    /// reports.
    fn name(&self) -> &'static str;

    /// Run the pipeline to completion from `initial` (the domain is
    /// already frozen).
    fn execute(&self, cfg: &PtsConfig, domain: &D, initial: SnapshotOf<D>) -> EngineOutput<D>;
}

/// Run worker `rank`'s role — TSW, CLW, or sub-master, as
/// [`PtsConfig::role_of`] decodes it — to completion over `t`.
///
/// Rank 0 is the master, which engines run through [`run_master`]
/// because it alone takes the initial solution and returns the outcome;
/// every engine spawns ranks `1..cfg.total_procs()` through this one
/// function, in rank order.
///
/// # Panics
///
/// If `rank` is the master's or out of range.
pub async fn run_role<D: PtsDomain>(
    t: &mut impl Transport<D::Problem>,
    cfg: &PtsConfig,
    domain: &D,
    rank: usize,
) {
    match cfg.role_of(rank) {
        Role::Master => panic!("rank 0 is the master: run it with run_master"),
        Role::Tsw(i) => run_tsw(t, cfg, i, domain).await,
        Role::Clw { tsw, clw } => run_clw(t, cfg, cfg.tsw_rank(tsw), clw, domain).await,
        Role::Shard(s) => run_sub_master(t, cfg, s, domain).await,
    }
}

/// Native OS-thread engine: real wall-clock parallelism. Virtual work
/// accounting only records units — real computation takes real time.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadEngine;

impl ThreadEngine {
    /// A new thread engine (stateless — all state is per-run).
    pub fn new() -> ThreadEngine {
        ThreadEngine
    }
}

impl<D: PtsDomain> ExecutionEngine<D> for ThreadEngine {
    fn name(&self) -> &'static str {
        "threads"
    }

    fn execute(&self, cfg: &PtsConfig, domain: &D, initial: SnapshotOf<D>) -> EngineOutput<D> {
        let n = cfg.total_procs();
        let start = Instant::now();
        let stats_sink: StatsSink = Arc::new(Mutex::new(vec![ProcStats::default(); n]));
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..n).map(|_| channel::<PtsMsg<D::Problem>>()).unzip();
        let transport = |rank, receiver| {
            ThreadTransport::new(
                rank,
                start,
                senders.clone(),
                receiver,
                Arc::clone(&stats_sink),
            )
        };

        let mut receivers = receivers.into_iter();
        let mut master_t = transport(cfg.master_rank(), receivers.next().expect("rank 0"));
        let handles: Vec<_> = receivers
            .enumerate()
            .map(|(k, receiver)| {
                let rank = k + 1;
                let mut t = transport(rank, receiver);
                let cfg = cfg.clone();
                let domain = domain.clone();
                std::thread::Builder::new()
                    .name(format!("pts-rank{rank}"))
                    .spawn(move || {
                        t.mark_thread_start();
                        drive_sync(run_role(&mut t, &cfg, &domain, rank))
                    })
                    .expect("spawn worker thread")
            })
            .collect();

        master_t.mark_thread_start();
        let outcome = drive_sync(run_master(
            &mut master_t,
            cfg,
            domain,
            initial,
            &RunControl::unlimited(),
        ));
        drop(master_t);

        for h in handles {
            h.join().expect("worker thread panicked");
        }

        let wall_seconds = start.elapsed().as_secs_f64();
        let per_proc = std::mem::take(&mut *stats_sink.lock().unwrap());
        EngineOutput {
            outcome,
            report: RunReport {
                engine: "threads",
                clock: ClockDomain::Wall,
                end_time: wall_seconds,
                wall_seconds,
                per_proc,
                dead_ranks: vec![],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qap_domain::QapDomain;

    #[test]
    fn engines_are_object_safe() {
        // The whole point of the trait: substrate selected at runtime.
        use crate::{AsyncEngine, ProcEngine, VirtualEngine};
        let engines: Vec<Box<dyn ExecutionEngine<QapDomain>>> = vec![
            Box::new(ThreadEngine),
            Box::new(AsyncEngine::new()),
            Box::new(VirtualEngine::paper()),
            Box::new(ProcEngine::new("pts")),
        ];
        let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        assert_eq!(names, ["threads", "async", "vt", "proc"]);
    }
}
