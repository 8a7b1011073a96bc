//! The virtual-time engine ("vt"): the paper's heterogeneous testbed
//! under a deterministic virtual clock, at thousand-worker scale.
//!
//! The paper measured its search on twelve PVM workstations of three
//! speed classes. [`VirtualEngine`] substitutes that testbed: the
//! master/TSW/CLW protocol runs as futures on
//! [`pts_vcluster::virtual_runtime::VirtualTaskCluster`], a
//! discrete-event scheduler whose `compute` and `recv` suspend under one
//! virtual clock and machine model — machine speeds, background load,
//! message latency and bandwidth, per-route FIFO delivery.
//!
//! It is the repository's one virtual-clock engine. Runs replay bit for
//! bit — end time, utilization, per-process accounting, forced reports,
//! and the search trajectory (the `determinism` and `vt_scenarios`
//! integration suites pin absolute values) — and an `n_tsw = 1024`
//! heterogeneous run fits in one OS thread's worth of resources. This is
//! what lets the paper's utilization/speedup and half-report-vs-wait-all
//! claims be measured far beyond the twelve workstations of the original
//! testbed, deterministically, in CI. The executor's timing model is
//! checked against an independent thread-per-process token scheduler in
//! `pts-vcluster`'s property tests.

use crate::config::PtsConfig;
use crate::control::RunControl;
use crate::domain::{PtsDomain, SearchOutcome, SnapshotOf};
use crate::engine::{run_role, EngineOutput, ExecutionEngine};
use crate::fault::{Contention, FaultSpec};
use crate::master::run_master;
use crate::messages::PtsMsg;
use crate::report::{ClockDomain, RunReport};
use crate::transport::{Transport, VirtualTransport};
use pts_vcluster::topology::{paper_cluster, round_robin_assignment};
use pts_vcluster::{ClusterSpec, RunReport as ClusterReport, VirtualTaskCluster};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Virtual-time engine: the deterministic heterogeneous cluster timing
/// model at cooperative-futures scale.
///
/// ```
/// use pts_core::{ClockDomain, Pts, VirtualEngine};
/// use pts_core::qap_domain::QapDomain;
///
/// let run = Pts::builder()
///     .tsw_workers(3)
///     .clw_workers(2)
///     .global_iters(2)
///     .local_iters(3)
///     .seed(5)
///     .build()
///     .expect("valid configuration");
/// let domain = QapDomain::random(16, 2);
/// let a = run.execute(&domain, &VirtualEngine::paper());
/// let b = run.execute(&domain, &VirtualEngine::paper());
/// // A deterministic virtual clock: the same run replays bit for bit.
/// assert_eq!(a.report.end_time, b.report.end_time);
/// assert_eq!(a.outcome.best_cost, b.outcome.best_cost);
/// assert_eq!(a.report.clock, ClockDomain::Virtual);
/// assert_eq!(a.report.engine, "vt");
/// ```
#[derive(Clone, Debug)]
pub struct VirtualEngine {
    cluster: ClusterSpec,
    contention: Contention,
    faults: FaultSpec,
}

impl VirtualEngine {
    /// Simulate an arbitrary cluster description.
    pub fn new(cluster: ClusterSpec) -> VirtualEngine {
        VirtualEngine {
            cluster,
            contention: Contention::default(),
            faults: FaultSpec::default(),
        }
    }

    /// The paper's twelve-machine cluster (7 fast / 3 medium / 2 slow).
    pub fn paper() -> VirtualEngine {
        VirtualEngine::new(paper_cluster())
    }

    /// The cluster this engine simulates.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Model per-machine contention: processes sharing a machine
    /// time-slice it, so oversubscribed runs cost more virtual time.
    /// The default ([`Contention::Exclusive`]) is the classic model, in
    /// which every process computes at its machine's full speed.
    pub fn with_contention(mut self, contention: Contention) -> VirtualEngine {
        self.contention = contention;
        self
    }

    /// Inject a worker-level fault scenario into the run. An empty spec
    /// (the default) leaves the timeline bit-identical to the fault-free
    /// engine.
    pub fn with_faults(mut self, faults: FaultSpec) -> VirtualEngine {
        self.faults = faults;
        self
    }
}

impl<D: PtsDomain> ExecutionEngine<D> for VirtualEngine {
    fn name(&self) -> &'static str {
        "vt"
    }

    fn execute(&self, cfg: &PtsConfig, domain: &D, initial: SnapshotOf<D>) -> EngineOutput<D> {
        let wall = Instant::now();
        let assignment = round_robin_assignment(&self.cluster, cfg.total_procs());
        let mut cluster: VirtualTaskCluster<PtsMsg<D::Problem>> =
            VirtualTaskCluster::new(self.cluster.clone());
        cluster.set_contention(self.contention);
        if !self.faults.is_empty() {
            // Task ids equal protocol ranks (`run_tree` spawns in rank
            // order), so the worker-level spec lowers directly onto
            // runtime task ids.
            cluster.set_fault_plan(self.faults.resolve::<D::Problem>(cfg, &assignment));
        }
        let (outcome, cluster_report, _) =
            run_tree(cluster, &assignment, None, cfg, domain, initial);
        EngineOutput {
            outcome,
            report: RunReport {
                engine: "vt",
                clock: ClockDomain::Virtual,
                end_time: cluster_report.end_time,
                wall_seconds: wall.elapsed().as_secs_f64(),
                per_proc: cluster_report.per_proc,
                dead_ranks: vec![],
            },
        }
    }
}

/// Runs the master/TSW/CLW tree on `cluster`, rank `r` on machine
/// `assignment[r]`, every rank over a [`VirtualTransport`] with clock
/// `wall`. Returns the master's outcome, the cluster's report, and each
/// rank's `now()` as its protocol returned.
pub(crate) fn run_tree<D: PtsDomain>(
    mut cluster: VirtualTaskCluster<PtsMsg<D::Problem>>,
    assignment: &[usize],
    wall: Option<Instant>,
    cfg: &PtsConfig,
    domain: &D,
    initial: SnapshotOf<D>,
) -> (SearchOutcome<SnapshotOf<D>>, ClusterReport, Vec<f64>) {
    let outcome_slot = Rc::new(RefCell::new(None));
    let finished = Rc::new(RefCell::new(vec![0.0; assignment.len()]));
    // One configuration and one domain for the whole run: every rank's
    // task borrows them, and its role instantiates its own problem.
    let run = Rc::new((cfg.clone(), domain.clone()));
    // Spawn order must equal rank order: VirtualTransport identifies
    // rank with task id.
    {
        let (run, slot, finished) = (
            Rc::clone(&run),
            Rc::clone(&outcome_slot),
            Rc::clone(&finished),
        );
        cluster.spawn(assignment[0], move |ctx| async move {
            let (cfg, domain) = &*run;
            let mut t = VirtualTransport { ctx, wall };
            let outcome = run_master(&mut t, cfg, domain, initial, &RunControl::unlimited()).await;
            finished.borrow_mut()[0] = t.now();
            *slot.borrow_mut() = Some(outcome);
        });
    }
    for (rank, &machine) in assignment.iter().enumerate().skip(1) {
        let (run, finished) = (Rc::clone(&run), Rc::clone(&finished));
        cluster.spawn(machine, move |ctx| async move {
            let (cfg, domain) = &*run;
            let mut t = VirtualTransport { ctx, wall };
            run_role(&mut t, cfg, domain, rank).await;
            finished.borrow_mut()[rank] = t.now();
        });
    }
    let report = cluster.run();
    let outcome = outcome_slot.take().expect("master deposits its outcome");
    (outcome, report, finished.take())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Pts;
    use crate::qap_domain::QapDomain;
    use pts_vcluster::ProcStats;

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
    fn vt_engine_runs_qap_pipeline_in_virtual_time() {
        let domain = QapDomain::random(20, 5);
        let out = small_run().execute(&domain, &VirtualEngine::paper());
        assert!(out.outcome.best_cost <= out.outcome.initial_cost);
        assert_eq!(out.report.engine, "vt");
        assert_eq!(out.report.clock, ClockDomain::Virtual);
        assert_eq!(out.report.num_procs(), small_run().config().total_procs());
        assert!(out.report.end_time > 0.0, "virtual time must advance");
        // Virtual utilization is meaningful: busy and wait both accrue.
        let u = out.report.utilization();
        assert!(u > 0.0 && u <= 1.0, "vt utilization {u} not in (0, 1]");
        for (rank, p) in out.report.per_proc.iter().enumerate().skip(1) {
            assert!(p.messages_sent > 0, "rank {rank} sent nothing");
            assert!(p.busy_time > 0.0, "rank {rank} never computed");
        }
    }

    /// FNV-1a over the bits of every [`ProcStats`] field of every rank.
    fn stats_fold(per_proc: &[ProcStats]) -> u64 {
        per_proc
            .iter()
            .flat_map(|p| {
                [
                    p.machine as u64,
                    p.busy_time.to_bits(),
                    p.wait_time.to_bits(),
                    p.work_done.to_bits(),
                    p.messages_sent,
                    p.messages_received,
                    p.bytes_sent,
                    p.messages_dropped,
                    p.finished_at.to_bits(),
                    p.fate as u64,
                ]
            })
            .fold(0xcbf2_9ce4_8422_2325, |h, x| {
                (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn vt_engine_matches_sim_report_exactly() {
        // Everything the report carries — per-process virtual accounting
        // included — pinned bit for bit. The values were recorded from
        // the thread-per-process token-scheduler engine this one
        // replaced, which produced the identical run.
        let domain = QapDomain::random(18, 9);
        let vt = small_run().execute(&domain, &VirtualEngine::paper());
        let per_iter: Vec<u64> = vt
            .outcome
            .best_per_global_iter
            .iter()
            .map(|c| c.to_bits())
            .collect();
        assert_eq!(vt.outcome.best_cost.to_bits(), 0x40aa_39be_2d19_b078);
        assert_eq!(per_iter, [0x40ab_91ef_aaa4_b3ad, 0x40aa_39be_2d19_b078]);
        assert_eq!(vt.outcome.end_time.to_bits(), 0x4060_293e_00a4_f9d9);
        assert_eq!(vt.report.end_time.to_bits(), 0x4060_de8f_c39e_9777);
        assert_eq!(vt.outcome.forced_reports, 2);
        assert_eq!(vt.report.utilization().to_bits(), 0x3fdf_4ca5_f7c3_01cd);
        assert_eq!(vt.report.total_messages(), 209);
        assert_eq!(vt.report.total_bytes(), 13900);
        assert_eq!(vt.report.num_procs(), 10);
        assert_eq!(stats_fold(&vt.report.per_proc), 0x54da_4553_358c_f297);
    }

    #[test]
    fn vt_engine_is_deterministic() {
        let domain = QapDomain::random(18, 9);
        let a = small_run().execute(&domain, &VirtualEngine::paper());
        let b = small_run().execute(&domain, &VirtualEngine::paper());
        assert_eq!(a.outcome.best_cost, b.outcome.best_cost);
        assert_eq!(a.report.end_time, b.report.end_time);
        assert_eq!(a.report.per_proc, b.report.per_proc);
    }
}
