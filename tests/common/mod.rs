//! Shared helpers for the scenario and golden suites
//! (`heterogeneity.rs`, `vt_scenarios.rs`, `determinism.rs`):
//! parameterized run construction and scalable paper-shaped clusters, so
//! the same scenario definitions pin the Fig. 11 claims from the paper's
//! 12 machines up to thousand-worker virtual-time runs, and bit-level run
//! pins.

#![allow(dead_code)] // each test binary uses the subset it needs

use parallel_tabu_search::core::EngineOutput;
use parallel_tabu_search::prelude::*;
use parallel_tabu_search::vcluster::{LinkModel, LoadModel, Machine, ProcStats};

/// Parameterized scenario run: worker shape, iteration budget, and sync
/// policy — everything else (fan-out, snapshot mode, seed, ...) stays
/// settable on the returned builder. This replaces the hard-coded 4+4
/// worker sizes the heterogeneity suite used before the scenario matrix
/// existed.
pub fn scenario(
    n_tsw: usize,
    n_clw: usize,
    global_iters: u32,
    local_iters: u32,
    sync: SyncPolicy,
) -> RunBuilder {
    Pts::builder()
        .tsw_workers(n_tsw)
        .clw_workers(n_clw)
        .global_iters(global_iters)
        .local_iters(local_iters)
        .sync(sync)
}

/// A heterogeneous cluster of `n >= 3` machines in the paper's 7 : 3 : 2
/// fast/medium/slow proportions — speeds 1.0 / 0.6 / 0.35, slow machines
/// carrying the paper's periodic background load. `scaled_paper_cluster(12)`
/// is machine-for-machine the [`paper_cluster`] testbed; larger sizes keep
/// the same speed-class mix so thousand-worker scenarios stay comparable
/// to the original measurements.
pub fn scaled_paper_cluster(n: usize) -> ClusterSpec {
    assert!(n >= 3, "need at least one machine per speed class");
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

// The helpers' own tests live in `vt_scenarios.rs` (this module is
// compiled into every suite that declares `mod common;` — tests here
// would run once per consuming binary).

/// A run's outcome and accounting at bit level: what the golden tests pin
/// where they once compared the vt engine against the thread-per-process
/// token-scheduler engine it replaced (the pinned values were recorded
/// from that engine).
#[derive(Debug, PartialEq)]
pub struct RunPin {
    /// Best cost.
    pub best: u64,
    /// Best cost after each global iteration.
    pub per_round: Vec<u64>,
    /// The search's end time.
    pub end_time: u64,
    /// The report's end time (last process finished).
    pub report_end: u64,
    pub forced: u64,
    pub utilization: u64,
    pub messages: u64,
    pub bytes: u64,
    /// [`stats_fold`] of the per-process accounting.
    pub stats: u64,
}

impl RunPin {
    pub fn placement(out: &PlacementRunOutput) -> RunPin {
        let o = &out.outcome;
        RunPin::new(
            o.best_cost,
            &o.best_per_global_iter,
            o.end_time,
            o.forced_reports,
            &out.report,
        )
    }

    pub fn engine<D: PtsDomain>(out: &EngineOutput<D>) -> RunPin {
        let o = &out.outcome;
        RunPin::new(
            o.best_cost,
            &o.best_per_global_iter,
            o.end_time,
            o.forced_reports,
            &out.report,
        )
    }

    fn new(
        best_cost: f64,
        best_per_round: &[f64],
        end_time: f64,
        forced_reports: u64,
        report: &RunReport,
    ) -> RunPin {
        RunPin {
            best: best_cost.to_bits(),
            per_round: best_per_round.iter().map(|c| c.to_bits()).collect(),
            end_time: end_time.to_bits(),
            report_end: report.end_time.to_bits(),
            forced: forced_reports,
            utilization: report.utilization().to_bits(),
            messages: report.total_messages(),
            bytes: report.total_bytes(),
            stats: stats_fold(&report.per_proc),
        }
    }
}

/// FNV-1a over the bits of every [`ProcStats`] field of every rank.
pub fn stats_fold(per_proc: &[ProcStats]) -> u64 {
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
