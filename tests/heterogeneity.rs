//! The paper's headline heterogeneity claim (Fig. 11): with the same
//! iteration budget on the 12-machine heterogeneous cluster, the
//! half-report run finishes in far less time than the wait-all run, at
//! comparable final quality.
//!
//! Every claim is checked on the virtual-time engine (`vt`) at sizes
//! parameterized through the shared scenario helper;
//! `tests/vt_scenarios.rs` extends the same scenarios to thousand-worker
//! scale.

mod common;

use common::scenario;
use parallel_tabu_search::prelude::*;
use std::sync::Arc;

/// The suite's iteration budget (3 global x 6 local), at any worker shape.
fn run(n_tsw: usize, n_clw: usize, sync: SyncPolicy) -> PtsRun {
    scenario(n_tsw, n_clw, 3, 6, sync).build().unwrap()
}

#[test]
fn half_report_finishes_faster_at_comparable_quality() {
    let netlist = Arc::new(by_name("c532").unwrap());
    // The paper-scale shape, plus a larger one (worker count is not
    // capped by OS threads).
    let engine = VirtualEngine::paper();
    for (n_tsw, n_clw) in [(4, 4), (12, 2)] {
        let het = run(n_tsw, n_clw, SyncPolicy::HalfReport).run_placement(netlist.clone(), &engine);
        let hom = run(n_tsw, n_clw, SyncPolicy::WaitAll).run_placement(netlist.clone(), &engine);

        let tag = format!("{n_tsw}x{n_clw}");
        assert!(
            het.outcome.end_time < hom.outcome.end_time,
            "{tag}: half-report ({:.2}) must beat wait-all ({:.2}) in virtual time: \
             slow machines stop gating every round",
            het.outcome.end_time,
            hom.outcome.end_time
        );
        assert!(
            het.outcome.forced_reports > 0,
            "{tag}: the heterogeneous run must actually force stragglers"
        );
        assert_eq!(
            hom.outcome.forced_reports, 0,
            "{tag}: the wait-all run never forces anyone"
        );
        // Quality parity: the paper observed "no noticeable differences";
        // allow a modest band.
        let q_het = het.outcome.best_cost;
        let q_hom = hom.outcome.best_cost;
        assert!(
            q_het <= q_hom * 1.25 + 0.05,
            "{tag}: half-report quality ({q_het}) must stay comparable to wait-all ({q_hom})"
        );
    }
}

#[test]
fn wait_all_gated_by_slowest_machine() {
    // On a homogeneous cluster wait-all and half-report should take
    // similar time (nobody is a straggler); on the paper's heterogeneous
    // cluster the gap must be large.
    let netlist = Arc::new(by_name("highway").unwrap());
    let end_time = |cluster: ClusterSpec, sync| {
        let out = run(4, 4, sync).run_placement(netlist.clone(), &VirtualEngine::new(cluster));
        out.outcome.end_time
    };

    let het_gap = end_time(paper_cluster(), SyncPolicy::WaitAll)
        / end_time(paper_cluster(), SyncPolicy::HalfReport);
    let hom_gap = end_time(homogeneous(12), SyncPolicy::WaitAll)
        / end_time(homogeneous(12), SyncPolicy::HalfReport);

    assert!(
        het_gap > hom_gap,
        "heterogeneity must amplify the wait-all penalty \
         (het ratio {het_gap:.2} vs hom ratio {hom_gap:.2})"
    );
    assert!(
        het_gap > 1.3,
        "on the paper cluster, wait-all should cost at least 30% more time \
         (ratio {het_gap:.2})"
    );
}

#[test]
fn half_report_speeds_up_qap_runs_too() {
    // The heterogeneity mechanism is problem-independent: the same gap
    // must appear when the pipeline runs quadratic assignment.
    let domain = QapDomain::random(24, 5);
    let het = run(4, 4, SyncPolicy::HalfReport).execute(&domain, &VirtualEngine::paper());
    let hom = run(4, 4, SyncPolicy::WaitAll).execute(&domain, &VirtualEngine::paper());
    assert!(
        het.outcome.end_time < hom.outcome.end_time,
        "half-report ({:.2}) must beat wait-all ({:.2}) on QAP as well",
        het.outcome.end_time,
        hom.outcome.end_time
    );
    assert!(het.outcome.forced_reports > 0);
    assert_eq!(hom.outcome.forced_reports, 0);
}
