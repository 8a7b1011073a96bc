//! The virtual cluster makes the entire parallel search deterministic:
//! identical seeds must produce bit-identical outcomes, including virtual
//! timing — the property the paper's testbed could never offer.

mod common;

use common::RunPin;
use parallel_tabu_search::prelude::*;
use std::sync::Arc;

fn run_on(
    seed: u64,
    sync: SyncPolicy,
    netlist: Arc<Netlist>,
    engine: &dyn ExecutionEngine<PlacementDomain>,
) -> PlacementRunOutput {
    Pts::builder()
        .tsw_workers(3)
        .clw_workers(2)
        .global_iters(3)
        .local_iters(5)
        .seed(seed)
        .sync(sync)
        .build()
        .unwrap()
        .run_placement(netlist, engine)
}

fn run(seed: u64, sync: SyncPolicy, netlist: Arc<Netlist>) -> PlacementRunOutput {
    run_on(seed, sync, netlist, &VirtualEngine::paper())
}

#[test]
fn identical_seeds_replay_identically() {
    let netlist = Arc::new(by_name("c532").unwrap());
    for sync in [SyncPolicy::HalfReport, SyncPolicy::WaitAll] {
        let a = run(7, sync, netlist.clone());
        let b = run(7, sync, netlist.clone());
        assert_eq!(a.outcome.best_cost, b.outcome.best_cost);
        assert_eq!(a.outcome.best_placement, b.outcome.best_placement);
        assert_eq!(a.outcome.end_time, b.outcome.end_time);
        assert_eq!(a.outcome.forced_reports, b.outcome.forced_reports);
        let ta: Vec<_> = a.outcome.trace.points().to_vec();
        let tb: Vec<_> = b.outcome.trace.points().to_vec();
        assert_eq!(ta.len(), tb.len());
        for (x, y) in ta.iter().zip(tb.iter()) {
            assert_eq!(x.time, y.time);
            assert_eq!(x.best_cost, y.best_cost);
        }
        // Unified cluster metrics replay too.
        assert_eq!(a.report.total_messages(), b.report.total_messages());
        assert_eq!(a.report.total_bytes(), b.report.total_bytes());
        assert_eq!(a.report.end_time, b.report.end_time);
    }
}

#[test]
fn different_seeds_explore_differently() {
    let netlist = Arc::new(by_name("c532").unwrap());
    let a = run(1, SyncPolicy::HalfReport, netlist.clone());
    let b = run(2, SyncPolicy::HalfReport, netlist);
    assert_ne!(
        a.outcome.best_placement, b.outcome.best_placement,
        "different seeds should find different solutions"
    );
}

#[test]
fn sim_results_match_pinned_golden_values() {
    // Golden values captured from the redesigned engine at the point the
    // old `Engine::Sim` enum path was replaced — pinning them keeps the
    // virtual-clock engine (first the thread-per-process token
    // scheduler, now the vt engine, which replays it bit for bit)
    // compatible with that lineage across refactors (RNG salting,
    // scheme freezing, scheduling, sharding). If a change is *supposed*
    // to alter the search trajectory, update these constants
    // deliberately in the same commit.
    //
    // `SnapshotMode::Full` is that lineage's wire format: every message
    // size — and hence the whole virtual timeline — must still match the
    // pre-delta-protocol constants exactly. The delta layer must be
    // invisible when switched off.
    let netlist = Arc::new(by_name("highway").unwrap());
    let out = Pts::builder()
        .tsw_workers(3)
        .clw_workers(2)
        .global_iters(3)
        .local_iters(5)
        .seed(7)
        .sync(SyncPolicy::HalfReport)
        .snapshot_mode(SnapshotMode::Full)
        .build()
        .unwrap()
        .run_placement(netlist, &VirtualEngine::paper());
    assert_eq!(out.outcome.initial_cost, 0.4545454545454546);
    assert_eq!(out.outcome.best_cost, 0.3443553378135912);
    assert_eq!(out.outcome.end_time, 356.30363866666653);
    assert_eq!(out.outcome.forced_reports, 3);
    assert_eq!(
        out.outcome.best_per_global_iter,
        vec![0.373612307065027, 0.3443553378135912, 0.3443553378135912]
    );
    assert_eq!(out.outcome.trace.points().len(), 11);
    assert_eq!(out.report.total_messages(), 357);
    assert_eq!(out.report.total_bytes(), 28476);
}

#[test]
fn sim_results_match_pinned_golden_values_delta_mode() {
    // The default delta protocol: same search (highway's trajectory is
    // identical move for move — snapshots reconstructed from deltas are
    // bit-identical), same message count, fewer wire bytes, and a
    // correspondingly earlier virtual finish. Captured at the delta
    // protocol's introduction; update deliberately with any change that
    // is supposed to alter wire sizes or the trajectory.
    let netlist = Arc::new(by_name("highway").unwrap());
    let out = run(7, SyncPolicy::HalfReport, netlist);
    assert_eq!(out.outcome.initial_cost, 0.4545454545454546);
    assert_eq!(out.outcome.best_cost, 0.3443553378135912);
    assert_eq!(out.outcome.end_time, 356.3028146666666);
    assert_eq!(out.outcome.forced_reports, 3);
    assert_eq!(
        out.outcome.best_per_global_iter,
        vec![0.373612307065027, 0.3443553378135912, 0.3443553378135912]
    );
    assert_eq!(out.outcome.trace.points().len(), 11);
    assert_eq!(out.report.total_messages(), 357);
    assert_eq!(out.report.total_bytes(), 24708);
}

#[test]
fn vt_engine_is_bit_identical_to_sim_on_the_paper_cluster() {
    // The vt engine replaced a thread-per-process token-scheduler engine
    // whose timeline it reproduced exactly. These are that engine's
    // values — end time, utilization, per-process virtual accounting,
    // trajectory, and forced reports, under both sync policies — pinned
    // on vt. Update them only with a change meant to alter the timeline.
    let netlist = Arc::new(by_name("c532").unwrap());
    let per_round = vec![
        0x3fda_a579_938d_67dc,
        0x3fd9_6ce6_4b52_d49c,
        0x3fd8_32c7_d715_da2e,
    ];
    let pins = [
        (
            SyncPolicy::HalfReport,
            RunPin {
                best: 0x3fd8_32c7_d715_da2e,
                per_round: per_round.clone(),
                end_time: 0x4076_3357_9dbd_5c59,
                report_end: 0x4076_60aa_044a_e856,
                forced: 3,
                utilization: 0x3fdd_7737_2e6b_f7c2,
                messages: 369,
                bytes: 41348,
                stats: 0x86b9_00e7_bf37_5c58,
            },
        ),
        (
            SyncPolicy::WaitAll,
            RunPin {
                best: 0x3fd8_32c7_d715_da2e,
                per_round,
                end_time: 0x4076_3357_9dbd_5c59,
                report_end: 0x4076_60aa_044a_e856,
                forced: 0,
                utilization: 0x3fdd_a544_5576_f124,
                messages: 321,
                bytes: 39820,
                stats: 0xb64e_1d75_90f1_7750,
            },
        ),
    ];
    for (sync, pin) in pins {
        let vt = run_on(7, sync, netlist.clone(), &VirtualEngine::paper());
        assert_eq!(RunPin::placement(&vt), pin, "{sync:?}");
        assert_eq!(vt.report.clock, ClockDomain::Virtual);
        assert_eq!(vt.report.engine, "vt");
    }
}

#[test]
fn vt_results_match_pinned_golden_values() {
    // The golden constants `sim_results_match_pinned_golden_values_delta_mode`
    // pins (captured on the token-scheduler engine vt replaced), plus the
    // virtual utilization — the paper's headline metric. If a change
    // deliberately alters the timeline, update these constants in the
    // same commit as the other goldens.
    let netlist = Arc::new(by_name("highway").unwrap());
    let out = run_on(7, SyncPolicy::HalfReport, netlist, &VirtualEngine::paper());
    assert_eq!(out.outcome.initial_cost, 0.4545454545454546);
    assert_eq!(out.outcome.best_cost, 0.3443553378135912);
    assert_eq!(out.outcome.end_time, 356.3028146666666);
    assert_eq!(out.outcome.forced_reports, 3);
    assert_eq!(
        out.outcome.best_per_global_iter,
        vec![0.373612307065027, 0.3443553378135912, 0.3443553378135912]
    );
    assert_eq!(out.outcome.trace.points().len(), 11);
    assert_eq!(out.report.total_messages(), 357);
    assert_eq!(out.report.total_bytes(), 24708);
    assert_eq!(out.report.utilization(), 0.4536472596680329);
}

#[test]
fn vt_c3540_paper_cluster_matches_pinned_golden_values() {
    // The highway goldens above run 56 cells at depth 5, where every timing
    // cone is a handful of cells. This pins a run on c3540 (2,243 cells),
    // whose cones reach over a hundred cells per trial, so a change to the
    // incremental STA walk that is deterministic but wrong moves these
    // values. Shaped like the benchmark's `place-paper` workload. Update
    // the constants only with a change that is meant to alter the
    // trajectory.
    let netlist = Arc::new(by_name("c3540").unwrap());
    let out = Pts::builder()
        .tsw_workers(8)
        .clw_workers(2)
        .global_iters(2)
        .local_iters(5)
        .seed(11)
        .sync(SyncPolicy::HalfReport)
        .build()
        .unwrap()
        .run_placement(netlist, &VirtualEngine::paper());
    let bits: Vec<u64> = out
        .outcome
        .best_per_global_iter
        .iter()
        .map(|c| c.to_bits())
        .collect();
    assert_eq!(out.outcome.best_cost.to_bits(), 0x3fdc_3f39_8235_8518);
    assert_eq!(bits, [0x3fdc_5df0_5f1e_7d32, 0x3fdc_3f39_8235_8518]);
    assert_eq!(out.outcome.end_time, 325.33767809523806);
    assert_eq!(out.outcome.forced_reports, 8);
    assert_eq!(out.outcome.trace.points().len(), 17);
    assert_eq!(out.report.total_messages(), 547);
}

#[test]
fn sharded_master_replays_identically() {
    // The sub-master tree must not cost determinism: identical seeds,
    // identical timeline — including the forces leaf sub-masters issue
    // under their local HalfReport quorum.
    let netlist = Arc::new(by_name("c532").unwrap());
    let run = |nl| {
        Pts::builder()
            .tsw_workers(5)
            .clw_workers(2)
            .global_iters(3)
            .local_iters(5)
            .seed(7)
            .sync(SyncPolicy::HalfReport)
            .shard_fanout(2)
            .build()
            .unwrap()
            .run_placement(nl, &VirtualEngine::paper())
    };
    let a = run(netlist.clone());
    let b = run(netlist);
    assert_eq!(a.outcome.best_cost, b.outcome.best_cost);
    assert_eq!(a.outcome.best_placement, b.outcome.best_placement);
    assert_eq!(a.outcome.end_time, b.outcome.end_time);
    assert_eq!(a.outcome.forced_reports, b.outcome.forced_reports);
    assert_eq!(a.report.total_messages(), b.report.total_messages());
    assert_eq!(a.report.total_bytes(), b.report.total_bytes());
}

#[test]
fn qap_pipeline_is_deterministic_too() {
    let domain = QapDomain::random(24, 11);
    let run = Pts::builder()
        .tsw_workers(3)
        .clw_workers(2)
        .global_iters(3)
        .local_iters(5)
        .seed(7)
        .build()
        .unwrap();
    let a = run.execute(&domain, &VirtualEngine::paper());
    let b = run.execute(&domain, &VirtualEngine::paper());
    assert_eq!(a.outcome.best_cost, b.outcome.best_cost);
    assert_eq!(a.outcome.best, b.outcome.best);
    assert_eq!(a.outcome.end_time, b.outcome.end_time);
    assert_eq!(a.report.total_messages(), b.report.total_messages());
}

#[test]
fn qap_swarm_shaped_async_run_matches_pinned_golden_values() {
    // Every other QAP determinism check compares a run with itself, so a
    // change that is deterministic but wrong would pass them all. This one
    // pins absolute values for a small run shaped like the benchmark's
    // `qap-swarm` workload: many TSWs under a sub-master tree, delta
    // snapshots, independent diversification streams. Each TSW adopts the
    // same broadcast and each worker instantiates the same Init, so every
    // shared-solution path through `Qap::restore` runs. Update these
    // constants only with a change that is meant to alter the trajectory.
    let domain = QapDomain::random(64, 11);
    let out = Pts::builder()
        .tsw_workers(64)
        .clw_workers(1)
        .shard_fanout_auto()
        .candidates(5)
        .depth(2)
        .global_iters(3)
        .local_iters(3)
        .seed(7)
        .snapshot_mode(SnapshotMode::Delta)
        .differentiate_streams(true)
        .sync(SyncPolicy::WaitAll)
        .build()
        .unwrap()
        .execute(&domain, &AsyncEngine::new());
    let bits: Vec<u64> = out
        .outcome
        .best_per_global_iter
        .iter()
        .map(|c| c.to_bits())
        .collect();
    assert_eq!(out.outcome.best_cost.to_bits(), 0x40e7_81e1_1e5d_dcde);
    assert_eq!(
        bits,
        [
            0x40e8_242f_f536_5131,
            0x40e7_c4a0_6fe3_256e,
            0x40e7_81e1_1e5d_dcde
        ]
    );
    assert_eq!(out.outcome.trace.points().len(), 21);
    assert_eq!(out.report.total_messages(), 2552);
}

#[test]
fn tabu_delta_changes_bytes_but_never_the_trajectory() {
    // The broadcast tabu-delta knob is a pure wire optimization: the
    // resolved tabu list is exactly the sender's, so the search must be
    // move-for-move identical with it on or off — same best cost, same
    // placement, same per-round history, same message count. Only wire
    // bytes (and hence the virtual timeline) may shrink, never grow.
    let netlist = Arc::new(by_name("highway").unwrap());
    let run = |tabu_delta: bool, nl| {
        Pts::builder()
            .tsw_workers(3)
            .clw_workers(2)
            .global_iters(3)
            .local_iters(5)
            .seed(7)
            .sync(SyncPolicy::HalfReport)
            .tabu_delta(tabu_delta)
            .build()
            .unwrap()
            .run_placement(nl, &VirtualEngine::paper())
    };
    let off = run(false, netlist.clone());
    let on = run(true, netlist);
    assert_eq!(on.outcome.best_cost, off.outcome.best_cost);
    assert_eq!(on.outcome.best_placement, off.outcome.best_placement);
    assert_eq!(
        on.outcome.best_per_global_iter,
        off.outcome.best_per_global_iter
    );
    assert_eq!(on.outcome.forced_reports, off.outcome.forced_reports);
    assert_eq!(on.report.total_messages(), off.report.total_messages());
    assert!(
        on.report.total_bytes() <= off.report.total_bytes(),
        "tabu delta must never cost bytes: {} > {}",
        on.report.total_bytes(),
        off.report.total_bytes()
    );
}

#[test]
fn two_strategy_portfolio_replays_identically_and_vt_matches_sim() {
    // A heterogeneous portfolio adds strategy stamps to the wire, a
    // quality-rate reduction at leaf sub-masters, and the root's
    // epsilon-greedy reallocator — all of which must be functions of the
    // run seed alone. Identical seeds replay bit-identically, and the
    // whole timeline, reallocation decisions included, matches the
    // values pinned from the token-scheduler engine vt replaced.
    let netlist = Arc::new(by_name("c532").unwrap());
    let strategies = [
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
    ];
    let run = |nl| {
        Pts::builder()
            .tsw_workers(4)
            .clw_workers(2)
            .global_iters(3)
            .local_iters(5)
            .seed(7)
            .sync(SyncPolicy::HalfReport)
            .shard_fanout(2)
            .portfolio(strategies)
            .build()
            .unwrap()
            .run_placement(nl, &VirtualEngine::paper())
    };
    let a = run(netlist.clone());
    let b = run(netlist);
    assert_eq!(a.outcome.best_cost, b.outcome.best_cost);
    assert_eq!(a.outcome.best_placement, b.outcome.best_placement);
    assert_eq!(a.outcome.end_time, b.outcome.end_time);
    assert_eq!(a.outcome.forced_reports, b.outcome.forced_reports);
    assert_eq!(a.report.total_messages(), b.report.total_messages());
    assert_eq!(a.report.total_bytes(), b.report.total_bytes());

    assert_eq!(
        RunPin::placement(&a),
        RunPin {
            best: 0x3fd8_078f_6179_e904,
            per_round: vec![
                0x3fda_c717_aece_fe26,
                0x3fd9_8183_1ffe_daa4,
                0x3fd8_078f_6179_e904
            ],
            end_time: 0x407f_c1a8_78d4_648d,
            report_end: 0x4080_081e_6614_e921,
            forced: 6,
            utilization: 0x3fd2_bdcb_5dec_8099,
            messages: 483,
            bytes: 64148,
            stats: 0x2ba4_adfb_f1fc_27d9,
        }
    );
}

#[test]
fn sequential_baseline_is_deterministic() {
    let netlist = Arc::new(by_name("highway").unwrap());
    let cfg = PtsConfig {
        n_tsw: 3,
        n_clw: 2,
        global_iters: 3,
        local_iters: 5,
        seed: 9,
        ..PtsConfig::default()
    };
    let a = run_sequential_baseline(&cfg, netlist.clone());
    let b = run_sequential_baseline(&cfg, netlist);
    assert_eq!(a.best_cost, b.best_cost);
    assert_eq!(a.stats, b.stats);
}
