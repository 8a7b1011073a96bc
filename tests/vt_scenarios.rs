//! The vt scenario matrix: paper-style heterogeneity claims pinned at
//! thousand-worker scale.
//!
//! A thread-per-process virtual clock stops Fig.-11-style measurements
//! (half-report vs wait-all timing on a heterogeneous cluster) at tens
//! of workers. `VirtualEngine` carries the virtual clock and machine
//! model on cooperative futures, so the same claims run —
//! deterministically, in CI — at `n_tsw` = 12, 256 and 1024 on one OS
//! thread, across a scenario matrix of sync policy x cluster shape x
//! shard fan-out x snapshot mode.
//!
//! The small-scale corner of the matrix is pinned bit for bit to the
//! values the thread-per-process token-scheduler engine produced before
//! vt replaced it: the large-scale numbers are extrapolations of a
//! timing model shown identical where both engines could run.

mod common;

use common::{scaled_paper_cluster, scenario, RunPin};
use parallel_tabu_search::prelude::*;

#[test]
fn scaled_cluster_at_twelve_is_the_paper_cluster() {
    assert_eq!(scaled_paper_cluster(12), paper_cluster());
}

#[test]
fn scaled_cluster_keeps_all_three_classes() {
    for n in [3usize, 12, 36, 100] {
        let c = scaled_paper_cluster(n);
        assert_eq!(c.num_machines(), n);
        for speed in [1.0, 0.6, 0.35] {
            assert!(
                c.machines.iter().any(|m| m.speed == speed),
                "n={n}: missing speed class {speed}"
            );
        }
    }
}

/// One half-report-vs-wait-all pair on a heterogeneous cluster: the
/// Fig. 11 claim at an arbitrary scale. Large scales run through the
/// sharded collection tree (`shard_fanout_auto`) — with a flat master,
/// O(`n_tsw`) per-report handling makes rank 0 the critical path at
/// thousand-worker scale and the sync policy stops mattering, which is
/// precisely why the sub-master tree exists. Returns the wait-all /
/// half-report end-time ratio after asserting the timing, forcing, and
/// quality invariants.
fn assert_half_report_wins(
    n_tsw: usize,
    n_clw: usize,
    cluster: ClusterSpec,
    domain: &QapDomain,
) -> f64 {
    let build = |sync| {
        let mut b = scenario(n_tsw, n_clw, 2, 3, sync)
            .candidates(4)
            .depth(2)
            .differentiate_streams(true)
            .seed(0xBEE5);
        if n_tsw > 64 {
            b = b.shard_fanout_auto();
        }
        b.build().unwrap()
    };
    let het = build(SyncPolicy::HalfReport).execute(domain, &VirtualEngine::new(cluster.clone()));
    let hom = build(SyncPolicy::WaitAll).execute(domain, &VirtualEngine::new(cluster));

    let tag = format!("n_tsw={n_tsw}");
    assert!(
        het.outcome.end_time < hom.outcome.end_time,
        "{tag}: half-report ({:.2}) must beat wait-all ({:.2}) in virtual time",
        het.outcome.end_time,
        hom.outcome.end_time
    );
    assert!(
        het.outcome.forced_reports > 0,
        "{tag}: half-report must force stragglers on a heterogeneous cluster"
    );
    assert_eq!(
        hom.outcome.forced_reports, 0,
        "{tag}: wait-all never forces anyone"
    );
    // Quality parity within the paper's "no noticeable differences" band.
    assert!(
        het.outcome.best_cost <= hom.outcome.best_cost * 1.25,
        "{tag}: half-report quality ({}) must stay comparable to wait-all ({})",
        het.outcome.best_cost,
        hom.outcome.best_cost
    );
    // Both improve on the shared initial solution.
    assert!(het.outcome.best_cost < het.outcome.initial_cost, "{tag}");
    hom.outcome.end_time / het.outcome.end_time
}

#[test]
fn half_report_beats_wait_all_at_n12() {
    let domain = QapDomain::random(64, 7);
    assert_half_report_wins(12, 2, scaled_paper_cluster(12), &domain);
}

#[test]
fn half_report_beats_wait_all_at_n256() {
    let domain = QapDomain::random(64, 7);
    assert_half_report_wins(256, 1, scaled_paper_cluster(24), &domain);
}

#[test]
fn half_report_beats_wait_all_at_n1024_on_one_os_thread() {
    // The acceptance bar: an n_tsw = 1024 heterogeneous HalfReport run —
    // 2049 logical processes — completes under the virtual clock on the
    // calling thread (the vt engine spawns no OS threads at all), and
    // still shows the paper's half-report win.
    let domain = QapDomain::random(64, 7);
    let speedup = assert_half_report_wins(1024, 1, scaled_paper_cluster(48), &domain);
    assert!(
        speedup > 1.05,
        "the half-report win must not vanish at scale (ratio {speedup:.3})"
    );
}

#[test]
fn scenario_matrix_sync_x_cluster_x_fanout_x_snapshot() {
    // The full matrix at n_tsw = 64: every combination of sync policy,
    // cluster shape, shard fan-out, and snapshot mode must complete and
    // obey the protocol invariants — and forced reports appear exactly
    // under HalfReport (never under WaitAll).
    type ClusterCtor = fn() -> ClusterSpec;
    let domain = QapDomain::random(48, 11);
    let clusters: [(&str, ClusterCtor); 3] = [
        ("paper12", paper_cluster),
        ("het36", || scaled_paper_cluster(36)),
        ("hom12", || homogeneous(12)),
    ];
    for (shape, cluster) in clusters {
        for fanout in [0usize, 8] {
            for sync in [SyncPolicy::HalfReport, SyncPolicy::WaitAll] {
                let run = |mode| {
                    scenario(64, 1, 2, 3, sync)
                        .candidates(4)
                        .depth(2)
                        .differentiate_streams(true)
                        .shard_fanout(fanout)
                        .snapshot_mode(mode)
                        .seed(0xFACE)
                        .build()
                        .unwrap()
                        .execute(&domain, &VirtualEngine::new(cluster()))
                };
                let delta = run(SnapshotMode::Delta);
                let tag = format!("{shape} fanout={fanout} {sync:?}");
                assert!(
                    delta.outcome.best_cost < delta.outcome.initial_cost,
                    "{tag}: must improve"
                );
                assert!(delta.report.end_time > 0.0, "{tag}");
                let u = delta.report.utilization();
                assert!(u > 0.0 && u <= 1.0, "{tag}: utilization {u} not in (0, 1]");
                match sync {
                    SyncPolicy::WaitAll => assert_eq!(
                        delta.outcome.forced_reports, 0,
                        "{tag}: wait-all never forces"
                    ),
                    SyncPolicy::HalfReport => {
                        if shape != "hom12" {
                            assert!(
                                delta.outcome.forced_reports > 0,
                                "{tag}: heterogeneous half-report must force stragglers"
                            );
                        }
                    }
                }
                // The snapshot-mode axis: a wire format, not a search
                // change. Under WaitAll nothing depends on timing, so the
                // trajectory must be bit-identical across modes (under
                // HalfReport the vt clock legitimately *sees* the smaller
                // delta messages arrive earlier).
                if sync == SyncPolicy::WaitAll {
                    let full = run(SnapshotMode::Full);
                    assert_eq!(
                        delta.outcome.best_per_global_iter, full.outcome.best_per_global_iter,
                        "{tag}: delta mode changed the WaitAll trajectory"
                    );
                    assert_eq!(delta.outcome.best_cost, full.outcome.best_cost, "{tag}");
                    assert!(
                        delta.report.total_bytes() < full.report.total_bytes(),
                        "{tag}: delta mode must cut wire bytes"
                    );
                }
            }
        }
    }
}

#[test]
fn vt_matches_sim_bit_for_bit_across_the_matrix_corner() {
    // Every cell of the small-worker corner must reproduce, bit for bit,
    // the run the token-scheduler engine produced before vt replaced it:
    // timeline, per-process accounting, forces, trajectory. This is what
    // licenses reading the thousand-worker vt numbers as "what the
    // thread-per-process model would have measured". All eight cells
    // share one trajectory; the timeline and traffic differ per cell.
    let domain = QapDomain::random(24, 3);
    let pin = |end_time, report_end, forced, utilization, messages, bytes, stats| RunPin {
        best: 0x40b9_71b9_5d8e_140b,
        per_round: vec![
            0x40ba_52c1_5591_1d93,
            0x40b9_9b6b_c31b_fc8e,
            0x40b9_71b9_5d8e_140b,
        ],
        end_time,
        report_end,
        forced,
        utilization,
        messages,
        bytes,
        stats,
    };
    // In loop order: fan-out 0 then 2; HalfReport then WaitAll; Delta
    // then Full.
    let mut pins = [
        pin(
            0x406f_4e79_55d1_2a47,
            0x406f_f551_7448_2c81,
            6,
            0x3fdd_0515_6853_679c,
            480,
            34352,
            0x154d_d40b_e8c7_9d9e,
        ),
        pin(
            0x406f_4e7b_f4e7_db64,
            0x406f_f552_917e_9e2d,
            6,
            0x3fdd_0513_2877_dfc3,
            480,
            40088,
            0x7621_9b46_e71a_ab67,
        ),
        pin(
            0x407d_0793_0715_bca2,
            0x407d_d6a4_0660_2ef5,
            0,
            0x3fd3_f8dc_874f_3750,
            445,
            34276,
            0x29dd_022f_22c5_a728,
        ),
        pin(
            0x407d_0794_56a1_1531,
            0x407d_d6a4_4dad_cb60,
            0,
            0x3fd3_f8db_a452_e2b4,
            445,
            39820,
            0x544f_b32b_3d91_840c,
        ),
        pin(
            0x406d_b05a_330a_a7b1,
            0x406e_58d9_4d40_f133,
            6,
            0x3fd6_6e29_e774_4303,
            501,
            45500,
            0x83bb_84f5_e013_58c5,
        ),
        pin(
            0x406d_b069_99af_f83a,
            0x406e_58f0_1bb9_8fb1,
            6,
            0x3fd6_6e20_1900_cffd,
            501,
            54044,
            0x0d37_2fe0_98fb_51ae,
        ),
        pin(
            0x407d_1d00_b527_6bae,
            0x407d_d6a9_4cf1_0cfe,
            0,
            0x3fce_844a_953b_ee64,
            480,
            46312,
            0x3abe_f207_d9e2_7f17,
        ),
        pin(
            0x407d_1d03_32b0_2d8a,
            0x407d_d6a9_943e_a969,
            0,
            0x3fce_8448_1528_bcfd,
            480,
            54592,
            0x1b4b_c120_78e6_fba4,
        ),
    ]
    .into_iter();
    for fanout in [0usize, 2] {
        for sync in [SyncPolicy::HalfReport, SyncPolicy::WaitAll] {
            for mode in [SnapshotMode::Delta, SnapshotMode::Full] {
                let vt = scenario(5, 2, 3, 4, sync)
                    .candidates(4)
                    .depth(2)
                    .shard_fanout(fanout)
                    .snapshot_mode(mode)
                    .seed(0xFEED)
                    .build()
                    .unwrap()
                    .execute(&domain, &VirtualEngine::paper());
                let tag = format!("fanout={fanout} {sync:?} {mode:?}");
                assert_eq!(RunPin::engine(&vt), pins.next().unwrap(), "{tag}");
            }
        }
    }
}

#[test]
fn half_report_still_wins_with_a_tenth_of_the_cluster_slowed_five_fold() {
    // The faulty column of the matrix: degrade ~10% of the machines to
    // 0.2x speed for the whole run (a contention/fault condition the
    // paper's PVM cluster hit in practice) and re-ask the Fig. 11
    // question. Half-report's advantage must *survive* the degradation:
    // it still forces the (now much slower) stragglers and finishes
    // first, while wait-all inherits the slowed machines as its critical
    // path. Machine 0 hosts the master (ranks round-robin from the
    // fastest machine) and is left untouched.
    let domain = QapDomain::random(64, 7);
    let faults = FaultSpec::new(0).with(WorkerFault::SlowMachine {
        at: 0.0,
        machine: 5,
        factor: 0.2,
    });
    let faults = faults.with(WorkerFault::SlowMachine {
        at: 0.0,
        machine: 13,
        factor: 0.2,
    });
    let build = |sync| {
        scenario(64, 1, 2, 3, sync)
            .candidates(4)
            .depth(2)
            .differentiate_streams(true)
            .seed(0xBEE5)
            .build()
            .unwrap()
    };
    let engine = VirtualEngine::new(scaled_paper_cluster(24)).with_faults(faults);
    let het = build(SyncPolicy::HalfReport).execute(&domain, &engine);
    let hom = build(SyncPolicy::WaitAll).execute(&domain, &engine);

    assert!(
        het.outcome.end_time < hom.outcome.end_time,
        "faulty half-report ({:.2}) must beat faulty wait-all ({:.2})",
        het.outcome.end_time,
        hom.outcome.end_time
    );
    assert!(
        het.outcome.forced_reports > 0,
        "slowed machines must show up as forced stragglers"
    );
    assert_eq!(hom.outcome.forced_reports, 0);
    assert!(het.outcome.best_cost < het.outcome.initial_cost);
    assert!(hom.outcome.best_cost < hom.outcome.initial_cost);

    // The fault-free row is unchanged by merely *supporting* faults: the
    // same build on a clean engine still ends at the pinned golden time,
    // and the slowdown strictly costs wall-clock under both policies.
    let clean = build(SyncPolicy::HalfReport)
        .execute(&domain, &VirtualEngine::new(scaled_paper_cluster(24)));
    assert!(clean.outcome.end_time < het.outcome.end_time);
    let clean_hom =
        build(SyncPolicy::WaitAll).execute(&domain, &VirtualEngine::new(scaled_paper_cluster(24)));
    assert!(clean_hom.outcome.end_time < hom.outcome.end_time);
}

#[test]
fn mixed_portfolio_matches_or_beats_uniform_best_on_the_paper_cluster() {
    // The portfolio claim, pinned on the heterogeneous paper cluster: a
    // two-strategy portfolio — an intensifying profile and a diversifying
    // profile, round-robined over the TSW groups and reallocated by the
    // root's epsilon-greedy bandit on observed quality-per-virtual-second
    // — must match or beat the best *uniform* run of either strategy
    // alone, under the same seed. A one-entry portfolio is exactly a
    // uniform run, so the comparison shares every other knob.
    let domain = QapDomain::random(64, 7);
    let intensify = SearchStrategy {
        tenure: 5,
        candidates: 6,
        depth: 3,
        ..Default::default()
    };
    let diversify = SearchStrategy {
        tenure: 13,
        candidates: 4,
        depth: 2,
        ..Default::default()
    };
    let run = |portfolio: Vec<SearchStrategy>| {
        scenario(24, 1, 4, 3, SyncPolicy::HalfReport)
            .differentiate_streams(true)
            .shard_fanout(4)
            .seed(0xF00D)
            .portfolio(portfolio)
            .build()
            .unwrap()
            .execute(&domain, &VirtualEngine::new(scaled_paper_cluster(24)))
    };
    let uniform_a = run(vec![intensify]);
    let uniform_b = run(vec![diversify]);
    let mixed = run(vec![intensify, diversify]);

    let uniform_best = uniform_a.outcome.best_cost.min(uniform_b.outcome.best_cost);
    assert!(
        mixed.outcome.best_cost <= uniform_best,
        "mixed portfolio ({}) must match or beat the uniform best ({})",
        mixed.outcome.best_cost,
        uniform_best
    );
    assert!(mixed.outcome.best_cost < mixed.outcome.initial_cost);

    // Reallocation is part of the run, not a source of nondeterminism:
    // the bandit draws from an RNG derived from the run seed, so the
    // whole mixed run — trajectory, timeline, accounting — replays
    // bit-identically.
    let replay = run(vec![intensify, diversify]);
    assert_eq!(replay.outcome.best_cost, mixed.outcome.best_cost);
    assert_eq!(replay.outcome.best, mixed.outcome.best);
    assert_eq!(
        replay.outcome.best_per_global_iter,
        mixed.outcome.best_per_global_iter
    );
    assert_eq!(replay.outcome.end_time, mixed.outcome.end_time);
    assert_eq!(replay.outcome.forced_reports, mixed.outcome.forced_reports);
    assert_eq!(replay.report.per_proc, mixed.report.per_proc);
}

#[test]
fn utilization_improves_under_half_report_at_scale() {
    // The paper's utilization argument: forcing stragglers keeps fast
    // machines from idling at the barrier, so overall busy/(busy+wait)
    // rises. Measured here at a scale a thread-per-process clock cannot
    // reach.
    let domain = QapDomain::random(64, 7);
    let run = |sync| {
        scenario(256, 1, 2, 3, sync)
            .candidates(4)
            .depth(2)
            .differentiate_streams(true)
            .seed(0xBEE5)
            .build()
            .unwrap()
            .execute(&domain, &VirtualEngine::new(scaled_paper_cluster(24)))
    };
    let het = run(SyncPolicy::HalfReport);
    let hom = run(SyncPolicy::WaitAll);
    assert!(
        het.report.utilization() > hom.report.utilization(),
        "half-report utilization ({:.3}) must beat wait-all ({:.3})",
        het.report.utilization(),
        hom.report.utilization()
    );
}
