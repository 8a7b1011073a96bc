//! Fault injection on the vt engine: the pinned regression corpus and a
//! bounded seeded fuzz sweep.
//!
//! Every scenario here runs the full master/TSW/CLW protocol on
//! [`VirtualEngine`] under a [`FaultSpec`] — worker deaths, machine
//! crashes/slowdowns/pauses, and message drop/delay/reorder — and then
//! asserts the run-level invariants that must survive *any* fault the
//! spec layer can express:
//!
//! 1. the run terminates (structurally: the master either completes all
//!    rounds or times them out via `liveness_timeout`, and the runtime's
//!    orphan cleanup reaps workers stranded by lost messages);
//! 2. the reported best is real: finite, no worse than the initial
//!    solution, and its snapshot re-evaluates to the reported cost;
//! 3. the per-round best trajectory only ever improves;
//! 4. the run is deterministic: same seed + mix + config → bit-identical
//!    outcome.
//!
//! The named tests pin the corpus of historically interesting shapes
//! (crash during collection, quorum starvation, dropped broadcasts,
//! sub-master death, ...). `seeded_fuzz_sweep_small` sweeps seeds × every
//! [`FaultMix`]; a failure prints a one-line `FAULT-REPRO:` with
//! everything needed to rebuild the exact scenario. The larger
//! release-mode sweep lives in the `fault-fuzz` bench binary.

mod common;

use common::{scaled_paper_cluster, scenario};
use parallel_tabu_search::core::fault::WorkerFault;
use parallel_tabu_search::prelude::*;

/// Virtual-seconds ceiling used to place seeded fault events. Small runs
/// finish in a few hundred virtual seconds; events scheduled past the
/// actual end simply never fire.
const HORIZON: f64 = 300.0;

/// Per-round liveness timeout for faulty runs (virtual seconds). Long
/// enough that fault-free rounds never trip it, short enough that a
/// crashed or starved round resolves quickly.
const LIVENESS: f64 = 80.0;

fn small_faulty_run(n_tsw: usize, n_clw: usize, sync: SyncPolicy, seed: u64) -> PtsRun {
    scenario(n_tsw, n_clw, 2, 3, sync)
        .candidates(4)
        .depth(2)
        .seed(seed)
        .liveness_timeout(LIVENESS)
        .build()
        .unwrap()
}

/// Run one faulty scenario and assert the fault invariants. `repro` is
/// printed verbatim in every assertion message — one line that rebuilds
/// the scenario.
fn check_invariants(
    run: &PtsRun,
    domain: &QapDomain,
    engine: &VirtualEngine,
    repro: &str,
) -> pts_core::EngineOutput<QapDomain> {
    let out = run.execute(domain, engine);
    let o = &out.outcome;
    assert!(
        o.best_cost.is_finite(),
        "{repro}: best cost {} not finite",
        o.best_cost
    );
    assert!(
        o.best_cost <= o.initial_cost,
        "{repro}: best {} worse than initial {}",
        o.best_cost,
        o.initial_cost
    );
    // The trajectory only ever improves, and ends at the reported best.
    for w in o.best_per_global_iter.windows(2) {
        assert!(
            w[1] <= w[0],
            "{repro}: best-per-iteration went up: {:?}",
            o.best_per_global_iter
        );
    }
    if let Some(&last) = o.best_per_global_iter.last() {
        assert_eq!(last, o.best_cost, "{repro}: trajectory end != best cost");
    }
    // The best snapshot really evaluates to the reported cost.
    let recomputed = domain.instantiate(&o.best).cost();
    assert!(
        (recomputed - o.best_cost).abs() <= 1e-6 * o.best_cost.abs().max(1.0),
        "{repro}: best snapshot re-evaluates to {recomputed}, reported {}",
        o.best_cost
    );
    assert!(
        out.report.end_time.is_finite() && out.report.end_time > 0.0,
        "{repro}: bad end time {}",
        out.report.end_time
    );
    out
}

// --------------------------------------------------------------------
// Pinned regression corpus: named deterministic scenarios.
// --------------------------------------------------------------------

#[test]
fn crash_during_collection_half_report_completes_round() {
    let domain = QapDomain::random(12, 3);
    let run = small_faulty_run(3, 2, SyncPolicy::HalfReport, 0xC0FFEE);
    let faults = FaultSpec::new(1).with(WorkerFault::KillTsw { at: 40.0, tsw: 1 });
    let engine = VirtualEngine::new(scaled_paper_cluster(6)).with_faults(faults);
    let out = check_invariants(&run, &domain, &engine, "corpus:crash-collection-hr");
    // The survivors still complete both rounds, and the kill really fired.
    assert_eq!(out.outcome.best_per_global_iter.len(), 2);
    use parallel_tabu_search::vcluster::TaskFate;
    let killed_rank = run.config().tsw_rank(1);
    assert_eq!(out.report.per_proc[killed_rank].fate, TaskFate::Killed);
    assert_eq!(out.report.per_proc[0].fate, TaskFate::Completed);
}

#[test]
fn crash_during_collection_wait_all_terminates_via_down_notice() {
    // WaitAll would block forever on the dead TSW's report; the death
    // notice excuses it without even needing the liveness timeout.
    let domain = QapDomain::random(12, 3);
    let run = small_faulty_run(3, 2, SyncPolicy::WaitAll, 0xC0FFEE);
    let faults = FaultSpec::new(2).with(WorkerFault::KillTsw { at: 40.0, tsw: 2 });
    let engine = VirtualEngine::new(scaled_paper_cluster(6)).with_faults(faults);
    let out = check_invariants(&run, &domain, &engine, "corpus:crash-collection-wa");
    assert_eq!(out.outcome.best_per_global_iter.len(), 2);
}

#[test]
fn all_but_one_tsw_dead_still_produces_a_best() {
    let domain = QapDomain::random(12, 3);
    let run = small_faulty_run(4, 1, SyncPolicy::HalfReport, 0xDEAD);
    let faults = FaultSpec::new(3)
        .with(WorkerFault::KillTsw { at: 10.0, tsw: 1 })
        .with(WorkerFault::KillTsw { at: 12.0, tsw: 2 })
        .with(WorkerFault::KillTsw { at: 14.0, tsw: 3 });
    let engine = VirtualEngine::new(scaled_paper_cluster(6)).with_faults(faults);
    check_invariants(&run, &domain, &engine, "corpus:quorum-starvation");
}

#[test]
fn tsw_dead_before_init_is_excused_from_every_round() {
    let domain = QapDomain::random(12, 3);
    let run = small_faulty_run(3, 2, SyncPolicy::WaitAll, 0xBEEF);
    let faults = FaultSpec::new(4).with(WorkerFault::KillTsw { at: 0.0, tsw: 0 });
    let engine = VirtualEngine::new(scaled_paper_cluster(6)).with_faults(faults);
    let out = check_invariants(&run, &domain, &engine, "corpus:dead-before-init");
    assert_eq!(out.outcome.best_per_global_iter.len(), 2);
}

#[test]
fn a_tsw_killed_before_its_init_winds_its_clws_down() {
    // TSW 1 dies before its Init reaches it, so it never passes the Init
    // on: its CLWs' one message is its death notice, which must end them
    // instead of leaving them parked for an Init that never comes.
    use parallel_tabu_search::vcluster::TaskFate;
    let domain = QapDomain::random(12, 3);
    for sync in [SyncPolicy::WaitAll, SyncPolicy::HalfReport] {
        let run = small_faulty_run(3, 2, sync, 0x1417);
        let faults = FaultSpec::new(8).with(WorkerFault::KillTsw { at: 0.0, tsw: 1 });
        let engine = VirtualEngine::new(scaled_paper_cluster(6)).with_faults(faults);
        let repro = format!("corpus:tsw-killed-before-init {sync:?}");
        let out = check_invariants(&run, &domain, &engine, &repro);
        assert_eq!(out.outcome.best_per_global_iter.len(), 2, "{repro}");
        let cfg = run.config();
        assert_eq!(out.report.per_proc[cfg.tsw_rank(1)].fate, TaskFate::Killed);
        for j in 0..cfg.n_clw {
            let clw = &out.report.per_proc[cfg.clw_rank(1, j)];
            assert_eq!(clw.fate, TaskFate::Completed, "{repro}: CLW {j}");
            assert_eq!(clw.messages_received, 1, "{repro}: CLW {j}");
        }
    }
}

#[test]
fn dead_clw_group_leaves_its_tsw_reporting_unimproved() {
    // Every CLW of TSW 0 dies: the TSW must skip its local iterations
    // (nobody to investigate) but still report each round.
    let domain = QapDomain::random(12, 3);
    let run = small_faulty_run(3, 2, SyncPolicy::WaitAll, 0xFACE);
    let faults = FaultSpec::new(5)
        .with(WorkerFault::KillClw {
            at: 20.0,
            tsw: 0,
            clw: 0,
        })
        .with(WorkerFault::KillClw {
            at: 22.0,
            tsw: 0,
            clw: 1,
        });
    let engine = VirtualEngine::new(scaled_paper_cluster(6)).with_faults(faults);
    let out = check_invariants(&run, &domain, &engine, "corpus:clw-group-dead");
    assert_eq!(out.outcome.best_per_global_iter.len(), 2);
}

#[test]
fn machine_crash_takes_down_all_hosted_workers() {
    let domain = QapDomain::random(12, 3);
    let run = small_faulty_run(4, 2, SyncPolicy::HalfReport, 0xAB1E);
    // Machine 3 of the 6-machine scaled paper cluster never hosts the
    // master (rank 0 goes to the fastest machine), so the crash resolves
    // to kill-with-notices for every worker it hosts.
    let faults = FaultSpec::new(6).with(WorkerFault::CrashMachine {
        at: 50.0,
        machine: 3,
    });
    let engine = VirtualEngine::new(scaled_paper_cluster(6)).with_faults(faults);
    check_invariants(&run, &domain, &engine, "corpus:machine-crash");
}

#[test]
fn dropped_broadcast_window_is_survived_via_liveness_timeout() {
    // Drop everything the master sends for a mid-run window: Broadcasts
    // (and possibly ForceReports) vanish, the affected TSWs stall in
    // their adoption loops, and the master's liveness timeout keeps the
    // remaining rounds moving until Stop.
    let domain = QapDomain::random(12, 3);
    let run = small_faulty_run(3, 2, SyncPolicy::HalfReport, 0x10AD);
    let faults = FaultSpec::new(7).with(WorkerFault::DropRoute {
        from: 60.0,
        until: 140.0,
        src: Some(0),
        dst: None,
    });
    let engine = VirtualEngine::new(scaled_paper_cluster(6)).with_faults(faults);
    check_invariants(&run, &domain, &engine, "corpus:dropped-broadcast");
}

#[test]
fn sub_master_death_stops_its_subtree() {
    // Sharded tree: 8 TSWs under fan-out 4 → 2 sub-masters. Kill one;
    // its parent master excuses the whole shard, its subtree gets Down
    // notices and winds down.
    let domain = QapDomain::random(12, 3);
    let run = scenario(8, 1, 2, 2, SyncPolicy::HalfReport)
        .candidates(3)
        .depth(2)
        .seed(0x5AD)
        .shard_fanout(4)
        .liveness_timeout(LIVENESS)
        .build()
        .unwrap();
    assert!(run.config().n_shards() > 0, "scenario must be sharded");
    let faults = FaultSpec::new(8).with(WorkerFault::KillShard { at: 60.0, shard: 0 });
    let engine = VirtualEngine::new(scaled_paper_cluster(6)).with_faults(faults);
    check_invariants(&run, &domain, &engine, "corpus:sub-master-death");
}

#[test]
fn paused_machine_stalls_and_recovers_without_losses() {
    let domain = QapDomain::random(12, 3);
    let run = small_faulty_run(3, 2, SyncPolicy::HalfReport, 0x9A5E);
    let faults = FaultSpec::new(9).with(WorkerFault::PauseMachine {
        at: 30.0,
        machine: 4,
        until: 90.0,
    });
    let engine = VirtualEngine::new(scaled_paper_cluster(6)).with_faults(faults);
    let out = check_invariants(&run, &domain, &engine, "corpus:pause-recovers");
    // Nobody died: both rounds complete with all reports eventually in.
    assert_eq!(out.outcome.best_per_global_iter.len(), 2);
}

#[test]
fn jittered_and_delayed_routes_still_terminate() {
    let domain = QapDomain::random(12, 3);
    let run = small_faulty_run(3, 2, SyncPolicy::WaitAll, 0x717E);
    let faults = FaultSpec::new(10)
        .with(WorkerFault::JitterRoute {
            from: 0.0,
            until: 200.0,
            spread: 5.0,
            src: None,
            dst: None,
        })
        .with(WorkerFault::DelayRoute {
            from: 100.0,
            until: 160.0,
            delay: 10.0,
            src: None,
            dst: Some(0),
        });
    let engine = VirtualEngine::new(scaled_paper_cluster(6)).with_faults(faults);
    check_invariants(&run, &domain, &engine, "corpus:jitter-delay");
}

#[test]
fn faulty_runs_are_deterministic() {
    let domain = QapDomain::random(12, 3);
    let cfg = small_faulty_run(3, 2, SyncPolicy::HalfReport, 0xD37);
    let spec = FaultSpec::seeded(0xD37, FaultMix::Mixed, cfg.config(), 6, HORIZON);
    let engine = VirtualEngine::new(scaled_paper_cluster(6)).with_faults(spec);
    let a = cfg.execute(&domain, &engine);
    let b = cfg.execute(&domain, &engine);
    assert_eq!(a.outcome.best_cost, b.outcome.best_cost);
    assert_eq!(a.report.end_time, b.report.end_time);
    assert_eq!(a.report.per_proc, b.report.per_proc);
}

// --------------------------------------------------------------------
// Bounded seeded sweep (the big release-mode sweep is `fault-fuzz`).
// --------------------------------------------------------------------

#[test]
fn seeded_fuzz_sweep_small() {
    let domain = QapDomain::random(12, 3);
    // Flat for 2 rounds, and under the automatic fan-out (2) for 3: the
    // smallest shape where a broadcast can close a later round than a
    // node's own and a sub-master waits on one.
    for (n_tsw, rounds, fanout) in [(3, 2, 0), (4, 3, PtsConfig::auto_shard_fanout(4))] {
        for mix in FaultMix::ALL {
            for seed in 0..8u64 {
                for sync in [SyncPolicy::WaitAll, SyncPolicy::HalfReport] {
                    let run = scenario(n_tsw, 2, rounds, 3, sync)
                        .candidates(4)
                        .depth(2)
                        .seed(seed ^ 0xF00D)
                        .liveness_timeout(LIVENESS)
                        .shard_fanout(fanout)
                        .build()
                        .unwrap();
                    let spec = FaultSpec::seeded(seed, mix, run.config(), 6, HORIZON);
                    let engine = VirtualEngine::new(scaled_paper_cluster(6)).with_faults(spec);
                    let repro = format!(
                        "FAULT-REPRO: seed={seed:#x} mix={mix} n_tsw={n_tsw} n_clw=2 \
                         rounds={rounds} fanout={fanout} sync={sync:?} machines=6 \
                         horizon={HORIZON} liveness={LIVENESS}"
                    );
                    check_invariants(&run, &domain, &engine, &repro);
                }
            }
        }
    }
}

#[test]
fn contention_composes_with_faults() {
    // TimeSliced contention + a mixed fault scenario: the invariants
    // hold with both subsystems active at once.
    let domain = QapDomain::random(12, 3);
    let run = small_faulty_run(3, 2, SyncPolicy::HalfReport, 0xC0DE);
    let spec = FaultSpec::seeded(0xC0DE, FaultMix::Mixed, run.config(), 6, HORIZON);
    let engine = VirtualEngine::new(scaled_paper_cluster(6))
        .with_contention(Contention::TimeSliced)
        .with_faults(spec);
    check_invariants(&run, &domain, &engine, "corpus:contention+faults");
}

#[test]
fn empty_fault_spec_is_bit_identical_to_fault_free_engine() {
    // The no-fault guarantee, end to end: an engine carrying an empty
    // spec takes the untracked fast path and reproduces the fault-free
    // timeline bit for bit.
    let domain = QapDomain::random(12, 3);
    let run = small_faulty_run(3, 2, SyncPolicy::HalfReport, 0xFA17);
    let plain = run.execute(&domain, &VirtualEngine::new(scaled_paper_cluster(6)));
    let faulted = run.execute(
        &domain,
        &VirtualEngine::new(scaled_paper_cluster(6)).with_faults(FaultSpec::new(99)),
    );
    assert_eq!(plain.outcome.best_cost, faulted.outcome.best_cost);
    assert_eq!(plain.report.end_time, faulted.report.end_time);
    assert_eq!(plain.report.per_proc, faulted.report.per_proc);
}
