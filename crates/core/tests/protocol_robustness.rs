//! Release-mode protocol hardening regressions.
//!
//! The collection loops used to guard stale (`global != g`), duplicate
//! (`reported[child]`), and unexpected messages with `debug_assert!` only:
//! in a release build a late or duplicated report was silently merged into
//! the wrong round, double-incremented `n_rep`, and corrupted or
//! deadlocked the round. These tests drive the protocol loops directly
//! through a scripted `Transport`, inject exactly those malformed flows,
//! and pin the hardened behaviour — drop stale, reject duplicates, ignore
//! unexpected — in BOTH debug and release profiles (CI runs the suite
//! twice for this reason).

use pts_core::config::{PtsConfig, SearchStrategy, SnapshotMode};
use pts_core::messages::{PtsMsg, SnapshotPayload, TabuPayload};
use pts_core::transport::{drive_sync, Transport};
use pts_core::{
    clw, master, tsw, DeltaSnapshot, PtsDomain, QapDelta, QapDomain, RunControl, SyncPolicy,
};
use pts_tabu::qap::{Qap, QapAssignment};
use pts_tabu::search::SearchStats;
use pts_tabu::SearchProblem;
use std::collections::VecDeque;
use std::future::Future;
use std::sync::Arc;
use std::task::Poll;

/// A transport whose inbox is a pre-scripted message sequence: `recv`
/// pops the script in order (panicking if the protocol asks for more
/// messages than the script models — i.e. on a deadlocked round), and
/// every outgoing message is recorded for assertions. Scripted messages
/// model in-flight traffic that arrives at the loop's blocking receive
/// points; `try_recv` pops a second script, `polled`, empty unless a test
/// fills it, which models traffic a loop's mailbox poll meets.
struct ScriptTransport {
    rank: usize,
    clock: f64,
    incoming: VecDeque<PtsMsg<Qap>>,
    polled: VecDeque<PtsMsg<Qap>>,
    sent: Vec<(usize, PtsMsg<Qap>)>,
}

impl ScriptTransport {
    fn new(rank: usize, script: Vec<PtsMsg<Qap>>) -> ScriptTransport {
        ScriptTransport {
            rank,
            clock: 0.0,
            incoming: script.into(),
            polled: VecDeque::new(),
            sent: Vec::new(),
        }
    }

    fn sent_tags(&self) -> Vec<(usize, &'static str)> {
        self.sent.iter().map(|(dst, m)| (*dst, m.tag())).collect()
    }

    fn count_sent(&self, tag: &str) -> usize {
        self.sent.iter().filter(|(_, m)| m.tag() == tag).count()
    }
}

impl Transport<Qap> for ScriptTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn now(&self) -> f64 {
        self.clock
    }

    fn compute(&mut self, work: f64) -> impl Future<Output = ()> {
        self.clock += work;
        std::future::ready(())
    }

    fn send(&mut self, dst: usize, msg: PtsMsg<Qap>) {
        self.sent.push((dst, msg));
    }

    fn recv(&mut self) -> impl Future<Output = PtsMsg<Qap>> {
        std::future::poll_fn(|_cx| {
            Poll::Ready(self.incoming.pop_front().expect(
                "protocol demanded more messages than the script models \
                 (a malformed message was merged instead of dropped)",
            ))
        })
    }

    fn try_recv(&mut self) -> Option<PtsMsg<Qap>> {
        self.polled.pop_front()
    }
}

fn report(tsw: usize, global: u32, cost: f64, snapshot: QapAssignment) -> PtsMsg<Qap> {
    PtsMsg::Report {
        tsw,
        global,
        cost,
        snapshot: SnapshotPayload::Full(Arc::new(snapshot)),
        tabu: Arc::new(vec![]),
        trace: vec![],
        stats: SearchStats {
            iterations: 1,
            accepted: 1,
            rejected_tabu: 0,
            aspirated: 0,
            improved_best: 1,
        },
    }
}

fn group_report(shard: usize, global: u32, cost: f64, snapshot: QapAssignment) -> PtsMsg<Qap> {
    PtsMsg::GroupReport {
        shard,
        global,
        cost,
        snapshot: SnapshotPayload::Full(Arc::new(snapshot)),
        tabu: Arc::new(vec![]),
        trace: vec![],
        stats: SearchStats {
            iterations: 2,
            ..SearchStats::default()
        },
        forced: 1,
    }
}

#[test]
fn master_drops_stale_rejects_duplicate_and_ignores_unexpected_reports() {
    let cfg = PtsConfig {
        n_tsw: 2,
        n_clw: 1,
        global_iters: 2,
        sync: SyncPolicy::WaitAll,
        ..PtsConfig::default()
    };
    cfg.validate().unwrap();
    let domain = QapDomain::random(8, 3);
    let initial = domain.initial(cfg.seed);
    let initial_cost = domain.cost_of(&initial);
    assert!(
        initial_cost > 10.0,
        "script costs must read as improvements"
    );

    let snap = initial.clone();
    let script = vec![
        // --- round 0 -----------------------------------------------------
        report(0, 0, 5.0, snap.clone()),
        // Duplicate from TSW 0, better cost: must be REJECTED, not merged
        // (and must not double-increment n_rep, which would end the round
        // before TSW 1 reported).
        report(0, 0, 1.0, snap.clone()),
        // A message type the master never expects: ignored.
        PtsMsg::Proposal {
            clw: 0,
            seq: 9,
            moves: vec![],
            cost: 0.0,
        },
        // TSW index outside this collector's group: ignored.
        report(7, 0, 0.25, snap.clone()),
        report(1, 0, 6.0, snap.clone()),
        // --- round 1 -----------------------------------------------------
        // Stale report from round 0 arriving late: dropped, not merged
        // into round 1.
        report(0, 0, 0.5, snap.clone()),
        report(0, 1, 4.0, snap.clone()),
        report(1, 1, 4.5, snap.clone()),
    ];

    let mut t = ScriptTransport::new(cfg.master_rank(), script);
    let outcome = drive_sync(master::run_master(
        &mut t,
        &cfg,
        &domain,
        initial,
        &RunControl::unlimited(),
    ));

    // The malformed messages influenced nothing: neither the duplicate's
    // 1.0 nor the stale 0.5 nor the out-of-range 0.25 became a best.
    assert_eq!(outcome.best_per_global_iter, vec![5.0, 4.0]);
    assert_eq!(outcome.best_cost, 4.0);
    assert_eq!(outcome.forced_reports, 0);
    // Stats folded once per TSW on the final round only — the duplicate
    // and stale reports did not inflate them.
    assert_eq!(outcome.tsw_stats.iterations, 2);
    // Outbound protocol unchanged: Init to each TSW (which passes it on
    // to its CLWs), one Broadcast per TSW after round 0, Stop per TSW
    // after the final round.
    assert_eq!(t.count_sent("Init"), 2);
    assert_eq!(t.count_sent("Broadcast"), 2);
    assert_eq!(t.count_sent("Stop"), 2);
    assert_eq!(t.count_sent("ForceReport"), 0);
    assert!(t.incoming.is_empty(), "script fully consumed");
}

#[test]
fn equal_cost_reports_go_to_the_lower_child_index_whatever_their_order() {
    // Round 0: TSWs 2 and 1 report the same cost, in reverse index order,
    // and TSW 0 a worse one. TSW 1's snapshot and tabu list win, as they
    // would had it reported first: the TSW's rule for its CLWs'
    // proposals, so arrival order never picks the winner. Round 1: TSW 0
    // ties the best carried from round 0, which stays.
    let cfg = PtsConfig {
        n_tsw: 3,
        n_clw: 1,
        global_iters: 2,
        sync: SyncPolicy::WaitAll,
        snapshot_mode: SnapshotMode::Full,
        ..PtsConfig::default()
    };
    cfg.validate().unwrap();
    let domain = QapDomain::random(8, 3);
    let initial = domain.initial(cfg.seed);
    assert!(domain.cost_of(&initial) > 10.0);
    let swapped = |a: usize, b: usize| {
        let mut loc_of = initial.as_slice().to_vec();
        loc_of.swap(a, b);
        QapAssignment::new(loc_of)
    };
    let tabu_report = |tsw: usize, global: u32, cost: f64, snapshot: QapAssignment| {
        let PtsMsg::Report {
            snapshot,
            trace,
            stats,
            ..
        } = report(tsw, global, cost, snapshot)
        else {
            unreachable!()
        };
        PtsMsg::Report {
            tsw,
            global,
            cost,
            snapshot,
            tabu: Arc::new(vec![((tsw as u32, tsw as u32 + 1), 7)]),
            trace,
            stats,
        }
    };
    let script = vec![
        tabu_report(2, 0, 5.0, swapped(0, 1)),
        tabu_report(1, 0, 5.0, swapped(2, 3)),
        tabu_report(0, 0, 6.0, swapped(4, 5)),
        tabu_report(0, 1, 5.0, swapped(6, 7)),
        tabu_report(1, 1, 5.5, swapped(0, 7)),
        tabu_report(2, 1, 5.5, swapped(1, 6)),
    ];

    let mut t = ScriptTransport::new(cfg.master_rank(), script);
    let outcome = drive_sync(master::run_master(
        &mut t,
        &cfg,
        &domain,
        initial.clone(),
        &RunControl::unlimited(),
    ));

    let broadcasts: Vec<_> = t
        .sent
        .iter()
        .filter_map(|(_, m)| match m {
            PtsMsg::Broadcast {
                snapshot: SnapshotPayload::Full(snapshot),
                tabu: TabuPayload::Full(tabu),
                ..
            } => Some((snapshot.as_ref(), tabu.as_ref())),
            _ => None,
        })
        .collect();
    assert_eq!(broadcasts.len(), 3, "one round-0 broadcast per TSW");
    for (snapshot, tabu) in broadcasts {
        assert_eq!(*snapshot, swapped(2, 3), "TSW 1's snapshot wins the tie");
        assert_eq!(*tabu, vec![((1, 2), 7)], "and its tabu list with it");
    }
    assert_eq!(outcome.best_per_global_iter, vec![5.0, 5.0]);
    assert_eq!(outcome.best, swapped(2, 3), "the carried best keeps a tie");
    assert!(t.incoming.is_empty(), "script fully consumed");
}

#[test]
fn sub_master_applies_local_quorum_and_rejects_malformed_reports() {
    // 4 TSWs, fan-out 2: sub-master 0 collects TSWs {0, 1} with a local
    // quorum of 1 under HalfReport, reduces to a group best, and forwards
    // exactly one GroupReport — a duplicate report must neither win the
    // reduction nor end the round early.
    let cfg = PtsConfig {
        n_tsw: 4,
        n_clw: 1,
        shard_fanout: 2,
        global_iters: 1,
        sync: SyncPolicy::HalfReport,
        ..PtsConfig::default()
    };
    cfg.validate().unwrap();
    let domain = QapDomain::random(8, 5);
    let initial = domain.initial(cfg.seed);
    assert!(domain.cost_of(&initial) > 10.0);

    let snap = initial.clone();
    let script = vec![
        PtsMsg::Init {
            snapshot: Arc::new(snap.clone()),
        },
        report(0, 0, 3.0, snap.clone()),
        // Duplicate from TSW 0 with a better cost: rejected outright.
        report(0, 0, 0.1, snap.clone()),
        report(1, 0, 2.0, snap.clone()),
        PtsMsg::Stop,
    ];

    let shard = 0;
    let mut t = ScriptTransport::new(cfg.shard_rank(shard), script);
    drive_sync(master::run_sub_master(&mut t, &cfg, shard, &domain));

    // Init sent to the group's TSWs, each of which passes it on to its
    // CLWs.
    let inits: Vec<usize> = t
        .sent
        .iter()
        .filter(|(_, m)| m.tag() == "Init")
        .map(|(dst, _)| *dst)
        .collect();
    assert_eq!(inits, vec![cfg.tsw_rank(0), cfg.tsw_rank(1)]);
    // Local force policy: quorum of 1 in a group of 2 — after TSW 0's
    // report, TSW 1 is forced by the SUB-master, not the root.
    let forces: Vec<usize> = t
        .sent
        .iter()
        .filter(|(_, m)| m.tag() == "ForceReport")
        .map(|(dst, _)| *dst)
        .collect();
    assert_eq!(forces, vec![cfg.tsw_rank(1)]);
    // Exactly one upward GroupReport, carrying the true group best (the
    // duplicate's 0.1 lost) and the local force count.
    let groups: Vec<&PtsMsg<Qap>> = t
        .sent
        .iter()
        .filter(|(dst, m)| *dst == cfg.master_rank() && m.tag() == "GroupReport")
        .map(|(_, m)| m)
        .collect();
    assert_eq!(groups.len(), 1);
    match groups[0] {
        PtsMsg::GroupReport {
            shard: s,
            global,
            cost,
            forced,
            stats,
            ..
        } => {
            assert_eq!(*s, shard);
            assert_eq!(*global, 0);
            assert_eq!(*cost, 2.0);
            assert_eq!(*forced, 1);
            // Final round: both (and only both) TSW stats folded.
            assert_eq!(stats.iterations, 2);
        }
        _ => unreachable!(),
    }
    // Stop relayed to the TSW group (CLWs are stopped by their TSWs).
    let stops: Vec<usize> = t
        .sent
        .iter()
        .filter(|(_, m)| m.tag() == "Stop")
        .map(|(dst, _)| *dst)
        .collect();
    assert_eq!(stops, vec![cfg.tsw_rank(0), cfg.tsw_rank(1)]);
}

#[test]
fn a_collector_drops_reports_of_the_wrong_level() {
    // 4 TSWs at fan-out 2: the root collects sub-masters {0, 1} and each
    // sub-master collects two TSWs. A GroupReport at a leaf sub-master,
    // or a Report at the root of sub-masters, names no child of that
    // collector: it must be dropped without counting toward the round,
    // even when it carries the best cost and an index of a real child.
    let cfg = PtsConfig {
        n_tsw: 4,
        n_clw: 1,
        shard_fanout: 2,
        global_iters: 1,
        sync: SyncPolicy::WaitAll,
        ..PtsConfig::default()
    };
    cfg.validate().unwrap();
    let domain = QapDomain::random(8, 5);
    let initial = domain.initial(cfg.seed);
    assert!(domain.cost_of(&initial) > 10.0);
    let snap = initial.clone();

    // Leaf: had the GroupReport counted as child 0, TSW 0's report would
    // be rejected as a duplicate and the group best would read 0.5.
    let script = vec![
        PtsMsg::Init {
            snapshot: Arc::new(snap.clone()),
        },
        group_report(0, 0, 0.5, snap.clone()),
        report(0, 0, 3.0, snap.clone()),
        report(1, 0, 2.0, snap.clone()),
        PtsMsg::Stop,
    ];
    let mut t = ScriptTransport::new(cfg.shard_rank(0), script);
    drive_sync(master::run_sub_master(&mut t, &cfg, 0, &domain));
    let group = t
        .sent
        .iter()
        .find_map(|(dst, m)| match m {
            PtsMsg::GroupReport {
                cost,
                forced,
                stats,
                ..
            } if *dst == cfg.master_rank() => Some((*cost, *forced, stats.iterations)),
            _ => None,
        })
        .expect("one GroupReport");
    assert_eq!(group, (2.0, 0, 2), "both TSW reports folded, nothing else");
    assert!(t.incoming.is_empty(), "script fully consumed");

    // Inner: the root of sub-masters drops a Report from TSW 0.
    let script = vec![
        report(0, 0, 0.5, snap.clone()),
        group_report(0, 0, 3.0, snap.clone()),
        group_report(1, 0, 2.0, snap.clone()),
    ];
    let mut t = ScriptTransport::new(cfg.master_rank(), script);
    let outcome = drive_sync(master::run_master(
        &mut t,
        &cfg,
        &domain,
        initial,
        &RunControl::unlimited(),
    ));
    assert_eq!(outcome.best_per_global_iter, vec![2.0]);
    assert_eq!(outcome.tsw_stats.iterations, 4, "both groups folded");
    assert_eq!(outcome.forced_reports, 2, "both subtrees' forces counted");
    assert_eq!(t.count_sent("Stop"), 2);
    assert!(t.incoming.is_empty(), "script fully consumed");
}

#[test]
fn sub_master_survives_tsw_dying_after_its_report() {
    // The stale-report-guard gap the fault layer closes: TSW 0 reports,
    // then dies before the broadcast goes out. The sub-master must keep
    // 0's already-received report in the reduction, keep the force count
    // at the single force it genuinely sent (to the live straggler), and
    // complete the round on the survivor's report — no re-force of the
    // corpse, no excusal of a report already in hand.
    let cfg = PtsConfig {
        n_tsw: 4,
        n_clw: 1,
        shard_fanout: 2,
        global_iters: 1,
        sync: SyncPolicy::HalfReport,
        ..PtsConfig::default()
    };
    cfg.validate().unwrap();
    let domain = QapDomain::random(8, 5);
    let initial = domain.initial(cfg.seed);
    assert!(domain.cost_of(&initial) > 10.0);

    let snap = initial.clone();
    let script = vec![
        PtsMsg::Init {
            snapshot: Arc::new(snap.clone()),
        },
        // TSW 0 reports (quorum of 1 reached -> TSW 1 is forced)...
        report(0, 0, 3.0, snap.clone()),
        // ...then dies, after its report but before any broadcast.
        PtsMsg::Down {
            rank: cfg.tsw_rank(0),
        },
        // The forced straggler still answers.
        report(1, 0, 2.0, snap.clone()),
        PtsMsg::Stop,
    ];

    let shard = 0;
    let mut t = ScriptTransport::new(cfg.shard_rank(shard), script);
    drive_sync(master::run_sub_master(&mut t, &cfg, shard, &domain));

    // Exactly one force, to the live straggler — the death did not
    // trigger a second force pass or a force at the dead rank.
    let forces: Vec<usize> = t
        .sent
        .iter()
        .filter(|(_, m)| m.tag() == "ForceReport")
        .map(|(dst, _)| *dst)
        .collect();
    assert_eq!(forces, vec![cfg.tsw_rank(1)]);
    // The GroupReport reduces over BOTH reports (the dead TSW's counts:
    // it arrived before the death) and carries forced == 1.
    let group = t
        .sent
        .iter()
        .find_map(|(dst, m)| match m {
            PtsMsg::GroupReport {
                cost,
                forced,
                stats,
                ..
            } if *dst == cfg.master_rank() => Some((*cost, *forced, stats.iterations)),
            _ => None,
        })
        .expect("one GroupReport");
    assert_eq!(group, (2.0, 1, 2));
    assert!(t.incoming.is_empty(), "script fully consumed");
}

#[test]
fn sub_master_excuses_dead_straggler_and_completes_the_round() {
    // Dual scenario: the *straggler* dies after being forced and never
    // answers. The sub-master must excuse it (not wait forever), reduce
    // over the one real report, and still report forced == 1 — the force
    // was genuinely sent while the child lived.
    let cfg = PtsConfig {
        n_tsw: 4,
        n_clw: 1,
        shard_fanout: 2,
        global_iters: 1,
        sync: SyncPolicy::HalfReport,
        ..PtsConfig::default()
    };
    cfg.validate().unwrap();
    let domain = QapDomain::random(8, 5);
    let initial = domain.initial(cfg.seed);

    let snap = initial.clone();
    let script = vec![
        PtsMsg::Init {
            snapshot: Arc::new(snap.clone()),
        },
        report(0, 0, 3.0, snap.clone()),
        // The forced straggler dies instead of answering. Without the
        // excusal the collection would demand a fifth message and panic
        // (the ScriptTransport models a deadlocked round that way).
        PtsMsg::Down {
            rank: cfg.tsw_rank(1),
        },
        PtsMsg::Stop,
    ];

    let shard = 0;
    let mut t = ScriptTransport::new(cfg.shard_rank(shard), script);
    drive_sync(master::run_sub_master(&mut t, &cfg, shard, &domain));

    let group = t
        .sent
        .iter()
        .find_map(|(dst, m)| match m {
            PtsMsg::GroupReport {
                cost,
                forced,
                stats,
                ..
            } if *dst == cfg.master_rank() => Some((*cost, *forced, stats.iterations)),
            _ => None,
        })
        .expect("one GroupReport");
    assert_eq!(group, (3.0, 1, 1));
    assert!(t.incoming.is_empty(), "script fully consumed");
}

#[test]
fn tsw_ignores_force_report_arriving_after_its_own_report() {
    // The force-after-report race: the parent reaches quorum and forces
    // this TSW while its round-0 report is already in flight. The TSW
    // must NOT answer with a second report — the parent's duplicate
    // rejection is the backstop, but the TSW should not produce the
    // duplicate in the first place.
    let cfg = PtsConfig {
        n_tsw: 1,
        n_clw: 1,
        global_iters: 1,
        local_iters: 1,
        search: SearchStrategy {
            candidates: 1,
            depth: 1,
            ..Default::default()
        },
        diversify: false,
        ..PtsConfig::default()
    };
    cfg.validate().unwrap();
    let domain = QapDomain::random(8, 7);
    let initial = domain.initial(cfg.seed);

    let tsw_index = 0;
    let script = vec![
        PtsMsg::Init {
            snapshot: Arc::new(initial.clone()),
        },
        // The single local iteration's CLW proposal.
        PtsMsg::Proposal {
            clw: 0,
            seq: 1,
            moves: vec![(0, 1)],
            cost: 0.0,
        },
        // Force crossing the TSW's just-sent round-0 report: stale.
        PtsMsg::ForceReport { global: 0 },
        PtsMsg::Stop,
    ];

    let mut t = ScriptTransport::new(cfg.tsw_rank(tsw_index), script);
    drive_sync(tsw::run_tsw(&mut t, &cfg, tsw_index, &domain));

    assert_eq!(
        t.count_sent("Report"),
        1,
        "a forced TSW that already reported must not report twice: {:?}",
        t.sent_tags()
    );
    // The one report went to the parent (the root, flat topology).
    let (dst, _) = t
        .sent
        .iter()
        .find(|(_, m)| m.tag() == "Report")
        .expect("one report");
    assert_eq!(*dst, cfg.master_rank());
    assert!(t.incoming.is_empty());
}

#[test]
fn tsw_force_during_collection_still_yields_one_report() {
    // ForceReport arriving mid-collection (the legitimate force path):
    // the TSW cuts its CLWs, finishes the iteration, and reports exactly
    // once; a second (duplicate) force while awaiting the broadcast is
    // ignored.
    let cfg = PtsConfig {
        n_tsw: 2,
        n_clw: 1,
        global_iters: 1,
        local_iters: 5,
        search: SearchStrategy {
            candidates: 1,
            depth: 2,
            ..Default::default()
        },
        diversify: false,
        ..PtsConfig::default()
    };
    cfg.validate().unwrap();
    let domain = QapDomain::random(8, 9);
    let initial = domain.initial(cfg.seed);

    let tsw_index = 1;
    let seq0 = ((tsw_index as u64) << 40) + 1;
    let script = vec![
        PtsMsg::Init {
            snapshot: Arc::new(initial.clone()),
        },
        // Round 0, local iteration 0: the force arrives while the TSW is
        // waiting for its CLW's proposal...
        PtsMsg::ForceReport { global: 0 },
        // ...then the (cut-short) proposal lands.
        PtsMsg::Proposal {
            clw: 0,
            seq: seq0,
            moves: vec![(2, 3)],
            cost: 0.0,
        },
        // Duplicate force while the TSW awaits the broadcast: stale.
        PtsMsg::ForceReport { global: 0 },
        PtsMsg::Stop,
    ];

    let mut t = ScriptTransport::new(cfg.tsw_rank(tsw_index), script);
    drive_sync(tsw::run_tsw(&mut t, &cfg, tsw_index, &domain));

    assert_eq!(t.count_sent("Report"), 1, "{:?}", t.sent_tags());
    // The force cut the remaining local iterations: only the first
    // investigation was ever issued, and the straggling CLW was cut.
    assert_eq!(t.count_sent("Investigate"), 1);
    assert_eq!(t.count_sent("CutShort"), 1);
    assert!(t.incoming.is_empty());
}

/// One TSW with one CLW over two rounds of one local iteration each, and
/// the script's round-0 half: Init, then the CLW's one proposal.
fn two_round_tsw() -> (PtsConfig, QapDomain, Vec<PtsMsg<Qap>>) {
    let cfg = PtsConfig {
        n_tsw: 1,
        n_clw: 1,
        global_iters: 2,
        local_iters: 1,
        search: SearchStrategy {
            candidates: 1,
            depth: 1,
            ..Default::default()
        },
        diversify: false,
        ..PtsConfig::default()
    };
    cfg.validate().unwrap();
    let domain = QapDomain::random(8, 17);
    let script = vec![
        PtsMsg::Init {
            snapshot: Arc::new(domain.initial(cfg.seed)),
        },
        PtsMsg::Proposal {
            clw: 0,
            seq: 1,
            moves: vec![(0, 1)],
            cost: 0.0,
        },
    ];
    (cfg, domain, script)
}

fn broadcast(global: u32, snapshot: SnapshotPayload<Qap>) -> PtsMsg<Qap> {
    PtsMsg::Broadcast {
        global,
        snapshot,
        tabu: TabuPayload::Full(Arc::new(vec![])),
        strategy: 0,
    }
}

#[test]
fn tsw_adopts_a_full_broadcast_from_a_later_round() {
    // Four rounds. Round 0's broadcast never arrives (a fault lost it)
    // and round 1's does, in full: the TSW adopts it as it would its own
    // round's and resumes at round 2, the round after the one the
    // broadcast closes. The CLW sync after the skip shows the adopted
    // state, and every sync's sequence counts the syncs sent, not the
    // rounds, so a delta sync stays in lockstep with the CLW.
    for mode in [SnapshotMode::Full, SnapshotMode::Delta] {
        let mut cfg = PtsConfig {
            n_tsw: 1,
            n_clw: 1,
            global_iters: 4,
            local_iters: 1,
            search: SearchStrategy {
                candidates: 1,
                depth: 1,
                ..Default::default()
            },
            diversify: false,
            ..PtsConfig::default()
        };
        cfg.snapshot_mode = mode;
        cfg.validate().unwrap();
        let domain = QapDomain::random(8, 17);
        let initial = domain.initial(cfg.seed);
        // Close to the initial solution, so the syncs after it are
        // deltas in delta mode.
        let mut adopted = initial.as_slice().to_vec();
        adopted.swap(2, 3);
        let adopted = Arc::new(QapAssignment::new(adopted));
        let proposal = |seq: u64, mv: (usize, usize)| PtsMsg::Proposal {
            clw: 0,
            seq,
            moves: vec![mv],
            cost: 0.0,
        };
        let script = vec![
            PtsMsg::Init {
                snapshot: Arc::new(initial),
            },
            proposal(1, (0, 1)),
            broadcast(1, SnapshotPayload::Full(Arc::clone(&adopted))),
            proposal(2, (4, 5)),
            broadcast(2, SnapshotPayload::Full(Arc::clone(&adopted))),
            proposal(3, (6, 7)),
            PtsMsg::Stop,
        ];

        let mut t = ScriptTransport::new(cfg.tsw_rank(0), script);
        drive_sync(tsw::run_tsw(&mut t, &cfg, 0, &domain));

        let reports: Vec<u32> = t
            .sent
            .iter()
            .filter_map(|(dst, m)| match m {
                PtsMsg::Report { global, .. } if *dst == cfg.master_rank() => Some(*global),
                _ => None,
            })
            .collect();
        assert_eq!(reports, vec![0, 2, 3], "{mode:?}: {:?}", t.sent_tags());
        let syncs: Vec<&PtsMsg<Qap>> = t
            .sent
            .iter()
            .filter(|(dst, m)| *dst == cfg.clw_rank(0, 0) && m.tag() == "AdoptState")
            .map(|(_, m)| m)
            .collect();
        assert_eq!(syncs.len(), 3, "{mode:?}");
        let mut deltas = 0;
        for (sent_before, sync) in syncs.iter().enumerate() {
            let PtsMsg::AdoptState { seq, snapshot } = sync else {
                unreachable!()
            };
            assert_eq!(*seq as usize, sent_before, "{mode:?}");
            match snapshot {
                SnapshotPayload::Delta { base_seq, .. } => {
                    assert_eq!(*base_seq as usize, sent_before, "{mode:?}");
                    deltas += 1;
                }
                SnapshotPayload::Full(state) if sent_before == 1 => {
                    assert_eq!(*state, adopted, "{mode:?}: the sync after the skip")
                }
                SnapshotPayload::Full(_) => {}
            }
        }
        match mode {
            SnapshotMode::Full => assert_eq!(deltas, 0),
            SnapshotMode::Delta => assert_eq!(deltas, 3),
        }
        assert_eq!(t.count_sent("Stop"), 1);
        assert!(t.incoming.is_empty(), "{mode:?}: script fully consumed");
    }
}

#[test]
fn tsw_drops_a_newer_broadcast_delta_against_a_base_it_does_not_hold() {
    // A round-1 delta is diffed against the round-0 broadcast (base 1),
    // which this TSW never received: it still holds base 0, the initial
    // solution. It cannot resolve the delta, so it drops it and keeps
    // waiting; Stop ends the run after its one report.
    let (cfg, domain, mut script) = two_round_tsw();
    script.extend([
        broadcast(
            1,
            SnapshotPayload::Delta {
                base_seq: 1,
                delta: Arc::new(QapDelta::new(vec![(0, 1), (1, 0)])),
            },
        ),
        PtsMsg::Stop,
    ]);

    let mut t = ScriptTransport::new(cfg.tsw_rank(0), script);
    drive_sync(tsw::run_tsw(&mut t, &cfg, 0, &domain));

    assert_eq!(
        t.sent_tags(),
        vec![
            (cfg.clw_rank(0, 0), "Init"),
            (cfg.clw_rank(0, 0), "AdoptState"),
            (cfg.clw_rank(0, 0), "Investigate"),
            (cfg.clw_rank(0, 0), "ApplyMoves"),
            (cfg.master_rank(), "Report"),
            (cfg.clw_rank(0, 0), "Stop"),
        ]
    );
    assert!(t.incoming.is_empty());
}

#[test]
fn tsw_cuts_stragglers_by_the_collectors_quorum_after_a_death() {
    // Three CLWs under HalfReport: CLW 0 proposes and dies, then CLW 1
    // proposes. A CLW that reported before dying still counts, so two of
    // three have answered — a quorum — and CLW 2 must be cut short. (A
    // quorum over only the CLWs still alive, 2 of 2, never cut anyone.)
    let cfg = PtsConfig {
        n_tsw: 1,
        n_clw: 3,
        global_iters: 1,
        local_iters: 1,
        search: SearchStrategy {
            candidates: 1,
            depth: 1,
            ..Default::default()
        },
        diversify: false,
        sync: SyncPolicy::HalfReport,
        ..PtsConfig::default()
    };
    cfg.validate().unwrap();
    let domain = QapDomain::random(8, 13);
    let initial = domain.initial(cfg.seed);

    let tsw_index = 0;
    let seq = ((tsw_index as u64) << 40) + 1;
    let proposal = |clw: usize| PtsMsg::Proposal {
        clw,
        seq,
        moves: vec![(2 * clw, 2 * clw + 1)],
        cost: 0.0,
    };
    let script = vec![
        PtsMsg::Init {
            snapshot: Arc::new(initial.clone()),
        },
        proposal(0),
        PtsMsg::Down {
            rank: cfg.clw_rank(tsw_index, 0),
        },
        proposal(1),
        proposal(2),
        PtsMsg::Stop,
    ];

    let mut t = ScriptTransport::new(cfg.tsw_rank(tsw_index), script);
    drive_sync(tsw::run_tsw(&mut t, &cfg, tsw_index, &domain));

    let cuts: Vec<usize> = t
        .sent
        .iter()
        .filter(|(_, m)| m.tag() == "CutShort")
        .map(|(dst, _)| *dst)
        .collect();
    assert_eq!(
        cuts,
        vec![cfg.clw_rank(tsw_index, 2)],
        "{:?}",
        t.sent_tags()
    );
    assert_eq!(t.count_sent("Report"), 1);
    assert!(t.incoming.is_empty());
}

#[test]
fn sharded_tsw_reports_to_its_group_sub_master() {
    // Under the sharded topology the TSW's parent is its leaf sub-master,
    // not rank 0: reports (and nothing else) must flow there.
    let cfg = PtsConfig {
        n_tsw: 4,
        n_clw: 1,
        shard_fanout: 2,
        global_iters: 1,
        local_iters: 1,
        search: SearchStrategy {
            candidates: 1,
            depth: 1,
            ..Default::default()
        },
        diversify: false,
        ..PtsConfig::default()
    };
    cfg.validate().unwrap();
    let domain = QapDomain::random(8, 11);
    let initial = domain.initial(cfg.seed);

    let tsw_index = 2; // second group -> sub-master 1
    let seq0 = ((tsw_index as u64) << 40) + 1;
    let script = vec![
        PtsMsg::Init {
            snapshot: Arc::new(initial.clone()),
        },
        PtsMsg::Proposal {
            clw: 0,
            seq: seq0,
            moves: vec![(0, 1)],
            cost: 0.0,
        },
        PtsMsg::Stop,
    ];

    let mut t = ScriptTransport::new(cfg.tsw_rank(tsw_index), script);
    drive_sync(tsw::run_tsw(&mut t, &cfg, tsw_index, &domain));

    let (dst, _) = t
        .sent
        .iter()
        .find(|(_, m)| m.tag() == "Report")
        .expect("one report");
    assert_eq!(Some(*dst), cfg.parent_rank(cfg.tsw_rank(tsw_index)));
    assert_eq!(*dst, cfg.shard_rank(1));
}

/// Four TSWs at fan-out 2 under WaitAll: sub-master 0 collects TSWs
/// {0, 1} for the root.
fn sharded_four_tsws(global_iters: u32) -> (PtsConfig, QapDomain, QapAssignment) {
    let cfg = PtsConfig {
        n_tsw: 4,
        n_clw: 1,
        shard_fanout: 2,
        global_iters,
        sync: SyncPolicy::WaitAll,
        ..PtsConfig::default()
    };
    cfg.validate().unwrap();
    let domain = QapDomain::random(8, 5);
    let initial = domain.initial(cfg.seed);
    assert!(domain.cost_of(&initial) > 10.0);
    (cfg, domain, initial)
}

/// The rounds of the `GroupReport`s a sub-master sent its parent.
fn group_report_rounds(t: &ScriptTransport, parent: usize) -> Vec<u32> {
    t.sent
        .iter()
        .filter_map(|(dst, m)| match m {
            PtsMsg::GroupReport { global, .. } if *dst == parent => Some(*global),
            _ => None,
        })
        .collect()
}

#[test]
fn sub_master_relays_a_later_rounds_broadcast_and_collects_the_round_after_it() {
    // Round 0's broadcast is lost above this sub-master, and round 1's
    // arrives while it waits for round 0's: it relays round 1's to its
    // TSWs and collects round 2 next.
    let (cfg, domain, snap) = sharded_four_tsws(3);
    let script = vec![
        PtsMsg::Init {
            snapshot: Arc::new(snap.clone()),
        },
        report(0, 0, 5.0, snap.clone()),
        report(1, 0, 6.0, snap.clone()),
        broadcast(1, SnapshotPayload::Full(Arc::new(snap.clone()))),
        report(0, 2, 4.0, snap.clone()),
        report(1, 2, 3.0, snap.clone()),
        PtsMsg::Stop,
    ];
    let mut t = ScriptTransport::new(cfg.shard_rank(0), script);
    drive_sync(master::run_sub_master(&mut t, &cfg, 0, &domain));

    let relayed: Vec<(usize, u32)> = t
        .sent
        .iter()
        .filter_map(|(dst, m)| match m {
            PtsMsg::Broadcast { global, .. } => Some((*dst, *global)),
            _ => None,
        })
        .collect();
    assert_eq!(relayed, vec![(cfg.tsw_rank(0), 1), (cfg.tsw_rank(1), 1)]);
    assert_eq!(group_report_rounds(&t, cfg.master_rank()), vec![0, 2]);
    assert_eq!(t.count_sent("Stop"), 2);
    assert!(t.incoming.is_empty(), "script fully consumed");
}

#[test]
fn a_child_that_missed_the_round_gets_the_next_broadcast_in_full() {
    // The root closes round 0 without this sub-master's report, and its
    // delta broadcast arrives while the sub-master still waits for TSW 1.
    // TSW 0 reported round 0, so it holds the base the delta was diffed
    // against and gets the delta; TSW 1 did not, may not hold that base,
    // and gets the full snapshot.
    let (cfg, domain, snap) = sharded_four_tsws(2);
    let mut moved = snap.as_slice().to_vec();
    moved.swap(1, 5);
    let moved = QapAssignment::new(moved);
    let delta = SnapshotPayload::Delta {
        base_seq: 0,
        delta: Arc::new(QapAssignment::diff(&snap, &moved)),
    };
    let script = vec![
        PtsMsg::Init {
            snapshot: Arc::new(snap.clone()),
        },
        report(0, 0, 5.0, snap.clone()),
        broadcast(0, delta),
        report(0, 1, 4.0, snap.clone()),
        report(1, 1, 3.0, snap.clone()),
        PtsMsg::Stop,
    ];
    let mut t = ScriptTransport::new(cfg.shard_rank(0), script);
    drive_sync(master::run_sub_master(&mut t, &cfg, 0, &domain));

    let relayed: Vec<(usize, &SnapshotPayload<Qap>)> = t
        .sent
        .iter()
        .filter_map(|(dst, m)| match m {
            PtsMsg::Broadcast { snapshot, .. } => Some((*dst, snapshot)),
            _ => None,
        })
        .collect();
    assert_eq!(relayed.len(), 2);
    assert_eq!(relayed[0].0, cfg.tsw_rank(0));
    assert!(
        matches!(relayed[0].1, SnapshotPayload::Delta { base_seq: 0, .. }),
        "the reporter gets the delta"
    );
    assert_eq!(relayed[1].0, cfg.tsw_rank(1));
    match relayed[1].1 {
        SnapshotPayload::Full(full) => assert_eq!(**full, moved),
        SnapshotPayload::Delta { .. } => panic!("TSW 1 missed round 0 and got a delta"),
    }
    assert_eq!(group_report_rounds(&t, cfg.master_rank()), vec![0, 1]);
    assert!(t.incoming.is_empty(), "script fully consumed");
}

#[test]
fn sub_master_excuses_a_child_whose_down_beats_the_init() {
    // TSW 1's death notice arrives before the Init: the sub-master
    // records it and completes round 0 on TSW 0's report alone.
    let (cfg, domain, snap) = sharded_four_tsws(1);
    let script = vec![
        PtsMsg::Down {
            rank: cfg.tsw_rank(1),
        },
        PtsMsg::Init {
            snapshot: Arc::new(snap.clone()),
        },
        report(0, 0, 3.0, snap.clone()),
        PtsMsg::Stop,
    ];
    let mut t = ScriptTransport::new(cfg.shard_rank(0), script);
    drive_sync(master::run_sub_master(&mut t, &cfg, 0, &domain));

    let group = t
        .sent
        .iter()
        .find_map(|(dst, m)| match m {
            PtsMsg::GroupReport { cost, stats, .. } if *dst == cfg.master_rank() => {
                Some((*cost, stats.iterations))
            }
            _ => None,
        })
        .expect("one GroupReport");
    assert_eq!(group, (3.0, 1));
    assert!(t.incoming.is_empty(), "script fully consumed");
}

#[test]
fn tsw_meeting_its_rounds_broadcast_mid_collection_reports_once_then_adopts() {
    // Round 0's broadcast overtakes this TSW's own report (its parent
    // closed the round without it): it acts like a ForceReport. The TSW
    // cuts its CLW, finishes the iteration, reports round 0 once, adopts
    // the broadcast and runs round 1 in full.
    let cfg = PtsConfig {
        n_tsw: 1,
        n_clw: 1,
        global_iters: 2,
        local_iters: 2,
        search: SearchStrategy {
            candidates: 1,
            depth: 1,
            ..Default::default()
        },
        diversify: false,
        snapshot_mode: SnapshotMode::Full,
        ..PtsConfig::default()
    };
    cfg.validate().unwrap();
    let domain = QapDomain::random(8, 19);
    let adopted = Arc::new(domain.initial(cfg.seed ^ 1));
    let proposal = |seq: u64| PtsMsg::Proposal {
        clw: 0,
        seq,
        moves: vec![(0, 1)],
        cost: 0.0,
    };
    let script = vec![
        PtsMsg::Init {
            snapshot: Arc::new(domain.initial(cfg.seed)),
        },
        broadcast(0, SnapshotPayload::Full(Arc::clone(&adopted))),
        proposal(1),
        proposal(2),
        proposal(3),
        PtsMsg::Stop,
    ];
    let mut t = ScriptTransport::new(cfg.tsw_rank(0), script);
    drive_sync(tsw::run_tsw(&mut t, &cfg, 0, &domain));

    let clw = cfg.clw_rank(0, 0);
    let reports: Vec<u32> = t
        .sent
        .iter()
        .filter_map(|(_, m)| match m {
            PtsMsg::Report { global, .. } => Some(*global),
            _ => None,
        })
        .collect();
    assert_eq!(reports, vec![0, 1], "{:?}", t.sent_tags());
    assert_eq!(
        t.sent_tags()[..5],
        [
            (clw, "Init"),
            (clw, "AdoptState"),
            (clw, "Investigate"),
            (clw, "CutShort"),
            (clw, "ApplyMoves"),
        ]
    );
    assert_eq!(t.count_sent("CutShort"), 1);
    // One investigation in round 0, both of round 1's.
    assert_eq!(t.count_sent("Investigate"), 3);
    let round_1_sync = t.sent.iter().find_map(|(_, m)| match m {
        PtsMsg::AdoptState {
            seq: 1,
            snapshot: SnapshotPayload::Full(state),
        } => Some(state),
        _ => None,
    });
    assert_eq!(round_1_sync, Some(&adopted));
    assert!(t.incoming.is_empty(), "script fully consumed");
}

#[test]
fn tsw_and_sub_master_meeting_stop_mid_collection_stop_without_reporting() {
    // A TSW waiting on its CLW's proposal meets Stop: it stops its CLW
    // and sends no report.
    let cfg = PtsConfig {
        n_tsw: 1,
        n_clw: 1,
        global_iters: 1,
        local_iters: 1,
        diversify: false,
        ..PtsConfig::default()
    };
    cfg.validate().unwrap();
    let domain = QapDomain::random(8, 23);
    let script = vec![
        PtsMsg::Init {
            snapshot: Arc::new(domain.initial(cfg.seed)),
        },
        PtsMsg::Stop,
    ];
    let mut t = ScriptTransport::new(cfg.tsw_rank(0), script);
    drive_sync(tsw::run_tsw(&mut t, &cfg, 0, &domain));
    let clw = cfg.clw_rank(0, 0);
    assert_eq!(
        t.sent_tags(),
        vec![
            (clw, "Init"),
            (clw, "AdoptState"),
            (clw, "Investigate"),
            (clw, "Stop")
        ]
    );
    assert!(t.incoming.is_empty());

    // A sub-master with one of its two reports in hand meets Stop: it
    // stops both TSWs and sends no GroupReport.
    let (cfg, domain, snap) = sharded_four_tsws(2);
    let script = vec![
        PtsMsg::Init {
            snapshot: Arc::new(snap.clone()),
        },
        report(0, 0, 3.0, snap),
        PtsMsg::Stop,
    ];
    let mut t = ScriptTransport::new(cfg.shard_rank(0), script);
    drive_sync(master::run_sub_master(&mut t, &cfg, 0, &domain));
    assert_eq!(t.count_sent("GroupReport"), 0, "{:?}", t.sent_tags());
    let stops: Vec<usize> = t
        .sent
        .iter()
        .filter(|(_, m)| m.tag() == "Stop")
        .map(|(dst, _)| *dst)
        .collect();
    assert_eq!(stops, vec![cfg.tsw_rank(0), cfg.tsw_rank(1)]);
    assert!(t.incoming.is_empty());
}

/// Each proposal's moves and cost.
type Proposals = Vec<(Vec<(usize, usize)>, f64)>;

/// The proposals a lone CLW (TSW 0's CLW 0) sends when `script` arrives at
/// its receives and `polled` at its mailbox polls, and whether every
/// polled message was met.
fn clw_proposals(
    cfg: &PtsConfig,
    domain: &QapDomain,
    script: Vec<PtsMsg<Qap>>,
    polled: Vec<PtsMsg<Qap>>,
) -> (Proposals, bool) {
    let mut t = ScriptTransport::new(cfg.clw_rank(0, 0), script);
    t.polled = polled.into();
    drive_sync(clw::run_clw(&mut t, cfg, cfg.tsw_rank(0), 0, domain));
    assert!(t.incoming.is_empty(), "script fully consumed");
    let proposals = t
        .sent
        .iter()
        .map(|(dst, m)| match m {
            PtsMsg::Proposal { moves, cost, .. } if *dst == cfg.tsw_rank(0) => {
                (moves.clone(), *cost)
            }
            other => panic!("CLW sent {} to {dst}", other.tag()),
        })
        .collect();
    (proposals, t.polled.is_empty())
}

#[test]
fn clw_keeps_an_adopt_state_met_mid_investigation_and_adopts_the_next_delta() {
    // A reordering TSW→CLW link delivers round 0's AdoptState behind the
    // Investigate sent after it, so the CLW meets it at its mid-
    // investigation poll. Kept and handled after the proposal, it keeps
    // the sync count in step, and round 1's delta sync is adopted: the
    // CLW proposes exactly what it proposes when the sync arrives in
    // order. Dropping it would leave the count behind and drop the delta
    // too.
    let cfg = PtsConfig {
        n_tsw: 1,
        n_clw: 1,
        global_iters: 2,
        local_iters: 1,
        search: SearchStrategy {
            candidates: 1,
            depth: 3,
            ..Default::default()
        },
        ..PtsConfig::default()
    };
    cfg.validate().unwrap();
    let domain = QapDomain::random(16, 5);
    let initial = domain.initial(cfg.seed);
    let mut moved = initial.as_slice().to_vec();
    moved.swap(3, 11);
    let moved = QapAssignment::new(moved);
    let sync0 = || PtsMsg::AdoptState {
        seq: 0,
        snapshot: SnapshotPayload::Full(Arc::new(initial.clone())),
    };
    let sync1 = || PtsMsg::AdoptState {
        seq: 1,
        snapshot: SnapshotPayload::Delta {
            base_seq: 1,
            delta: Arc::new(QapAssignment::diff(&initial, &moved)),
        },
    };
    let investigate = |seq: u64| PtsMsg::Investigate { seq, strategy: 0 };
    let init = || PtsMsg::Init {
        snapshot: Arc::new(initial.clone()),
    };

    let in_order = vec![
        init(),
        sync0(),
        investigate(1),
        sync1(),
        investigate(2),
        PtsMsg::Stop,
    ];
    let (expected, _) = clw_proposals(&cfg, &domain, in_order, vec![]);
    let reordered = vec![
        init(),
        investigate(1),
        sync1(),
        investigate(2),
        PtsMsg::Stop,
    ];
    let (proposals, polled) = clw_proposals(&cfg, &domain, reordered, vec![sync0()]);
    assert!(polled, "the first investigation reached its poll");
    assert_eq!(proposals.len(), 2);
    for ((moves, cost), (want_moves, want_cost)) in proposals.iter().zip(&expected) {
        assert_eq!(moves, want_moves);
        assert_eq!(cost.to_bits(), want_cost.to_bits());
    }
    // The second proposal is costed from the delta's state.
    let (moves, cost) = &proposals[1];
    let mut at_moved = domain.instantiate(&moved);
    for mv in moves {
        at_moved.apply(mv);
    }
    assert!((at_moved.cost() - cost).abs() <= 1e-9 * cost.abs());
}
