//! The Tabu Search Worker (TSW), generic over the problem domain.
//!
//! Each TSW runs its own tabu search (p-control at this level): per global
//! iteration it (1) diversifies within its private item range, (2) runs
//! `local_iters` local iterations — each one asks its CLWs for compound-
//! move proposals, picks the best, applies the tabu test with best-cost
//! aspiration — and (3) reports its best solution *and tabu list* to the
//! master, then adopts the broadcast global best.
//!
//! Heterogeneity handling (both directions of the paper's half-report
//! scheme):
//! * as a *parent*: after a quorum of CLW proposals, `CutShort` is sent to
//!   the stragglers;
//! * as a *child*: a master `ForceReport` makes the TSW finish its current
//!   local iteration, report immediately, and wait for the broadcast.

use crate::config::{PtsConfig, SyncPolicy};
use crate::domain::PtsDomain;
use crate::messages::{PtsMsg, SnapshotBase, SnapshotPayload, TabuBase};
use crate::meter;
use crate::transport::{protocol_warn, Transport};
use pts_tabu::compound::CompoundMove;
use pts_tabu::problem::SearchProblem;
use pts_tabu::search::{StepOutcome, TabuEngine, TabuPolicy, TabuSearchConfig};
use pts_tabu::DiversifiableProblem;
use std::sync::Arc;

type MoveOf<D> = <<D as PtsDomain>::Problem as SearchProblem>::Move;
/// A CLW proposal: move chain + the cost it reaches.
type ProposalOf<D> = (Vec<MoveOf<D>>, f64);

/// Run the TSW protocol until `Stop`.
///
/// `async` over any [`Transport`]: on blocking substrates drive it with
/// [`crate::transport::drive_sync`]; on the cooperative substrate each
/// `recv` is a scheduling point.
pub async fn run_tsw<D: PtsDomain, T: Transport<D::Problem>>(
    t: &mut T,
    cfg: &PtsConfig,
    tsw_index: usize,
    domain: &D,
) {
    let n_items = domain.domain_size();
    let my_range = cfg.tsw_range(tsw_index, n_items);
    let clws = cfg.clw_ranks(tsw_index);
    // Under a sharded topology reports go to this TSW's group sub-master
    // rather than rank 0; all control traffic (ForceReport, Broadcast,
    // Stop) likewise arrives from the parent.
    let parent = cfg.parent_of_tsw(tsw_index);
    // MPSS (paper default): one shared diversification stream — TSWs still
    // diverge because each diversifies over a *different* item range.
    let div_salt = if cfg.differentiate_streams {
        t.rank()
    } else {
        2_000
    };
    let mut div_rng = crate::clw::worker_rng(cfg.seed, div_salt);

    // Fault tolerance: CLWs whose death notice (PtsMsg::Down) arrived are
    // excluded from investigations; a parent death winds this worker (and
    // its surviving CLWs) down. Always all-false / false without faults.
    let mut clw_dead = vec![false; clws.len()];
    let mut parent_down = false;
    // Maps a Down rank onto this TSW's world: its parent, one of its
    // CLWs, or somebody else's problem.
    let classify_down = |rank: usize| -> DownWho {
        if rank == parent {
            DownWho::Parent
        } else if let Some(j) = clws.iter().position(|&c| c == rank) {
            DownWho::Clw(j)
        } else {
            DownWho::Other
        }
    };

    // Wait for Init. The initial solution doubles as the sequence-0
    // snapshot base shared with the parent: reports diff against it
    // until the first broadcast re-anchors it.
    let (mut base, mut problem) = loop {
        match t.recv().await {
            PtsMsg::Init { snapshot } => {
                let problem = domain.instantiate(&snapshot);
                break (SnapshotBase::<D::Problem>::initial(snapshot), problem);
            }
            PtsMsg::Stop => return,
            PtsMsg::Down { rank } => match classify_down(rank) {
                // Parent died before the run even started: release the
                // CLWs (they are waiting on Init too) and wind down.
                DownWho::Parent => {
                    for &c in &clws {
                        t.send(c, PtsMsg::Stop);
                    }
                    return;
                }
                DownWho::Clw(j) => clw_dead[j] = true,
                DownWho::Other => {}
            },
            _ => {}
        }
    };
    // The state this TSW's CLWs currently hold — they start at Init and
    // mirror every accepted compound, so at each sync point their state
    // is exactly this TSW's state at the *previous* report. AdoptState
    // payloads diff against it (delta mode only; in full mode the base
    // is never consulted, so the per-round capture below is skipped).
    let mut clw_sync = SnapshotBase::<D::Problem>::initial(Arc::clone(&base.snapshot));
    // The tabu list of the last adopted broadcast — the base a broadcast
    // tabu delta resolves against. Starts empty at sequence 0, matching
    // the master's side.
    let mut tabu_base = TabuBase::<D::Problem>::initial();

    // The strategy this TSW currently searches with. Uniform runs keep
    // strategy 0 (== `cfg.search`) for the whole run; under a portfolio the
    // root's reallocator reassigns it via the strategy byte on Broadcast.
    let mut cur_strategy = cfg.initial_strategy_of_tsw(tsw_index);
    let strat = *cfg.strategy(cur_strategy);
    let engine_cfg = TabuSearchConfig {
        tenure: strat.tenure,
        candidates: strat.candidates,
        depth: strat.depth,
        iterations: cfg.local_iters as u64,
        aspiration: strat.aspiration,
        early_accept: true,
        range: None,
        tabu_policy: TabuPolicy::AnyConstituent,
        seed: cfg.seed ^ (t.rank() as u64) << 17,
    };
    let mut engine: TabuEngine<D::Problem> = TabuEngine::new(engine_cfg, &problem, t.now());
    let mut inv_seq: u64 = (tsw_index as u64) << 40; // globally unique streams

    for g in 0..cfg.global_iters {
        // --- Diversification over this TSW's private item subset --------
        if cfg.diversify {
            let strat = cfg.strategy(cur_strategy);
            let depth = strat.effective_diversify_depth(n_items);
            problem.diversify(
                &mut div_rng,
                my_range,
                depth,
                strat.diversify_width,
                Some(engine.memory()),
            );
            t.compute(cfg.work.per_diversify_step * depth as f64).await;
        }
        // Synchronize CLWs with the (possibly diversified) current state:
        // one snapshot allocation shared across the whole CLW group, and
        // usually just a delta — against the CLWs' own current state —
        // covering the adopted broadcast plus the diversification moves.
        let state = Arc::new(problem.snapshot());
        meter::record_snapshot_alloc();
        let sync = SnapshotPayload::encode(cfg.snapshot_mode, &clw_sync, &state);
        for &c in &clws {
            t.send(
                c,
                PtsMsg::AdoptState {
                    seq: g,
                    snapshot: sync.clone(),
                },
            );
        }
        drop((state, sync));

        // --- Local iterations -------------------------------------------
        let mut force_pending = false;
        for _li in 0..cfg.local_iters {
            // With every CLW dead there is nobody left to investigate:
            // skip straight to the report so the round still completes.
            if clw_dead.iter().all(|&d| d) {
                break;
            }
            // A master ForceReport may already be queued.
            while let Some(msg) = t.try_recv() {
                match msg {
                    PtsMsg::ForceReport { global } if global == g => force_pending = true,
                    PtsMsg::Down { rank } => match classify_down(rank) {
                        DownWho::Parent => parent_down = true,
                        DownWho::Clw(j) => clw_dead[j] = true,
                        DownWho::Other => {}
                    },
                    _ => {}
                }
            }
            if force_pending || parent_down {
                break;
            }

            inv_seq += 1;
            for (j, &c) in clws.iter().enumerate() {
                if !clw_dead[j] {
                    t.send(
                        c,
                        PtsMsg::Investigate {
                            seq: inv_seq,
                            strategy: cur_strategy,
                        },
                    );
                }
            }
            let proposals = collect_proposals::<D, T>(
                t,
                cfg,
                tsw_index,
                g,
                inv_seq,
                &clws,
                &mut force_pending,
                &mut clw_dead,
                &mut parent_down,
            )
            .await;

            // Paper: "The TSW selects the best solution from the CLW that
            // achieves the maximum cost improvement or the least cost
            // degradation." Every *live* CLW answers each investigation;
            // an empty set means the last of them died mid-collection.
            // Total order on costs: a NaN-costed proposal (a poisoned
            // evaluator on one CLW) ranks above every real cost and loses
            // to any finite sibling instead of panicking the worker.
            let Some((moves, cost)) = proposals.into_iter().min_by(|a, b| a.1.total_cmp(&b.1))
            else {
                break;
            };
            let compound = CompoundMove {
                start_cost: problem.cost(),
                cost,
                moves,
            };
            t.compute(cfg.work.per_tabu_check).await;
            if let StepOutcome::Accepted { .. } = engine.step_with(&mut problem, &compound, t.now())
            {
                for (j, &c) in clws.iter().enumerate() {
                    if !clw_dead[j] {
                        t.send(
                            c,
                            PtsMsg::ApplyMoves {
                                moves: compound.moves.clone(),
                            },
                        );
                    }
                }
            }
            if force_pending || parent_down {
                break;
            }
        }

        // The parent died mid-round: nobody will ever answer our report
        // with a broadcast. Release the surviving CLWs and wind down.
        if parent_down {
            for (j, &c) in clws.iter().enumerate() {
                if !clw_dead[j] {
                    t.send(c, PtsMsg::Stop);
                }
            }
            return;
        }

        // --- Report to the parent collector ------------------------------
        // Exactly one Report per round leaves this TSW: the force path
        // above only *hastens* this send (it breaks out of the local
        // iterations), it never adds a second one — and any ForceReport
        // arriving after this point (the force-after-report race: the
        // parent forced us while our report was already in flight) is
        // recognized as stale in the adoption loop below and dropped.
        // The CLWs mirrored every accepted compound this round, so the
        // problem state *now* is exactly what they hold: capture it as
        // the base the next round's AdoptState delta is diffed against
        // (the broadcast adoption below moves this TSW off it). No next
        // round, no capture — the final iteration ends in Stop.
        if cfg.snapshot_mode == crate::config::SnapshotMode::Delta && g + 1 < cfg.global_iters {
            meter::record_snapshot_alloc();
            clw_sync.advance(g, Arc::new(problem.snapshot()));
        }

        t.send(
            parent,
            PtsMsg::Report {
                tsw: tsw_index,
                global: g,
                cost: engine.best_cost(),
                snapshot: SnapshotPayload::encode(cfg.snapshot_mode, &base, engine.best()),
                tabu: Arc::new(engine.export_tabu()),
                trace: engine.trace().points().to_vec(),
                stats: *engine.stats(),
            },
        );

        // --- Adopt the broadcast (or stop) --------------------------------
        loop {
            match t.recv().await {
                PtsMsg::Broadcast {
                    global,
                    snapshot,
                    tabu,
                    strategy,
                } if global == g => match (snapshot.resolve(&base), tabu.resolve(&tabu_base)) {
                    (Some(full), Some(full_tabu)) => {
                        engine.adopt(&mut problem, &full, &full_tabu, t.now());
                        if strategy != cur_strategy {
                            let s = cfg.strategy(strategy);
                            engine.reconfigure(s.tenure, s.candidates, s.depth, s.aspiration);
                            cur_strategy = strategy;
                        }
                        // The adopted broadcast becomes the base the next
                        // report is diffed against — both ends re-anchor
                        // (solution and tabu list alike).
                        base.advance(global, full);
                        tabu_base.advance(global, full_tabu);
                        break;
                    }
                    // A broadcast delta against a base this TSW does not
                    // hold: protocol violation — warn and drop, like the
                    // collectors' hardening paths.
                    _ => protocol_warn(
                        t.rank(),
                        "dropping Broadcast delta against a base this TSW does not hold",
                    ),
                },
                // A *newer* broadcast: the parent moved on without us (our
                // report or its broadcast got lost to a fault). A full
                // snapshot resolves against any base — adopt it and rejoin
                // from there; a delta against a base we never adopted
                // cannot resolve and is dropped below with the others.
                PtsMsg::Broadcast {
                    global,
                    snapshot,
                    tabu,
                    strategy,
                } if global > g => {
                    if let (Some(full), Some(full_tabu)) =
                        (snapshot.resolve(&base), tabu.resolve(&tabu_base))
                    {
                        engine.adopt(&mut problem, &full, &full_tabu, t.now());
                        if strategy != cur_strategy {
                            let s = cfg.strategy(strategy);
                            engine.reconfigure(s.tenure, s.candidates, s.depth, s.aspiration);
                            cur_strategy = strategy;
                        }
                        base.advance(global, full);
                        tabu_base.advance(global, full_tabu);
                        break;
                    }
                }
                PtsMsg::Stop => {
                    for &c in &clws {
                        t.send(c, PtsMsg::Stop);
                    }
                    return;
                }
                PtsMsg::Down { rank } => match classify_down(rank) {
                    // The parent died while we awaited its broadcast:
                    // nothing more is coming — wind the subtree down.
                    DownWho::Parent => {
                        for (j, &c) in clws.iter().enumerate() {
                            if !clw_dead[j] {
                                t.send(c, PtsMsg::Stop);
                            }
                        }
                        return;
                    }
                    DownWho::Clw(j) => clw_dead[j] = true,
                    DownWho::Other => {}
                },
                // Stale: a ForceReport that crossed our round-`g` report
                // (it must NOT trigger a second report — the parent
                // already has ours in flight), or leftover control
                // traffic from the finished round.
                PtsMsg::ForceReport { .. } | PtsMsg::Broadcast { .. } => {}
                PtsMsg::Proposal { .. } | PtsMsg::CutShort { .. } => {}
                other => {
                    protocol_warn(
                        t.rank(),
                        &format!(
                            "TSW dropping unexpected {} while awaiting Broadcast",
                            other.tag()
                        ),
                    );
                }
            }
        }
    }
    // All global iterations done without receiving Stop (master always
    // terminates with Stop, so this is unreachable in practice).
    for &c in &clws {
        t.send(c, PtsMsg::Stop);
    }
}

/// Collect one proposal from every *live* CLW, applying the half-report
/// policy as a parent and watching for the master's ForceReport as a child.
///
/// A CLW whose `Down` notice arrives mid-collection is excused from this
/// and all future investigations; a parent death aborts the collection
/// (the caller winds the worker down). Without faults every CLW is live
/// and exactly `clws.len()` proposals come back — the historical contract.
#[allow(clippy::too_many_arguments)]
async fn collect_proposals<D: PtsDomain, T: Transport<D::Problem>>(
    t: &mut T,
    cfg: &PtsConfig,
    tsw_index: usize,
    global: u32,
    seq: u64,
    clws: &[usize],
    force_pending: &mut bool,
    clw_dead: &mut [bool],
    parent_down: &mut bool,
) -> Vec<ProposalOf<D>> {
    let n = clws.len();
    let parent = cfg.parent_of_tsw(tsw_index);
    let mut got: Vec<Option<ProposalOf<D>>> = (0..n).map(|_| None).collect();
    let mut n_got = 0;
    let mut cut_sent = false;

    let cut_stragglers =
        |t: &mut T, got: &[Option<ProposalOf<D>>], dead: &[bool], cut_sent: &mut bool| {
            if *cut_sent {
                return;
            }
            for (j, slot) in got.iter().enumerate() {
                if slot.is_none() && !dead[j] {
                    t.send(cfg.clw_rank(tsw_index, j), PtsMsg::CutShort { seq });
                }
            }
            *cut_sent = true;
        };

    loop {
        // A dead CLW that never answered is excused; one that answered
        // before dying still counts. Recomputed each pass because deaths
        // land mid-collection.
        let excused = got
            .iter()
            .zip(clw_dead.iter())
            .filter(|(slot, &dead)| slot.is_none() && dead)
            .count();
        if n_got >= n - excused || *parent_down {
            break;
        }
        match t.recv().await {
            PtsMsg::Proposal {
                clw,
                seq: s,
                moves,
                cost,
            } if s == seq => {
                // Same hardening as the master's collection: a duplicate
                // (or out-of-range) proposal must not double-count
                // `n_got`, which would end the collection with a missing
                // slot and poison the round.
                if clw >= n || got[clw].is_some() {
                    protocol_warn(
                        t.rank(),
                        &format!("TSW rejecting duplicate/out-of-range Proposal from CLW {clw}"),
                    );
                    continue;
                }
                got[clw] = Some((moves, cost));
                n_got += 1;
                let n_live = n - clw_dead.iter().filter(|&&d| d).count();
                if cfg.clw_sync == SyncPolicy::HalfReport
                    && n_live > 0
                    && n_got >= cfg.report_quorum(n_live)
                    && n_got < n_live
                {
                    cut_stragglers(t, &got, clw_dead, &mut cut_sent);
                }
            }
            PtsMsg::Proposal { .. } => {} // stale seq (cannot normally occur)
            PtsMsg::ForceReport { global: fg } if fg == global => {
                *force_pending = true;
                // Hasten the stragglers so this iteration ends quickly.
                cut_stragglers(t, &got, clw_dead, &mut cut_sent);
            }
            PtsMsg::ForceReport { .. } | PtsMsg::CutShort { .. } => {}
            PtsMsg::Down { rank } => {
                if rank == parent {
                    *parent_down = true;
                } else if let Some(j) = clws.iter().position(|&c| c == rank) {
                    clw_dead[j] = true;
                }
            }
            other => {
                protocol_warn(
                    t.rank(),
                    &format!(
                        "TSW dropping unexpected {} while collecting proposals",
                        other.tag()
                    ),
                );
            }
        }
    }
    got.into_iter().flatten().collect()
}

/// Who a [`PtsMsg::Down`] notice refers to, from one TSW's point of view.
enum DownWho {
    Parent,
    Clw(usize),
    Other,
}
