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
//!
//! Everything from the parent — `Init`, the broadcasts, `Stop` — arrives
//! through the downward step, `Parent::down_step` in [`crate::master`].
//! The TSW passes the `Init` on to its live CLWs as it arrives, so every
//! message a CLW gets comes from its own TSW.
//! A broadcast met while the TSW still collects from its CLWs acts like a
//! `ForceReport`, and a `Stop` met there ends the TSW without a report.
//! After adopting a broadcast the TSW resumes at the round after the one
//! it closes.

use crate::config::PtsConfig;
use crate::domain::{PtsDomain, PtsProblem};
use crate::master::{FromParent, Parent, Quorum};
use crate::messages::{PtsMsg, SnapshotBase, SnapshotPayload, TabuPayload};
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
    let me = t.rank();
    // Fault tolerance: CLWs whose death notice (PtsMsg::Down) arrived are
    // excluded from investigations. Nobody dies without faults.
    let mut clws = Quorum::new(cfg, cfg.children_of(me).expect("a TSW has CLWs"));
    // Under a sharded topology reports go to this TSW's group sub-master
    // rather than rank 0; all control traffic (Init, ForceReport,
    // Broadcast, Stop) likewise arrives from the parent.
    let mut parent = Parent::new(cfg.parent_rank(me).expect("a TSW has a parent"));
    // MPSS (paper default): one shared diversification stream — TSWs still
    // diverge because each diversifies over a *different* item range.
    let div_salt = if cfg.differentiate_streams {
        t.rank()
    } else {
        2_000
    };
    let mut div_rng = crate::clw::worker_rng(cfg.seed, div_salt);

    // Wait for Init and pass it on to the CLWs at once, so that they
    // instantiate while this TSW does. The initial solution doubles as
    // the sequence-0 snapshot base shared with the parent: reports diff
    // against it until the first broadcast re-anchors it.
    let FromParent::Init(initial) = parent
        .down_step(t, None, 0, |rank| clws.note_down(me, cfg, rank))
        .await
    else {
        send_live(t, cfg, &clws, || PtsMsg::Stop);
        return;
    };
    send_live(t, cfg, &clws, || PtsMsg::Init {
        snapshot: Arc::clone(&initial),
    });
    let mut problem = domain.instantiate(&initial);
    let mut base = SnapshotBase::<D::Problem>::initial(initial);
    // The state this TSW's CLWs currently hold — they start at Init and
    // mirror every accepted compound, so at each sync point their state
    // is exactly this TSW's state at the *previous* report. AdoptState
    // payloads diff against it (delta mode only; in full mode the base
    // is never consulted, so the per-round capture below is skipped).
    let mut clw_sync = SnapshotBase::<D::Problem>::initial(Arc::clone(&base.snapshot));
    // AdoptState syncs sent so far: the sequence the CLWs count. It is
    // the round number unless an adopted broadcast skipped rounds.
    let mut syncs: u32 = 0;

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

    let mut g = 0;
    while g < cfg.global_iters {
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
        let adopt = || PtsMsg::AdoptState {
            seq: syncs,
            snapshot: sync.clone(),
        };
        for j in 0..cfg.n_clw {
            t.send(clws.children().rank(cfg, j), adopt());
        }
        drop((state, sync));

        // --- Local iterations -------------------------------------------
        // A ForceReport ends them early, and so does anything from the
        // parent kept for the downward step: a broadcast acts like a
        // ForceReport, a wind-down stops the round.
        let mut force_pending = false;
        for _li in 0..cfg.local_iters {
            // With every CLW dead there is nobody left to investigate:
            // skip straight to the report so the round still completes.
            if clws.live().next().is_none() {
                break;
            }
            // A master ForceReport, or traffic from above for the
            // downward step, may already be queued.
            while let Some(msg) = t.try_recv() {
                match parent.keep(g, msg) {
                    Some(PtsMsg::ForceReport { global }) if global == g => force_pending = true,
                    Some(PtsMsg::Down { rank }) => clws.note_down(me, cfg, rank),
                    _ => {}
                }
            }
            if force_pending || parent.has_kept() {
                break;
            }

            inv_seq += 1;
            send_live(t, cfg, &clws, || PtsMsg::Investigate {
                seq: inv_seq,
                strategy: cur_strategy,
            });
            let proposals = collect_proposals::<D, T>(
                t,
                cfg,
                &mut clws,
                g,
                inv_seq,
                &mut force_pending,
                &mut parent,
            )
            .await;

            // Paper: "The TSW selects the best solution from the CLW that
            // achieves the maximum cost improvement or the least cost
            // degradation." Every *live* CLW answers each investigation;
            // an empty set means the last of them died mid-collection, or
            // the round is winding down.
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
                send_live(t, cfg, &clws, || PtsMsg::ApplyMoves {
                    moves: compound.moves.clone(),
                });
            }
            if force_pending || parent.has_kept() {
                break;
            }
        }

        // Stop, or the parent's death, met mid-round: nobody waits for
        // this round's report.
        if parent.winds_down() {
            break;
        }

        // --- Report to the parent collector ------------------------------
        // Exactly one Report per round leaves this TSW: the force path
        // above only *hastens* this send (it breaks out of the local
        // iterations), it never adds a second one — and any ForceReport
        // arriving after this point (the force-after-report race: the
        // parent forced us while our report was already in flight) is
        // dropped as stale by the downward step below.
        // The CLWs mirrored every accepted compound this round, so the
        // problem state *now* is exactly what they hold: capture it as
        // the base the next round's AdoptState delta is diffed against
        // (the broadcast adoption below moves this TSW off it). No next
        // round, no capture — the final iteration ends in Stop.
        if cfg.snapshot_mode == crate::config::SnapshotMode::Delta && g + 1 < cfg.global_iters {
            meter::record_snapshot_alloc();
            clw_sync.advance(syncs, Arc::new(problem.snapshot()));
        }
        syncs += 1;

        t.send(
            parent.rank,
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
        // This round's broadcast, or a *newer* one when the parent moved
        // on without us (our report or its broadcast got lost to a fault):
        // either way adopt it and go on after the round it closes.
        match parent
            .down_step(t, Some(&base), g, |rank| clws.note_down(me, cfg, rank))
            .await
        {
            FromParent::Round {
                global,
                snapshot,
                tabu: TabuPayload::Full(tabu),
                strategy,
                ..
            } => {
                engine.adopt(&mut problem, &snapshot, &tabu, t.now());
                if strategy != cur_strategy {
                    let s = cfg.strategy(strategy);
                    engine.reconfigure(s.tenure, s.candidates, s.depth, s.aspiration);
                    cur_strategy = strategy;
                }
                // The adopted broadcast becomes the base the next report
                // is diffed against — both ends re-anchor.
                base.advance(global, snapshot);
                g = global + 1;
            }
            _ => break,
        }
    }
    send_live(t, cfg, &clws, || PtsMsg::Stop);
}

/// Collect one proposal from every *live* CLW, applying the half-report
/// rule ([`Quorum`]) as a parent and watching for the master's
/// ForceReport as a child.
///
/// A CLW whose `Down` notice arrives mid-collection is excused from this
/// and all future investigations. Traffic from above is kept for the
/// downward step: a broadcast cuts the stragglers, as a ForceReport does,
/// and a wind-down abandons the collection with no proposals. Without
/// faults every CLW is live and exactly `n_clw` proposals come back, in
/// CLW order.
async fn collect_proposals<D: PtsDomain, T: Transport<D::Problem>>(
    t: &mut T,
    cfg: &PtsConfig,
    clws: &mut Quorum,
    global: u32,
    seq: u64,
    force_pending: &mut bool,
    parent: &mut Parent<D::Problem>,
) -> Vec<ProposalOf<D>> {
    clws.start();
    let mut got: Vec<Option<ProposalOf<D>>> = (0..cfg.n_clw).map(|_| None).collect();

    while clws.owed() > 0 {
        let cut = match parent.keep(global, t.recv().await) {
            None if parent.winds_down() => return Vec::new(),
            // A kept broadcast acts like this round's ForceReport.
            None if parent.has_kept() => true,
            None => continue,
            Some(PtsMsg::Proposal {
                clw,
                seq: s,
                moves,
                cost,
            }) if s == seq => {
                // Same hardening as the master's collection: a duplicate
                // (or out-of-range) proposal must not count twice, which
                // would end the collection with a missing slot and poison
                // the round.
                if !clws.accept(clw) {
                    protocol_warn(
                        t.rank(),
                        &format!("TSW rejecting duplicate/out-of-range Proposal from CLW {clw}"),
                    );
                    continue;
                }
                got[clw] = Some((moves, cost));
                false
            }
            Some(PtsMsg::ForceReport { global: fg }) if fg == global => {
                // Hasten the stragglers so this iteration ends quickly.
                *force_pending = true;
                true
            }
            // A stale seq (cannot normally occur), or a closed round's
            // force or cut.
            Some(
                PtsMsg::Proposal { .. } | PtsMsg::ForceReport { .. } | PtsMsg::CutShort { .. },
            ) => continue,
            Some(PtsMsg::Down { rank }) => {
                clws.note_down(t.rank(), cfg, rank);
                continue;
            }
            Some(other) => {
                protocol_warn(
                    t.rank(),
                    &format!(
                        "TSW dropping unexpected {} while collecting proposals",
                        other.tag()
                    ),
                );
                continue;
            }
        };
        for rank in clws.stragglers(cfg, cut) {
            t.send(rank, PtsMsg::CutShort { seq });
        }
    }
    got.into_iter().flatten().collect()
}

/// Send `msg()` to each of this TSW's live CLWs, in CLW order.
fn send_live<P: PtsProblem, T: Transport<P>>(
    t: &mut T,
    cfg: &PtsConfig,
    clws: &Quorum,
    msg: impl Fn() -> PtsMsg<P>,
) {
    for j in clws.live() {
        t.send(clws.children().rank(cfg, j), msg());
    }
}
