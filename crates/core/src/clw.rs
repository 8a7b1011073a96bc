//! The Candidate-List Worker (CLW), generic over the problem domain.
//!
//! A CLW owns an item *range*. On `Investigate` it builds one compound
//! move: up to `depth` elementary moves, each the best of `m` sampled moves
//! whose anchor item lies in the range (the second item comes from the
//! whole item space, which bounds the probability of two CLWs colliding on
//! the same move by `1/(n-1)²` — the paper's argument for probabilistic
//! domain decomposition). The chain stops early as soon as it improves on
//! the starting cost; otherwise the best (least-bad) prefix is proposed.
//! The CLW then rolls back and waits for the TSW's verdict (`ApplyMoves`).
//!
//! Between compound steps the CLW polls its mailbox for `CutShort` — the
//! TSW's heterogeneity mechanism — and if cut, proposes what it has so far.
//! A `Stop` or its TSW's death met there ends the CLW at once, without a
//! proposal. Anything else the TSW sent meanwhile (an `AdoptState` or
//! `ApplyMoves` a reordering link delivered early) is kept, in arrival
//! order, and handled right after the proposal.
//!
//! # Sync by swaps
//!
//! At the start of each global iteration the TSW hands its CLWs its
//! current state (`AdoptState`), usually as a delta against the state the
//! CLWs already hold. A restore of that state re-derives its cost from
//! scratch, O(n²) on QAP, and misses the cost memo, since each TSW's
//! diversified state is its own. So the CLW instead asks the snapshot type
//! for the swaps between its own state and the TSW's
//! ([`DeltaSnapshot::swap_path`]) and applies them as moves
//! ([`FromSwap`]) in one [`SearchProblem::apply_all`], as it applies a
//! mirrored `ApplyMoves`. On QAP that prices two swaps per O(n) walk, each
//! at the bits one `apply` per swap gives. A `Full` payload is diffed
//! against the CLW's state first, so delta and full syncs apply the same
//! swaps and keep the same trajectory.
//!
//! The CLW's cost after a followed sync is then its own running cost, not
//! the exact sum; the two differ only in the last bits. The bound is the
//! domain's: QAP follows a path of at most n/4 swaps. Past it, and on a
//! domain whose snapshot offers no path (placement), the CLW restores the
//! TSW's state.
//!
//! The proposer's own `ApplyMoves` walks nothing on QAP: its investigation
//! rolled the same moves back, and the instance's commit log replays them
//! at their logged deltas.

use crate::config::PtsConfig;
use crate::domain::{DeltaSnapshot, FromSwap, PtsDomain, PtsProblem};
use crate::messages::{PtsMsg, SnapshotPayload};
use crate::meter;
use crate::transport::Transport;
use pts_tabu::candidate::{CandidateList, CandidateScratch};
use pts_tabu::problem::SearchProblem;
use pts_util::Rng;
use std::collections::VecDeque;

type MoveOf<D> = <<D as PtsDomain>::Problem as SearchProblem>::Move;

/// Derive a worker-unique RNG stream from the run seed and rank.
pub fn worker_rng(seed: u64, rank: usize) -> Rng {
    Rng::new(seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xCB0C)
}

/// Run the CLW protocol loop until `Stop`.
///
/// `async` over any [`Transport`]: on blocking substrates drive it with
/// [`crate::transport::drive_sync`]; on the cooperative substrate each
/// `recv` is a scheduling point.
pub async fn run_clw<D: PtsDomain, T: Transport<D::Problem>>(
    t: &mut T,
    cfg: &PtsConfig,
    tsw_rank: usize,
    clw_index: usize,
    domain: &D,
) {
    let n_items = domain.domain_size();
    let range = cfg.clw_range(clw_index, n_items);
    // MPSS (paper default): CLW j of *every* TSW shares one stream — the
    // searches are differentiated only by the TSW diversification step.
    // With differentiated streams (extension), each worker explores its
    // own trajectory.
    let stream_salt = if cfg.differentiate_streams {
        t.rank()
    } else {
        1_000 + clw_index
    };
    let mut rng = worker_rng(cfg.seed, stream_salt);

    // Messages received but not yet handled, in arrival order: what a
    // reordering route (vt's `JitterRoute`) delivered ahead of the TSW's
    // own Init, such as its first AdoptState, and whatever the TSW sent
    // while an investigation ran. Each is handled before the next `recv`.
    // A TSW that dies before it passes the Init on ends this CLW with its
    // `Down`.
    let mut pending: VecDeque<PtsMsg<D::Problem>> = VecDeque::new();
    let mut problem = loop {
        match t.recv().await {
            PtsMsg::Init { snapshot } => break domain.instantiate(&snapshot),
            PtsMsg::Stop => return,
            PtsMsg::Down { rank } if rank == tsw_rank => return,
            other => pending.push_back(other),
        }
    };

    // How many AdoptState syncs this CLW has processed — the base
    // sequence an AdoptState delta must match (the TSW/CLW link is FIFO
    // with exactly one sync per round).
    let mut adopt_seq: u32 = 0;

    // One set of batch buffers serves every investigation this CLW runs.
    let mut scratch: CandidateScratch<MoveOf<D>> = CandidateScratch::new();

    loop {
        let msg = match pending.pop_front() {
            Some(msg) => msg,
            None => t.recv().await,
        };
        if handle::<D, T>(
            t,
            cfg,
            tsw_rank,
            clw_index,
            range,
            &mut rng,
            &mut problem,
            &mut adopt_seq,
            &mut scratch,
            &mut pending,
            msg,
        )
        .await
        {
            return;
        }
    }
}

/// Dispatch one protocol message; returns `true` on `Stop`.
#[allow(clippy::too_many_arguments)]
async fn handle<D: PtsDomain, T: Transport<D::Problem>>(
    t: &mut T,
    cfg: &PtsConfig,
    tsw_rank: usize,
    clw_index: usize,
    range: (usize, usize),
    rng: &mut Rng,
    problem: &mut D::Problem,
    adopt_seq: &mut u32,
    scratch: &mut CandidateScratch<MoveOf<D>>,
    pending: &mut VecDeque<PtsMsg<D::Problem>>,
    msg: PtsMsg<D::Problem>,
) -> bool {
    match msg {
        PtsMsg::Investigate { seq, strategy } => {
            let mut stop = false;
            let (moves, cost) = investigate::<D, T>(
                t, cfg, strategy, problem, rng, range, seq, tsw_rank, &mut stop, scratch, pending,
            )
            .await;
            // Stop, or the TSW's death, reached the cut-short poll: there
            // is nobody to propose to — wind down.
            if stop {
                return true;
            }
            t.send(
                tsw_rank,
                PtsMsg::Proposal {
                    clw: clw_index,
                    seq,
                    moves,
                    cost,
                },
            );
        }
        PtsMsg::ApplyMoves { moves } => {
            problem.apply_all(&moves);
            t.compute(cfg.work.per_commit * moves.len() as f64).await;
        }
        PtsMsg::AdoptState { seq, snapshot } => {
            let adopted = match snapshot {
                // The delta's base is this CLW's *own current state* (the
                // TSW's state at its last report, which the mirrored
                // ApplyMoves kept identical here). A sequence mismatch
                // means the lockstep broke — protocol violation; drop
                // rather than desync worse.
                SnapshotPayload::Delta { base_seq, .. }
                    if base_seq != *adopt_seq || seq != *adopt_seq =>
                {
                    crate::transport::protocol_warn(
                        t.rank(),
                        &format!(
                            "CLW dropping AdoptState delta for sync {base_seq} (expected {adopt_seq})"
                        ),
                    );
                    false
                }
                payload => {
                    sync(problem, &payload);
                    true
                }
            };
            // Track the *sender's* counter, not a blind local increment:
            // after an anomaly this re-aligns the sequence, so the next
            // Full sync (fallback rounds ship Full payloads) genuinely
            // restores lockstep instead of every later delta being
            // dropped against a permanently off-by-one counter.
            *adopt_seq = seq + 1;
            if adopted {
                t.compute(cfg.work.per_commit).await;
            }
        }
        PtsMsg::Stop => return true,
        // Death notice: our TSW is gone — nobody will ever Investigate or
        // Stop us, so wind down now. Anyone else's death is not our
        // concern (the TSW re-plans around its own losses).
        PtsMsg::Down { rank } => return rank == tsw_rank,
        // Stale control traffic (CutShort for a finished investigation, a
        // duplicate Init delivered late).
        PtsMsg::CutShort { .. } | PtsMsg::Init { .. } => {}
        other => {
            crate::transport::protocol_warn(
                t.rank(),
                &format!("CLW dropping unexpected {}", other.tag()),
            );
        }
    }
    false
}

/// Build one compound-move proposal. Leaves the problem back at its
/// starting state; returns the proposed move prefix and the cost it
/// reaches. Sets `stop` (and stops early) if a `Stop` or the owning
/// TSW's death notice arrives at the cut-short poll.
#[allow(clippy::too_many_arguments)]
async fn investigate<D: PtsDomain, T: Transport<D::Problem>>(
    t: &mut T,
    cfg: &PtsConfig,
    strategy: u8,
    problem: &mut D::Problem,
    rng: &mut Rng,
    range: (usize, usize),
    seq: u64,
    tsw_rank: usize,
    stop: &mut bool,
    scratch: &mut CandidateScratch<MoveOf<D>>,
    pending: &mut VecDeque<PtsMsg<D::Problem>>,
) -> (Vec<MoveOf<D>>, f64) {
    // The search knobs come from the *investigation's* strategy stamp, not
    // a config global: under a portfolio the owning TSW may be reassigned
    // between rounds, and the stamp keeps CLWs in lockstep with it.
    let strat = cfg.strategy(strategy);
    let sampler = CandidateList::new(strat.candidates);
    let start_cost = problem.cost();
    let mut applied: Vec<MoveOf<D>> = Vec::with_capacity(strat.depth);
    let mut cost_after: Vec<f64> = Vec::with_capacity(strat.depth);

    for step in 0..strat.depth {
        // m trial evaluations + one commit of the winner. The whole batch
        // is still charged as ONE compute call — the virtual-time ledger
        // (and thus every pinned vt golden) is oblivious to whether
        // the trials ran through the scalar loop or the batched kernel.
        t.compute(cfg.work.per_trial * strat.candidates as f64)
            .await;
        // Exact trial metering: count the batch only when it actually
        // executes (cut-short / forced-early / dead paths never get here).
        meter::record_trials(strat.candidates as u64);
        let cand = sampler.sample_best_with(problem, rng, Some(range), scratch);
        problem.apply(&cand.mv);
        t.compute(cfg.work.per_commit).await;
        applied.push(cand.mv);
        cost_after.push(problem.cost());

        // Early accept: improved over the starting cost — report at once.
        if *cost_after.last().expect("just pushed") < start_cost {
            break;
        }
        // Nothing left to cut after the final step; skip the poll.
        if step + 1 == strat.depth {
            break;
        }
        // Heterogeneity: the TSW may cut the investigation short. On the
        // cooperative executor the two computes above suspended, so the
        // TSW (and sibling CLWs) ran in between and a `CutShort` can
        // already be in the mailbox; on the blocking substrates peers run
        // in parallel anyway.
        let mut cut = false;
        while let Some(msg) = t.try_recv() {
            match msg {
                PtsMsg::CutShort { seq: s } if s == seq => cut = true,
                PtsMsg::CutShort { .. } => {} // stale
                PtsMsg::Stop => *stop = true,
                PtsMsg::Down { rank } => *stop |= rank == tsw_rank,
                // The state this investigation started from must stay put
                // until it proposes: handle the rest afterwards.
                other => pending.push_back(other),
            }
        }
        if cut || *stop {
            break;
        }
    }

    // Best prefix (least-bad if nothing improves; always >= 1 move).
    let mut best_len = 1;
    let mut best_cost = cost_after[0];
    for (i, &c) in cost_after.iter().enumerate().skip(1) {
        if c < best_cost {
            best_cost = c;
            best_len = i + 1;
        }
    }

    // Roll all moves back; the TSW decides what is actually applied.
    for mv in applied.iter().rev() {
        problem.undo(mv);
    }
    applied.truncate(best_len);
    (applied, best_cost)
}

/// Bring `problem` to the state `payload` carries: by the swaps of the
/// snapshot's [`DeltaSnapshot::swap_path`] from `problem`'s current state
/// when it offers one, by `restore` otherwise. A `Delta` payload must be
/// diffed against that current state.
fn sync<P: PtsProblem>(problem: &mut P, payload: &SnapshotPayload<P>) {
    let current = problem.snapshot();
    let path = match payload {
        SnapshotPayload::Full(target) => {
            P::Snapshot::swap_path(&current, &P::Snapshot::diff(&current, target))
        }
        SnapshotPayload::Delta { delta, .. } => P::Snapshot::swap_path(&current, delta),
    };
    match (path, payload) {
        (Some(path), _) => {
            let moves: Vec<P::Move> = path
                .into_iter()
                .map(|(a, b)| P::Move::from_swap(a, b))
                .collect();
            problem.apply_all(&moves);
        }
        (None, SnapshotPayload::Full(target)) => problem.restore(target),
        (None, SnapshotPayload::Delta { delta, .. }) => {
            let target = P::Snapshot::apply_delta(&current, delta);
            meter::record_snapshot_alloc();
            problem.restore(&target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qap_domain::QapDomain;
    use pts_tabu::qap::{Qap, QapAssignment};
    use std::sync::Arc;

    /// A QAP-64 problem at its initial state, and a state `swaps` random
    /// swaps away from it.
    fn qap_and_target(swaps: usize) -> (Qap, QapAssignment) {
        let domain = QapDomain::random(64, 9);
        let problem = domain.instantiate(&domain.initial(1));
        let mut rng = Rng::new(4);
        let mut target = problem.snapshot().into_vec();
        for _ in 0..swaps {
            let (a, b) = (rng.index(64), rng.index(64));
            target.swap(a, b);
        }
        (problem, QapAssignment::new(target))
    }

    /// Sync a copy of `problem` by the delta payload and a copy by the
    /// full one; both end at `target`. Returns the two copies.
    fn sync_both(problem: &Qap, target: &QapAssignment) -> (Qap, Qap) {
        let delta = QapAssignment::diff(&problem.snapshot(), target);
        let mut by_delta = problem.clone();
        sync(
            &mut by_delta,
            &SnapshotPayload::Delta {
                base_seq: 0,
                delta: Arc::new(delta),
            },
        );
        let mut by_full = problem.clone();
        sync(
            &mut by_full,
            &SnapshotPayload::Full(Arc::new(target.clone())),
        );
        for synced in [&by_delta, &by_full] {
            assert_eq!(synced.snapshot(), *target);
        }
        (by_delta, by_full)
    }

    #[test]
    fn a_followed_sync_reaches_the_tsws_state_at_the_running_cost() {
        let (problem, target) = qap_and_target(6);
        let (by_delta, by_full) = sync_both(&problem, &target);
        // Delta and full payloads follow the same swaps: the same bits.
        assert_eq!(by_delta.cost().to_bits(), by_full.cost().to_bits());
        // Two swaps per walk end on the bits of one apply per swap.
        let path = QapAssignment::swap_path(
            &problem.snapshot(),
            &QapAssignment::diff(&problem.snapshot(), &target),
        )
        .expect("a short path");
        assert!(path.len() >= 3, "{path:?}");
        let mut per_swap = problem.clone();
        for mv in &path {
            per_swap.apply(mv);
        }
        assert_eq!(by_delta.cost().to_bits(), per_swap.cost().to_bits());
        let exact = by_delta.cost_exact();
        assert!(
            (by_delta.cost() - exact).abs() <= 1e-12 * exact.abs(),
            "running cost {} against exact {exact}",
            by_delta.cost()
        );
    }

    #[test]
    fn a_sync_past_the_bound_restores_the_exact_cost() {
        // 64 swaps move nearly every facility: far past 64/4 swaps.
        let (problem, target) = qap_and_target(64);
        assert_eq!(
            QapAssignment::swap_path(
                &problem.snapshot(),
                &QapAssignment::diff(&problem.snapshot(), &target)
            ),
            None
        );
        let (by_delta, by_full) = sync_both(&problem, &target);
        for synced in [by_delta, by_full] {
            assert_eq!(synced.cost().to_bits(), synced.cost_exact().to_bits());
        }
    }

    #[test]
    fn worker_rng_streams_differ_by_rank() {
        let mut a = worker_rng(1, 1);
        let mut b = worker_rng(1, 2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn worker_rng_deterministic() {
        let mut a = worker_rng(7, 3);
        let mut b = worker_rng(7, 3);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
