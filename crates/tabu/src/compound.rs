//! Compound moves: chains of up to `d` elementary moves.
//!
//! The paper's candidate-list worker "makes a compound move of a
//! predetermined depth and keeps computing the gain. If the current cost is
//! improved before reaching the maximum depth, the move is accepted without
//! further investigation. After finding the compound move that improves the
//! cost the most or degrades it the least", it reports its best solution.
//!
//! [`build_compound`] reproduces that: greedily chain best-of-`m` moves up
//! to depth `d`, stop early on improvement over the starting cost, and keep
//! only the best prefix of the chain.

use crate::candidate::{CandidateList, CandidateScratch};
use crate::problem::SearchProblem;
use pts_util::Rng;

/// A chain of moves with the cost reached at its end.
#[derive(Clone, Debug)]
pub struct CompoundMove<M> {
    /// Elementary moves in application order (possibly empty).
    pub moves: Vec<M>,
    /// Cost after applying all `moves` from the starting state.
    pub cost: f64,
    /// Cost of the starting state, for gain computation.
    pub start_cost: f64,
}

impl<M> CompoundMove<M> {
    /// Negative gain = improvement.
    pub fn gain(&self) -> f64 {
        self.cost - self.start_cost
    }

    pub fn is_improving(&self) -> bool {
        self.cost < self.start_cost
    }

    pub fn depth(&self) -> usize {
        self.moves.len()
    }
}

/// Build a compound move. On return the problem state has the chosen prefix
/// **applied**; use [`undo_compound`] to roll back.
///
/// * `m` — candidates sampled per elementary step,
/// * `depth` — maximum chain length (>= 1),
/// * `early_accept` — stop as soon as the chain improves on the start cost
///   (the paper's behaviour).
pub fn build_compound<P: SearchProblem>(
    problem: &mut P,
    rng: &mut Rng,
    range: Option<(usize, usize)>,
    m: usize,
    depth: usize,
    early_accept: bool,
) -> CompoundMove<P::Move> {
    let mut scratch = CandidateScratch::new();
    build_compound_with(problem, rng, range, m, depth, early_accept, &mut scratch)
}

/// [`build_compound`] with a caller-owned candidate scratch, so a search
/// loop building many compound moves reuses one set of batch buffers
/// instead of allocating per elementary step.
#[allow(clippy::too_many_arguments)]
pub fn build_compound_with<P: SearchProblem>(
    problem: &mut P,
    rng: &mut Rng,
    range: Option<(usize, usize)>,
    m: usize,
    depth: usize,
    early_accept: bool,
    scratch: &mut CandidateScratch<P::Move>,
) -> CompoundMove<P::Move> {
    assert!(depth >= 1, "compound depth must be at least 1");
    let sampler = CandidateList::new(m);
    let start_cost = problem.cost();

    let mut applied: Vec<P::Move> = Vec::with_capacity(depth);
    let mut cost_after: Vec<f64> = Vec::with_capacity(depth);
    for _ in 0..depth {
        let cand = sampler.sample_best_with(problem, rng, range, scratch);
        problem.apply(&cand.mv);
        applied.push(cand.mv);
        let c = problem.cost();
        cost_after.push(c);
        if early_accept && c < start_cost {
            break;
        }
    }

    // Best prefix: minimal cost; ties favour the shorter chain.
    let mut best_len = 0usize;
    let mut best_cost = start_cost;
    for (i, &c) in cost_after.iter().enumerate() {
        if c < best_cost {
            best_cost = c;
            best_len = i + 1;
        }
    }
    // The paper's CLW always proposes a move ("degrades it the least"):
    // if no prefix improves, keep the single least-bad elementary move
    // (total order, so a NaN-costed step cannot panic the worker; NaN
    // ranks above every real cost and is never picked against one).
    if best_len == 0 {
        let (idx, &c) = cost_after
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("depth >= 1");
        // Least-bad prefix is the one ending at the minimum cost.
        best_len = idx + 1;
        best_cost = c;
    }

    // Roll back moves beyond the chosen prefix.
    for mv in applied[best_len..].iter().rev() {
        problem.undo(mv);
    }
    applied.truncate(best_len);

    CompoundMove {
        moves: applied,
        cost: best_cost,
        start_cost,
    }
}

/// Undo a compound move previously applied (state returns to the start).
pub fn undo_compound<P: SearchProblem>(problem: &mut P, compound: &CompoundMove<P::Move>) {
    for mv in compound.moves.iter().rev() {
        problem.undo(mv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qap::Qap;

    #[test]
    fn state_matches_reported_cost() {
        let mut q = Qap::random(15, 7);
        let mut rng = Rng::new(1);
        for _ in 0..20 {
            let cm = build_compound(&mut q, &mut rng, None, 6, 4, true);
            assert!(
                (q.cost_exact() - cm.cost).abs() < 1e-6,
                "problem state must sit at the compound's end cost"
            );
            assert!(cm.depth() >= 1 && cm.depth() <= 4);
        }
    }

    #[test]
    fn undo_restores_start() {
        let mut q = Qap::random(15, 8);
        let mut rng = Rng::new(2);
        let before = q.snapshot_assignment();
        let start_cost = q.cost();
        let cm = build_compound(&mut q, &mut rng, None, 6, 4, false);
        undo_compound(&mut q, &cm);
        assert_eq!(q.snapshot_assignment(), before);
        assert!((q.cost() - start_cost).abs() < 1e-9);
    }

    #[test]
    fn apply_after_undo_reproduces_cost() {
        let mut q = Qap::random(12, 9);
        let mut rng = Rng::new(3);
        let cm = build_compound(&mut q, &mut rng, None, 5, 3, false);
        undo_compound(&mut q, &cm);
        q.apply_all(&cm.moves);
        assert!((q.cost() - cm.cost).abs() < 1e-9);
    }

    #[test]
    fn early_accept_stops_on_improvement() {
        // With a large m on a random instance, the first best-of-m move
        // almost always improves; early accept should then stop at depth 1.
        let mut q = Qap::random(20, 10);
        let mut rng = Rng::new(4);
        let cm = build_compound(&mut q, &mut rng, None, 40, 5, true);
        if cm.is_improving() {
            assert_eq!(cm.depth(), 1, "early accept must cut the chain");
        }
    }

    #[test]
    fn best_prefix_never_worse_than_full_chain() {
        let mut q = Qap::random(15, 11);
        let mut rng = Rng::new(5);
        for _ in 0..10 {
            let cm = build_compound(&mut q, &mut rng, None, 3, 5, false);
            // The kept prefix cost can only be <= any longer chain cost we
            // discarded; in particular it is the state cost now.
            assert!((q.cost_exact() - cm.cost).abs() < 1e-6);
            undo_compound(&mut q, &cm);
        }
    }

    #[test]
    fn gain_sign_conventions() {
        let cm = CompoundMove::<u32> {
            moves: vec![],
            cost: 9.0,
            start_cost: 10.0,
        };
        assert!(cm.is_improving());
        assert!((cm.gain() + 1.0).abs() < 1e-12);
    }
}
