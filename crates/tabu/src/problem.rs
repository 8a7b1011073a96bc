//! The problem abstraction consumed by the tabu search engine.

use pts_util::Rng;

/// Tabu attributes of a move: one or two attribute values.
///
/// A swap move typically yields two attributes (one per moved item); simpler
/// moves yield one. Avoids allocation on the hot path.
pub type AttrPair<A> = (A, Option<A>);

/// A combinatorial optimization problem exposed as a mutable current state
/// plus sampled moves.
///
/// The engine drives the search: it samples candidate moves, trial-costs
/// them, applies/undoes them, and tracks tabu attributes. Implementations
/// keep whatever incremental caches they need — `trial_cost` takes `&mut
/// self` precisely so scratch space can live inside the problem.
pub trait SearchProblem {
    /// A move transforming the current state. Must be self-inverse under
    /// [`SearchProblem::undo`].
    type Move: Clone + std::fmt::Debug;
    /// Move attribute stored in tabu memory.
    type Attribute: Clone + Eq + std::hash::Hash + std::fmt::Debug;
    /// A full copy of a solution, for best-so-far tracking.
    ///
    /// Contract: [`SearchProblem::restore`] followed by
    /// [`SearchProblem::snapshot`] must reproduce the snapshot *exactly*
    /// (`==` if the type is comparable). Layers above rely on this —
    /// notably the parallel pipeline's delta-encoded snapshot protocol,
    /// which reconstructs broadcast solutions from a shared base plus a
    /// move delta and requires the reconstruction to be bit-identical to
    /// the full snapshot. Prefer a dedicated newtype over a bare standard
    /// container (e.g. [`crate::qap::QapAssignment`] rather than
    /// `Vec<usize>`) so the snapshot can carry its own wire-size and
    /// delta models without tripping the orphan rule.
    type Snapshot: Clone;

    /// Scalar cost of the current state (lower is better).
    fn cost(&self) -> f64;

    /// Number of items for range-based domain decomposition (e.g. cells).
    /// Ranges passed to [`SearchProblem::sample_move`] index into
    /// `0..domain_size()`.
    fn domain_size(&self) -> usize;

    /// Sample one candidate move. When `range` is `Some((lo, hi))` the move
    /// must be *anchored* in that item range (the paper: a candidate-list
    /// worker picks its first cell from its own range and the second from
    /// the whole cell space).
    fn sample_move(&mut self, rng: &mut Rng, range: Option<(usize, usize)>) -> Self::Move;

    /// Cost of the state that `mv` would produce, without mutating state.
    fn trial_cost(&mut self, mv: &Self::Move) -> f64;

    /// Apply a move.
    fn apply(&mut self, mv: &Self::Move);

    /// Revert a move previously applied (moves are self-inverse for swaps).
    fn undo(&mut self, mv: &Self::Move);

    /// Tabu attributes of a move in the *current* state (queried before the
    /// move is applied). These are the *source* attributes — e.g. `(item,
    /// current position)` pairs — recorded as tabu when a move is accepted,
    /// forbidding a quick return.
    fn attributes(&self, mv: &Self::Move) -> AttrPair<Self::Attribute>;

    /// Attributes of the state the move would *produce* — e.g. `(item,
    /// destination position)` pairs. A proposed move is tabu when a target
    /// attribute is held in the tabu list (it would re-create a recently
    /// destroyed configuration). Defaults to [`SearchProblem::attributes`]
    /// for problems where the distinction does not apply.
    fn target_attributes(&self, mv: &Self::Move) -> AttrPair<Self::Attribute> {
        self.attributes(mv)
    }

    /// Snapshot the current solution.
    fn snapshot(&self) -> Self::Snapshot;

    /// Restore a snapshot.
    ///
    /// Contract: after `restore`, [`SearchProblem::cost`] depends only on
    /// the snapshot and the instance, never on the state restored from —
    /// bit for bit, not merely within rounding. That is what lets an
    /// implementation hand back a cost it stored when it last restored
    /// the same snapshot (as [`crate::qap::Qap`] does) instead of
    /// re-deriving it, and what keeps a worker that adopts a shared
    /// solution on the same trajectory as every other worker adopting it.
    fn restore(&mut self, snapshot: &Self::Snapshot);

    /// Sample `count` candidate moves into `out` (cleared first).
    ///
    /// Contract: consumes exactly the RNG draws of `count` successive
    /// [`SearchProblem::sample_move`] calls, in the same order — the
    /// parallel pipeline relies on batched and scalar sampling being
    /// RNG-stream-identical. The default does exactly that; override only
    /// to restructure the loop, never to change the draw sequence.
    fn sample_moves(
        &mut self,
        rng: &mut Rng,
        range: Option<(usize, usize)>,
        count: usize,
        out: &mut Vec<Self::Move>,
    ) {
        out.clear();
        out.reserve(count);
        for _ in 0..count {
            let mv = self.sample_move(rng, range);
            out.push(mv);
        }
    }

    /// Trial-cost a batch of moves into `out` (cleared first), without
    /// mutating state: `out[i]` must be bitwise equal to what
    /// `trial_cost(&moves[i])` would return in the current state.
    ///
    /// The default is the scalar loop; implementations override it to
    /// amortize cache traffic and per-call setup across the batch (the
    /// hot path of the candidate-list worker), but must keep every
    /// floating-point operation order intact so batched evaluation stays
    /// bit-identical to the scalar path.
    fn trial_costs(&mut self, moves: &[Self::Move], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(moves.len());
        for mv in moves {
            let c = self.trial_cost(mv);
            out.push(c);
        }
    }
}
