//! Problem-domain abstraction for the parallel pipeline.
//!
//! The master / TSW / CLW protocol is generic: any combinatorial problem
//! implementing [`pts_tabu::SearchProblem`] +
//! [`pts_tabu::DiversifiableProblem`] can ride the paper's two-level
//! parallelization. A [`PtsDomain`] is the *factory* side of that story —
//! it knows how to mint a worker-local problem instance from a solution
//! snapshot (each simulated process / OS thread owns a private instance,
//! exactly like the PVM processes in the paper owned private copies of the
//! circuit data).
//!
//! Two domains are wired in: VLSI placement
//! ([`crate::placement_problem::PlacementDomain`], the paper's workload)
//! and the quadratic assignment problem
//! ([`crate::qap_domain::QapDomain`], the domain of the Kelly-Laguna-Glover
//! diversification study the paper builds on).

use pts_tabu::problem::SearchProblem;
use pts_tabu::DiversifiableProblem;

/// Approximate serialized size, feeding the virtual cluster's bandwidth
/// model (the thread engine ignores it).
pub trait WireSized {
    /// Approximate serialized size in bytes.
    fn wire_bytes(&self) -> u64;
}

/// Delta encoding between two snapshots of the same run: the capability
/// behind the [`crate::messages::SnapshotPayload::Delta`] wire format.
///
/// Both ends of a link hold the same *base* snapshot (the last global
/// broadcast, or the initial solution); the sender ships
/// `diff(base, new)` and the receiver reconstructs with
/// `apply_delta(base, delta)`. The contract is exactness:
///
/// `apply_delta(base, &diff(base, new)) == new`
///
/// for every pair of snapshots from one run — the protocol pins delta
/// mode to be bit-identical in search trajectory to full-snapshot mode,
/// so a lossy delta is a correctness bug, not an approximation. The
/// associated [`DeltaSnapshot::Delta`] carries its own wire-size model so
/// the simulated-bandwidth accounting sees the savings (and so the
/// sender can fall back to a full snapshot when the delta would be
/// larger).
pub trait DeltaSnapshot: Sized {
    /// The encoded difference between two snapshots.
    type Delta: Clone + Send + Sync + WireSized + 'static;

    /// Encode `new` as a difference against `base`.
    fn diff(base: &Self, new: &Self) -> Self::Delta;

    /// Reconstruct the snapshot `delta` was diffed *to* from the snapshot
    /// it was diffed *against*.
    fn apply_delta(base: &Self, delta: &Self::Delta) -> Self;

    /// The swaps that carry `base` to `apply_delta(base, delta)`: index
    /// pairs whose [`FromSwap`] moves, applied in order to a problem at
    /// `base`, leave it at the delta's target. A CLW follows its TSW this
    /// way (see [`crate::clw`]) instead of restoring the target.
    ///
    /// `None` when the domain offers no such path, or when applying it
    /// would cost more than the restore it replaces; the caller then
    /// restores. The default is `None`.
    fn swap_path(_base: &Self, _delta: &Self::Delta) -> Option<Vec<(usize, usize)>> {
        None
    }
}

/// A move built from the two item indices it swaps: how a step of a
/// [`DeltaSnapshot::swap_path`] becomes a move the problem can `apply`.
pub trait FromSwap {
    /// The move that swaps items `a` and `b`.
    fn from_swap(a: usize, b: usize) -> Self;
}

impl FromSwap for (usize, usize) {
    fn from_swap(a: usize, b: usize) -> (usize, usize) {
        (a, b)
    }
}

/// Delta type of a problem's snapshot.
pub type DeltaOf<P> = <<P as SearchProblem>::Snapshot as DeltaSnapshot>::Delta;

/// Everything the parallel pipeline needs from a problem type: a
/// diversifiable search problem whose moves, attributes, and snapshots can
/// cross thread/process boundaries, with moves buildable from a swap and
/// snapshots sized for the link model and delta-encodable for the
/// zero-copy broadcast path (`Sync` because snapshots and tabu lists are
/// shared via `Arc` instead of deep-copied per recipient).
/// Blanket-implemented — you never implement this directly.
pub trait PtsProblem:
    DiversifiableProblem<
        Snapshot: Clone + Send + Sync + WireSized + DeltaSnapshot + 'static,
        Move: Send + FromSwap + 'static,
        Attribute: Send + Sync + 'static,
    > + Send
    + 'static
{
}

impl<P> PtsProblem for P where
    P: DiversifiableProblem<
            Snapshot: Clone + Send + Sync + WireSized + DeltaSnapshot + 'static,
            Move: Send + FromSwap + 'static,
            Attribute: Send + Sync + 'static,
        > + Send
        + 'static
{
}

/// Solution snapshot type of a domain's problem.
pub type SnapshotOf<D> = <<D as PtsDomain>::Problem as SearchProblem>::Snapshot;

/// A problem family the PTS pipeline can run: shared read-only data plus
/// the recipe for worker-local instances.
pub trait PtsDomain: Clone + Send + Sync + 'static {
    /// The worker-local search problem this domain instantiates.
    type Problem: PtsProblem;

    /// Short human-readable name ("placement", "qap", ...).
    fn name(&self) -> &str;

    /// Number of items for range-based domain decomposition (cells,
    /// facilities, ...). TSW diversification ranges and CLW anchor ranges
    /// partition `0..domain_size()`.
    fn domain_size(&self) -> usize;

    /// Initial solution for a run, deterministic in `seed`.
    fn initial(&self, seed: u64) -> SnapshotOf<Self>;

    /// Freeze run-constant data derived from the initial solution before
    /// workers are spawned — the placement domain locks its cost scheme
    /// here (the paper's master distributes the frozen goals with the
    /// initial solution). Defaults to a no-op.
    fn freeze(&self, _initial: &SnapshotOf<Self>) -> Self {
        self.clone()
    }

    /// Mint a worker-local problem instance positioned at `snapshot`.
    fn instantiate(&self, snapshot: &SnapshotOf<Self>) -> Self::Problem;

    /// Cost of `snapshot` under this (frozen) domain. The default builds a
    /// throwaway problem instance; domains that already computed it during
    /// [`PtsDomain::freeze`] override this to avoid a second full
    /// evaluator construction in the master.
    fn cost_of(&self, snapshot: &SnapshotOf<Self>) -> f64 {
        self.instantiate(snapshot).cost()
    }
}

/// Everything the master learned from a run, generic over the solution
/// type. The placement layer wraps this into the richer
/// [`crate::placement_problem::MasterOutcome`] (adding exact raw
/// objectives).
#[derive(Clone, Debug)]
pub struct SearchOutcome<S> {
    /// Best scalar cost found anywhere.
    pub best_cost: f64,
    /// Best solution found anywhere.
    pub best: S,
    /// Cost of the initial solution (same scheme).
    pub initial_cost: f64,
    /// Merged best-cost-over-time curve across all workers.
    pub trace: pts_tabu::trace::Trace,
    /// Global best after each global iteration.
    pub best_per_global_iter: Vec<f64>,
    /// Aggregated TSW search statistics.
    pub tsw_stats: pts_tabu::search::SearchStats,
    /// Number of ForceReport messages the master sent.
    pub forced_reports: u64,
    /// Virtual/wall time when the search finished.
    pub end_time: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qap_satisfies_pts_problem() {
        fn assert_pts_problem<P: PtsProblem>() {}
        assert_pts_problem::<pts_tabu::qap::Qap>();
    }

    #[test]
    fn outcome_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SearchOutcome<pts_tabu::QapAssignment>>();
    }
}
