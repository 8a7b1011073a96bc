//! Binding of the VLSI placement evaluator to the generic tabu search
//! problem abstraction, plus the placement [`PtsDomain`] — the paper's
//! workload — and the placement-specific run outcome.

use crate::config::PtsConfig;
use crate::domain::{DeltaSnapshot, FromSwap, PtsDomain, SearchOutcome, WireSized};
use pts_netlist::{CellId, Netlist, TimingGraph};
use pts_place::cost::{CostScheme, RawObjectives};
use pts_place::eval::{EvalConfig, Evaluator};
use pts_place::init::random_placement;
use pts_place::layout::SlotId;
use pts_place::placement::Placement;
use pts_tabu::problem::{AttrPair, SearchProblem};
use pts_tabu::search::SearchStats;
use pts_tabu::trace::Trace;
use pts_tabu::DiversifiableProblem;
use pts_util::Rng;
use std::sync::Arc;

/// A cell-swap move.
pub type SwapMove = (CellId, CellId);

impl FromSwap for SwapMove {
    fn from_swap(a: usize, b: usize) -> SwapMove {
        let cell = |i: usize| CellId(u32::try_from(i).expect("cell indices fit in u32"));
        (cell(a), cell(b))
    }
}

/// Tabu attribute: `(cell, slot)` — a cell is forbidden to return to a slot
/// it recently vacated.
pub type SlotAttr = (u32, u32);

/// The placement problem as seen by the tabu engine.
#[derive(Clone, Debug)]
pub struct PlacementProblem {
    eval: Evaluator,
}

impl PlacementProblem {
    /// Wrap an incremental evaluator as a searchable problem.
    pub fn new(eval: Evaluator) -> PlacementProblem {
        PlacementProblem { eval }
    }

    /// The underlying incremental evaluator.
    pub fn evaluator(&self) -> &Evaluator {
        &self.eval
    }

    /// Mutable access to the underlying evaluator.
    pub fn evaluator_mut(&mut self) -> &mut Evaluator {
        &mut self.eval
    }

    /// The current placement state.
    pub fn placement(&self) -> &Placement {
        self.eval.placement()
    }
}

impl SearchProblem for PlacementProblem {
    type Move = SwapMove;
    type Attribute = SlotAttr;
    type Snapshot = Placement;

    fn cost(&self) -> f64 {
        self.eval.cost()
    }

    fn domain_size(&self) -> usize {
        self.eval.netlist().num_cells()
    }

    /// The paper's CLW move: the first cell comes from the worker's range,
    /// the second from anywhere in the cell space.
    fn sample_move(&mut self, rng: &mut Rng, range: Option<(usize, usize)>) -> SwapMove {
        let n = self.domain_size();
        let (lo, hi) = range.unwrap_or((0, n));
        debug_assert!(lo < hi && hi <= n);
        let a = rng.range(lo, hi);
        let mut b = rng.index(n);
        while b == a {
            b = rng.index(n);
        }
        (CellId(a as u32), CellId(b as u32))
    }

    fn trial_cost(&mut self, mv: &SwapMove) -> f64 {
        self.eval.trial_swap(mv.0, mv.1).cost
    }

    fn apply(&mut self, mv: &SwapMove) {
        self.eval.commit_swap(mv.0, mv.1);
    }

    fn undo(&mut self, mv: &SwapMove) {
        // Swaps are self-inverse.
        self.eval.commit_swap(mv.0, mv.1);
    }

    fn attributes(&self, mv: &SwapMove) -> AttrPair<SlotAttr> {
        let p = self.eval.placement();
        (
            (mv.0 .0, p.slot_of(mv.0).0),
            Some((mv.1 .0, p.slot_of(mv.1).0)),
        )
    }

    fn target_attributes(&self, mv: &SwapMove) -> AttrPair<SlotAttr> {
        let p = self.eval.placement();
        (
            (mv.0 .0, p.slot_of(mv.1).0),
            Some((mv.1 .0, p.slot_of(mv.0).0)),
        )
    }

    fn snapshot(&self) -> Placement {
        self.eval.snapshot()
    }

    fn restore(&mut self, snapshot: &Placement) {
        self.eval.adopt_placement(snapshot.clone());
    }

    fn trial_costs(&mut self, moves: &[SwapMove], out: &mut Vec<f64>) {
        // Batched kernel: same per-trial computation against the shared
        // incremental caches, with the affected-net scratch reused across
        // the whole batch (see `Evaluator::trial_swaps`).
        self.eval.trial_swaps(moves, out);
    }
}

impl DiversifiableProblem for PlacementProblem {}

impl WireSized for Placement {
    /// 4 bytes per cell, matching the paper's observation that solution
    /// exchange dominates traffic.
    fn wire_bytes(&self) -> u64 {
        4 * self.num_cells() as u64
    }
}

/// Delta between two placements of one run: the moved cells with their
/// new slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacementDelta(Vec<(CellId, SlotId)>);

impl PlacementDelta {
    /// Wrap explicit `(cell, new slot)` entries — the wire decoder's
    /// constructor.
    pub fn new(moves: Vec<(CellId, SlotId)>) -> PlacementDelta {
        PlacementDelta(moves)
    }

    /// The `(cell, new slot)` entries of this delta.
    pub fn moves(&self) -> &[(CellId, SlotId)] {
        &self.0
    }
}

impl WireSized for PlacementDelta {
    /// 8 bytes per moved cell (cell id + slot id, 4 + 4) — twice the
    /// per-cell density of a full snapshot, so a delta only pays off
    /// while fewer than half the cells moved; the payload encoder falls
    /// back to a full snapshot beyond that.
    fn wire_bytes(&self) -> u64 {
        8 * self.0.len() as u64
    }
}

impl DeltaSnapshot for Placement {
    type Delta = PlacementDelta;

    fn diff(base: &Placement, new: &Placement) -> PlacementDelta {
        PlacementDelta(new.diff_from(base))
    }

    fn apply_delta(base: &Placement, delta: &PlacementDelta) -> Placement {
        let mut p = base.clone();
        p.apply_diff(&delta.0);
        p
    }
}

/// The VLSI placement domain: shared circuit data plus the frozen cost
/// scheme, minting worker-local [`PlacementProblem`] instances.
#[derive(Clone)]
pub struct PlacementDomain {
    netlist: Arc<Netlist>,
    timing: Arc<TimingGraph>,
    eval_config: EvalConfig,
    /// Cost scheme frozen from the initial solution (set by
    /// [`PtsDomain::freeze`] before workers spawn, as the paper's master
    /// fixes the fuzzy goals once).
    scheme: Option<CostScheme>,
    /// The initial solution the scheme was frozen from, with its cost —
    /// lets [`PtsDomain::cost_of`] answer the master's initial-cost query
    /// without building a second evaluator.
    frozen_initial: Option<(Placement, f64)>,
}

impl PlacementDomain {
    /// Build the domain for a circuit with the cost knobs taken from the
    /// run configuration.
    pub fn new(netlist: Arc<Netlist>, cfg: &PtsConfig) -> PlacementDomain {
        let timing = Arc::new(TimingGraph::build(&netlist).expect("acyclic circuit"));
        PlacementDomain {
            netlist,
            timing,
            eval_config: cfg.eval_config(),
            scheme: None,
            frozen_initial: None,
        }
    }

    /// The circuit this domain places.
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.netlist
    }

    /// Exact raw objectives of a placement under this domain's scheme.
    pub fn objectives_of(&self, placement: &Placement) -> RawObjectives {
        self.instantiate(placement).evaluator().objectives()
    }
}

impl PtsDomain for PlacementDomain {
    type Problem = PlacementProblem;

    fn name(&self) -> &str {
        "placement"
    }

    fn domain_size(&self) -> usize {
        self.netlist.num_cells()
    }

    fn initial(&self, seed: u64) -> Placement {
        random_placement(&self.netlist, seed ^ 0x1317)
    }

    fn freeze(&self, initial: &Placement) -> PlacementDomain {
        let eval = Evaluator::new(
            self.netlist.clone(),
            self.timing.clone(),
            initial.clone(),
            self.eval_config,
        );
        PlacementDomain {
            scheme: Some(eval.scheme().clone()),
            frozen_initial: Some((initial.clone(), eval.cost())),
            ..self.clone()
        }
    }

    fn instantiate(&self, snapshot: &Placement) -> PlacementProblem {
        let eval = match &self.scheme {
            Some(scheme) => Evaluator::with_scheme(
                self.netlist.clone(),
                self.timing.clone(),
                snapshot.clone(),
                self.eval_config.alpha,
                scheme.clone(),
            ),
            None => Evaluator::new(
                self.netlist.clone(),
                self.timing.clone(),
                snapshot.clone(),
                self.eval_config,
            ),
        };
        PlacementProblem::new(eval)
    }

    fn cost_of(&self, snapshot: &Placement) -> f64 {
        // The master asks for the cost of the very placement the scheme
        // was frozen from; answer from the freeze-time evaluation instead
        // of rebuilding HPWL + STA models.
        if let Some((frozen, cost)) = &self.frozen_initial {
            if frozen == snapshot {
                return *cost;
            }
        }
        self.instantiate(snapshot).cost()
    }
}

/// Everything the master learned from a placement run (the generic
/// [`SearchOutcome`] enriched with exact raw objectives of the winner).
#[derive(Clone, Debug)]
pub struct MasterOutcome {
    /// Best scalar cost found anywhere.
    pub best_cost: f64,
    /// The placement achieving [`MasterOutcome::best_cost`].
    pub best_placement: Placement,
    /// Raw objectives of the best placement.
    pub objectives: RawObjectives,
    /// Cost of the initial solution (same scheme).
    pub initial_cost: f64,
    /// Merged best-cost-over-time curve across all workers.
    pub trace: Trace,
    /// Global best after each global iteration.
    pub best_per_global_iter: Vec<f64>,
    /// Aggregated TSW search statistics.
    pub tsw_stats: SearchStats,
    /// Number of ForceReport messages the master sent.
    pub forced_reports: u64,
    /// Virtual/wall time when the search finished.
    pub end_time: f64,
}

impl MasterOutcome {
    /// Wrap a generic outcome, computing exact objectives under the frozen
    /// domain.
    pub fn from_search(outcome: SearchOutcome<Placement>, domain: &PlacementDomain) -> Self {
        let objectives = domain.objectives_of(&outcome.best);
        MasterOutcome {
            best_cost: outcome.best_cost,
            best_placement: outcome.best,
            objectives,
            initial_cost: outcome.initial_cost,
            trace: outcome.trace,
            best_per_global_iter: outcome.best_per_global_iter,
            tsw_stats: outcome.tsw_stats,
            forced_reports: outcome.forced_reports,
            end_time: outcome.end_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pts_netlist::{highway, TimingGraph};
    use pts_place::eval::EvalConfig;
    use pts_place::init::random_placement;
    use pts_tabu::search::{TabuSearch, TabuSearchConfig};
    use std::sync::Arc;

    fn problem(seed: u64) -> PlacementProblem {
        let nl = Arc::new(highway());
        let tg = Arc::new(TimingGraph::build(&nl).unwrap());
        let p = random_placement(&nl, seed);
        PlacementProblem::new(Evaluator::new(nl, tg, p, EvalConfig::default()))
    }

    #[test]
    fn trial_predicts_apply() {
        let mut pr = problem(1);
        let mut rng = Rng::new(2);
        for _ in 0..50 {
            let mv = pr.sample_move(&mut rng, None);
            let predicted = pr.trial_cost(&mv);
            pr.apply(&mv);
            assert!((pr.cost() - predicted).abs() < 1e-9);
            pr.undo(&mv);
        }
    }

    #[test]
    fn batched_trial_costs_bit_identical_to_scalar() {
        let mut pr = problem(2);
        let mut rng = Rng::new(21);
        for _ in 0..15 {
            let mut moves = Vec::new();
            pr.sample_moves(&mut rng, Some((5, 25)), 8, &mut moves);
            let scalar: Vec<f64> = moves.iter().map(|mv| pr.trial_cost(mv)).collect();
            let mut batched = Vec::new();
            pr.trial_costs(&moves, &mut batched);
            for (s, b) in scalar.iter().zip(batched.iter()) {
                assert_eq!(s.to_bits(), b.to_bits(), "batched kernel diverged");
            }
            pr.apply(&moves[0]);
        }
    }

    #[test]
    fn range_anchors_first_cell() {
        let mut pr = problem(3);
        let mut rng = Rng::new(4);
        for _ in 0..100 {
            let (a, b) = pr.sample_move(&mut rng, Some((10, 20)));
            assert!((10..20).contains(&(a.0 as usize)));
            assert_ne!(a, b);
        }
    }

    #[test]
    fn attributes_are_slots() {
        let pr = problem(5);
        let mv = (CellId(0), CellId(1));
        let (src_a, src_b) = pr.attributes(&mv);
        let (tgt_a, tgt_b) = pr.target_attributes(&mv);
        // Source of a == target of b's slot and vice versa.
        assert_eq!(src_a.1, tgt_b.unwrap().1);
        assert_eq!(src_b.unwrap().1, tgt_a.1);
        assert_eq!(src_a.0, 0);
        assert_eq!(tgt_a.0, 0);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut pr = problem(6);
        let snap = pr.snapshot();
        let cost = pr.cost();
        let mut rng = Rng::new(7);
        for _ in 0..10 {
            let mv = pr.sample_move(&mut rng, None);
            pr.apply(&mv);
        }
        pr.restore(&snap);
        assert_eq!(pr.placement(), &snap);
        assert!((pr.cost() - cost).abs() < 1e-9);
    }

    #[test]
    fn sequential_tabu_search_improves_placement() {
        let mut pr = problem(8);
        let start = pr.cost();
        let cfg = TabuSearchConfig {
            iterations: 60,
            candidates: 6,
            depth: 2,
            seed: 9,
            ..TabuSearchConfig::default()
        };
        let result = TabuSearch::new(cfg).run(&mut pr);
        assert!(
            result.best_cost < start,
            "tabu search must improve a random placement ({} -> {})",
            start,
            result.best_cost
        );
        pr.placement().check_consistency().unwrap();
    }
}
