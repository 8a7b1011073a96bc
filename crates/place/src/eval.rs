//! The placement evaluator: trial/commit swap evaluation over all three
//! objectives plus the scalar cost scheme.
//!
//! This is the interface the tabu search layers consume. A *trial* is
//! read-only (no placement mutation) and cheap: incremental HPWL over
//! affected nets, O(1) row-width max, exact cone-bounded timing estimate.
//! A *commit* mutates the placement and updates every cache exactly, with
//! the same cone-bounded timing walk.

use crate::area::RowAreaModel;
use crate::cost::{CostScheme, RawObjectives};
use crate::fuzzy::GoalConfig;
use crate::placement::Placement;
use crate::timing::StaModel;
use crate::wirelength::WirelengthModel;
use pts_netlist::{CellId, NetId, Netlist, TimingGraph};
use std::sync::Arc;

/// Scalarization choice before the scheme is frozen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SchemeChoice {
    /// Fuzzy goal-based cost (the paper's scheme).
    Fuzzy { beta: f64 },
    /// Normalized weighted sum (baseline).
    WeightedSum { weights: [f64; 3] },
}

/// Evaluator configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalConfig {
    /// Net delay per unit HPWL.
    pub alpha: f64,
    pub scheme: SchemeChoice,
    pub goal: GoalConfig,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            alpha: 0.15,
            scheme: SchemeChoice::Fuzzy { beta: 0.6 },
            goal: GoalConfig::default(),
        }
    }
}

/// Result of evaluating a candidate swap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrialCost {
    pub cost: f64,
    pub wire: f64,
    pub delay: f64,
    pub area: f64,
}

/// Full placement evaluation state.
///
/// Cloneable: candidate-list workers hold their own copy and mutate it
/// independently; the netlist and timing graph are shared read-only.
#[derive(Clone, Debug)]
pub struct Evaluator {
    netlist: Arc<Netlist>,
    timing: Arc<TimingGraph>,
    placement: Placement,
    wirelength: WirelengthModel,
    sta: StaModel,
    area: RowAreaModel,
    scheme: CostScheme,
    alpha: f64,
    /// Affected-net scratch for [`Evaluator::trial_swaps`] and
    /// [`Evaluator::commit_swap`]: one buffer serves every candidate in a
    /// batch and every commit instead of a fresh `Vec` each. Owned here
    /// (not by callers) so neither path allocates after warm-up.
    trial_nets: Vec<(NetId, f64)>,
}

impl Evaluator {
    /// Build an evaluator, freezing the cost scheme from the *initial*
    /// placement's objectives.
    pub fn new(
        netlist: Arc<Netlist>,
        timing: Arc<TimingGraph>,
        placement: Placement,
        config: EvalConfig,
    ) -> Evaluator {
        let wirelength = WirelengthModel::new(&netlist, &placement);
        let sta = StaModel::new(&netlist, &timing, &wirelength, config.alpha);
        let area = RowAreaModel::new(&netlist, &placement);
        let initial = RawObjectives {
            wire: wirelength.total(),
            delay: sta.critical(),
            area: area.max_width() as f64,
        };
        let scheme = match config.scheme {
            SchemeChoice::Fuzzy { beta } => {
                CostScheme::fuzzy_from_initial(&initial, beta, &config.goal)
            }
            SchemeChoice::WeightedSum { weights } => {
                CostScheme::weighted_from_initial(&initial, weights)
            }
        };
        Evaluator {
            netlist,
            timing,
            placement,
            wirelength,
            sta,
            area,
            scheme,
            alpha: config.alpha,
            trial_nets: Vec::new(),
        }
    }

    /// Build an evaluator with an externally fixed cost scheme (workers
    /// adopt the master's frozen scheme so costs stay comparable).
    pub fn with_scheme(
        netlist: Arc<Netlist>,
        timing: Arc<TimingGraph>,
        placement: Placement,
        alpha: f64,
        scheme: CostScheme,
    ) -> Evaluator {
        let wirelength = WirelengthModel::new(&netlist, &placement);
        let sta = StaModel::new(&netlist, &timing, &wirelength, alpha);
        let area = RowAreaModel::new(&netlist, &placement);
        Evaluator {
            netlist,
            timing,
            placement,
            wirelength,
            sta,
            area,
            scheme,
            alpha,
            trial_nets: Vec::new(),
        }
    }

    #[inline]
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.netlist
    }

    #[inline]
    pub fn timing_graph(&self) -> &Arc<TimingGraph> {
        &self.timing
    }

    #[inline]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    #[inline]
    pub fn scheme(&self) -> &CostScheme {
        &self.scheme
    }

    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Current raw objective values.
    pub fn objectives(&self) -> RawObjectives {
        RawObjectives {
            wire: self.wirelength.total(),
            delay: self.sta.critical(),
            area: self.area.max_width() as f64,
        }
    }

    /// Current scalar cost.
    pub fn cost(&self) -> f64 {
        self.scheme.cost(&self.objectives())
    }

    /// Evaluate swapping cells `a` and `b` without mutating state.
    pub fn trial_swap(&mut self, a: CellId, b: CellId) -> TrialCost {
        debug_assert_ne!(a, b);
        let wire_trial = self
            .wirelength
            .trial_swap(&self.netlist, &self.placement, a, b);
        let wire = self.wirelength.total() + wire_trial.delta;
        let delay = self
            .sta
            .estimate(&self.netlist, &self.timing, &wire_trial.nets);
        let (ra, rb) = (self.placement.row_of(a), self.placement.row_of(b));
        let (wa, wb) = (
            self.netlist.cell(a).width as u64,
            self.netlist.cell(b).width as u64,
        );
        let area = self.area.trial_max(ra, wa, rb, wb) as f64;
        let cost = self.scheme.cost(&RawObjectives { wire, delay, area });
        TrialCost {
            cost,
            wire,
            delay,
            area,
        }
    }

    /// Batched [`Evaluator::trial_swap`]: push the scalar cost of every
    /// swap in `pairs` onto `out` (cleared first), bit-identical to
    /// calling `trial_swap` per pair in order.
    ///
    /// This is the candidate-list hot path. The per-trial computation is
    /// unchanged (same incremental HPWL, exact cone-bounded STA, O(1) row
    /// max, same floating-point order); what the batch amortizes is the
    /// per-trial setup — the affected-net list lands in the evaluator's
    /// own reusable scratch instead of a freshly allocated `Vec`, and the
    /// running wirelength total is read once per batch instead of per
    /// candidate (it cannot change during trials, which never mutate
    /// state).
    pub fn trial_swaps(&mut self, pairs: &[(CellId, CellId)], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(pairs.len());
        let total = self.wirelength.total();
        for &(a, b) in pairs {
            debug_assert_ne!(a, b);
            let delta = self.wirelength.trial_swap_into(
                &self.netlist,
                &self.placement,
                a,
                b,
                &mut self.trial_nets,
            );
            let wire = total + delta;
            let delay = self
                .sta
                .estimate(&self.netlist, &self.timing, &self.trial_nets);
            let (ra, rb) = (self.placement.row_of(a), self.placement.row_of(b));
            let (wa, wb) = (
                self.netlist.cell(a).width as u64,
                self.netlist.cell(b).width as u64,
            );
            let area = self.area.trial_max(ra, wa, rb, wb) as f64;
            let cost = self.scheme.cost(&RawObjectives { wire, delay, area });
            out.push(cost);
        }
    }

    /// Apply a swap and restore exact caches. Timing is updated with the
    /// cone-bounded incremental commit (O(affected cone), not O(V+E));
    /// equivalence with a full refresh is property-tested.
    pub fn commit_swap(&mut self, a: CellId, b: CellId) {
        debug_assert_ne!(a, b);
        let (ra, rb) = (self.placement.row_of(a), self.placement.row_of(b));
        let (wa, wb) = (
            self.netlist.cell(a).width as u64,
            self.netlist.cell(b).width as u64,
        );
        // New net lengths, captured before mutation for the timing commit.
        self.wirelength
            .trial_swap_into(&self.netlist, &self.placement, a, b, &mut self.trial_nets);
        self.placement.swap_cells(a, b);
        self.wirelength
            .commit_swap(&self.netlist, &self.placement, a, b);
        self.area.apply_swap(ra, wa, rb, wb);
        self.sta
            .commit_changes(&self.netlist, &self.timing, &self.trial_nets);
    }

    /// Replace the placement wholesale (e.g. adopting the master's
    /// broadcast best) and rebuild all caches. The cost scheme is kept.
    pub fn adopt_placement(&mut self, placement: Placement) {
        assert_eq!(placement.num_cells(), self.netlist.num_cells());
        self.placement = placement;
        self.wirelength = WirelengthModel::new(&self.netlist, &self.placement);
        self.sta = StaModel::new(&self.netlist, &self.timing, &self.wirelength, self.alpha);
        self.area = RowAreaModel::new(&self.netlist, &self.placement);
    }

    /// Clone out the current placement.
    pub fn snapshot(&self) -> Placement {
        self.placement.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use pts_netlist::{generate, CircuitSpec};
    use pts_util::Rng;

    fn setup(seed: u64) -> Evaluator {
        let nl = Arc::new(generate(&CircuitSpec {
            name: "eval".into(),
            n_inputs: 6,
            n_outputs: 5,
            n_flipflops: 5,
            n_logic: 44,
            depth: 5,
            fanout_tail: 0.15,
            seed,
        }));
        let tg = Arc::new(TimingGraph::build(&nl).unwrap());
        let mut rng = Rng::new(seed ^ 0xF00D);
        let p = Placement::random(Layout::for_cells(nl.num_cells()), nl.num_cells(), &mut rng);
        Evaluator::new(nl, tg, p, EvalConfig::default())
    }

    #[test]
    fn trial_wire_and_area_match_commit_exactly() {
        let mut ev = setup(1);
        let mut rng = Rng::new(2);
        for _ in 0..100 {
            let n = ev.netlist().num_cells();
            let a = CellId(rng.index(n) as u32);
            let mut b = a;
            while b == a {
                b = CellId(rng.index(n) as u32);
            }
            let trial = ev.trial_swap(a, b);
            ev.commit_swap(a, b);
            let o = ev.objectives();
            assert!((trial.wire - o.wire).abs() < 1e-6, "wire prediction");
            assert!((trial.area - o.area).abs() < 1e-9, "area prediction");
            assert!(
                (trial.delay - o.delay).abs() < 1e-9,
                "incremental delay must be exact: {} vs {}",
                trial.delay,
                o.delay
            );
        }
    }

    #[test]
    fn batched_trial_swaps_bit_identical_to_scalar() {
        let mut ev = setup(7);
        let mut rng = Rng::new(71);
        let n = ev.netlist().num_cells();
        for _ in 0..20 {
            let mut pairs = Vec::new();
            for _ in 0..8 {
                let a = CellId(rng.index(n) as u32);
                let mut b = a;
                while b == a {
                    b = CellId(rng.index(n) as u32);
                }
                pairs.push((a, b));
            }
            let scalar: Vec<f64> = pairs
                .iter()
                .map(|&(a, b)| ev.trial_swap(a, b).cost)
                .collect();
            let mut batched = Vec::new();
            ev.trial_swaps(&pairs, &mut batched);
            for (s, b) in scalar.iter().zip(batched.iter()) {
                assert_eq!(s.to_bits(), b.to_bits(), "batched evaluator diverged");
            }
            let (a, b) = pairs[0];
            ev.commit_swap(a, b);
        }
    }

    #[test]
    fn swap_back_restores_objectives() {
        let mut ev = setup(3);
        let before = ev.objectives();
        let a = CellId(0);
        let b = CellId(10);
        ev.commit_swap(a, b);
        ev.commit_swap(a, b);
        let after = ev.objectives();
        assert!((before.wire - after.wire).abs() < 1e-6);
        assert!((before.delay - after.delay).abs() < 1e-9);
        assert!((before.area - after.area).abs() < 1e-9);
    }

    #[test]
    fn cost_scheme_is_frozen_at_initial() {
        let ev = setup(4);
        // Fuzzy cost at initial point: all memberships equal, derived from
        // GoalConfig::default(): (1.30-1)/(1.30-0.75).
        let expected_membership = (1.30 - 1.0) / (1.30 - 0.75);
        let expected_cost = 1.0 - expected_membership;
        assert!((ev.cost() - expected_cost).abs() < 1e-9);
    }

    #[test]
    fn adopt_placement_rebuilds_consistently() {
        let mut ev = setup(5);
        let mut rng = Rng::new(55);
        let nl = ev.netlist().clone();
        let alt = Placement::random(Layout::for_cells(nl.num_cells()), nl.num_cells(), &mut rng);
        let scheme_before = ev.scheme().clone();
        ev.adopt_placement(alt.clone());
        assert_eq!(ev.scheme(), &scheme_before, "scheme survives adoption");
        // Fresh evaluator over the same placement agrees on objectives.
        let tg = ev.timing_graph().clone();
        let fresh = Evaluator::with_scheme(nl, tg, alt, ev.alpha(), scheme_before);
        let (a, b) = (ev.objectives(), fresh.objectives());
        assert!((a.wire - b.wire).abs() < 1e-9);
        assert!((a.delay - b.delay).abs() < 1e-9);
        assert!((a.area - b.area).abs() < 1e-9);
    }

    #[test]
    fn clone_is_independent() {
        let mut ev = setup(6);
        let mut copy = ev.clone();
        copy.commit_swap(CellId(1), CellId(2));
        // Original unchanged.
        assert_eq!(ev.placement().slot_of(CellId(1)), {
            let s = ev.placement().slot_of(CellId(1));
            s
        });
        let o1 = ev.objectives();
        ev.commit_swap(CellId(3), CellId(4));
        let o2 = copy.objectives();
        let _ = (o1, o2);
        copy.placement().check_consistency().unwrap();
        ev.placement().check_consistency().unwrap();
    }
}
