//! The batched candidate-evaluation contract, cross-crate: batched
//! sampling and trial-costing must be *bit-identical* to the scalar
//! path on every domain — same RNG draws, same winners, same cost bits
//! — because the parallel pipeline's determinism goldens ride on it.
//! Also proves the `SearchProblem` default implementations hold the
//! contract for a minimal third-party problem that overrides neither
//! batch hook.

use parallel_tabu_search::core::PlacementProblem;
use parallel_tabu_search::netlist::{generate, CircuitSpec, TimingGraph};
use parallel_tabu_search::place::eval::{EvalConfig, Evaluator};
use parallel_tabu_search::place::init::random_placement;
use parallel_tabu_search::prelude::*;
use parallel_tabu_search::tabu::candidate::{Candidate, CandidateList, CandidateScratch};
use parallel_tabu_search::tabu::problem::AttrPair;
use parallel_tabu_search::tabu::{Qap, QapAssignment};
use proptest::prelude::*;
use std::sync::Arc;

/// A deliberately third-party-shaped problem: no incremental caches, no
/// batch-hook overrides — `sample_moves` and `trial_costs` come from the
/// trait defaults. Items on a shelf, cost `Σ value[k] · (k+1)` (lower is
/// better, so descending values are optimal); small value alphabets make
/// exact trial-cost ties common, exercising first-wins tie-breaking.
#[derive(Clone, Debug)]
struct ShelfOrder {
    values: Vec<u16>,
}

impl SearchProblem for ShelfOrder {
    type Move = (usize, usize);
    type Attribute = (u32, u32);
    type Snapshot = Vec<u16>;

    fn cost(&self) -> f64 {
        self.values
            .iter()
            .enumerate()
            .map(|(k, &v)| v as f64 * (k as f64 + 1.0))
            .sum()
    }

    fn domain_size(&self) -> usize {
        self.values.len()
    }

    fn sample_move(&mut self, rng: &mut Rng, range: Option<(usize, usize)>) -> Self::Move {
        let (lo, hi) = range.unwrap_or((0, self.values.len()));
        // a == b is allowed: a degenerate swap trial-costs to the current
        // cost, another source of exact ties.
        (rng.range(lo, hi), rng.index(self.values.len()))
    }

    fn trial_cost(&mut self, mv: &Self::Move) -> f64 {
        let (a, b) = *mv;
        let mut c = 0.0;
        for (k, &v) in self.values.iter().enumerate() {
            let v = if k == a {
                self.values[b]
            } else if k == b {
                self.values[a]
            } else {
                v
            };
            c += v as f64 * (k as f64 + 1.0);
        }
        c
    }

    fn apply(&mut self, mv: &Self::Move) {
        self.values.swap(mv.0, mv.1);
    }

    fn undo(&mut self, mv: &Self::Move) {
        self.values.swap(mv.0, mv.1);
    }

    fn attributes(&self, mv: &Self::Move) -> AttrPair<Self::Attribute> {
        (
            (mv.0 as u32, self.values[mv.0] as u32),
            Some((mv.1 as u32, self.values[mv.1] as u32)),
        )
    }

    fn snapshot(&self) -> Self::Snapshot {
        self.values.clone()
    }

    fn restore(&mut self, snapshot: &Self::Snapshot) {
        self.values.clone_from(snapshot);
    }
}

/// Scalar reference for `sample_best_with`: one move at a time, keep the
/// first strict minimum — the pre-batching engine loop, inlined.
fn scalar_best<P: SearchProblem>(
    p: &mut P,
    rng: &mut Rng,
    range: Option<(usize, usize)>,
    size: usize,
) -> Candidate<P::Move> {
    let mut best: Option<Candidate<P::Move>> = None;
    for _ in 0..size {
        let mv = p.sample_move(rng, range);
        let trial_cost = p.trial_cost(&mv);
        if best.as_ref().is_none_or(|b| trial_cost < b.trial_cost) {
            best = Some(Candidate { mv, trial_cost });
        }
    }
    best.expect("size >= 1")
}

fn small_circuit(seed: u64) -> CircuitSpec {
    CircuitSpec {
        name: format!("batch{seed}"),
        n_inputs: 4,
        n_outputs: 3,
        n_flipflops: 2,
        n_logic: 24,
        depth: 4,
        fanout_tail: 0.15,
        seed,
    }
}

fn placement_problem(seed: u64) -> PlacementProblem {
    let nl = Arc::new(generate(&small_circuit(seed)));
    let tg = Arc::new(TimingGraph::build(&nl).unwrap());
    let p = random_placement(&nl, seed);
    PlacementProblem::new(Evaluator::new(nl, tg, p, EvalConfig::default()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn qap_batched_costs_match_scalar_bitwise(
        n in 4usize..32,
        seed in 0u64..5000,
        batch in 1usize..24,
        steps in 1usize..8,
    ) {
        let mut q = Qap::random(n, seed);
        let mut rng = Rng::new(seed ^ 0xABCD);
        let mut batched = Vec::new();
        for _ in 0..steps {
            let mut moves = Vec::new();
            q.sample_moves(&mut rng, None, batch, &mut moves);
            let scalar: Vec<f64> = moves.iter().map(|mv| q.trial_cost(mv)).collect();
            q.trial_costs(&moves, &mut batched);
            prop_assert_eq!(scalar.len(), batched.len());
            for (s, b) in scalar.iter().zip(batched.iter()) {
                prop_assert_eq!(s.to_bits(), b.to_bits(), "QAP batched kernel diverged");
            }
            let mv = q.sample_move(&mut rng, None);
            q.apply(&mv);
        }
    }

    #[test]
    fn batched_sampling_consumes_identical_rng_stream(
        n in 4usize..32,
        seed in 0u64..5000,
        batch in 1usize..24,
        anchored in any::<bool>(),
    ) {
        let mut q = Qap::random(n, seed);
        let range = anchored.then(|| (0, (n / 2).max(1)));
        let mut a = Rng::new(seed);
        let mut b = Rng::new(seed);
        let mut batch_moves = Vec::new();
        q.sample_moves(&mut a, range, batch, &mut batch_moves);
        let scalar: Vec<_> = (0..batch).map(|_| q.sample_move(&mut b, range)).collect();
        prop_assert_eq!(batch_moves, scalar);
        prop_assert_eq!(a.next_u64(), b.next_u64(), "RNG streams diverged");
    }

    #[test]
    fn shelf_ties_resolve_first_wins(
        n in 3usize..24,
        // Tiny value alphabet: many duplicate values, hence many exact
        // trial-cost ties for the first-wins scan to break.
        values_seed in 0u64..5000,
        size in 1usize..16,
        steps in 1usize..8,
    ) {
        let mut vrng = Rng::new(values_seed);
        let values: Vec<u16> = (0..n).map(|_| vrng.index(3) as u16).collect();
        let mut p = ShelfOrder { values };
        let mut rng_a = Rng::new(values_seed ^ 0x77);
        let mut rng_b = rng_a.clone();
        let cl = CandidateList::new(size);
        let mut scratch = CandidateScratch::new();
        for _ in 0..steps {
            let reference = scalar_best(&mut p, &mut rng_a, None, size);
            let batched = cl.sample_best_with(&mut p, &mut rng_b, None, &mut scratch);
            prop_assert_eq!(&reference.mv, &batched.mv, "tie broken differently");
            prop_assert_eq!(reference.trial_cost.to_bits(), batched.trial_cost.to_bits());
            p.apply(&batched.mv);
        }
        prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "RNG streams diverged");
    }

    #[test]
    fn default_impls_match_scalar_loops_bitwise(
        n in 3usize..24,
        seed in 0u64..5000,
        batch in 1usize..16,
    ) {
        // ShelfOrder overrides neither batch hook: this pins the *trait
        // defaults* to the contract a third-party problem inherits.
        let mut vrng = Rng::new(seed);
        let values: Vec<u16> = (0..n).map(|_| vrng.index(100) as u16).collect();
        let mut p = ShelfOrder { values };
        let mut a = Rng::new(seed ^ 0x1234);
        let mut b = a.clone();
        let mut moves = Vec::new();
        p.sample_moves(&mut a, None, batch, &mut moves);
        let scalar_moves: Vec<_> = (0..batch).map(|_| p.sample_move(&mut b, None)).collect();
        prop_assert_eq!(&moves, &scalar_moves);
        prop_assert_eq!(a.next_u64(), b.next_u64());
        let mut batched = Vec::new();
        p.trial_costs(&moves, &mut batched);
        let scalar: Vec<f64> = moves.iter().map(|mv| p.trial_cost(mv)).collect();
        prop_assert_eq!(batched.len(), scalar.len());
        for (sc, ba) in scalar.iter().zip(batched.iter()) {
            prop_assert_eq!(sc.to_bits(), ba.to_bits(), "default trial_costs diverged");
        }
        // And the sorted sampler built on those defaults agrees with a
        // reference ranking assembled from scalar calls only.
        let mut rng_c = Rng::new(seed ^ 0x9999);
        let mut rng_d = rng_c.clone();
        let cl = CandidateList::new(batch);
        let mut scratch = CandidateScratch::new();
        let sorted = cl.sample_sorted_with(&mut p, &mut rng_c, None, &mut scratch);
        let mut reference: Vec<Candidate<(usize, usize)>> = (0..batch)
            .map(|_| {
                let mv = p.sample_move(&mut rng_d, None);
                let trial_cost = p.trial_cost(&mv);
                Candidate { mv, trial_cost }
            })
            .collect();
        reference.sort_by(|x, y| x.trial_cost.total_cmp(&y.trial_cost));
        prop_assert_eq!(sorted.len(), reference.len());
        for (s, r) in sorted.iter().zip(reference.iter()) {
            prop_assert_eq!(&s.mv, &r.mv);
            prop_assert_eq!(s.trial_cost.to_bits(), r.trial_cost.to_bits());
        }
        // The default `apply_all` ends where one `apply` per move does.
        let mut batched = p.clone();
        batched.apply_all(&moves);
        for mv in &moves {
            p.apply(mv);
        }
        prop_assert_eq!(batched.snapshot(), p.snapshot());
        prop_assert_eq!(batched.cost().to_bits(), p.cost().to_bits());
    }
}

proptest! {
    // Placement evaluation builds HPWL + STA models per case — keep the
    // case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn placement_batched_costs_match_scalar_bitwise(
        seed in 0u64..2000,
        batch in 1usize..16,
        steps in 1usize..5,
    ) {
        let mut pr = placement_problem(seed);
        let n = pr.domain_size();
        let mut rng = Rng::new(seed ^ 0xF00);
        let mut batched = Vec::new();
        for _ in 0..steps {
            let mut moves = Vec::new();
            pr.sample_moves(&mut rng, Some((0, n / 2)), batch, &mut moves);
            let scalar: Vec<f64> = moves.iter().map(|mv| pr.trial_cost(mv)).collect();
            pr.trial_costs(&moves, &mut batched);
            prop_assert_eq!(scalar.len(), batched.len());
            for (s, b) in scalar.iter().zip(batched.iter()) {
                prop_assert_eq!(s.to_bits(), b.to_bits(), "placement batched kernel diverged");
            }
            pr.apply(&moves[0]);
        }
    }
}

#[test]
fn all_equal_costs_pick_the_first_sampled_move() {
    // Every value identical ⇒ every swap trial-costs to exactly the
    // current cost: the batched scan must keep slot 0, like the scalar
    // first-strict-minimum loop.
    let mut p = ShelfOrder {
        values: vec![5; 12],
    };
    let cl = CandidateList::new(10);
    let mut scratch = CandidateScratch::new();
    for seed in 0..20 {
        let mut rng_a = Rng::new(seed);
        let mut rng_b = rng_a.clone();
        let first = p.sample_move(&mut rng_a, None);
        let best = cl.sample_best_with(&mut p, &mut rng_b, None, &mut scratch);
        assert_eq!(
            best.mv, first,
            "an all-tie batch must keep the first candidate"
        );
        assert_eq!(best.trial_cost.to_bits(), p.cost().to_bits());
    }
}

#[test]
fn empty_improvement_batch_keeps_scalar_winner() {
    // Descending distinct values are the exact optimum of ShelfOrder:
    // every real swap strictly worsens the cost. The batched winner must
    // still match the scalar reference (no "improving move" shortcut may
    // change selection), and must never claim an improvement.
    let n = 16;
    let mut p = ShelfOrder {
        values: (0..n as u16).rev().map(|v| v * 10).collect(),
    };
    let current = p.cost();
    let cl = CandidateList::new(8);
    let mut scratch = CandidateScratch::new();
    for seed in 0..20 {
        let mut rng_a = Rng::new(seed);
        let mut rng_b = rng_a.clone();
        let reference = scalar_best(&mut p, &mut rng_a, None, cl.size);
        let batched = cl.sample_best_with(&mut p, &mut rng_b, None, &mut scratch);
        assert_eq!(reference.mv, batched.mv);
        assert_eq!(reference.trial_cost.to_bits(), batched.trial_cost.to_bits());
        assert!(
            batched.trial_cost >= current,
            "no candidate can beat the optimum"
        );
    }
}

/// Instance sizes of the hand-built QAP cases: the smallest instances,
/// where every facility is an edge case, and one larger.
const EDGE_SIZES: [usize; 5] = [2, 3, 4, 5, 17];

/// Every move between two edge facilities, self-swaps included: every
/// facility of a small instance, and on a larger one both ends, their
/// neighbours and an adjacent middle pair. So the list holds each move's
/// reverse, moves sharing one facility, facilities 0 and n − 1, and
/// adjacent facilities.
fn edge_moves(n: usize) -> Vec<(usize, usize)> {
    let facilities: Vec<usize> = if n <= 5 {
        (0..n).collect()
    } else {
        vec![0, 1, n / 2, n / 2 + 1, n - 2, n - 1]
    };
    facilities
        .iter()
        .flat_map(|&a| facilities.iter().map(move |&b| (a, b)))
        .collect()
}

/// `trial_costs` over `moves` equals per-move `trial_cost`, bit for bit.
fn assert_batch_matches_scalar(q: &mut Qap, moves: &[(usize, usize)], out: &mut Vec<f64>) {
    q.trial_costs(moves, out);
    assert_eq!(out.len(), moves.len());
    for (mv, &cost) in moves.iter().zip(out.iter()) {
        assert_eq!(
            cost.to_bits(),
            q.trial_cost(mv).to_bits(),
            "n = {}, batch {moves:?}, move {mv:?}",
            q.n()
        );
    }
}

#[test]
fn qap_pair_walk_edge_cases_match_scalar_bitwise() {
    for n in EDGE_SIZES {
        let mut q = Qap::random(n, 40 + n as u64);
        let moves = edge_moves(n);
        let mut out = Vec::new();
        for _ in 0..3 {
            // Every ordered pair of edge moves as one pair walk: the same
            // move twice, a move and its reverse, two moves sharing one
            // facility, and a self-swap in either lane.
            for &first in &moves {
                for &second in &moves {
                    assert_batch_matches_scalar(&mut q, &[first, second], &mut out);
                }
            }
            // Batch lengths 0–9 from every offset: pairs and the odd
            // remainder at every position.
            for len in 0..=9 {
                for start in 0..moves.len() {
                    let batch: Vec<_> = (start..start + len)
                        .map(|i| moves[i % moves.len()])
                        .collect();
                    assert_batch_matches_scalar(&mut q, &batch, &mut out);
                }
            }
            q.apply(&(0, n - 1));
        }
    }
}

#[test]
fn qap_commits_add_the_scalar_delta_bitwise() {
    for n in EDGE_SIZES {
        let mut q = Qap::random(n, 50 + n as u64);
        // apply and undo of every edge move, self-swaps included; each
        // move stays applied, so the next starts from another state.
        for mv in edge_moves(n) {
            for undo in [false, true, false] {
                let want = q.cost() + q.swap_delta(mv.0, mv.1);
                if undo {
                    q.undo(&mv);
                } else {
                    q.apply(&mv);
                }
                assert_eq!(q.cost().to_bits(), want.to_bits(), "n = {n}, {mv:?}");
            }
        }
        // diversify commits through apply: replay its moves on a twin,
        // checking each step, and land on the same cost bits.
        let mut rng = Rng::new(n as u64);
        for _ in 0..4 {
            let mut twin = q.clone();
            let applied = q.diversify(&mut rng, (0, n), 5, 3, None);
            for mv in &applied {
                let want = twin.cost() + twin.swap_delta(mv.0, mv.1);
                twin.apply(mv);
                assert_eq!(twin.cost().to_bits(), want.to_bits(), "n = {n}, {mv:?}");
            }
            assert_eq!(q.cost().to_bits(), twin.cost().to_bits());
            assert_eq!(q.snapshot(), twin.snapshot());
        }
    }
}

/// A twin of a [`Qap`] that commits every swap at `cost + swap_delta(a,
/// b)`, the scalar reference: its instance serves only for the
/// assignment and `swap_delta`, and its own cost is the running sum.
struct ScalarTwin {
    q: Qap,
    cost: f64,
}

impl ScalarTwin {
    fn new(q: &Qap) -> ScalarTwin {
        ScalarTwin {
            q: q.clone(),
            cost: q.cost(),
        }
    }

    fn commit(&mut self, mv: &(usize, usize)) {
        self.cost += self.q.swap_delta(mv.0, mv.1);
        self.q.apply(mv);
    }

    fn restore(&mut self, s: &QapAssignment) {
        self.q.restore(s);
        self.cost = self.q.cost_exact();
    }

    /// `q` holds the twin's assignment at the twin's cost bits.
    fn assert_twin_of(&self, q: &Qap, what: &str) {
        assert_eq!(q.snapshot(), self.q.snapshot(), "{what}");
        assert_eq!(q.cost().to_bits(), self.cost.to_bits(), "{what}");
    }
}

#[test]
fn qap_apply_all_edge_chains_match_per_move_applies_bitwise() {
    for n in EDGE_SIZES {
        let mut q = Qap::random(n, 60 + n as u64);
        let moves = edge_moves(n);
        let check = |q: &Qap, chain: &[(usize, usize)]| {
            let mut batched = q.clone();
            batched.apply_all(chain);
            let mut per_move = q.clone();
            let mut twin = ScalarTwin::new(q);
            for mv in chain {
                per_move.apply(mv);
                twin.commit(mv);
            }
            let what = format!("n = {n}, chain {chain:?}");
            assert_eq!(batched.snapshot(), per_move.snapshot(), "{what}");
            assert_eq!(
                batched.cost().to_bits(),
                per_move.cost().to_bits(),
                "{what}"
            );
            twin.assert_twin_of(&batched, &what);
        };
        for round in 0..3 {
            // Every ordered pair of edge moves as one chain: the same move
            // twice, a move and its reverse, two moves sharing one
            // facility, and a self-swap in either place.
            for &first in &moves {
                for &second in &moves {
                    check(&q, &[first, second]);
                }
            }
            // Chain lengths 0–9 from every offset: pairs and an odd tail
            // at every position.
            for len in 0..=9 {
                for start in 0..moves.len() {
                    let chain: Vec<_> = (start..start + len)
                        .map(|i| moves[i % moves.len()])
                        .collect();
                    check(&q, &chain);
                }
            }
            // Leave a swap undone for the next round, so every chain that
            // starts with it redoes it from the log.
            let redo = moves[(round * 7 + 1) % moves.len()];
            q.apply(&(0, n - 1));
            q.apply(&redo);
            q.undo(&redo);
        }
    }
}

/// A QAP instance with small integer flows and distances in `lo..hi`:
/// sums are exact, so deltas cancel to exactly zero of either sign.
fn small_integer_qap(n: usize, lo: i64, hi: i64, seed: u64) -> Qap {
    let mut rng = Rng::new(seed);
    let mut draw = move || (lo + rng.index((hi - lo) as usize) as i64) as f64;
    let mut q =
        Qap::from_upper_triangles(n, |i, j| if i == j { (0.0, 0.0) } else { (draw(), draw()) });
    let mut loc_of: Vec<usize> = (0..n).collect();
    Rng::new(seed ^ 1).shuffle(&mut loc_of);
    q.restore(&QapAssignment::new(loc_of));
    q
}

#[test]
fn qap_commit_log_interleavings_match_the_scalar_twin() {
    let instances = [
        Qap::random(2, 1),
        Qap::random(3, 2),
        Qap::random(5, 3),
        Qap::random(17, 4),
        Qap::random(40, 5),
        small_integer_qap(9, 0, 3, 6),
        small_integer_qap(12, -2, 3, 7),
        // Zero flows: every delta and the cost itself are exact zeros.
        small_integer_qap(6, 0, 1, 8),
    ];
    let mut zero_deltas = 0;
    for (i, start) in instances.iter().enumerate() {
        let n = start.n();
        let mut q = start.clone();
        let mut twin = ScalarTwin::new(&q);
        let mut rng = Rng::new(100 + i as u64);
        // The swaps standing and undone, newest last, as the test applied
        // them: the log's hits come from these.
        let mut standing: Vec<(usize, usize)> = Vec::new();
        let mut undone: Vec<(usize, usize)> = Vec::new();
        let mut snapshots = vec![q.snapshot()];
        let mut out = Vec::new();
        let sample = |q: &mut Qap, rng: &mut Rng| {
            if rng.chance(0.1) {
                let a = rng.index(n);
                (a, a)
            } else {
                q.sample_move(rng, None)
            }
        };
        for step in 0..3000 {
            let what = format!("instance {i}, step {step}");
            match rng.index(9) {
                // A fresh apply.
                0 | 1 => {
                    let mv = sample(&mut q, &mut rng);
                    zero_deltas += usize::from(q.swap_delta(mv.0, mv.1) == 0.0);
                    q.apply(&mv);
                    twin.commit(&mv);
                    standing.push(mv);
                    undone.clear();
                }
                // An undo of the newest standing swap.
                2 | 3 => {
                    let Some(mv) = standing.pop() else { continue };
                    q.undo(&mv);
                    twin.commit(&mv);
                    undone.push(mv);
                }
                // A redo of the swap undone last, alone or heading a chain.
                4 => {
                    let Some(mv) = undone.pop() else { continue };
                    let mut chain = vec![mv];
                    if rng.chance(0.5) {
                        chain.extend(undone.iter().rev().take(rng.index(3)).copied());
                        chain.push(sample(&mut q, &mut rng));
                    }
                    if chain.len() == 1 {
                        q.apply(&mv);
                    } else {
                        // The fresh swap at its end drops the undone tail.
                        q.apply_all(&chain);
                        undone.clear();
                    }
                    for mv in &chain {
                        twin.commit(mv);
                    }
                    standing.extend(&chain);
                }
                // A chain of fresh swaps, with reverses and repeats.
                5 => {
                    let len = rng.index(8);
                    let mut chain: Vec<(usize, usize)> = Vec::with_capacity(len);
                    for _ in 0..len {
                        let mv = match chain.last() {
                            Some(&(a, b)) if rng.chance(0.2) => (b, a),
                            Some(&last) if rng.chance(0.1) => last,
                            _ => sample(&mut q, &mut rng),
                        };
                        chain.push(mv);
                    }
                    q.apply_all(&chain);
                    for mv in &chain {
                        twin.commit(mv);
                    }
                    standing.extend(&chain);
                    undone.clear();
                }
                // An undo of a swap that is not the newest standing one.
                6 => {
                    let mv = match standing.len() {
                        0 | 1 => sample(&mut q, &mut rng),
                        len => standing[rng.index(len - 1)],
                    };
                    q.undo(&mv);
                    twin.commit(&mv);
                    standing.clear();
                    undone.clear();
                }
                // Trial costs move nothing.
                7 => {
                    let moves: Vec<_> = (0..rng.index(6))
                        .map(|_| sample(&mut q, &mut rng))
                        .collect();
                    q.trial_costs(&moves, &mut out);
                    for (mv, cost) in moves.iter().zip(&out) {
                        let want = twin.cost + twin.q.swap_delta(mv.0, mv.1);
                        assert_eq!(cost.to_bits(), want.to_bits(), "{what}, trial {mv:?}");
                    }
                }
                // A restore or a diversification.
                _ => {
                    if rng.chance(0.5) {
                        let s = snapshots[rng.index(snapshots.len())].clone();
                        q.restore(&s);
                        twin.restore(&s);
                    } else {
                        let depth = rng.index(4);
                        for mv in q.diversify(&mut rng, (0, n), depth, 2, None) {
                            twin.commit(&mv);
                        }
                    }
                    standing.clear();
                    undone.clear();
                }
            }
            twin.assert_twin_of(&q, &what);
            if step % 50 == 0 {
                snapshots.push(q.snapshot());
            }
        }
    }
    assert!(zero_deltas > 100, "{zero_deltas} exact zero deltas");
}
