//! Quadratic assignment problem (QAP) binding.
//!
//! QAP is the domain of the diversification study the paper builds on
//! (Kelly, Laguna & Glover 1994). It doubles here as a compact second
//! domain proving the [`SearchProblem`] abstraction: n facilities with
//! pairwise flows are assigned to n locations with pairwise distances,
//! minimizing `Σ flow(i,j) · dist(loc(i), loc(j))`.

use crate::problem::{AttrPair, SearchProblem};
use pts_util::Rng;
use std::sync::{Arc, Mutex, MutexGuard};

/// A facility → location assignment, the QAP solution snapshot.
///
/// A dedicated newtype rather than a bare `Vec<usize>`: downstream crates
/// attach per-domain capabilities (wire-size models, delta encoding) to
/// the snapshot type, and the orphan rule makes a global `impl` on
/// `Vec<usize>` the *only* model any bare-Vec domain could ever have. The
/// newtype keeps QAP's models its own.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QapAssignment(Vec<usize>);

impl QapAssignment {
    /// Wrap an explicit assignment (`loc_of[facility] = location`).
    pub fn new(loc_of: Vec<usize>) -> QapAssignment {
        QapAssignment(loc_of)
    }

    /// Number of facilities.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` for the empty assignment (never occurs in a valid instance).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The raw `facility → location` slice.
    pub fn as_slice(&self) -> &[usize] {
        &self.0
    }

    /// Unwrap into the raw assignment vector.
    pub fn into_vec(self) -> Vec<usize> {
        self.0
    }

    /// The facilities whose location differs from `base`, with their
    /// location in `self` — the QAP move delta. Empty when the
    /// assignments are equal.
    pub fn diff_from(&self, base: &QapAssignment) -> Vec<(u32, u32)> {
        assert_eq!(self.len(), base.len(), "assignments must be same size");
        self.0
            .iter()
            .zip(base.0.iter())
            .enumerate()
            .filter(|(_, (new, old))| new != old)
            .map(|(f, (new, _))| (f as u32, *new as u32))
            .collect()
    }

    /// Rebuild the assignment `changes` was diffed *to*, starting from
    /// `base` (the assignment it was diffed *against*). Inverse of
    /// [`QapAssignment::diff_from`].
    pub fn with_changes(base: &QapAssignment, changes: &[(u32, u32)]) -> QapAssignment {
        let mut loc_of = base.0.clone();
        for &(facility, location) in changes {
            loc_of[facility as usize] = location as usize;
        }
        QapAssignment(loc_of)
    }
}

impl std::ops::Index<usize> for QapAssignment {
    type Output = usize;

    fn index(&self, facility: usize) -> &usize {
        &self.0[facility]
    }
}

/// A QAP instance plus its current assignment.
///
/// The flow/distance matrices are behind [`Arc`]s: cloning an instance —
/// which the parallel pipeline does once per worker — shares the O(n²)
/// read-only data and copies only the O(n) assignment, so thousand-worker
/// runs don't multiply the matrices.
///
/// # The restore memo
///
/// [`SearchProblem::restore`] must derive the exact cost of the restored
/// assignment, an O(n²) sum. In the parallel pipeline most restores are of
/// a solution another worker of the same run has just evaluated: every
/// worker instantiates the same `Init` solution, and every TSW adopts the
/// same broadcast best. So the instance keeps the exact costs of the last
/// four assignments restored, and a restore that finds its assignment
/// there costs an O(n) compare.
///
/// - **Shared by clones.** The memo sits behind the same kind of [`Arc`]
///   as the matrices, because the cost it stores is a function of those
///   matrices: every clone of one instance can use it, and an instance
///   built from other matrices gets a memo of its own.
/// - **Matched by full equality.** An entry is found only when the whole
///   assignment is equal, never by a hash or a fingerprint alone, so a hit
///   returns exactly the bits [`Qap::cost_exact`] would compute and a
///   search trajectory cannot depend on the memo.
/// - **A constant size.** The hits come from the handful of solutions a
///   run shares at any one time (the current broadcast, the initial
///   solution), so a few entries catch them, and a linear scan of a few
///   entries stays cheaper than any index. Entries are evicted least
///   recently used first: a run's private solutions pass through once,
///   while a shared one is hit again and again and stays.
#[derive(Clone, Debug)]
pub struct Qap {
    n: usize,
    /// Row-major `n × n` flow matrix (symmetric, zero diagonal).
    flow: Arc<[f64]>,
    /// Row-major `n × n` distance matrix (symmetric, zero diagonal).
    dist: Arc<[f64]>,
    /// Location of each facility.
    loc_of: Vec<usize>,
    cost: f64,
    /// Exact costs of recently restored assignments, shared by every
    /// clone of this instance.
    memo: Arc<CostMemo>,
}

/// Assignments the restore memo of one instance holds.
const MEMO_ENTRIES: usize = 4;

/// The exact costs of the assignments restored most recently, most
/// recently used first.
#[derive(Debug, Default)]
struct CostMemo {
    entries: Mutex<Vec<(Vec<usize>, f64)>>,
}

impl CostMemo {
    fn entries(&self) -> MutexGuard<'_, Vec<(Vec<usize>, f64)>> {
        // The lock guards only scans and inserts, which cannot leave the
        // entries half-written, so a panic elsewhere does not taint them.
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The stored cost of `loc_of`, which becomes the most recent entry.
    fn get(&self, loc_of: &[usize]) -> Option<f64> {
        let mut entries = self.entries();
        let i = entries.iter().position(|(key, _)| key[..] == *loc_of)?;
        entries[..=i].rotate_right(1);
        Some(entries[0].1)
    }

    /// Store `cost` for `loc_of` as the most recent entry, evicting the
    /// least recent one when full.
    fn insert(&self, loc_of: &[usize], cost: f64) {
        let mut entries = self.entries();
        // Another clone may have stored it while this one computed.
        if entries.iter().any(|(key, _)| key[..] == *loc_of) {
            return;
        }
        if entries.len() < MEMO_ENTRIES {
            entries.push((loc_of.to_vec(), cost));
        } else {
            // Reuse the evicted entry's buffer.
            let last = entries.last_mut().expect("the memo is full");
            last.0.clear();
            last.0.extend_from_slice(loc_of);
            last.1 = cost;
        }
        entries.rotate_right(1);
    }
}

impl Qap {
    /// Random symmetric instance with uniform flows/distances in `[0, 10)`,
    /// random initial assignment. Deterministic in `seed`.
    pub fn random(n: usize, seed: u64) -> Qap {
        assert!(n >= 2);
        let mut rng = Rng::new(seed);
        let mut flow = vec![0.0; n * n];
        let mut dist = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let f = rng.range_f64(0.0, 10.0);
                let d = rng.range_f64(0.0, 10.0);
                flow[i * n + j] = f;
                flow[j * n + i] = f;
                dist[i * n + j] = d;
                dist[j * n + i] = d;
            }
        }
        let mut loc_of: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut loc_of);
        let mut qap = Qap {
            n,
            flow: flow.into(),
            dist: dist.into(),
            loc_of,
            cost: 0.0,
            memo: Arc::default(),
        };
        qap.cost = qap.cost_exact();
        qap
    }

    /// Build from explicit matrices and an identity assignment.
    pub fn from_matrices(flow: Vec<f64>, dist: Vec<f64>) -> Qap {
        let n = (flow.len() as f64).sqrt() as usize;
        assert_eq!(n * n, flow.len(), "flow must be square");
        assert_eq!(flow.len(), dist.len(), "matrices must match");
        assert!(n >= 2);
        let mut qap = Qap {
            n,
            flow: flow.into(),
            dist: dist.into(),
            loc_of: (0..n).collect(),
            cost: 0.0,
            memo: Arc::default(),
        };
        qap.cost = qap.cost_exact();
        qap
    }

    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The row-major `n × n` flow matrix.
    pub fn flow_matrix(&self) -> &[f64] {
        &self.flow
    }

    /// The row-major `n × n` distance matrix.
    pub fn dist_matrix(&self) -> &[f64] {
        &self.dist
    }

    #[inline]
    fn f(&self, i: usize, j: usize) -> f64 {
        self.flow[i * self.n + j]
    }

    #[inline]
    fn d(&self, a: usize, b: usize) -> f64 {
        self.dist[a * self.n + b]
    }

    /// Recompute the cost from scratch.
    ///
    /// Sums `flow(i,j) · dist(loc(i), loc(j))` over `i < j`, added in
    /// row-major order, with the flow row of `i` and the distance row of
    /// its location hoisted out of the inner loop. Keep the order of the
    /// additions: the pinned goldens depend on the exact bits.
    pub fn cost_exact(&self) -> f64 {
        let n = self.n;
        let mut c = 0.0;
        for i in 0..n {
            let flow_row = &self.flow[i * n + i + 1..(i + 1) * n];
            let li = self.loc_of[i];
            let dist_row = &self.dist[li * n..(li + 1) * n];
            for (&f, &lj) in flow_row.iter().zip(&self.loc_of[i + 1..]) {
                c += f * dist_row[lj];
            }
        }
        c
    }

    /// Cost delta of swapping the locations of facilities `a` and `b`
    /// (O(n) incremental).
    pub fn swap_delta(&self, a: usize, b: usize) -> f64 {
        if a == b {
            return 0.0;
        }
        let (la, lb) = (self.loc_of[a], self.loc_of[b]);
        let mut delta = 0.0;
        for k in 0..self.n {
            if k == a || k == b {
                continue;
            }
            let lk = self.loc_of[k];
            delta += self.f(a, k) * (self.d(lb, lk) - self.d(la, lk));
            delta += self.f(b, k) * (self.d(la, lk) - self.d(lb, lk));
        }
        delta
    }

    /// Current facility → location assignment (cloned).
    pub fn snapshot_assignment(&self) -> Vec<usize> {
        self.loc_of.clone()
    }

    /// Batched [`Qap::swap_delta`]: hoists the flow/distance rows of `a`
    /// and `b` out of the k-loop and walks k in three contiguous segments
    /// (below, between, above the swapped pair) instead of testing
    /// `k == a || k == b` every iteration. The accumulation visits the
    /// same k values in the same ascending order with the same two `+=`
    /// per k as the scalar kernel, so the result is bit-identical.
    #[inline]
    fn swap_delta_rows(&self, a: usize, b: usize) -> f64 {
        let n = self.n;
        let (la, lb) = (self.loc_of[a], self.loc_of[b]);
        let fa = &self.flow[a * n..a * n + n];
        let fb = &self.flow[b * n..b * n + n];
        let da = &self.dist[la * n..la * n + n];
        let db = &self.dist[lb * n..lb * n + n];
        let (first, second) = if a < b { (a, b) } else { (b, a) };
        let mut delta = 0.0;
        let seg = |delta: &mut f64, lo: usize, hi: usize| {
            for k in lo..hi {
                let lk = self.loc_of[k];
                *delta += fa[k] * (db[lk] - da[lk]);
                *delta += fb[k] * (da[lk] - db[lk]);
            }
        };
        seg(&mut delta, 0, first);
        seg(&mut delta, first + 1, second);
        seg(&mut delta, second + 1, n);
        delta
    }
}

impl SearchProblem for Qap {
    /// `(facility_a, facility_b)` whose locations swap.
    type Move = (usize, usize);
    /// `(facility, location)` pairs: re-placing a facility at a recently
    /// vacated location is tabu.
    type Attribute = (u32, u32);
    type Snapshot = QapAssignment;

    fn cost(&self) -> f64 {
        self.cost
    }

    fn domain_size(&self) -> usize {
        self.n
    }

    fn sample_move(&mut self, rng: &mut Rng, range: Option<(usize, usize)>) -> Self::Move {
        let (lo, hi) = range.unwrap_or((0, self.n));
        assert!(lo < hi && hi <= self.n, "bad range {lo}..{hi}");
        let a = rng.range(lo, hi);
        let mut b = rng.index(self.n);
        while b == a {
            b = rng.index(self.n);
        }
        (a, b)
    }

    fn trial_cost(&mut self, mv: &Self::Move) -> f64 {
        self.cost + self.swap_delta(mv.0, mv.1)
    }

    fn apply(&mut self, mv: &Self::Move) {
        self.cost += self.swap_delta(mv.0, mv.1);
        self.loc_of.swap(mv.0, mv.1);
    }

    fn undo(&mut self, mv: &Self::Move) {
        // Swaps are self-inverse.
        self.apply(mv);
    }

    fn attributes(&self, mv: &Self::Move) -> AttrPair<Self::Attribute> {
        // Source attribute = (facility, its *current* location): recorded
        // on acceptance, forbidding a quick return to that location.
        (
            (mv.0 as u32, self.loc_of[mv.0] as u32),
            Some((mv.1 as u32, self.loc_of[mv.1] as u32)),
        )
    }

    fn target_attributes(&self, mv: &Self::Move) -> AttrPair<Self::Attribute> {
        // Target attribute = (facility, destination location): the move is
        // tabu when it would re-create a recently destroyed pairing.
        (
            (mv.0 as u32, self.loc_of[mv.1] as u32),
            Some((mv.1 as u32, self.loc_of[mv.0] as u32)),
        )
    }

    fn snapshot(&self) -> Self::Snapshot {
        QapAssignment::new(self.loc_of.clone())
    }

    /// Restores the assignment with its exact cost, from the instance's
    /// memo when a clone restored the same assignment recently (see
    /// [`Qap`]). A miss computes outside the memo's lock.
    fn restore(&mut self, snapshot: &Self::Snapshot) {
        assert_eq!(snapshot.len(), self.n);
        self.loc_of.clear();
        self.loc_of.extend_from_slice(snapshot.as_slice());
        self.cost = match self.memo.get(&self.loc_of) {
            Some(cost) => cost,
            None => {
                let cost = self.cost_exact();
                self.memo.insert(&self.loc_of, cost);
                cost
            }
        };
    }

    fn trial_costs(&mut self, moves: &[Self::Move], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(moves.len());
        for &(a, b) in moves {
            let cost = if a == b {
                self.cost
            } else {
                self.cost + self.swap_delta_rows(a, b)
            };
            out.push(cost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_cost_matches_exact() {
        let mut q = Qap::random(15, 1);
        let mut rng = Rng::new(2);
        for _ in 0..200 {
            let mv = q.sample_move(&mut rng, None);
            let predicted = q.trial_cost(&mv);
            q.apply(&mv);
            assert!(
                (q.cost() - predicted).abs() < 1e-6,
                "trial must predict applied cost"
            );
            assert!(
                (q.cost() - q.cost_exact()).abs() < 1e-6,
                "incremental cost drifted"
            );
        }
    }

    #[test]
    fn apply_undo_is_identity() {
        let mut q = Qap::random(10, 3);
        let snap = q.snapshot();
        let cost = q.cost();
        let mv = (2usize, 7usize);
        q.apply(&mv);
        q.undo(&mv);
        assert_eq!(q.snapshot(), snap);
        assert!((q.cost() - cost).abs() < 1e-9);
    }

    #[test]
    fn restore_resets_assignment_and_cost() {
        let mut q = Qap::random(10, 4);
        let snap = q.snapshot();
        let cost = q.cost();
        let mut rng = Rng::new(5);
        for _ in 0..20 {
            let mv = q.sample_move(&mut rng, None);
            q.apply(&mv);
        }
        q.restore(&snap);
        assert_eq!(q.snapshot(), snap);
        assert!((q.cost() - cost).abs() < 1e-9);
    }

    #[test]
    fn same_facility_swap_is_zero_delta() {
        let q = Qap::random(8, 6);
        assert_eq!(q.swap_delta(3, 3), 0.0);
    }

    #[test]
    fn attributes_capture_current_locations() {
        let q = Qap::random(6, 7);
        let (a, b) = SearchProblem::attributes(&q, &(1, 4));
        assert_eq!(a.0, 1);
        assert_eq!(a.1 as usize, q.snapshot_assignment()[1]);
        let b = b.unwrap();
        assert_eq!(b.0, 4);
        assert_eq!(b.1 as usize, q.snapshot_assignment()[4]);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Qap::random(12, 42);
        let b = Qap::random(12, 42);
        assert_eq!(a.snapshot_assignment(), b.snapshot_assignment());
        assert!((a.cost() - b.cost()).abs() < 1e-12);
    }

    #[test]
    fn assignment_diff_roundtrips() {
        let base = QapAssignment::new(vec![0, 1, 2, 3, 4]);
        let new = QapAssignment::new(vec![0, 4, 2, 3, 1]);
        let delta = new.diff_from(&base);
        assert_eq!(delta, vec![(1, 4), (4, 1)]);
        assert_eq!(QapAssignment::with_changes(&base, &delta), new);
        // Empty delta between equal assignments.
        assert!(base.diff_from(&base).is_empty());
        assert_eq!(QapAssignment::with_changes(&base, &[]), base);
    }

    #[test]
    fn batched_trial_costs_bit_identical_to_scalar() {
        let mut q = Qap::random(23, 9);
        let mut rng = Rng::new(10);
        // Exercise the kernel from several states, including a==b moves
        // (degenerate but allowed by the batch API).
        for round in 0..10 {
            let mut moves = Vec::new();
            q.sample_moves(&mut rng, Some((3, 15)), 16, &mut moves);
            moves.push((round % 23, round % 23));
            let scalar: Vec<f64> = moves.iter().map(|mv| q.trial_cost(mv)).collect();
            let mut batched = Vec::new();
            q.trial_costs(&moves, &mut batched);
            for (s, b) in scalar.iter().zip(batched.iter()) {
                assert_eq!(s.to_bits(), b.to_bits(), "batched kernel diverged");
            }
            let mv = q.sample_move(&mut rng, None);
            q.apply(&mv);
        }
    }

    #[test]
    fn sample_moves_consumes_same_rng_stream_as_scalar() {
        let mut q = Qap::random(16, 5);
        let mut a = Rng::new(77);
        let mut b = Rng::new(77);
        let mut batch = Vec::new();
        q.sample_moves(&mut a, Some((2, 9)), 12, &mut batch);
        let scalar: Vec<(usize, usize)> = (0..12)
            .map(|_| q.sample_move(&mut b, Some((2, 9))))
            .collect();
        assert_eq!(batch, scalar);
        assert_eq!(a.next_u64(), b.next_u64(), "RNG streams diverged");
    }

    /// The plain index-form double loop `cost_exact` was before its rows
    /// were hoisted: the oracle the hoisted form must match bit for bit.
    fn cost_index_form(q: &Qap) -> f64 {
        let (n, flow, dist) = (q.n(), q.flow_matrix(), q.dist_matrix());
        let loc = q.snapshot_assignment();
        let mut c = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                c += flow[i * n + j] * dist[loc[i] * n + loc[j]];
            }
        }
        c
    }

    /// A random permutation of `0..n`.
    fn shuffled(n: usize, rng: &mut Rng) -> QapAssignment {
        let mut loc_of: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut loc_of);
        QapAssignment::new(loc_of)
    }

    /// The memo's assignments, most recent first.
    fn memo_keys(q: &Qap) -> Vec<Vec<usize>> {
        q.memo
            .entries()
            .iter()
            .map(|(key, _)| key.clone())
            .collect()
    }

    #[test]
    fn hoisted_cost_exact_is_bit_identical_to_the_index_form() {
        for (n, steps) in [(2, 5), (3, 20), (17, 60), (64, 40), (256, 8)] {
            let mut q = Qap::random(n, 31 + n as u64);
            let mut rng = Rng::new(n as u64);
            for _ in 0..steps {
                assert_eq!(
                    q.cost_exact().to_bits(),
                    cost_index_form(&q).to_bits(),
                    "n = {n}"
                );
                let mv = q.sample_move(&mut rng, None);
                q.apply(&mv);
            }
        }
    }

    #[test]
    fn restore_cost_is_exact_on_hit_miss_and_re_miss() {
        let mut q = Qap::random(20, 12);
        let mut rng = Rng::new(13);
        let snaps: Vec<QapAssignment> = (0..5).map(|_| shuffled(20, &mut rng)).collect();
        let check = |q: &Qap| assert_eq!(q.cost().to_bits(), q.cost_exact().to_bits());

        q.restore(&snaps[0]); // miss
        check(&q);
        assert_eq!(memo_keys(&q), [snaps[0].as_slice()]);
        let mv = q.sample_move(&mut rng, None);
        q.apply(&mv);
        q.restore(&snaps[0]); // hit, from a different state
        check(&q);
        assert_eq!(memo_keys(&q).len(), 1);

        for s in &snaps[1..] {
            q.restore(s); // four misses: the fourth evicts snaps[0]
            check(&q);
        }
        assert_eq!(memo_keys(&q).len(), MEMO_ENTRIES);
        assert!(!memo_keys(&q).contains(&snaps[0].clone().into_vec()));
        q.restore(&snaps[0]); // re-miss after eviction
        check(&q);
        assert_eq!(memo_keys(&q)[0], snaps[0].as_slice());
        assert!(
            !memo_keys(&q).contains(&snaps[1].clone().into_vec()),
            "the least recently used entry goes first"
        );
    }

    #[test]
    fn memo_hits_refresh_an_entry_so_it_outlives_newer_misses() {
        let mut q = Qap::random(12, 14);
        let mut rng = Rng::new(15);
        let shared = shuffled(12, &mut rng);
        q.restore(&shared);
        // A shared solution restored between private ones stays cached.
        for _ in 0..3 * MEMO_ENTRIES {
            q.restore(&shuffled(12, &mut rng));
            q.restore(&shared);
            assert_eq!(memo_keys(&q)[0], shared.as_slice());
        }
    }

    #[test]
    fn instances_with_different_matrices_keep_their_own_costs() {
        let mut a = Qap::random(16, 1);
        let mut b = Qap::random(16, 2);
        let s = shuffled(16, &mut Rng::new(3));
        a.restore(&s);
        b.restore(&s);
        assert_eq!(a.cost().to_bits(), a.cost_exact().to_bits());
        assert_eq!(b.cost().to_bits(), b.cost_exact().to_bits());
        assert_ne!(a.cost(), b.cost());
    }

    #[test]
    fn clones_restoring_on_threads_agree_bitwise() {
        let q = Qap::random(48, 21);
        let mut rng = Rng::new(22);
        let snaps: Vec<QapAssignment> = (0..6).map(|_| shuffled(48, &mut rng)).collect();
        let expected: Vec<u64> = snaps
            .iter()
            .map(|s| {
                let mut fresh = Qap::from_matrices(q.flow.to_vec(), q.dist.to_vec());
                fresh.restore(s);
                fresh.cost().to_bits()
            })
            .collect();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (mut clone, snaps, expected) = (q.clone(), &snaps, &expected);
                scope.spawn(move || {
                    for round in 0..50 {
                        let k = (round * (t + 1) + t) % snaps.len();
                        clone.restore(&snaps[k]);
                        assert_eq!(clone.cost().to_bits(), expected[k]);
                    }
                });
            }
        });
        assert!(memo_keys(&q).len() <= MEMO_ENTRIES);
    }

    #[test]
    fn from_matrices_identity_assignment() {
        // 2 facilities, flow 5 between them, distance 3.
        let q = Qap::from_matrices(vec![0.0, 5.0, 5.0, 0.0], vec![0.0, 3.0, 3.0, 0.0]);
        assert!((q.cost() - 15.0).abs() < 1e-12);
    }
}
