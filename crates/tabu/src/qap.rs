//! Quadratic assignment problem (QAP) binding.
//!
//! QAP is the domain of the diversification study the paper builds on
//! (Kelly, Laguna & Glover 1994). It doubles here as a compact second
//! domain proving the [`SearchProblem`] abstraction: n facilities with
//! pairwise flows are assigned to n locations with pairwise distances,
//! minimizing `Σ flow(i,j) · dist(loc(i), loc(j))`.
//!
//! Both matrices are symmetric by contract, and every instance is built
//! from its two upper triangles: [`Qap::random`] draws them, the proc
//! engine's setup frame carries them, and [`Qap::from_upper_triangles`]
//! writes them once, in place, into the buffers every clone shares.

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
/// # The symmetric contract
///
/// Both matrices are symmetric: `flow(i,j) == flow(j,i)` and likewise for
/// the distances. The costs rely on it. [`Qap::cost_exact`] sums each
/// unordered pair once (`i < j`), and [`Qap::swap_delta`] and the batched
/// kernel read a facility's row for its column. On an asymmetric pair the
/// running cost would silently part from the exact one, so
/// [`Qap::from_matrices`] refuses such a pair, and every other
/// constructor mirrors an upper triangle. The diagonals take no part in
/// any cost; they may hold anything.
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
/// The memo serves `Init`, TSW adoptions and the long CLW syncs. A CLW
/// reaches its TSW's state, which no other worker holds, by applying the
/// swaps between the two states instead of restoring it; it restores only
/// when that path is longer than n/4 swaps (pts-core's CLW docs), and
/// those restores mostly miss.
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
///
/// # The commit log
///
/// A compound move is built, rolled back and then, if the TSW accepts
/// it, applied again: every one of its swaps is committed up to three
/// times in states whose deltas are already known. So the instance logs
/// its latest eight commits (`LOG_SWAPS`), each with the delta it added,
/// and a cursor between the swaps that stand and the swaps undone after
/// them.
///
/// - **Undo of the newest standing swap** adds the negated delta. Walked
///   back, the swap visits the same facilities in the same order with the
///   two distance rows exchanged, so every difference, product and partial
///   sum is the exact negation of the forward walk's: round-to-nearest is
///   symmetric in sign. The two can differ only in the sign of a zero,
///   which adding to a nonzero running cost cannot see, and the running
///   cost is never −0.0 (each sum starts at +0.0, and an exact zero sum
///   of nonzero terms rounds to +0.0).
/// - **Apply of the swap undone last** adds its logged delta, because the
///   assignment is again the one that delta was priced in.
/// - **Anything else** walks. A fresh apply drops the undone swaps and
///   logs itself; an undo of any swap but the newest standing one, and a
///   restore, clear the log.
///
/// So a roll-back and the replay of its prefix walk nothing, and every
/// committed cost is the bits one walk per commit would give. The log is
/// a fixed array inside the instance: it allocates nothing, and a clone,
/// which holds the same assignment, keeps it.
#[derive(Clone, Debug)]
pub struct Qap {
    n: usize,
    /// Row-major `n × n` flow matrix (symmetric).
    flow: Arc<[f64]>,
    /// Row-major `n × n` distance matrix (symmetric).
    dist: Arc<[f64]>,
    /// Location of each facility.
    loc_of: Vec<usize>,
    cost: f64,
    /// Exact costs of recently restored assignments, shared by every
    /// clone of this instance.
    memo: Arc<CostMemo>,
    /// The latest swaps committed, with their deltas.
    log: CommitLog,
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

/// Swaps the commit log holds: twice the deepest compound move the
/// workloads and figures use (4), so a whole chain rolls back and replays
/// from the log. A deeper chain stays exact; its oldest undos walk.
const LOG_SWAPS: usize = 8;

/// The latest swaps committed, each with the delta it added, in a ring.
/// The swaps before `next` stand, newest last; the swaps from `next` on
/// were undone, the one undone last at `next` (see [`Qap`]).
#[derive(Clone, Copy, Debug)]
struct CommitLog {
    swaps: [LoggedSwap; LOG_SWAPS],
    /// The slot after the newest standing swap.
    next: usize,
    /// Standing swaps, which end at `next`.
    standing: usize,
    /// Undone swaps, which start at `next`.
    undone: usize,
}

/// One commit of the log. Every worker's instance carries its log, so
/// facilities are stored as `u32`, 16 bytes an entry instead of 24: a
/// committed facility indexes an `n × n` matrix, far below `u32::MAX`.
#[derive(Clone, Copy, Debug)]
struct LoggedSwap {
    a: u32,
    b: u32,
    delta: f64,
}

impl LoggedSwap {
    /// `true` when this is the commit of `mv`, exactly: an out-of-range
    /// move matches no entry.
    fn is(&self, mv: (usize, usize)) -> bool {
        (self.a as usize, self.b as usize) == mv
    }
}

impl CommitLog {
    const EMPTY: CommitLog = CommitLog {
        swaps: [LoggedSwap {
            a: 0,
            b: 0,
            delta: 0.0,
        }; LOG_SWAPS],
        next: 0,
        standing: 0,
        undone: 0,
    };

    /// `true` when `mv` is the swap undone last.
    fn redoes(&self, mv: (usize, usize)) -> bool {
        self.undone > 0 && self.swaps[self.next].is(mv)
    }

    /// The delta `mv` added, when it is the swap undone last; it stands
    /// again.
    fn redo(&mut self, mv: (usize, usize)) -> Option<f64> {
        if !self.redoes(mv) {
            return None;
        }
        let delta = self.swaps[self.next].delta;
        self.next = (self.next + 1) % LOG_SWAPS;
        self.standing += 1;
        self.undone -= 1;
        Some(delta)
    }

    /// The delta `mv` added, when it is the newest standing swap; it is
    /// undone.
    fn undo(&mut self, mv: (usize, usize)) -> Option<f64> {
        let newest = (self.next + LOG_SWAPS - 1) % LOG_SWAPS;
        if self.standing == 0 || !self.swaps[newest].is(mv) {
            return None;
        }
        self.next = newest;
        self.standing -= 1;
        self.undone += 1;
        Some(self.swaps[newest].delta)
    }

    /// Log a fresh commit of `mv`, which drops the undone swaps and, when
    /// the ring is full, the oldest standing one. `mv` was just committed,
    /// so both its facilities are below n.
    fn push(&mut self, (a, b): (usize, usize), delta: f64) {
        self.swaps[self.next] = LoggedSwap {
            a: a as u32,
            b: b as u32,
            delta,
        };
        self.next = (self.next + 1) % LOG_SWAPS;
        self.standing = (self.standing + 1).min(LOG_SWAPS);
        self.undone = 0;
    }

    fn clear(&mut self) {
        self.standing = 0;
        self.undone = 0;
    }
}

impl Qap {
    /// Random symmetric instance with uniform flows/distances in `[0, 10)`
    /// off the diagonal and zeros on it, random initial assignment.
    /// Deterministic in `seed`: the upper triangles are drawn row by row,
    /// a flow then a distance per cell, and the assignment after them.
    pub fn random(n: usize, seed: u64) -> Qap {
        assert!(n >= 2);
        let mut rng = Rng::new(seed);
        let (flow, dist) = symmetric_pair(n, |i, j| {
            if i == j {
                return (0.0, 0.0);
            }
            let f = rng.range_f64(0.0, 10.0);
            (f, rng.range_f64(0.0, 10.0))
        });
        let mut loc_of: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut loc_of);
        Qap::with_matrices(n, flow, dist, loc_of)
    }

    /// Build from explicit matrices and an identity assignment.
    ///
    /// Panics unless both matrices are square, of one size n ≥ 2, and
    /// symmetric (see [`Qap`]).
    pub fn from_matrices(flow: Vec<f64>, dist: Vec<f64>) -> Qap {
        let n = (flow.len() as f64).sqrt() as usize;
        assert_eq!(n * n, flow.len(), "flow must be square");
        assert_eq!(flow.len(), dist.len(), "matrices must match");
        assert!(n >= 2);
        for (name, m) in [("flow", &flow), ("dist", &dist)] {
            for i in 0..n {
                for j in i + 1..n {
                    assert!(
                        m[i * n + j] == m[j * n + i],
                        "{name} must be symmetric: ({i}, {j}) holds {} and ({j}, {i}) {}",
                        m[i * n + j],
                        m[j * n + i]
                    );
                }
            }
        }
        Qap::with_matrices(n, flow.into(), dist.into(), (0..n).collect())
    }

    /// Build from the upper triangles of the two matrices, diagonals
    /// included, and an identity assignment. `cell(i, j)` gives the flow
    /// and the distance of cell `(i, j)`, `i <= j`; it is called once per
    /// cell, row by row. Each matrix is written once, in place, into the
    /// buffer its clones share, its lower triangle mirroring the upper.
    pub fn from_upper_triangles(n: usize, cell: impl FnMut(usize, usize) -> (f64, f64)) -> Qap {
        assert!(n >= 2);
        let (flow, dist) = symmetric_pair(n, cell);
        Qap::with_matrices(n, flow, dist, (0..n).collect())
    }

    fn with_matrices(n: usize, flow: Arc<[f64]>, dist: Arc<[f64]>, loc_of: Vec<usize>) -> Qap {
        let mut qap = Qap {
            n,
            flow,
            dist,
            loc_of,
            cost: 0.0,
            memo: Arc::default(),
            log: CommitLog::EMPTY,
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
    ///
    /// The plain per-index loop, kept as the scalar reference: `trial_cost`
    /// uses it, and the batched kernel and `apply`, which walk hoisted rows
    /// instead, must match it bit for bit.
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

    /// [`Qap::swap_delta`] of one move, or of two moves in one pass over
    /// the facilities: the segment walker behind `trial_costs` and
    /// `apply`. `Qap::chained_deltas` is its twin for two moves committed
    /// one after the other.
    ///
    /// Each lane hoists the flow rows of its two facilities and the
    /// distance rows of their locations out of the k-loop. The walk splits
    /// `0..n` at the sorted union of every lane's facilities: between two
    /// split points every lane adds without a test, and at a split point a
    /// lane adds unless the point is one of its own facilities. So each
    /// lane visits the same k, in the same ascending order, with the same
    /// two `+=` per k as `swap_delta`, and its delta is bit-identical. Two
    /// lanes only interleave two independent add chains, so each lane's
    /// dependent additions fill the other's add latency; more lanes run out
    /// of registers for their rows.
    ///
    /// A lane with `a == b` skips index `a` only once, where `swap_delta`
    /// returns `0.0` without a walk, so callers handle a self-swap
    /// themselves.
    #[inline]
    fn swap_deltas<const L: usize>(&self, moves: [(usize, usize); L]) -> [f64; L] {
        const { assert!(L == 1 || L == 2, "one or two lanes") };
        let n = self.n;
        // Filled in place: built with `array::map`, the lanes were not
        // inlined, and the bounds checks lost that every row is n long.
        let mut lanes = [Lane::EMPTY; L];
        let mut points = [0; 4];
        for (i, (a, b)) in moves.into_iter().enumerate() {
            lanes[i] = Lane::new(self, a, b);
            [points[2 * i], points[2 * i + 1]] = [a, b];
        }
        let points = &mut points[..2 * L];
        points.sort_unstable();
        let mut lo = 0;
        for &p in points.iter() {
            // A facility two lanes share is one split point.
            if p < lo {
                continue;
            }
            Lane::walk(&mut lanes, &self.loc_of, lo, p);
            let lp = self.loc_of[p];
            for lane in lanes.iter_mut() {
                if p != lane.a && p != lane.b {
                    lane.add(p, lp);
                }
            }
            lo = p + 1;
        }
        Lane::walk(&mut lanes, &self.loc_of, lo, n);
        lanes.map(|lane| lane.delta)
    }

    /// The deltas of `first` and of `second` committed after it, in one
    /// two-lane walk: `apply_all`'s pair. Lane 1 prices `first` in the
    /// current state, lane 2 prices `second` in the state `first` leaves.
    ///
    /// The two states differ only at `first`'s facilities, which are split
    /// points: between split points both lanes read the same locations,
    /// and at one of `first`'s facilities lane 2 reads the location the
    /// swap gives it. So each lane visits the same k, in the same order,
    /// with the same rows and locations, as a one-lane walk in its own
    /// state, and each delta is bit-identical to that walk's. Neither move
    /// may be a self-swap (see [`Qap::swap_deltas`]).
    fn chained_deltas(&self, first: (usize, usize), second: (usize, usize)) -> [f64; 2] {
        let [(a1, b1), (a2, b2)] = [first, second];
        // Facility k's location once `first` is committed.
        let after = |k: usize| match k {
            k if k == a1 => self.loc_of[b1],
            k if k == b1 => self.loc_of[a1],
            k => self.loc_of[k],
        };
        let mut lanes = [
            Lane::new(self, a1, b1),
            Lane::at(self, a2, b2, after(a2), after(b2)),
        ];
        let mut points = [a1, b1, a2, b2];
        points.sort_unstable();
        let mut lo = 0;
        for p in points {
            if p < lo {
                continue;
            }
            Lane::walk(&mut lanes, &self.loc_of, lo, p);
            let [lane1, lane2] = &mut lanes;
            if p != a1 && p != b1 {
                lane1.add(p, self.loc_of[p]);
            }
            if p != a2 && p != b2 {
                lane2.add(p, after(p));
            }
            lo = p + 1;
        }
        Lane::walk(&mut lanes, &self.loc_of, lo, self.n);
        lanes.map(|lane| lane.delta)
    }

    /// Commit `mv` at `delta`, freshly priced, and log it.
    #[inline]
    fn commit(&mut self, mv: (usize, usize), delta: f64) {
        self.loc_of.swap(mv.0, mv.1);
        self.cost += delta;
        self.log.push(mv, delta);
    }
}

/// The two symmetric `n × n` matrices whose upper cells `cell(i, j)`
/// gives (see [`Qap::from_upper_triangles`]), each written once into the
/// buffer it is shared from: the upper triangles row by row, then each
/// lower triangle, row by row, from its upper one.
fn symmetric_pair(
    n: usize,
    mut cell: impl FnMut(usize, usize) -> (f64, f64),
) -> (Arc<[f64]>, Arc<[f64]>) {
    let mut flow = Arc::<[f64]>::new_uninit_slice(n * n);
    let mut dist = Arc::<[f64]>::new_uninit_slice(n * n);
    {
        let f = Arc::get_mut(&mut flow).expect("a new Arc has one owner");
        let d = Arc::get_mut(&mut dist).expect("a new Arc has one owner");
        for i in 0..n {
            for j in i..n {
                let (fv, dv) = cell(i, j);
                f[i * n + j].write(fv);
                d[i * n + j].write(dv);
            }
        }
        for m in [f, d] {
            for i in 1..n {
                for j in 0..i {
                    // SAFETY: `(j, i)`, `j < i`, is an upper cell, and the
                    // loop above wrote every upper cell.
                    let v = unsafe { m[j * n + i].assume_init() };
                    m[i * n + j].write(v);
                }
            }
        }
    }
    // SAFETY: the first loop wrote every cell `(i, j)` with `i <= j`, and
    // the second every cell with `i > j`: all `n²` are initialised.
    unsafe { (flow.assume_init(), dist.assume_init()) }
}

/// One move's share of a [`Qap::swap_deltas`] walk: its two facilities,
/// their flow rows, the distance rows of their locations, and its running
/// delta.
#[derive(Clone, Copy)]
struct Lane<'q> {
    a: usize,
    b: usize,
    fa: &'q [f64],
    fb: &'q [f64],
    da: &'q [f64],
    db: &'q [f64],
    delta: f64,
}

impl<'q> Lane<'q> {
    const EMPTY: Lane<'q> = Lane {
        a: 0,
        b: 0,
        fa: &[],
        fb: &[],
        da: &[],
        db: &[],
        delta: 0.0,
    };

    /// The lane of swap `(a, b)` in `q`'s current state.
    #[inline(always)]
    fn new(q: &'q Qap, a: usize, b: usize) -> Lane<'q> {
        Lane::at(q, a, b, q.loc_of[a], q.loc_of[b])
    }

    /// The lane of swap `(a, b)` in a state that puts `a` at `la` and `b`
    /// at `lb`.
    #[inline(always)]
    fn at(q: &'q Qap, a: usize, b: usize, la: usize, lb: usize) -> Lane<'q> {
        let n = q.n;
        let row = |m: &'q [f64], i: usize| &m[i * n..][..n];
        Lane {
            a,
            b,
            fa: row(&q.flow, a),
            fb: row(&q.flow, b),
            da: row(&q.dist, la),
            db: row(&q.dist, lb),
            delta: 0.0,
        }
    }

    /// Facility `k`, at location `lk`: `swap_delta`'s two additions.
    #[inline(always)]
    fn add(&mut self, k: usize, lk: usize) {
        self.delta += self.fa[k] * (self.db[lk] - self.da[lk]);
        self.delta += self.fb[k] * (self.da[lk] - self.db[lk]);
    }

    /// Every lane adds every facility of `lo..hi`, whose locations
    /// `loc_of` holds.
    #[inline(always)]
    fn walk<const L: usize>(lanes: &mut [Lane<'q>; L], loc_of: &[usize], lo: usize, hi: usize) {
        for (k, &lk) in (lo..hi).zip(&loc_of[lo..hi]) {
            for lane in lanes.iter_mut() {
                lane.add(k, lk);
            }
        }
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

    /// Commits the swap at `cost + swap_delta(a, b)`, bit for bit: with
    /// the delta it logged when it is the swap undone last, and otherwise
    /// with the delta of the one-lane walk over hoisted rows
    /// (`Qap::swap_deltas`). A self-swap adds `swap_delta`'s `0.0` itself,
    /// since the walk does not return it.
    fn apply(&mut self, mv: &Self::Move) {
        let (a, b) = *mv;
        if let Some(delta) = self.log.redo(*mv) {
            self.loc_of.swap(a, b);
            self.cost += delta;
            return;
        }
        let delta = if a == b {
            0.0
        } else {
            self.swap_deltas([(a, b)])[0]
        };
        self.commit(*mv, delta);
    }

    /// Reverts the newest standing swap with its logged delta negated,
    /// which is bit for bit the walk's (see [`Qap`]). Any other swap is
    /// walked, since swaps are self-inverse, and clears the log.
    fn undo(&mut self, mv: &Self::Move) {
        let (a, b) = *mv;
        let delta = match self.log.undo(*mv) {
            Some(delta) => -delta,
            None => {
                self.log.clear();
                if a == b {
                    0.0
                } else {
                    self.swap_deltas([(a, b)])[0]
                }
            }
        };
        self.loc_of.swap(a, b);
        self.cost += delta;
    }

    /// Commits consecutive swaps two per walk (`Qap::chained_deltas`),
    /// so every cost is the bits of one `apply` per move. A self-swap, a
    /// redo and an odd last move go through `apply`; every commit is
    /// logged.
    fn apply_all(&mut self, moves: &[Self::Move]) {
        let mut rest = moves;
        while let [first, second, tail @ ..] = rest {
            if first.0 == first.1 || second.0 == second.1 || self.log.redoes(*first) {
                self.apply(first);
                rest = &rest[1..];
                continue;
            }
            let [d1, d2] = self.chained_deltas(*first, *second);
            self.commit(*first, d1);
            self.commit(*second, d2);
            rest = tail;
        }
        if let [last] = rest {
            self.apply(last);
        }
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
        self.log.clear();
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

    /// Trial-costs the moves two at a time, each pair in one two-lane walk
    /// over hoisted rows (`Qap::swap_deltas`); an odd batch's last move
    /// takes the one-lane walk. Every cost equals `trial_cost` bit for
    /// bit, and a self-swap costs the current cost.
    fn trial_costs(&mut self, moves: &[Self::Move], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(moves.len());
        let trial = |&(a, b): &(usize, usize), delta: f64| {
            if a == b {
                self.cost
            } else {
                self.cost + delta
            }
        };
        let mut pairs = moves.chunks_exact(2);
        for pair in &mut pairs {
            let deltas = self.swap_deltas([pair[0], pair[1]]);
            out.extend(pair.iter().zip(deltas).map(|(mv, delta)| trial(mv, delta)));
        }
        for mv in pairs.remainder() {
            out.push(trial(mv, self.swap_deltas([*mv])[0]));
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

    /// Apply or undo `mv`, and require the bits of one walk in the state
    /// before it: `cost + swap_delta(a, b)`.
    fn commit_checked(q: &mut Qap, mv: (usize, usize), undo: bool) {
        let want = q.cost() + q.swap_delta(mv.0, mv.1);
        if undo {
            q.undo(&mv);
        } else {
            q.apply(&mv);
        }
        assert_eq!(q.cost().to_bits(), want.to_bits(), "undo {undo}, {mv:?}");
    }

    /// `(standing, undone)` swaps in the commit log.
    fn log_counts(q: &Qap) -> (usize, usize) {
        (q.log.standing, q.log.undone)
    }

    #[test]
    fn a_chain_rolls_back_and_replays_from_the_log() {
        // At n = 4 a delta is as large as the cost, so a rolled-back cost
        // often takes other bits than the one the chain started from.
        for (n, seed) in [(4, 16), (5, 17), (31, 18)] {
            chain_rolls_back_and_replays(Qap::random(n, seed), seed);
        }
    }

    fn chain_rolls_back_and_replays(mut q: Qap, seed: u64) {
        let mut rng = Rng::new(seed);
        for round in 0..50 {
            let chain: Vec<_> = (0..4).map(|_| q.sample_move(&mut rng, None)).collect();
            for &mv in &chain {
                commit_checked(&mut q, mv, false);
            }
            let standing = log_counts(&q).0;
            for &mv in chain.iter().rev() {
                commit_checked(&mut q, mv, true);
            }
            // Every undo was a log hit: a walked undo clears the log.
            assert_eq!(log_counts(&q), (standing - 4, 4));
            // The prefix replays from the log, one move at a time or as a
            // batch, at the bits of one walk per move.
            let prefix = &chain[..2 + round % 2];
            if round % 2 == 0 {
                for &mv in prefix {
                    commit_checked(&mut q, mv, false);
                }
            } else {
                let mut walked = q.clone();
                walked.log.clear();
                for &mv in prefix {
                    commit_checked(&mut walked, mv, false);
                }
                q.apply_all(prefix);
                assert_eq!(q.cost().to_bits(), walked.cost().to_bits());
                assert_eq!(q.loc_of, walked.loc_of);
            }
            let replayed = prefix.len();
            assert_eq!(log_counts(&q), (standing - 4 + replayed, 4 - replayed));
        }
    }

    #[test]
    fn a_fresh_apply_drops_the_undone_swaps() {
        let mut q = Qap::random(23, 18);
        let (m1, m2, m3) = ((1, 5), (5, 9), (2, 7));
        for (mv, undo) in [(m1, false), (m2, false), (m2, true), (m1, true)] {
            commit_checked(&mut q, mv, undo);
        }
        assert_eq!(log_counts(&q), (0, 2));
        // m3 takes m1's slot; the next one still holds m2, priced after
        // m1, which is no longer a swap to redo.
        commit_checked(&mut q, m3, false);
        assert_eq!(log_counts(&q), (1, 0));
        for (mv, undo) in [(m2, false), (m2, true), (m3, true), (m3, false)] {
            commit_checked(&mut q, mv, undo);
        }
    }

    #[test]
    fn only_the_swap_undone_last_is_redone() {
        let mut q = Qap::random(21, 23);
        let (m1, m2) = ((2, 11), (11, 17));
        for (mv, undo) in [(m1, false), (m2, false), (m2, true), (m1, true)] {
            commit_checked(&mut q, mv, undo);
        }
        // m2 was priced after m1, which is undone: it walks, and drops
        // the undone swaps.
        commit_checked(&mut q, m2, false);
        assert_eq!(log_counts(&q), (1, 0));
        commit_checked(&mut q, m1, false);
    }

    #[test]
    fn an_undo_of_an_older_swap_walks_and_clears_the_log() {
        let mut q = Qap::random(19, 19);
        let (m1, m2) = ((0, 18), (3, 4));
        commit_checked(&mut q, m1, false);
        commit_checked(&mut q, m2, false);
        commit_checked(&mut q, m1, true);
        assert_eq!(log_counts(&q), (0, 0));
        // The reverse of the newest swap is another move, priced another
        // way: it walks too.
        commit_checked(&mut q, m2, false);
        commit_checked(&mut q, (m2.1, m2.0), true);
        assert_eq!(log_counts(&q), (0, 0));
    }

    #[test]
    fn the_log_keeps_the_latest_swaps_and_restore_clears_it() {
        let mut q = Qap::random(29, 20);
        let mut rng = Rng::new(21);
        let moves: Vec<_> = (0..LOG_SWAPS + 3)
            .map(|_| q.sample_move(&mut rng, None))
            .collect();
        for &mv in &moves {
            commit_checked(&mut q, mv, false);
        }
        assert_eq!(log_counts(&q), (LOG_SWAPS, 0));
        for (i, &mv) in moves.iter().rev().enumerate() {
            commit_checked(&mut q, mv, true);
            // The oldest three fell out of the ring: their undos walk.
            let undone = if i < LOG_SWAPS { i + 1 } else { 0 };
            assert_eq!(log_counts(&q).1, undone, "undo {i}");
        }
        // A self-swap is logged at 0.0 and undone from the log.
        commit_checked(&mut q, (4, 4), false);
        commit_checked(&mut q, (4, 4), true);
        assert_eq!(log_counts(&q), (0, 1));
        q.restore(&q.snapshot());
        assert_eq!(log_counts(&q), (0, 0));
    }

    #[test]
    fn out_of_range_moves_panic_on_every_commit_path() {
        let q = Qap::random(6, 24);
        let panics = |f: &dyn Fn(&mut Qap)| {
            let mut q = q.clone();
            q.apply(&(1, 2));
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut q))).is_err()
        };
        assert!(panics(&|q| q.apply(&(6, 0))));
        assert!(panics(&|q| q.apply(&(6, 6))));
        assert!(panics(&|q| q.undo(&(0, 6))));
        // A facility that matches a logged one only in its low 32 bits.
        #[cfg(target_pointer_width = "64")]
        assert!(panics(&|q| q.undo(&((1 << 32) + 1, 2))));
        assert!(panics(&|q| q.apply_all(&[(1, 2), (6, 0)])));
        assert!(panics(&|q| q.apply_all(&[(6, 1), (2, 3), (4, 5)])));
    }

    #[test]
    fn chained_deltas_are_the_one_lane_walks_in_their_own_states() {
        for n in [3, 4, 9, 64] {
            let mut q = Qap::random(n, 22 + n as u64);
            let mut rng = Rng::new(n as u64);
            for _ in 0..200 {
                let first = q.sample_move(&mut rng, None);
                let second = match rng.index(4) {
                    0 => first,
                    1 => (first.1, first.0),
                    2 => (first.0, (first.0 + 1 + rng.index(n - 1)) % n),
                    _ => q.sample_move(&mut rng, None),
                };
                let pair = q.chained_deltas(first, second);
                let d1 = q.swap_deltas([first])[0];
                q.apply(&first);
                let d2 = q.swap_deltas([second])[0];
                assert_eq!(pair.map(f64::to_bits), [d1.to_bits(), d2.to_bits()]);
                assert_eq!(d2.to_bits(), q.swap_delta(second.0, second.1).to_bits());
            }
        }
    }

    #[test]
    fn from_matrices_identity_assignment() {
        // 2 facilities, flow 5 between them, distance 3.
        let q = Qap::from_matrices(vec![0.0, 5.0, 5.0, 0.0], vec![0.0, 3.0, 3.0, 0.0]);
        assert!((q.cost() - 15.0).abs() < 1e-12);
    }

    /// The generator as it was before instances were built in place: one
    /// pass over the upper cells, a flow then a distance draw per cell,
    /// each written to both of its cells. The oracle `Qap::random` must
    /// match bit for bit.
    fn random_index_form(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<usize>) {
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
        (flow, dist, loc_of)
    }

    fn bits(m: &[f64]) -> Vec<u64> {
        m.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn random_instances_are_bit_identical_to_the_index_form_generator() {
        for n in [2, 3, 17, 64, 256] {
            for seed in [0, 1, 7, 1001, u64::MAX] {
                let q = Qap::random(n, seed);
                let (flow, dist, loc_of) = random_index_form(n, seed);
                assert_eq!(bits(q.flow_matrix()), bits(&flow), "flow, n = {n}");
                assert_eq!(bits(q.dist_matrix()), bits(&dist), "dist, n = {n}");
                assert_eq!(q.snapshot_assignment(), loc_of, "n = {n}");
                let oracle = Qap {
                    loc_of,
                    ..Qap::from_matrices(flow, dist)
                };
                assert_eq!(q.cost().to_bits(), oracle.cost_exact().to_bits());
            }
        }
    }

    /// On this asymmetric flow matrix the running cost and the exact sum
    /// part after one swap: `apply(&(1, 2))` from the identity leaves the
    /// running cost at 9, and `cost_exact` reads 12.
    #[test]
    #[should_panic(expected = "flow must be symmetric: (0, 1) holds 1 and (1, 0) 5")]
    fn an_asymmetric_instance_is_refused() {
        Qap::from_matrices(
            vec![0.0, 1.0, 2.0, 5.0, 0.0, 3.0, 7.0, 11.0, 0.0],
            vec![0.0, 1.0, 4.0, 1.0, 0.0, 2.0, 4.0, 2.0, 0.0],
        );
    }

    #[test]
    fn a_symmetric_pair_with_a_nonzero_diagonal_builds() {
        let flow = vec![9.0, 1.0, 2.0, 1.0, -4.0, 3.0, 2.0, 3.0, 0.5];
        let dist = vec![1.0, 1.0, 4.0, 1.0, 2.0, 2.0, 4.0, 2.0, 3.0];
        let mut q = Qap::from_matrices(flow.clone(), dist.clone());
        assert_eq!(q.flow_matrix(), flow);
        assert_eq!(q.dist_matrix(), dist);
        // The diagonals take no part in the cost: 1·1 + 2·4 + 3·2.
        assert_eq!(q.cost(), 15.0);
        q.apply(&(1, 2));
        assert_eq!(q.cost().to_bits(), q.cost_exact().to_bits());
    }

    #[test]
    fn upper_triangles_build_the_mirrored_pair_row_by_row() {
        let n = 4;
        let mut calls = Vec::new();
        let q = Qap::from_upper_triangles(n, |i, j| {
            calls.push((i, j));
            ((10 * i + j) as f64, -((10 * i + j) as f64))
        });
        let upper: Vec<(usize, usize)> = (0..n).flat_map(|i| (i..n).map(move |j| (i, j))).collect();
        assert_eq!(calls, upper);
        for i in 0..n {
            for j in 0..n {
                let v = (10 * i.min(j) + i.max(j)) as f64;
                assert_eq!(q.flow_matrix()[i * n + j], v);
                assert_eq!(q.dist_matrix()[i * n + j], -v);
            }
        }
        assert_eq!(q.snapshot_assignment(), [0, 1, 2, 3]);
        assert_eq!(q.cost().to_bits(), q.cost_exact().to_bits());
    }
}
