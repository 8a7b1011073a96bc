//! Quadratic assignment as a parallel-search domain.
//!
//! QAP is the domain of the Kelly-Laguna-Glover diversification study the
//! paper builds on; `pts-tabu` provides the sequential binding. This
//! module lifts it into a [`PtsDomain`] so the *entire* master/TSW/CLW
//! pipeline — diversification ranges, compound-move proposals, half-report
//! heterogeneity — runs on QAP through the exact same entry point as
//! placement. The shared flow/distance matrices are cloned per worker
//! (each PVM process in the paper likewise held private problem data).

use crate::domain::{DeltaSnapshot, PtsDomain, WireSized};
use pts_tabu::qap::{Qap, QapAssignment};
use pts_tabu::SearchProblem;
use pts_util::Rng;

impl WireSized for QapAssignment {
    /// 8 bytes per assignment entry.
    ///
    /// This used to be a global `impl WireSized for Vec<usize>` — by the
    /// orphan rule that was the one model *any* domain with a bare-Vec
    /// snapshot could ever have. The [`QapAssignment`] newtype carries
    /// QAP's own bandwidth model; a future domain (e.g. a
    /// 4-byte-per-city TSP tour) wraps its snapshot the same way.
    fn wire_bytes(&self) -> u64 {
        8 * self.len() as u64
    }
}

/// Delta between two QAP assignments: the facilities whose location
/// changed, with their new location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QapDelta(Vec<(u32, u32)>);

impl QapDelta {
    /// Wrap explicit `(facility, new location)` entries — the wire
    /// decoder's constructor.
    pub fn new(changes: Vec<(u32, u32)>) -> QapDelta {
        QapDelta(changes)
    }

    /// The `(facility, new location)` entries of this delta.
    pub fn changes(&self) -> &[(u32, u32)] {
        &self.0
    }
}

impl WireSized for QapDelta {
    /// 8 bytes per changed facility (facility id + location, 4 + 4).
    fn wire_bytes(&self) -> u64 {
        8 * self.0.len() as u64
    }
}

impl DeltaSnapshot for QapAssignment {
    type Delta = QapDelta;

    fn diff(base: &QapAssignment, new: &QapAssignment) -> QapDelta {
        QapDelta(new.diff_from(base))
    }

    fn apply_delta(base: &QapAssignment, delta: &QapDelta) -> QapAssignment {
        QapAssignment::with_changes(base, &delta.0)
    }

    /// The k changed facilities permute their own locations; each cycle
    /// of c members takes c − 1 swaps, so the path has k − (number of
    /// cycles) swaps. It is found from `base` and the k entries alone,
    /// with nothing of size n allocated.
    ///
    /// `None` past n/4 swaps (`MAX_PATH_DIVISOR`), and for a delta that is
    /// no permutation of `base`'s locations (a facility listed twice, or a
    /// location whose holder does not move).
    fn swap_path(base: &QapAssignment, delta: &QapDelta) -> Option<Vec<(usize, usize)>> {
        let n = base.len();
        let max_swaps = n / MAX_PATH_DIVISOR;
        let changes = delta.changes();
        // Every cycle of a diff has at least two members, so at least k/2
        // swaps; a longer path is known before any work.
        if changes.len() > 2 * max_swaps {
            return None;
        }
        // Each changed facility's current location, sorted: the holder of
        // the location a facility moves to.
        let mut holders = Vec::with_capacity(changes.len());
        for (i, &(facility, _)) in changes.iter().enumerate() {
            holders.push((*base.as_slice().get(facility as usize)?, i));
        }
        holders.sort_unstable();
        if holders.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
        let holder = |location: u32| {
            let at = holders.binary_search_by_key(&(location as usize), |&(l, _)| l);
            at.ok().map(|at| holders[at].1)
        };
        // Cycle i₀ → i₁ → …, where iⱼ₊₁ holds the location iⱼ moves to:
        // swapping iⱼ with iⱼ₊₁ settles iⱼ and hands iⱼ₊₁ the cycle's
        // first location, which the last member moves to.
        let mut seen = vec![false; changes.len()];
        let mut path = Vec::new();
        for start in 0..changes.len() {
            if seen[start] {
                continue;
            }
            seen[start] = true;
            let mut i = start;
            loop {
                let next = holder(changes[i].1)?;
                if next == start {
                    break;
                }
                if seen[next] || path.len() == max_swaps {
                    return None;
                }
                seen[next] = true;
                path.push((changes[i].0 as usize, changes[next].0 as usize));
                i = next;
            }
        }
        Some(path)
    }
}

/// A CLW follows a swap path of at most `n / MAX_PATH_DIVISOR` swaps and
/// restores past it. A swap is about 2n multiply-adds, and a restore that
/// misses the cost memo an O(n²) sum of about n²/2. The bound was set where
/// the longest path followed, one walk per swap, cost as much as the
/// restore. `apply_all` now prices two swaps per walk, so at the bound a
/// followed path costs about half a restore. The bound stays: moving it
/// changes which syncs restore, and so the CLWs' running cost bits and
/// every QAP golden.
const MAX_PATH_DIVISOR: usize = 4;

/// The QAP domain: one instance (flow/distance matrices) shared by value.
#[derive(Clone)]
pub struct QapDomain {
    instance: Qap,
}

impl QapDomain {
    /// Wrap an explicit QAP instance as a run domain.
    pub fn new(instance: Qap) -> QapDomain {
        QapDomain { instance }
    }

    /// Random symmetric instance, deterministic in `seed`.
    pub fn random(n: usize, seed: u64) -> QapDomain {
        QapDomain::new(Qap::random(n, seed))
    }

    /// The wrapped reference instance (workers clone from it).
    pub fn instance(&self) -> &Qap {
        &self.instance
    }
}

impl PtsDomain for QapDomain {
    type Problem = Qap;

    fn name(&self) -> &str {
        "qap"
    }

    fn domain_size(&self) -> usize {
        self.instance.n()
    }

    /// Fresh random assignment, deterministic in `seed` (independent of
    /// the instance's own starting assignment).
    fn initial(&self, seed: u64) -> QapAssignment {
        let n = self.instance.n();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = Rng::new(seed ^ 0x1317);
        rng.shuffle(&mut order);
        QapAssignment::new(order)
    }

    fn instantiate(&self, snapshot: &QapAssignment) -> Qap {
        let mut q = self.instance.clone();
        q.restore(snapshot);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_is_seed_deterministic_permutation() {
        let d = QapDomain::random(12, 5);
        let a = d.initial(42);
        let b = d.initial(42);
        let c = d.initial(43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.as_slice().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>(), "must be a permutation");
    }

    #[test]
    fn instantiate_positions_problem_at_snapshot() {
        let d = QapDomain::random(10, 7);
        let snap = d.initial(1);
        let q = d.instantiate(&snap);
        assert_eq!(q.snapshot_assignment(), snap.as_slice());
        assert!((q.cost() - q.cost_exact()).abs() < 1e-9);
    }

    #[test]
    fn assignment_wire_size_scales() {
        let v = QapAssignment::new((0..30).collect());
        assert_eq!(v.wire_bytes(), 240);
    }

    /// A target `k` facilities away from a random `base`: the chosen
    /// facilities trade locations along a random derangement. Returns the
    /// pair and the derangement's cycle count.
    fn permuted_pair(n: usize, k: usize, rng: &mut Rng) -> (QapAssignment, QapAssignment, usize) {
        let mut loc: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut loc);
        let mut facilities: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut facilities);
        facilities.truncate(k);
        let mut perm: Vec<usize> = (0..k).collect();
        while k > 0 && perm.iter().enumerate().any(|(i, &p)| i == p) {
            rng.shuffle(&mut perm);
        }
        let mut target = loc.clone();
        for (i, &f) in facilities.iter().enumerate() {
            target[f] = loc[facilities[perm[i]]];
        }
        let mut seen = vec![false; k];
        let mut cycles = 0;
        for start in 0..k {
            if !seen[start] {
                cycles += 1;
                let mut i = start;
                while !seen[i] {
                    seen[i] = true;
                    i = perm[i];
                }
            }
        }
        (QapAssignment::new(loc), QapAssignment::new(target), cycles)
    }

    #[test]
    fn swap_path_reaches_the_target_in_k_minus_c_swaps_up_to_n_over_4() {
        let mut rng = Rng::new(0x5A9);
        for n in [2, 3, 17, 256] {
            for k in (0..=n).filter(|&k| k != 1) {
                for _ in 0..3 {
                    let (base, target, cycles) = permuted_pair(n, k, &mut rng);
                    let delta = QapAssignment::diff(&base, &target);
                    assert_eq!(delta.changes().len(), k);
                    let swaps = k - cycles;
                    let path = QapAssignment::swap_path(&base, &delta);
                    if swaps > n / 4 {
                        assert_eq!(path, None, "n {n}, k {k}: {swaps} swaps");
                        continue;
                    }
                    let path = path.unwrap_or_else(|| panic!("n {n}, k {k}: no path"));
                    assert_eq!(path.len(), swaps, "n {n}, k {k}");
                    let mut walked = base.clone().into_vec();
                    for (a, b) in path {
                        walked.swap(a, b);
                    }
                    assert_eq!(walked, target.as_slice(), "n {n}, k {k}");
                }
            }
        }
    }

    #[test]
    fn swap_path_refuses_a_delta_that_is_no_permutation_of_its_base() {
        let base = QapAssignment::new((0..16).collect());
        let path =
            |changes: Vec<(u32, u32)>| QapAssignment::swap_path(&base, &QapDelta::new(changes));
        assert_eq!(path(vec![(0, 1), (1, 0)]), Some(vec![(0, 1)]));
        // Location 2's holder, facility 2, does not move.
        assert_eq!(path(vec![(0, 2), (1, 0)]), None);
        // Facility 0 listed twice.
        assert_eq!(path(vec![(0, 1), (0, 1), (1, 0)]), None);
        // Facility 16 does not exist; location 16 neither.
        assert_eq!(path(vec![(16, 0), (0, 1), (1, 0)]), None);
        assert_eq!(path(vec![(0, 16), (1, 0)]), None);
        // Two facilities bound for one location.
        assert_eq!(path(vec![(0, 1), (1, 1), (2, 0)]), None);
    }

    #[test]
    fn delta_roundtrip_and_wire_model() {
        let base = QapAssignment::new(vec![0, 1, 2, 3]);
        let new = QapAssignment::new(vec![1, 0, 2, 3]);
        let delta = <QapAssignment as DeltaSnapshot>::diff(&base, &new);
        assert_eq!(delta.changes(), [(0, 1), (1, 0)]);
        assert_eq!(delta.wire_bytes(), 16);
        assert_eq!(
            <QapAssignment as DeltaSnapshot>::apply_delta(&base, &delta),
            new
        );
    }
}
