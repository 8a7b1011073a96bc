//! Row-width (area) objective.
//!
//! With fixed die height, chip area is driven by the widest row: the area
//! objective is `max_row_width` (in sites). Swapping two cells in different
//! rows with different widths shifts row occupancy; the model keeps the
//! per-row sums plus the top-3 widest rows so a trial move computes the new
//! maximum in O(1).

use crate::placement::Placement;
use crate::top;
use pts_netlist::Netlist;

/// Cached per-row cell-width sums.
#[derive(Clone, Debug)]
pub struct RowAreaModel {
    row_width: Vec<u64>,
    /// Top-3 `(width, row)` entries, descending by width; rows distinct.
    top3: Vec<(u64, usize)>,
    total_width: u64,
}

impl RowAreaModel {
    pub fn new(netlist: &Netlist, placement: &Placement) -> RowAreaModel {
        let mut row_width = vec![0u64; placement.layout().num_rows()];
        for (id, cell) in netlist.cells() {
            row_width[placement.row_of(id)] += cell.width as u64;
        }
        let total_width = row_width.iter().sum();
        let mut model = RowAreaModel {
            row_width,
            top3: Vec::with_capacity(3),
            total_width,
        };
        model.rebuild_top3();
        model
    }

    fn rebuild_top3(&mut self) {
        let rows = self.row_width.iter().enumerate().map(|(row, &w)| (w, row));
        top::refill(&mut self.top3, 3, rows);
    }

    /// Current widest-row width: the area objective.
    #[inline]
    pub fn max_width(&self) -> u64 {
        self.top3.first().map(|&(w, _)| w).unwrap_or(0)
    }

    /// Width of a specific row.
    #[inline]
    pub fn row_width(&self, row: usize) -> u64 {
        self.row_width[row]
    }

    /// Sum of all cell widths (invariant under swaps).
    #[inline]
    pub fn total_width(&self) -> u64 {
        self.total_width
    }

    /// Perfectly balanced row width — the lower bound of `max_width`.
    pub fn ideal_width(&self) -> f64 {
        self.total_width as f64 / self.row_width.len() as f64
    }

    /// Imbalance ratio `max / ideal`, `>= 1`.
    pub fn imbalance(&self) -> f64 {
        self.max_width() as f64 / self.ideal_width().max(1e-9)
    }

    /// New `max_width` if a cell of width `wa` in `row_a` swapped with a
    /// cell of width `wb` in `row_b`.
    ///
    /// Read-only and O(1) against the cached top-3, so the batched
    /// candidate evaluator calls it once per candidate with no per-batch
    /// setup to hoist.
    #[inline]
    pub fn trial_max(&self, row_a: usize, wa: u64, row_b: usize, wb: u64) -> u64 {
        if row_a == row_b || wa == wb {
            return self.max_width();
        }
        let new_a = self.row_width[row_a] - wa + wb;
        let new_b = self.row_width[row_b] - wb + wa;
        let rest = self
            .top3
            .iter()
            .find(|&&(_, r)| r != row_a && r != row_b)
            .map(|&(w, _)| w)
            .unwrap_or_else(|| {
                // Fewer than three distinct rows cached (tiny layouts):
                // scan exactly.
                self.row_width
                    .iter()
                    .enumerate()
                    .filter(|&(r, _)| r != row_a && r != row_b)
                    .map(|(_, &w)| w)
                    .max()
                    .unwrap_or(0)
            });
        new_a.max(new_b).max(rest)
    }

    /// Apply a committed swap: widths `wa` (was in `row_a`) and `wb` (was in
    /// `row_b`) exchange rows.
    pub fn apply_swap(&mut self, row_a: usize, wa: u64, row_b: usize, wb: u64) {
        if row_a == row_b || wa == wb {
            return;
        }
        self.row_width[row_a] = self.row_width[row_a] - wa + wb;
        self.row_width[row_b] = self.row_width[row_b] - wb + wa;
        self.rebuild_top3();
    }

    /// Recompute from scratch (tests / after placement replacement).
    pub fn rebuild(&mut self, netlist: &Netlist, placement: &Placement) {
        *self = RowAreaModel::new(netlist, placement);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use pts_netlist::{generate, CellId, CircuitSpec};
    use pts_util::Rng;

    fn setup(seed: u64) -> (Netlist, Placement) {
        let nl = generate(&CircuitSpec {
            name: "area".into(),
            n_inputs: 5,
            n_outputs: 4,
            n_flipflops: 4,
            n_logic: 35,
            depth: 4,
            fanout_tail: 0.1,
            seed,
        });
        let mut rng = Rng::new(seed);
        let p = Placement::random(Layout::for_cells(nl.num_cells()), nl.num_cells(), &mut rng);
        (nl, p)
    }

    #[test]
    fn max_width_matches_scan() {
        let (nl, p) = setup(1);
        let m = RowAreaModel::new(&nl, &p);
        let scan = (0..p.layout().num_rows())
            .map(|r| m.row_width(r))
            .max()
            .unwrap();
        assert_eq!(m.max_width(), scan);
    }

    #[test]
    fn trial_matches_apply() {
        let (nl, mut p) = setup(2);
        let mut m = RowAreaModel::new(&nl, &p);
        let mut rng = Rng::new(17);
        for _ in 0..300 {
            let a = CellId(rng.index(nl.num_cells()) as u32);
            let mut b = a;
            while b == a {
                b = CellId(rng.index(nl.num_cells()) as u32);
            }
            let (ra, rb) = (p.row_of(a), p.row_of(b));
            let (wa, wb) = (nl.cell(a).width as u64, nl.cell(b).width as u64);
            let predicted = m.trial_max(ra, wa, rb, wb);
            p.swap_cells(a, b);
            m.apply_swap(ra, wa, rb, wb);
            assert_eq!(predicted, m.max_width(), "trial must predict commit");
            // Cross-check against scratch.
            let fresh = RowAreaModel::new(&nl, &p);
            assert_eq!(m.max_width(), fresh.max_width());
            assert_eq!(m.total_width(), fresh.total_width());
        }
    }

    #[test]
    fn same_row_swap_is_neutral() {
        let (nl, p) = setup(3);
        let m = RowAreaModel::new(&nl, &p);
        // Find two cells in the same row.
        let mut pair = None;
        'outer: for i in 0..nl.num_cells() {
            for j in i + 1..nl.num_cells() {
                let (a, b) = (CellId(i as u32), CellId(j as u32));
                if p.row_of(a) == p.row_of(b) {
                    pair = Some((a, b));
                    break 'outer;
                }
            }
        }
        let (a, b) = pair.expect("some row has two cells");
        let r = p.row_of(a);
        let t = m.trial_max(r, nl.cell(a).width as u64, r, nl.cell(b).width as u64);
        assert_eq!(t, m.max_width());
    }

    #[test]
    fn imbalance_at_least_one() {
        let (nl, p) = setup(4);
        let m = RowAreaModel::new(&nl, &p);
        assert!(m.imbalance() >= 1.0);
        assert!(m.ideal_width() > 0.0);
    }

    #[test]
    fn total_width_invariant_under_swaps() {
        let (nl, mut p) = setup(5);
        let mut m = RowAreaModel::new(&nl, &p);
        let before = m.total_width();
        let mut rng = Rng::new(5);
        for _ in 0..50 {
            let a = CellId(rng.index(nl.num_cells()) as u32);
            let mut b = a;
            while b == a {
                b = CellId(rng.index(nl.num_cells()) as u32);
            }
            let (ra, rb) = (p.row_of(a), p.row_of(b));
            p.swap_cells(a, b);
            m.apply_swap(ra, nl.cell(a).width as u64, rb, nl.cell(b).width as u64);
        }
        assert_eq!(m.total_width(), before);
    }
}
