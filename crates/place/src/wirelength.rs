//! Incremental half-perimeter wirelength (HPWL).
//!
//! Each net's bounding box is cached; a trial swap recomputes only the nets
//! incident to the two cells (found by a stamp-based dedup, no allocation in
//! the hot path) against hypothetical swapped positions. Committing updates
//! the caches. `total()` is a running sum of the per-net changes. Nothing
//! resums it during a search: it is re-anchored only when
//! `Evaluator::adopt_placement` builds a new model, and tests check it
//! against an exact resummation.

use crate::placement::Placement;
use pts_netlist::{CellId, NetId, Netlist};

/// Axis-aligned bounding box of a net's cell centers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetBox {
    pub min_x: f64,
    pub max_x: f64,
    pub min_y: f64,
    pub max_y: f64,
}

impl NetBox {
    #[inline]
    pub fn hpwl(&self) -> f64 {
        (self.max_x - self.min_x) + (self.max_y - self.min_y)
    }
}

/// Cached per-net bounding boxes + total HPWL.
#[derive(Clone, Debug)]
pub struct WirelengthModel {
    boxes: Vec<NetBox>,
    hpwl: Vec<f64>,
    total: f64,
    /// Stamp array for deduplicating affected nets across two cells.
    stamp: Vec<u32>,
    stamp_gen: u32,
    /// Scratch list of affected nets reused across calls.
    affected: Vec<NetId>,
}

/// Result of a trial swap: total HPWL change and per-net new lengths.
#[derive(Clone, Debug)]
pub struct WireTrial {
    pub delta: f64,
    /// (net, new_hpwl) for every net touched by the swap.
    pub nets: Vec<(NetId, f64)>,
}

impl WirelengthModel {
    /// Build caches for the current placement.
    pub fn new(netlist: &Netlist, placement: &Placement) -> WirelengthModel {
        let mut boxes = Vec::with_capacity(netlist.num_nets());
        let mut hpwl = Vec::with_capacity(netlist.num_nets());
        let mut total = 0.0;
        for (_, net) in netlist.nets() {
            let b = compute_box(net.cells(), placement);
            total += b.hpwl();
            hpwl.push(b.hpwl());
            boxes.push(b);
        }
        WirelengthModel {
            boxes,
            hpwl,
            total,
            stamp: vec![0; netlist.num_nets()],
            stamp_gen: 0,
            affected: Vec::new(),
        }
    }

    /// Current total HPWL.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Cached HPWL of one net.
    #[inline]
    pub fn net_hpwl(&self, net: NetId) -> f64 {
        self.hpwl[net.index()]
    }

    /// Cached bounding box of one net.
    #[inline]
    pub fn net_box(&self, net: NetId) -> &NetBox {
        &self.boxes[net.index()]
    }

    /// Collect the nets incident to `a` or `b`, deduplicated, into the
    /// internal scratch list.
    fn collect_affected(&mut self, netlist: &Netlist, a: CellId, b: CellId) {
        self.stamp_gen = self.stamp_gen.wrapping_add(1);
        if self.stamp_gen == 0 {
            // Wrapped: clear stamps to stay sound.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.stamp_gen = 1;
        }
        self.affected.clear();
        for &cell in &[a, b] {
            for &net in netlist.nets_of(cell) {
                let s = &mut self.stamp[net.index()];
                if *s != self.stamp_gen {
                    *s = self.stamp_gen;
                    self.affected.push(net);
                }
            }
        }
    }

    /// Evaluate the HPWL effect of swapping `a` and `b` without mutating
    /// anything. Returns the total delta and new per-net lengths.
    pub fn trial_swap(
        &mut self,
        netlist: &Netlist,
        placement: &Placement,
        a: CellId,
        b: CellId,
    ) -> WireTrial {
        let mut nets = Vec::new();
        let delta = self.trial_swap_into(netlist, placement, a, b, &mut nets);
        WireTrial { delta, nets }
    }

    /// [`WirelengthModel::trial_swap`] into a caller-owned buffer: `nets`
    /// is cleared and refilled with the `(net, new_hpwl)` pairs; the total
    /// delta is returned. Same computation in the same order as the
    /// allocating form — this is the batch kernel's entry point, letting
    /// one buffer serve a whole candidate batch.
    pub fn trial_swap_into(
        &mut self,
        netlist: &Netlist,
        placement: &Placement,
        a: CellId,
        b: CellId,
        nets: &mut Vec<(NetId, f64)>,
    ) -> f64 {
        self.collect_affected(netlist, a, b);
        let pa = placement.position(a);
        let pb = placement.position(b);
        let mut delta = 0.0;
        nets.clear();
        nets.reserve(self.affected.len());
        for i in 0..self.affected.len() {
            let nid = self.affected[i];
            let net = netlist.net(nid);
            let b_new = compute_box_swapped(net.cells(), placement, a, pb, b, pa);
            let new_len = b_new.hpwl();
            delta += new_len - self.hpwl[nid.index()];
            nets.push((nid, new_len));
        }
        delta
    }

    /// Apply a swap that the placement is about to make (or just made):
    /// update cached boxes and the running total. Call with the placement
    /// *already swapped*.
    pub fn commit_swap(&mut self, netlist: &Netlist, placement: &Placement, a: CellId, b: CellId) {
        self.collect_affected(netlist, a, b);
        for i in 0..self.affected.len() {
            let nid = self.affected[i];
            let net = netlist.net(nid);
            let bx = compute_box(net.cells(), placement);
            let new_len = bx.hpwl();
            self.total += new_len - self.hpwl[nid.index()];
            self.hpwl[nid.index()] = new_len;
            self.boxes[nid.index()] = bx;
        }
    }

    /// Recompute everything from scratch. Only tests and the `hpwl` bench
    /// call it; an evaluator that adopts a placement builds a new model.
    pub fn rebuild(&mut self, netlist: &Netlist, placement: &Placement) {
        let mut total = 0.0;
        for (nid, net) in netlist.nets() {
            let b = compute_box(net.cells(), placement);
            total += b.hpwl();
            self.hpwl[nid.index()] = b.hpwl();
            self.boxes[nid.index()] = b;
        }
        self.total = total;
    }
}

fn compute_box(cells: impl Iterator<Item = CellId>, placement: &Placement) -> NetBox {
    let mut b = NetBox {
        min_x: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        min_y: f64::INFINITY,
        max_y: f64::NEG_INFINITY,
    };
    for c in cells {
        let (x, y) = placement.position(c);
        b.min_x = b.min_x.min(x);
        b.max_x = b.max_x.max(x);
        b.min_y = b.min_y.min(y);
        b.max_y = b.max_y.max(y);
    }
    b
}

/// Bounding box with the positions of `a` and `b` exchanged.
fn compute_box_swapped(
    cells: impl Iterator<Item = CellId>,
    placement: &Placement,
    a: CellId,
    pos_a_new: (f64, f64),
    b: CellId,
    pos_b_new: (f64, f64),
) -> NetBox {
    let mut bx = NetBox {
        min_x: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        min_y: f64::INFINITY,
        max_y: f64::NEG_INFINITY,
    };
    for c in cells {
        let (x, y) = if c == a {
            pos_a_new
        } else if c == b {
            pos_b_new
        } else {
            placement.position(c)
        };
        bx.min_x = bx.min_x.min(x);
        bx.max_x = bx.max_x.max(x);
        bx.min_y = bx.min_y.min(y);
        bx.max_y = bx.max_y.max(y);
    }
    bx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use pts_netlist::{generate, CircuitSpec};
    use pts_util::Rng;

    fn setup(seed: u64) -> (pts_netlist::Netlist, Placement) {
        let nl = generate(&CircuitSpec {
            name: "wl".into(),
            n_inputs: 6,
            n_outputs: 4,
            n_flipflops: 4,
            n_logic: 40,
            depth: 5,
            fanout_tail: 0.2,
            seed,
        });
        let mut rng = Rng::new(seed ^ 0xABCD);
        let p = Placement::random(Layout::for_cells(nl.num_cells()), nl.num_cells(), &mut rng);
        (nl, p)
    }

    #[test]
    fn total_matches_scratch_sum() {
        let (nl, p) = setup(1);
        let wl = WirelengthModel::new(&nl, &p);
        let scratch: f64 = nl
            .nets()
            .map(|(_, net)| compute_box(net.cells(), &p).hpwl())
            .sum();
        assert!((wl.total() - scratch).abs() < 1e-9);
    }

    #[test]
    fn trial_matches_commit() {
        let (nl, mut p) = setup(2);
        let mut wl = WirelengthModel::new(&nl, &p);
        let mut rng = Rng::new(99);
        for _ in 0..200 {
            let a = CellId(rng.index(nl.num_cells()) as u32);
            let mut b = a;
            while b == a {
                b = CellId(rng.index(nl.num_cells()) as u32);
            }
            let trial = wl.trial_swap(&nl, &p, a, b);
            let before = wl.total();
            p.swap_cells(a, b);
            wl.commit_swap(&nl, &p, a, b);
            assert!(
                (wl.total() - (before + trial.delta)).abs() < 1e-6,
                "trial delta must predict committed total"
            );
        }
    }

    #[test]
    fn incremental_total_matches_rebuild_after_many_swaps() {
        let (nl, mut p) = setup(3);
        let mut wl = WirelengthModel::new(&nl, &p);
        let mut rng = Rng::new(7);
        for _ in 0..500 {
            let a = CellId(rng.index(nl.num_cells()) as u32);
            let mut b = a;
            while b == a {
                b = CellId(rng.index(nl.num_cells()) as u32);
            }
            p.swap_cells(a, b);
            wl.commit_swap(&nl, &p, a, b);
        }
        let incremental = wl.total();
        wl.rebuild(&nl, &p);
        assert!(
            (incremental - wl.total()).abs() < 1e-6,
            "incremental {incremental} vs rebuilt {}",
            wl.total()
        );
    }

    #[test]
    fn swap_within_same_nets_is_neutral_for_disjoint_nets() {
        // Swapping two cells that share every net leaves those nets' HPWL
        // unchanged (the set of positions is identical).
        let (nl, p) = setup(4);
        let mut wl = WirelengthModel::new(&nl, &p);
        // Find two cells on the same single net if any; otherwise skip.
        for (_, net) in nl.nets() {
            if net.sinks.len() >= 2 {
                let a = net.sinks[0];
                let b = net.sinks[1];
                if nl.nets_of(a).len() == 1 && nl.nets_of(b).len() == 1 {
                    let trial = wl.trial_swap(&nl, &p, a, b);
                    assert!(trial.delta.abs() < 1e-9);
                    return;
                }
            }
        }
    }

    #[test]
    fn trial_swap_into_matches_allocating_form_bitwise() {
        let (nl, p) = setup(6);
        let mut wl = WirelengthModel::new(&nl, &p);
        let mut rng = Rng::new(13);
        let mut buf: Vec<(NetId, f64)> = Vec::new();
        for _ in 0..100 {
            let a = CellId(rng.index(nl.num_cells()) as u32);
            let mut b = a;
            while b == a {
                b = CellId(rng.index(nl.num_cells()) as u32);
            }
            // Reused buffer (stale contents from the previous iteration)
            // must not leak into the result.
            let delta = wl.trial_swap_into(&nl, &p, a, b, &mut buf);
            let trial = wl.trial_swap(&nl, &p, a, b);
            assert_eq!(delta.to_bits(), trial.delta.to_bits());
            assert_eq!(buf, trial.nets);
        }
    }

    #[test]
    fn netbox_hpwl() {
        let b = NetBox {
            min_x: 1.0,
            max_x: 4.0,
            min_y: 2.0,
            max_y: 3.0,
        };
        assert!((b.hpwl() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn single_pin_pair_net_hpwl_is_manhattan_distance() {
        use pts_netlist::{Cell, CellKind, NetlistBuilder};
        let mut bld = NetlistBuilder::new("pair");
        let a = bld.add_cell(Cell::new("a", CellKind::Input, 1, 0.0));
        let b = bld.add_cell(Cell::new("b", CellKind::Output, 1, 0.0));
        bld.add_net("n", a, vec![b]).unwrap();
        let nl = bld.finish().unwrap();
        let p = Placement::sequential(Layout::new(1, 2, 2.0, 1.0), 2);
        let wl = WirelengthModel::new(&nl, &p);
        // positions (0.5,1.0) and (1.5,1.0): HPWL = 1.0
        assert!((wl.total() - 1.0).abs() < 1e-12);
    }
}
