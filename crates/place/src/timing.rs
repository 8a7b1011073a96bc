//! Static timing analysis with a placement-dependent net delay model.
//!
//! Net delay is linear in HPWL: `d(net) = alpha * hpwl(net)`. Arrival times
//! propagate from timing sources (input pads, flip-flop outputs) through
//! combinational logic to endpoints (output pads, flip-flop inputs); the
//! **critical delay** is the longest such path.
//!
//! # Incremental trial evaluation
//!
//! A full forward sweep runs when a model is built (one O(V+E) pass),
//! caching per-cell arrivals and per-net delays. For a *trial* move that
//! changes the lengths of a few nets, the new critical delay is computed
//! **exactly** by incremental re-propagation over the affected cone:
//!
//! - The changed nets' trial delays go into an epoch-stamped per-net
//!   overlay, so every in-edge finds its delay in O(1). A net listed twice
//!   keeps its first entry.
//! - Cells are queued in per-level buckets keyed by [`TimingGraph::level`],
//!   and the levels are swept upward. A logic cell's predecessors all sit
//!   on lower levels, so the sweep is a topological order: every cell sees
//!   final inputs. A cell is queued only when an in-edge that changed can
//!   move its max input (see below): a sink of a changed net, or a fan-out
//!   of a cell whose output arrival moved.
//! - New arrivals land in an epoch-stamped per-cell overlay. The cached
//!   state is never mutated, so no undo is needed and consecutive trials
//!   are independent.
//! - The critical delay is the max of the endpoints the walk reached,
//!   re-derived, and the largest cached arrival of the others.
//!
//! Work is bounded by the part of the fan-out cone whose arrivals move,
//! which for a two-cell swap is a small fraction of the circuit. A commit
//! runs the same walk and writes the overlay back.
//!
//! # Which cells the walk sweeps
//!
//! A swept logic cell whose output arrival moves by more than a tolerance
//! `τ` (1e-15) is *touched*: its new arrivals go into the overlay and its
//! fan-out is tested. A cell whose output moves by `τ` or less keeps its
//! cached arrivals. Its in-edges did move, so its cached input arrival `A`
//! can differ from `M`, the max over its in-edges of cached driver arrival
//! plus cached net delay. The gap is bounded. Let `X = fl(A + d)` be the
//! cached output arrival, `d` the intrinsic delay, `Y = fl(M + d)` the
//! output the sweep found, and `u = ε/2` the unit roundoff. A rounding
//! moves a value by at most `u` times the rounded value, and the sweep
//! left the cell, so `|X − Y| ≤ τ(1 + 2u)`. Then
//!
//! ```text
//! |A − M| ≤ |A + d − X| + |X − Y| + |Y − (M + d)|
//!         ≤ u|X| + τ(1 + 2u) + u(|X| + τ(1 + 2u))
//!         ≤ τ(1 + 2ε) + ε|X|.
//! ```
//!
//! The gap does not grow: a later sweep that leaves the cell compares
//! against the same `X` again. The margin the walk allows is
//! `τ + 4ε·max(|X|, |A|)`. It covers the gap and the rounding of the test
//! itself once `A > τ`; below that, the test's floor is not positive and
//! `M`, a max seeded with 0, is not negative. An endpoint is rewritten
//! whenever it is re-derived, so its `A` equals `M` exactly and the margin
//! is only slack.
//!
//! An in-edge of a cell *changes* when its net is in the changed list or
//! its driver is touched; the others read cached values in the sweep. The
//! walk queues the cell unless both the edge's cached value and its trial
//! value lie below `A` by more than the margin. If every changed in-edge
//! fails that test, each lies below `M` before and after, so the max is
//! still `M`, bit for bit, since a max returns one of its operands. The
//! sweep would find `Y` again and leave the cell. Skipping it therefore
//! changes nothing: the touched cells, every arrival and every critical
//! delay are those of the unpruned walk. The test is a negated `<`, so a
//! NaN anywhere queues the cell.
//!
//! The test runs at two sites:
//!
//! - **Fan-out.** A touched cell tests each out-edge with its new output
//!   arrival.
//! - **Seed edges.** Each sink of a changed net is tested with the driver's
//!   *cached* arrival and the net's trial delay. If the sweep later touches
//!   the driver, its fan-out loop tests the same edge again with the new
//!   arrival. The driver sits on a lower level than the sink, so that test
//!   runs before the sink's level is swept.
//!
//! # Endpoint leaders
//!
//! The model keeps the four largest cached endpoint arrivals, rebuilt on
//! every full refresh and after every commit that rewrites an endpoint.
//! Every endpoint outside the leaders lies at or below the last of them,
//! so the largest endpoint the walk did not reach is the first leader that
//! it did not reach. A trial takes the max of that and the endpoints it
//! re-derived. Only when every leader was reached does it scan all
//! endpoints.

use crate::top;
use crate::wirelength::WirelengthModel;
use pts_netlist::{CellId, NetId, Netlist, TimingGraph};

/// A swept cell whose output arrival moves by no more than this keeps its
/// cached arrivals, and the walk does not go past it.
const TOLERANCE: f64 = 1e-15;

/// How many of the largest cached endpoint arrivals the model keeps.
const LEADERS: usize = 4;

/// How far below a cell's cached input arrival `arrival_in` an in-edge's
/// value must lie before it cannot be the cell's max input (module docs).
#[inline]
fn staleness_margin(arrival_out: f64, arrival_in: f64) -> f64 {
    TOLERANCE + 4.0 * f64::EPSILON * arrival_out.abs().max(arrival_in.abs())
}

/// Cached timing state for one placement.
#[derive(Clone, Debug)]
pub struct StaModel {
    alpha: f64,
    /// Arrival time at each cell's *output* (sources and logic).
    arrival_out: Vec<f64>,
    /// Arrival time at each cell's *input* (logic and endpoints).
    arrival_in: Vec<f64>,
    /// Cached delay of each net under the current placement.
    net_delay: Vec<f64>,
    /// Current critical (longest) path delay.
    critical: f64,
    // --- trial-evaluation scratch (epoch-stamped overlays) ---
    overlay_out: Vec<f64>,
    overlay_in: Vec<f64>,
    overlay_stamp: Vec<u32>,
    queued_stamp: Vec<u32>,
    endpoint_dirty_stamp: Vec<u32>,
    /// Trial delay of each changed net, valid where `net_stamp == gen`.
    net_overlay: Vec<f64>,
    net_stamp: Vec<u32>,
    gen: u32,
    /// Queued logic cells, one bucket per logic level.
    buckets: Vec<Vec<CellId>>,
    /// Logic cells whose overlay entries changed in the current epoch.
    touched: Vec<CellId>,
    /// Endpoints the current epoch re-derives, each once.
    dirty_endpoints: Vec<CellId>,
    /// The [`LEADERS`] largest cached endpoint input arrivals, descending.
    leaders: Vec<(f64, CellId)>,
}

impl StaModel {
    /// Build and run the first full analysis.
    pub fn new(
        netlist: &Netlist,
        timing: &TimingGraph,
        wirelength: &WirelengthModel,
        alpha: f64,
    ) -> StaModel {
        assert!(alpha >= 0.0, "net-delay coefficient must be non-negative");
        let n = netlist.num_cells();
        let m = netlist.num_nets();
        let mut model = StaModel {
            alpha,
            arrival_out: vec![0.0; n],
            arrival_in: vec![0.0; n],
            net_delay: vec![0.0; m],
            critical: 0.0,
            overlay_out: vec![0.0; n],
            overlay_in: vec![0.0; n],
            overlay_stamp: vec![0; n],
            queued_stamp: vec![0; n],
            endpoint_dirty_stamp: vec![0; n],
            net_overlay: vec![0.0; m],
            net_stamp: vec![0; m],
            gen: 0,
            buckets: vec![Vec::new(); timing.max_level() as usize + 1],
            touched: Vec::new(),
            dirty_endpoints: Vec::new(),
            leaders: Vec::with_capacity(LEADERS),
        };
        model.refresh(netlist, timing, wirelength);
        model
    }

    /// Net-delay coefficient.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Current critical path delay.
    #[inline]
    pub fn critical(&self) -> f64 {
        self.critical
    }

    /// Arrival time at a cell's output.
    #[inline]
    pub fn arrival_out(&self, cell: CellId) -> f64 {
        self.arrival_out[cell.index()]
    }

    /// Arrival time at a cell's input (meaningful for logic and endpoints).
    #[inline]
    pub fn arrival_in(&self, cell: CellId) -> f64 {
        self.arrival_in[cell.index()]
    }

    /// Cached delay of a net under the current placement.
    #[inline]
    pub fn net_delay(&self, net: NetId) -> f64 {
        self.net_delay[net.index()]
    }

    /// Full forward refresh using cached HPWLs.
    pub fn refresh(
        &mut self,
        netlist: &Netlist,
        timing: &TimingGraph,
        wirelength: &WirelengthModel,
    ) {
        self.refresh_from_lengths(netlist, timing, |net| wirelength.net_hpwl(net));
    }

    /// Full refresh with an arbitrary net-length source (exposed for tests
    /// and what-if analysis).
    pub fn refresh_from_lengths(
        &mut self,
        netlist: &Netlist,
        timing: &TimingGraph,
        net_hpwl: impl Fn(NetId) -> f64,
    ) {
        for nid in netlist.net_ids() {
            self.net_delay[nid.index()] = self.alpha * net_hpwl(nid);
        }
        for &s in timing.sources() {
            self.arrival_out[s.index()] = netlist.cell(s).intrinsic_delay;
            self.arrival_in[s.index()] = 0.0;
        }
        for &v in timing.topo_logic() {
            let mut a_in = 0.0f64;
            for e in timing.in_edges(v) {
                let a = self.arrival_out[e.from.index()] + self.net_delay[e.net.index()];
                a_in = a_in.max(a);
            }
            self.arrival_in[v.index()] = a_in;
            self.arrival_out[v.index()] = a_in + netlist.cell(v).intrinsic_delay;
        }
        let mut critical = 0.0f64;
        for &v in timing.endpoints() {
            let mut a_in = 0.0f64;
            for e in timing.in_edges(v) {
                let a = self.arrival_out[e.from.index()] + self.net_delay[e.net.index()];
                a_in = a_in.max(a);
            }
            self.arrival_in[v.index()] = a_in;
            critical = critical.max(a_in);
        }
        self.critical = critical;
        self.rebuild_leaders(timing);
    }

    /// Refill the leaders from the cached endpoint input arrivals.
    fn rebuild_leaders(&mut self, timing: &TimingGraph) {
        let arrival_in = &self.arrival_in;
        let endpoints = timing
            .endpoints()
            .iter()
            .map(|&ep| (arrival_in[ep.index()], ep));
        top::refill(&mut self.leaders, LEADERS, endpoints);
    }

    // The two overlay lookups read both candidates before testing the
    // stamp. The edge loop then keeps both arrays' pointers in registers;
    // testing first re-reads the chosen array's pointer from `self` on
    // every edge, which measured slower.
    #[inline]
    fn overlay_arrival_out(&self, cell: CellId) -> f64 {
        let i = cell.index();
        let (trial, cached) = (self.overlay_out[i], self.arrival_out[i]);
        if self.overlay_stamp[i] == self.gen {
            trial
        } else {
            cached
        }
    }

    #[inline]
    fn overlay_net_delay(&self, net: NetId) -> f64 {
        let i = net.index();
        let (trial, cached) = (self.net_overlay[i], self.net_delay[i]);
        if self.net_stamp[i] == self.gen {
            trial
        } else {
            cached
        }
    }

    /// Input arrival of `cell` under the overlays: the max, in edge order,
    /// over its in-edges of driver arrival plus net delay.
    #[inline]
    fn overlay_arrival_in(&self, timing: &TimingGraph, cell: CellId) -> f64 {
        let mut a_in = 0.0f64;
        for e in timing.in_edges(cell) {
            let a = self.overlay_arrival_out(e.from) + self.overlay_net_delay(e.net);
            a_in = a_in.max(a);
        }
        a_in
    }

    /// Exact critical delay if the given nets took the given new HPWLs.
    ///
    /// Incremental forward re-propagation over the affected cone; cached
    /// state is untouched (results live in an epoch-stamped overlay that is
    /// invalidated wholesale on the next call). Because consecutive calls
    /// are independent and the overlay/bucket scratch lives inside the
    /// model, a batched candidate evaluation can call this once per
    /// candidate against the same cached state with zero allocation after
    /// warm-up and bit-identical results to one-at-a-time trials.
    pub fn estimate(
        &mut self,
        netlist: &Netlist,
        timing: &TimingGraph,
        changed: &[(NetId, f64)],
    ) -> f64 {
        if changed.is_empty() {
            return self.critical;
        }
        self.propagate(netlist, timing, changed)
    }

    /// Apply new net lengths permanently: the same cone-bounded
    /// re-propagation as [`StaModel::estimate`], but the overlay is written
    /// back into the caches — an O(cone) alternative to
    /// [`StaModel::refresh`]'s O(V+E) sweep, exact by the same argument
    /// (verified against full refreshes in tests).
    pub fn commit_changes(
        &mut self,
        netlist: &Netlist,
        timing: &TimingGraph,
        changed: &[(NetId, f64)],
    ) {
        if changed.is_empty() {
            return;
        }
        let critical = self.propagate(netlist, timing, changed);
        // Write back: touched logic cells take their overlay arrivals...
        for i in 0..self.touched.len() {
            let c = self.touched[i];
            self.arrival_out[c.index()] = self.overlay_out[c.index()];
            self.arrival_in[c.index()] = self.overlay_in[c.index()];
        }
        // ...dirty endpoints take their recomputed input arrivals (their
        // output side — a flip-flop's launch — is unaffected)...
        for i in 0..self.dirty_endpoints.len() {
            let ep = self.dirty_endpoints[i];
            self.arrival_in[ep.index()] = self.overlay_in[ep.index()];
        }
        // ...and the changed nets take their trial delays, which for a net
        // listed twice is its first entry, as in the walk.
        for &(nid, _) in changed {
            self.net_delay[nid.index()] = self.net_overlay[nid.index()];
        }
        self.critical = critical;
        if !self.dirty_endpoints.is_empty() {
            self.rebuild_leaders(timing);
        }
    }

    /// Whether an in-edge of `cell` whose value moves from `old` to `new`
    /// can move the cell's max input: unless both lie below its cached
    /// input arrival by more than the staleness margin (module docs).
    #[inline]
    fn can_move(&self, cell: CellId, old: f64, new: f64) -> bool {
        let i = cell.index();
        let floor = self.arrival_in[i] - staleness_margin(self.arrival_out[i], self.arrival_in[i]);
        !(old < floor && new < floor)
    }

    /// Shared cone re-propagation. Fills the overlay (arrivals of affected
    /// logic cells, input arrivals of dirty endpoints, `touched` list) and
    /// returns the new critical delay. Cached state is not modified.
    fn propagate(
        &mut self,
        netlist: &Netlist,
        timing: &TimingGraph,
        changed: &[(NetId, f64)],
    ) -> f64 {
        // Fresh epoch for every stamp array.
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.overlay_stamp.fill(0);
            self.queued_stamp.fill(0);
            self.endpoint_dirty_stamp.fill(0);
            self.net_stamp.fill(0);
            self.gen = 1;
        }
        self.touched.clear();
        self.dirty_endpoints.clear();

        // Seed: each changed net takes its trial delay (the first entry
        // wins), and each sink whose max input the new delay can move is
        // queued. The driver's cached arrival stands in for its trial one:
        // if the sweep touches the driver, its fan-out loop tests the edge
        // again.
        for &(nid, h) in changed {
            let i = nid.index();
            if self.net_stamp[i] != self.gen {
                self.net_stamp[i] = self.gen;
                self.net_overlay[i] = self.alpha * h;
            }
            let net = netlist.net(nid);
            let launch = self.arrival_out[net.driver.index()];
            let (old, new) = (launch + self.net_delay[i], launch + self.net_overlay[i]);
            for &sink in &net.sinks {
                if self.can_move(sink, old, new) {
                    self.enqueue(timing, sink);
                }
            }
        }

        // Sweep the levels upward; predecessors always finalize first.
        // Processing a level only queues cells on higher ones.
        for level in 1..self.buckets.len() {
            let mut bucket = std::mem::take(&mut self.buckets[level]);
            for &v in &bucket {
                let a_in = self.overlay_arrival_in(timing, v);
                let a_out = a_in + netlist.cell(v).intrinsic_delay;
                // A cell is swept once per epoch, so its own overlay entry
                // is still unset here.
                let cached = self.arrival_out[v.index()];
                if (a_out - cached).abs() > TOLERANCE {
                    self.overlay_out[v.index()] = a_out;
                    self.overlay_in[v.index()] = a_in;
                    self.overlay_stamp[v.index()] = self.gen;
                    self.touched.push(v);
                    for e in timing.out_edges(v) {
                        let old = cached + self.net_delay[e.net.index()];
                        let new = a_out + self.overlay_net_delay(e.net);
                        if self.can_move(e.to, old, new) {
                            self.enqueue(timing, e.to);
                        }
                    }
                }
            }
            bucket.clear();
            self.buckets[level] = bucket;
        }

        // Critical = max of the dirty endpoints, re-derived, and the
        // largest clean one: the first leader the walk did not reach, or an
        // exact scan when it reached them all.
        let mut critical = 0.0f64;
        for i in 0..self.dirty_endpoints.len() {
            let ep = self.dirty_endpoints[i];
            let a = self.overlay_arrival_in(timing, ep);
            self.overlay_in[ep.index()] = a;
            critical = critical.max(a);
        }
        let clean = |ep: &CellId| self.endpoint_dirty_stamp[ep.index()] != self.gen;
        let rest = self
            .leaders
            .iter()
            .find(|(_, ep)| clean(ep))
            .map(|&(a, _)| a)
            .unwrap_or_else(|| {
                timing
                    .endpoints()
                    .iter()
                    .filter(|ep| clean(ep))
                    .fold(0.0f64, |acc, ep| acc.max(self.arrival_in[ep.index()]))
            });
        critical.max(rest)
    }

    fn enqueue(&mut self, timing: &TimingGraph, cell: CellId) {
        let level = timing.level(cell) as usize;
        if level == 0 {
            // Sinks are never inputs, so a level-0 sink is an endpoint: an
            // output pad or a flip-flop. Endpoints are not propagated
            // through; they are re-derived in the final max. (A flip-flop's
            // output arrival is fixed; only its input side is affected.)
            if self.endpoint_dirty_stamp[cell.index()] != self.gen {
                self.endpoint_dirty_stamp[cell.index()] = self.gen;
                self.dirty_endpoints.push(cell);
            }
        } else if self.queued_stamp[cell.index()] != self.gen {
            self.queued_stamp[cell.index()] = self.gen;
            self.buckets[level].push(cell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use crate::placement::Placement;
    use pts_netlist::{generate, Cell, CellKind, CircuitSpec, NetlistBuilder, TimingGraph};
    use pts_util::Rng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The cone walk this module ran before the level sweep, kept as the
    /// oracle the sweep must match bit for bit: cells pop from a min-heap
    /// keyed by their position in [`TimingGraph::topo_logic`], and every
    /// in-edge scans the changed-net list for its delay. It drives a
    /// [`StaModel`] of its own through that model's cached state, overlay
    /// and stamps, and never touches the net overlay or the buckets.
    struct HeapWalk {
        topo_pos: Vec<u32>,
        heap: BinaryHeap<Reverse<(u32, u32)>>,
    }

    impl HeapWalk {
        fn new(netlist: &Netlist, timing: &TimingGraph) -> HeapWalk {
            let mut topo_pos = vec![u32::MAX; netlist.num_cells()];
            for (pos, &c) in timing.topo_logic().iter().enumerate() {
                topo_pos[c.index()] = pos as u32;
            }
            HeapWalk {
                topo_pos,
                heap: BinaryHeap::new(),
            }
        }

        fn estimate(
            &mut self,
            m: &mut StaModel,
            netlist: &Netlist,
            timing: &TimingGraph,
            changed: &[(NetId, f64)],
        ) -> f64 {
            if changed.is_empty() {
                return m.critical;
            }
            self.propagate(m, netlist, timing, changed)
        }

        fn commit_changes(
            &mut self,
            m: &mut StaModel,
            netlist: &Netlist,
            timing: &TimingGraph,
            changed: &[(NetId, f64)],
        ) {
            if changed.is_empty() {
                return;
            }
            let critical = self.propagate(m, netlist, timing, changed);
            for &c in &m.touched {
                m.arrival_out[c.index()] = m.overlay_out[c.index()];
                m.arrival_in[c.index()] = m.overlay_in[c.index()];
            }
            for &ep in timing.endpoints() {
                if m.endpoint_dirty_stamp[ep.index()] == m.gen {
                    m.arrival_in[ep.index()] = m.overlay_in[ep.index()];
                }
            }
            for &(nid, h) in changed {
                m.net_delay[nid.index()] = m.alpha * h;
            }
            m.critical = critical;
        }

        fn propagate(
            &mut self,
            m: &mut StaModel,
            netlist: &Netlist,
            timing: &TimingGraph,
            changed: &[(NetId, f64)],
        ) -> f64 {
            m.gen = m.gen.wrapping_add(1);
            if m.gen == 0 {
                m.overlay_stamp.iter_mut().for_each(|s| *s = 0);
                m.queued_stamp.iter_mut().for_each(|s| *s = 0);
                m.endpoint_dirty_stamp.iter_mut().for_each(|s| *s = 0);
                m.gen = 1;
            }
            self.heap.clear();
            m.touched.clear();
            let delay_of = |m: &StaModel, n: NetId| -> f64 {
                for &(c, h) in changed {
                    if c == n {
                        return m.alpha * h;
                    }
                }
                m.net_delay[n.index()]
            };
            let arrival_out = |m: &StaModel, c: CellId| -> f64 {
                if m.overlay_stamp[c.index()] == m.gen {
                    m.overlay_out[c.index()]
                } else {
                    m.arrival_out[c.index()]
                }
            };
            for &(nid, _) in changed {
                for &sink in &netlist.net(nid).sinks {
                    self.enqueue(m, netlist, sink);
                }
            }
            while let Some(Reverse((_, cell_raw))) = self.heap.pop() {
                let v = CellId(cell_raw);
                let mut a_in = 0.0f64;
                for e in timing.in_edges(v) {
                    a_in = a_in.max(arrival_out(m, e.from) + delay_of(m, e.net));
                }
                let a_out = a_in + netlist.cell(v).intrinsic_delay;
                if (a_out - arrival_out(m, v)).abs() > 1e-15 {
                    m.overlay_out[v.index()] = a_out;
                    m.overlay_in[v.index()] = a_in;
                    m.overlay_stamp[v.index()] = m.gen;
                    m.touched.push(v);
                    for e in timing.out_edges(v) {
                        self.enqueue(m, netlist, e.to);
                    }
                }
            }
            let mut critical = 0.0f64;
            for &ep in timing.endpoints() {
                let a_in = if m.endpoint_dirty_stamp[ep.index()] == m.gen {
                    let mut a = 0.0f64;
                    for e in timing.in_edges(ep) {
                        a = a.max(arrival_out(m, e.from) + delay_of(m, e.net));
                    }
                    m.overlay_in[ep.index()] = a;
                    a
                } else {
                    m.arrival_in[ep.index()]
                };
                critical = critical.max(a_in);
            }
            critical
        }

        fn enqueue(&mut self, m: &mut StaModel, netlist: &Netlist, cell: CellId) {
            match netlist.cell(cell).kind {
                CellKind::Logic => {
                    if m.queued_stamp[cell.index()] != m.gen {
                        m.queued_stamp[cell.index()] = m.gen;
                        self.heap
                            .push(Reverse((self.topo_pos[cell.index()], cell.0)));
                    }
                }
                CellKind::Output | CellKind::FlipFlop => {
                    m.endpoint_dirty_stamp[cell.index()] = m.gen;
                }
                CellKind::Input => {}
            }
        }
    }

    /// Every cached quantity of two models, compared bit for bit.
    fn assert_same_state(fast: &StaModel, oracle: &StaModel, nl: &Netlist, what: &str) {
        assert_eq!(
            fast.critical().to_bits(),
            oracle.critical().to_bits(),
            "{what}: critical"
        );
        for c in nl.cell_ids() {
            assert_eq!(
                fast.arrival_out(c).to_bits(),
                oracle.arrival_out(c).to_bits(),
                "{what}: arrival_out({c})"
            );
            assert_eq!(
                fast.arrival_in(c).to_bits(),
                oracle.arrival_in(c).to_bits(),
                "{what}: arrival_in({c})"
            );
        }
        for nid in nl.net_ids() {
            assert_eq!(
                fast.net_delay(nid).to_bits(),
                oracle.net_delay(nid).to_bits(),
                "{what}: net_delay({nid})"
            );
        }
    }

    fn random_pair(rng: &mut Rng, n: usize) -> (CellId, CellId) {
        let a = CellId(rng.index(n) as u32);
        let mut b = a;
        while b == a {
            b = CellId(rng.index(n) as u32);
        }
        (a, b)
    }

    #[test]
    fn level_sweep_matches_heap_walk_bit_for_bit() {
        let shapes = [(3, 0.0), (5, 0.1), (8, 0.2), (11, 0.3), (14, 0.15)];
        for (i, (depth, fanout_tail)) in shapes.into_iter().enumerate() {
            let nl = generate(&CircuitSpec {
                name: "oracle".into(),
                n_inputs: 8,
                n_outputs: 6,
                n_flipflops: 9,
                n_logic: 120,
                depth,
                fanout_tail,
                seed: 500 + i as u64,
            });
            let tg = TimingGraph::build(&nl).unwrap();
            let mut rng = Rng::new(41 + i as u64);
            let n = nl.num_cells();
            let mut p = Placement::random(Layout::for_cells(n), n, &mut rng);
            let mut wl = WirelengthModel::new(&nl, &p);
            let mut fast = StaModel::new(&nl, &tg, &wl, 0.2);
            let mut oracle = fast.clone();
            let mut walk = HeapWalk::new(&nl, &tg);
            let mut nets = Vec::new();
            let mut commits = 0;
            for step in 0..400 {
                if step % 10 == 5 {
                    // Cross the epoch wrap within the next few calls. The
                    // steps since the last wrap left stamps at small
                    // epochs, which the restarted epochs revisit at once,
                    // so every stamp array must be reset at the wrap.
                    fast.gen = u32::MAX - 3;
                    oracle.gen = u32::MAX - 3;
                }
                let (a, b) = random_pair(&mut rng, n);
                wl.trial_swap_into(&nl, &p, a, b, &mut nets);
                let want = walk.estimate(&mut oracle, &nl, &tg, &nets);
                let got = fast.estimate(&nl, &tg, &nets);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "depth {depth}, step {step}: estimate"
                );
                if rng.index(3) == 0 {
                    p.swap_cells(a, b);
                    wl.commit_swap(&nl, &p, a, b);
                    walk.commit_changes(&mut oracle, &nl, &tg, &nets);
                    fast.commit_changes(&nl, &tg, &nets);
                    commits += 1;
                    assert_same_state(&fast, &oracle, &nl, &format!("depth {depth}, step {step}"));
                }
            }
            assert!(fast.gen < 1000, "the epoch wrapped");
            assert!(commits > 100);
        }
    }

    #[test]
    fn a_net_listed_twice_keeps_its_first_delay() {
        let spec = CircuitSpec {
            name: "dup".into(),
            n_inputs: 6,
            n_outputs: 5,
            n_flipflops: 5,
            n_logic: 60,
            depth: 6,
            fanout_tail: 0.2,
            seed: 9,
        };
        let nl = generate(&spec);
        let tg = TimingGraph::build(&nl).unwrap();
        let mut rng = Rng::new(5);
        let n = nl.num_cells();
        let p = Placement::random(Layout::for_cells(n), n, &mut rng);
        let wl = WirelengthModel::new(&nl, &p);
        let mut fast = StaModel::new(&nl, &tg, &wl, 0.2);
        let mut oracle = fast.clone();
        let mut walk = HeapWalk::new(&nl, &tg);
        for nid in nl.net_ids() {
            let h = wl.net_hpwl(nid);
            let twice = [(nid, 3.0 * h + 1.0), (nid, 0.0)];
            let first = fast.estimate(&nl, &tg, &twice[..1]);
            let got = fast.estimate(&nl, &tg, &twice);
            let want = walk.estimate(&mut oracle, &nl, &tg, &twice);
            assert_eq!(got.to_bits(), want.to_bits(), "{nid}: oracle");
            assert_eq!(got.to_bits(), first.to_bits(), "{nid}: first entry");
        }
    }

    /// The staleness bound the pruning relies on (module docs): a logic
    /// cell's cached input arrival lies within `τ(1 + 2ε) + ε|X|` of its
    /// in-edges' max, and an endpoint's equals it.
    fn assert_staleness_bound(m: &StaModel, tg: &TimingGraph, what: &str) {
        let max_in = |c: CellId| {
            tg.in_edges(c).iter().fold(0.0f64, |a, e| {
                a.max(m.arrival_out(e.from) + m.net_delay(e.net))
            })
        };
        for &v in tg.topo_logic() {
            let (a, x) = (m.arrival_in(v), m.arrival_out(v));
            let bound = TOLERANCE * (1.0 + 2.0 * f64::EPSILON) + f64::EPSILON * x.abs();
            assert!(
                (a - max_in(v)).abs() <= bound,
                "{what}: arrival_in({v}) {a} vs in-edge max {}",
                max_in(v)
            );
        }
        for &ep in tg.endpoints() {
            assert_eq!(
                m.arrival_in(ep).to_bits(),
                max_in(ep).to_bits(),
                "{what}: endpoint {ep}"
            );
        }
    }

    #[test]
    fn pruned_walk_matches_heap_walk_on_many_circuits() {
        // The debug build runs a fifth of the circuits, about a second.
        let circuits = if cfg!(debug_assertions) { 12 } else { 60 };
        for seed in 0..circuits {
            let mut rng = Rng::new(7_000 + seed);
            let depth = 2 + rng.index(14);
            let fanout_tail = 0.05 * rng.index(8) as f64;
            let alpha = [0.05, 0.1, 0.15, 0.2, 0.3, 0.7][rng.index(6)];
            let nl = generate(&CircuitSpec {
                name: "stress".into(),
                n_inputs: 4 + rng.index(8),
                n_outputs: 3 + rng.index(8),
                n_flipflops: rng.index(12),
                n_logic: 40 + rng.index(120),
                depth,
                fanout_tail,
                seed: 900 + seed,
            });
            let tg = TimingGraph::build(&nl).unwrap();
            let n = nl.num_cells();
            let mut p = Placement::random(Layout::for_cells(n), n, &mut rng);
            let mut wl = WirelengthModel::new(&nl, &p);
            let mut fast = StaModel::new(&nl, &tg, &wl, alpha);
            let mut oracle = fast.clone();
            let mut walk = HeapWalk::new(&nl, &tg);
            let mut nets = Vec::new();
            for step in 0..1000 {
                let what = format!("seed {seed} (depth {depth}, alpha {alpha}), step {step}");
                let (a, b) = random_pair(&mut rng, n);
                wl.trial_swap_into(&nl, &p, a, b, &mut nets);
                let want = walk.estimate(&mut oracle, &nl, &tg, &nets);
                let got = fast.estimate(&nl, &tg, &nets);
                assert_eq!(got.to_bits(), want.to_bits(), "{what}: estimate");
                if rng.index(2) == 0 {
                    p.swap_cells(a, b);
                    wl.commit_swap(&nl, &p, a, b);
                    walk.commit_changes(&mut oracle, &nl, &tg, &nets);
                    fast.commit_changes(&nl, &tg, &nets);
                    assert_same_state(&fast, &oracle, &nl, &what);
                    assert_staleness_bound(&fast, &tg, &what);
                }
            }
        }
    }

    #[test]
    fn pruning_prunes_and_touches_what_the_heap_walk_touches() {
        let nl = pts_netlist::c3540();
        let tg = TimingGraph::build(&nl).unwrap();
        let mut rng = Rng::new(3540);
        let n = nl.num_cells();
        let mut p = Placement::random(Layout::for_cells(n), n, &mut rng);
        let mut wl = WirelengthModel::new(&nl, &p);
        let mut fast = StaModel::new(&nl, &tg, &wl, 0.15);
        let mut oracle = fast.clone();
        let mut walk = HeapWalk::new(&nl, &tg);
        let mut nets = Vec::new();
        let sorted = |cells: &[CellId]| {
            let mut cells = cells.to_vec();
            cells.sort_unstable();
            cells
        };
        let stamped = |m: &StaModel, c: CellId| m.queued_stamp[c.index()] == m.gen;
        let dirty = |m: &StaModel, c: CellId| m.endpoint_dirty_stamp[c.index()] == m.gen;
        let (mut swept, mut popped) = (0, 0);
        for step in 0..2000 {
            let (a, b) = random_pair(&mut rng, n);
            wl.trial_swap_into(&nl, &p, a, b, &mut nets);
            if rng.index(4) == 0 {
                p.swap_cells(a, b);
                wl.commit_swap(&nl, &p, a, b);
                walk.commit_changes(&mut oracle, &nl, &tg, &nets);
                fast.commit_changes(&nl, &tg, &nets);
                assert_same_state(&fast, &oracle, &nl, &format!("step {step}"));
            } else {
                let want = walk.estimate(&mut oracle, &nl, &tg, &nets);
                let got = fast.estimate(&nl, &tg, &nets);
                assert_eq!(got.to_bits(), want.to_bits(), "step {step}: estimate");
            }
            assert_eq!(
                sorted(&fast.touched),
                sorted(&oracle.touched),
                "step {step}: touched"
            );
            for &ep in tg.endpoints() {
                assert!(
                    !dirty(&fast, ep) || dirty(&oracle, ep),
                    "step {step}: endpoint {ep} dirty only in the pruned walk"
                );
            }
            swept += nl.cell_ids().filter(|&c| stamped(&fast, c)).count();
            popped += nl.cell_ids().filter(|&c| stamped(&oracle, c)).count();
        }
        assert!(
            swept as f64 <= 0.6 * popped as f64,
            "swept {swept} cells where the heap walk popped {popped}"
        );
    }

    /// in(0) -> g1(1) -> g2(2) -> out(3), one row of 4 slots.
    fn chain() -> (Netlist, TimingGraph, Placement) {
        let mut b = NetlistBuilder::new("chain");
        let i = b.add_cell(Cell::new("i", CellKind::Input, 1, 0.0));
        let g1 = b.add_cell(Cell::new("g1", CellKind::Logic, 1, 1.0));
        let g2 = b.add_cell(Cell::new("g2", CellKind::Logic, 1, 2.0));
        let o = b.add_cell(Cell::new("o", CellKind::Output, 1, 0.0));
        b.add_net("n0", i, vec![g1]).unwrap();
        b.add_net("n1", g1, vec![g2]).unwrap();
        b.add_net("n2", g2, vec![o]).unwrap();
        let nl = b.finish().unwrap();
        let tg = TimingGraph::build(&nl).unwrap();
        let p = Placement::sequential(Layout::new(1, 4, 2.0, 1.0), 4);
        (nl, tg, p)
    }

    #[test]
    fn chain_critical_is_sum_of_stage_delays() {
        let (nl, tg, p) = chain();
        let wl = WirelengthModel::new(&nl, &p);
        let sta = StaModel::new(&nl, &tg, &wl, 0.5);
        // Each adjacent pair is 1.0 apart: net delay = 0.5 each.
        // Path: in(0) +0.5 +g1(1.0) +0.5 +g2(2.0) +0.5 = 4.5
        assert!(
            (sta.critical() - 4.5).abs() < 1e-9,
            "got {}",
            sta.critical()
        );
    }

    #[test]
    fn estimate_with_no_changes_returns_critical() {
        let (nl, tg, p) = chain();
        let wl = WirelengthModel::new(&nl, &p);
        let mut sta = StaModel::new(&nl, &tg, &wl, 0.5);
        let est = sta.estimate(&nl, &tg, &[]);
        assert!((est - sta.critical()).abs() < 1e-12);
    }

    #[test]
    fn estimate_tracks_increases_and_decreases_exactly() {
        let (nl, tg, p) = chain();
        let wl = WirelengthModel::new(&nl, &p);
        let mut sta = StaModel::new(&nl, &tg, &wl, 0.5);
        for new_len in [5.0, 0.2, 1.0, 3.7] {
            let changed = [(NetId(1), new_len)];
            let est = sta.estimate(&nl, &tg, &changed);
            let mut scratch = sta.clone();
            scratch.refresh_from_lengths(&nl, &tg, |n| {
                if n == NetId(1) {
                    new_len
                } else {
                    wl.net_hpwl(n)
                }
            });
            assert!(
                (est - scratch.critical()).abs() < 1e-9,
                "len {new_len}: estimate {est} vs exact {}",
                scratch.critical()
            );
        }
    }

    #[test]
    fn estimate_does_not_mutate_cached_state() {
        let (nl, tg, p) = chain();
        let wl = WirelengthModel::new(&nl, &p);
        let mut sta = StaModel::new(&nl, &tg, &wl, 0.5);
        let before = sta.critical();
        let _ = sta.estimate(&nl, &tg, &[(NetId(1), 100.0)]);
        assert_eq!(sta.critical(), before);
        // And a second estimate with no changes still agrees with cache.
        let est = sta.estimate(&nl, &tg, &[]);
        assert!((est - before).abs() < 1e-12);
    }

    #[test]
    fn refresh_matches_fresh_model_after_swaps() {
        let spec = CircuitSpec {
            name: "sta".into(),
            n_inputs: 6,
            n_outputs: 5,
            n_flipflops: 5,
            n_logic: 50,
            depth: 6,
            fanout_tail: 0.15,
            seed: 42,
        };
        let nl = generate(&spec);
        let tg = TimingGraph::build(&nl).unwrap();
        let mut rng = Rng::new(11);
        let mut p = Placement::random(Layout::for_cells(nl.num_cells()), nl.num_cells(), &mut rng);
        let mut wl = WirelengthModel::new(&nl, &p);
        let mut sta = StaModel::new(&nl, &tg, &wl, 0.2);
        for _ in 0..100 {
            let a = CellId(rng.index(nl.num_cells()) as u32);
            let mut b = a;
            while b == a {
                b = CellId(rng.index(nl.num_cells()) as u32);
            }
            p.swap_cells(a, b);
            wl.commit_swap(&nl, &p, a, b);
            sta.refresh(&nl, &tg, &wl);
            let fresh = StaModel::new(&nl, &tg, &wl, 0.2);
            assert!(
                (sta.critical() - fresh.critical()).abs() < 1e-9,
                "cached refresh drifted from scratch"
            );
        }
    }

    #[test]
    fn estimate_is_exact_for_random_swaps() {
        let spec = CircuitSpec {
            name: "sta2".into(),
            n_inputs: 6,
            n_outputs: 5,
            n_flipflops: 5,
            n_logic: 60,
            depth: 6,
            fanout_tail: 0.2,
            seed: 77,
        };
        let nl = generate(&spec);
        let tg = TimingGraph::build(&nl).unwrap();
        let mut rng = Rng::new(3);
        let p = Placement::random(Layout::for_cells(nl.num_cells()), nl.num_cells(), &mut rng);
        let mut wl = WirelengthModel::new(&nl, &p);
        let mut sta = StaModel::new(&nl, &tg, &wl, 0.2);
        for _ in 0..200 {
            let a = CellId(rng.index(nl.num_cells()) as u32);
            let mut b = a;
            while b == a {
                b = CellId(rng.index(nl.num_cells()) as u32);
            }
            let trial = wl.trial_swap(&nl, &p, a, b);
            let est = sta.estimate(&nl, &tg, &trial.nets);
            let mut scratch = sta.clone();
            scratch.refresh_from_lengths(&nl, &tg, |n| {
                trial
                    .nets
                    .iter()
                    .find(|&&(c, _)| c == n)
                    .map(|&(_, h)| h)
                    .unwrap_or_else(|| wl.net_hpwl(n))
            });
            assert!(
                (est - scratch.critical()).abs() < 1e-9,
                "estimate {est} vs exact {}",
                scratch.critical()
            );
        }
    }

    #[test]
    fn commit_changes_equals_full_refresh() {
        let spec = CircuitSpec {
            name: "commit".into(),
            n_inputs: 7,
            n_outputs: 6,
            n_flipflops: 6,
            n_logic: 70,
            depth: 7,
            fanout_tail: 0.2,
            seed: 123,
        };
        let nl = generate(&spec);
        let tg = TimingGraph::build(&nl).unwrap();
        let mut rng = Rng::new(9);
        let mut p = Placement::random(Layout::for_cells(nl.num_cells()), nl.num_cells(), &mut rng);
        let mut wl = WirelengthModel::new(&nl, &p);
        let mut incremental = StaModel::new(&nl, &tg, &wl, 0.2);
        for step in 0..300 {
            let a = CellId(rng.index(nl.num_cells()) as u32);
            let mut b = a;
            while b == a {
                b = CellId(rng.index(nl.num_cells()) as u32);
            }
            let trial = wl.trial_swap(&nl, &p, a, b);
            p.swap_cells(a, b);
            wl.commit_swap(&nl, &p, a, b);
            incremental.commit_changes(&nl, &tg, &trial.nets);
            // Arrival caches must match a scratch-built model exactly.
            let fresh = StaModel::new(&nl, &tg, &wl, 0.2);
            assert!(
                (incremental.critical() - fresh.critical()).abs() < 1e-9,
                "step {step}: critical drifted ({} vs {})",
                incremental.critical(),
                fresh.critical()
            );
            for c in nl.cell_ids() {
                assert!(
                    (incremental.arrival_out(c) - fresh.arrival_out(c)).abs() < 1e-9,
                    "step {step}: arrival_out({c}) drifted"
                );
                assert!(
                    (incremental.arrival_in(c) - fresh.arrival_in(c)).abs() < 1e-9,
                    "step {step}: arrival_in({c}) drifted"
                );
            }
            for nid in nl.net_ids() {
                assert!(
                    (incremental.net_delay(nid) - fresh.net_delay(nid)).abs() < 1e-12,
                    "step {step}: net_delay({nid}) drifted"
                );
            }
        }
    }

    #[test]
    fn commit_changes_then_estimate_is_consistent() {
        let (nl, tg, p) = chain();
        let wl = WirelengthModel::new(&nl, &p);
        let mut sta = StaModel::new(&nl, &tg, &wl, 0.5);
        sta.commit_changes(&nl, &tg, &[(NetId(1), 5.0)]);
        // 0 + 0.5 + 1 + 2.5 + 2 + 0.5 = 6.5
        assert!(
            (sta.critical() - 6.5).abs() < 1e-9,
            "got {}",
            sta.critical()
        );
        // A follow-up estimate with no changes returns the committed value.
        let est = sta.estimate(&nl, &tg, &[]);
        assert!((est - 6.5).abs() < 1e-9);
        // And committing the reverse restores the original.
        sta.commit_changes(&nl, &tg, &[(NetId(1), 1.0)]);
        assert!((sta.critical() - 4.5).abs() < 1e-9);
    }

    #[test]
    fn commit_keeps_the_first_delay_of_a_net_listed_twice() {
        let (nl, tg, p) = chain();
        let wl = WirelengthModel::new(&nl, &p);
        let mut sta = StaModel::new(&nl, &tg, &wl, 0.5);
        sta.commit_changes(&nl, &tg, &[(NetId(1), 5.0), (NetId(1), 0.2)]);
        // 0 + 0.5 + 1 + 2.5 + 2 + 0.5 = 6.5, from the first entry...
        assert!(
            (sta.critical() - 6.5).abs() < 1e-9,
            "got {}",
            sta.critical()
        );
        let d1 = sta.net_delay(NetId(1));
        assert!((d1 - 2.5).abs() < 1e-12, "net_delay(n1) = {d1}");
        // ...and a later trial builds on it: 0 + 1.5 + 1 + 2.5 + 2 + 0.5.
        let est = sta.estimate(&nl, &tg, &[(NetId(0), 3.0)]);
        let mut fresh = sta.clone();
        fresh.refresh_from_lengths(&nl, &tg, |n| match n {
            NetId(0) => 3.0,
            NetId(1) => 5.0,
            _ => wl.net_hpwl(n),
        });
        assert!((fresh.critical() - 7.5).abs() < 1e-9);
        assert!(
            (est - fresh.critical()).abs() < 1e-9,
            "estimate {est} vs refreshed {}",
            fresh.critical()
        );
    }

    #[test]
    fn alpha_zero_reduces_to_pure_gate_delay() {
        let (nl, tg, p) = chain();
        let wl = WirelengthModel::new(&nl, &p);
        let sta = StaModel::new(&nl, &tg, &wl, 0.0);
        assert!((sta.critical() - 3.0).abs() < 1e-12); // 0 + 1 + 2
    }

    #[test]
    fn net_delay_cache_matches_alpha_times_hpwl() {
        let (nl, tg, p) = chain();
        let wl = WirelengthModel::new(&nl, &p);
        let sta = StaModel::new(&nl, &tg, &wl, 0.5);
        for nid in nl.net_ids() {
            assert!((sta.net_delay(nid) - 0.5 * wl.net_hpwl(nid)).abs() < 1e-12);
        }
    }
}
