//! Timing DAG extraction.
//!
//! Static timing analysis (in `pts-place`) propagates arrival times through
//! combinational logic only: paths *start* at primary inputs and flip-flop
//! outputs, and *end* at primary outputs and flip-flop inputs. Edges whose
//! driver is a timing source therefore carry a fixed launch time, which is
//! what lets sequential circuits (with feedback through flip-flops) map onto
//! an acyclic dependency structure over the combinational cells.

use crate::cell::{CellId, CellKind};
use crate::net::NetId;
use crate::netlist::Netlist;

/// A directed timing edge: signal travels driver → sink across a net.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimingEdge {
    pub from: CellId,
    pub to: CellId,
    pub net: NetId,
}

/// Error: the combinational logic contains a cycle (no flip-flop on it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CombinationalLoop {
    /// A cell known to lie on the cycle.
    pub witness: CellId,
}

impl std::fmt::Display for CombinationalLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "combinational loop through cell {}", self.witness)
    }
}

impl std::error::Error for CombinationalLoop {}

/// The timing structure of a netlist. Immutable once built; placement only
/// changes edge (net) delays, never the structure.
///
/// Edges are stored flat, in compressed sparse rows: all in-edges in one
/// array grouped by sink cell, all out-edges in another grouped by driver,
/// and per-cell offsets into each, so cell `c`'s fan-in is
/// `in_edges[in_start[c]..in_start[c + 1]]`. Within a cell the edges keep
/// netlist order (net by net, sink by sink). The incremental timing walk
/// reads these slices for every cell of every trial's cone, and every
/// evaluator shares one graph through an `Arc`.
#[derive(Clone, Debug)]
pub struct TimingGraph {
    /// In-edges of every cell, grouped by sink; the fan-in cones.
    in_edges: Vec<TimingEdge>,
    /// `in_edges` offset of each cell's group, plus the total at the end.
    in_start: Vec<u32>,
    /// Out-edges of every cell, grouped by driver; the fan-out cones.
    out_edges: Vec<TimingEdge>,
    /// `out_edges` offset of each cell's group, plus the total at the end.
    out_start: Vec<u32>,
    /// Combinational (`Logic`) cells in dependency order: every logic cell
    /// appears after all logic cells feeding it.
    topo_logic: Vec<CellId>,
    /// Cells where timing paths end (outputs, flip-flops with fan-in).
    endpoints: Vec<CellId>,
    /// Cells where timing paths start (inputs, flip-flops).
    sources: Vec<CellId>,
    /// Logic depth per cell: 0 for non-logic cells, 1 + max(pred) for logic.
    level: Vec<u32>,
}

impl TimingGraph {
    /// Build the timing DAG for a netlist.
    ///
    /// Returns an error if combinational cells form a cycle not broken by a
    /// flip-flop.
    pub fn build(netlist: &Netlist) -> Result<TimingGraph, CombinationalLoop> {
        let n = netlist.num_cells();
        // Counting pass: group sizes land one slot to the right of their
        // cell, so the prefix sum turns them into start offsets.
        let mut in_start = vec![0u32; n + 1];
        let mut out_start = vec![0u32; n + 1];
        for (_, net) in netlist.nets() {
            out_start[net.driver.index() + 1] += net.sinks.len() as u32;
            for &sink in &net.sinks {
                in_start[sink.index() + 1] += 1;
            }
        }
        for c in 0..n {
            in_start[c + 1] += in_start[c];
            out_start[c + 1] += out_start[c];
        }
        // Fill pass, in netlist order so each group keeps its edge order.
        let placeholder = TimingEdge {
            from: CellId(0),
            to: CellId(0),
            net: NetId(0),
        };
        let mut in_edges = vec![placeholder; in_start[n] as usize];
        let mut out_edges = vec![placeholder; out_start[n] as usize];
        let mut in_next = in_start.clone();
        let mut out_next = out_start.clone();
        for (nid, net) in netlist.nets() {
            for &sink in &net.sinks {
                let e = TimingEdge {
                    from: net.driver,
                    to: sink,
                    net: nid,
                };
                let slot = &mut in_next[sink.index()];
                in_edges[*slot as usize] = e;
                *slot += 1;
                let slot = &mut out_next[net.driver.index()];
                out_edges[*slot as usize] = e;
                *slot += 1;
            }
        }
        let fan_in = |c: CellId| group(&in_edges, &in_start, c);
        let fan_out = |c: CellId| group(&out_edges, &out_start, c);

        // Kahn's algorithm over logic cells only: an edge u->v constrains the
        // order iff both u and v are combinational (sources launch at fixed
        // time; endpoints terminate propagation).
        let is_logic = |c: CellId| netlist.cell(c).kind == CellKind::Logic;
        let mut indegree: Vec<u32> = vec![0; n];
        let mut logic_count = 0usize;
        for (id, cell) in netlist.cells() {
            if cell.kind == CellKind::Logic {
                logic_count += 1;
                indegree[id.index()] =
                    fan_in(id).iter().filter(|e| is_logic(e.from)).count() as u32;
            }
        }
        let mut queue: Vec<CellId> = netlist
            .cell_ids()
            .filter(|&c| is_logic(c) && indegree[c.index()] == 0)
            .collect();
        let mut topo_logic = Vec::with_capacity(logic_count);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            topo_logic.push(u);
            for e in fan_out(u) {
                if is_logic(e.to) {
                    let d = &mut indegree[e.to.index()];
                    *d -= 1;
                    if *d == 0 {
                        queue.push(e.to);
                    }
                }
            }
        }
        if topo_logic.len() != logic_count {
            let witness = netlist
                .cell_ids()
                .find(|&c| is_logic(c) && indegree[c.index()] > 0)
                .expect("cycle implies a remaining positive-indegree cell");
            return Err(CombinationalLoop { witness });
        }

        // Logic depth.
        let mut level = vec![0u32; n];
        for &u in &topo_logic {
            let l = fan_in(u)
                .iter()
                .map(|e| {
                    if is_logic(e.from) {
                        level[e.from.index()] + 1
                    } else {
                        1
                    }
                })
                .max()
                .unwrap_or(1);
            level[u.index()] = l;
        }

        let endpoints: Vec<CellId> = netlist
            .cells()
            .filter(|&(id, c)| c.kind.is_timing_endpoint() && !fan_in(id).is_empty())
            .map(|(id, _)| id)
            .collect();
        let sources: Vec<CellId> = netlist
            .cells()
            .filter(|(_, c)| c.kind.is_timing_source())
            .map(|(id, _)| id)
            .collect();

        Ok(TimingGraph {
            in_edges,
            in_start,
            out_edges,
            out_start,
            topo_logic,
            endpoints,
            sources,
            level,
        })
    }

    /// A cell's fan-in edges, in netlist order.
    #[inline]
    pub fn in_edges(&self, cell: CellId) -> &[TimingEdge] {
        group(&self.in_edges, &self.in_start, cell)
    }

    /// A cell's fan-out edges, in netlist order.
    #[inline]
    pub fn out_edges(&self, cell: CellId) -> &[TimingEdge] {
        group(&self.out_edges, &self.out_start, cell)
    }

    /// Combinational cells in topological (fan-in before fan-out) order.
    #[inline]
    pub fn topo_logic(&self) -> &[CellId] {
        &self.topo_logic
    }

    #[inline]
    pub fn endpoints(&self) -> &[CellId] {
        &self.endpoints
    }

    #[inline]
    pub fn sources(&self) -> &[CellId] {
        &self.sources
    }

    /// Logic depth of a cell (0 for non-logic).
    #[inline]
    pub fn level(&self, cell: CellId) -> u32 {
        self.level[cell.index()]
    }

    /// Maximum logic depth in the circuit.
    pub fn max_level(&self) -> u32 {
        self.level.iter().copied().max().unwrap_or(0)
    }

    /// Total number of timing edges.
    pub fn num_edges(&self) -> usize {
        self.in_edges.len()
    }
}

/// One cell's group of a CSR edge array.
#[inline]
fn group<'a>(edges: &'a [TimingEdge], start: &[u32], cell: CellId) -> &'a [TimingEdge] {
    let i = cell.index();
    &edges[start[i] as usize..start[i + 1] as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::cell::Cell;

    fn cell(kind: CellKind) -> Cell {
        Cell::new(format!("{kind:?}"), kind, 1, 1.0)
    }

    /// in -> g1 -> g2 -> out, plus ff in a feedback loop g2 -> ff -> g1.
    fn sequential_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("seq");
        let i = b.add_cell(cell(CellKind::Input));
        let g1 = b.add_cell(cell(CellKind::Logic));
        let g2 = b.add_cell(cell(CellKind::Logic));
        let o = b.add_cell(cell(CellKind::Output));
        let ff = b.add_cell(cell(CellKind::FlipFlop));
        b.add_net("ni", i, vec![g1]).unwrap();
        b.add_net("n1", g1, vec![g2]).unwrap();
        b.add_net("n2", g2, vec![o, ff]).unwrap();
        b.add_net("nq", ff, vec![g1]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn sequential_feedback_is_acyclic() {
        let nl = sequential_netlist();
        let tg = TimingGraph::build(&nl).expect("FF breaks the cycle");
        assert_eq!(tg.topo_logic().len(), 2);
        // g1 must come before g2.
        let g1 = nl.find_cell("Logic").unwrap();
        let pos = |c| tg.topo_logic().iter().position(|&x| x == c).unwrap();
        assert!(pos(g1) < pos(CellId(2)));
    }

    #[test]
    fn combinational_loop_detected() {
        let mut b = NetlistBuilder::new("loop");
        let i = b.add_cell(cell(CellKind::Input));
        let g1 = b.add_cell(cell(CellKind::Logic));
        let g2 = b.add_cell(cell(CellKind::Logic));
        let o = b.add_cell(cell(CellKind::Output));
        b.add_net("ni", i, vec![g1]).unwrap();
        b.add_net("n1", g1, vec![g2]).unwrap();
        b.add_net("n2", g2, vec![g1, o]).unwrap();
        let nl = b.finish().unwrap();
        let err = TimingGraph::build(&nl).unwrap_err();
        assert!(err.to_string().contains("combinational loop"));
    }

    #[test]
    fn endpoints_and_sources() {
        let nl = sequential_netlist();
        let tg = TimingGraph::build(&nl).unwrap();
        // Endpoints: the output pad and the flip-flop (it has fan-in).
        assert_eq!(tg.endpoints().len(), 2);
        // Sources: the input pad and the flip-flop.
        assert_eq!(tg.sources().len(), 2);
    }

    #[test]
    fn levels_monotone_along_edges() {
        let nl = sequential_netlist();
        let tg = TimingGraph::build(&nl).unwrap();
        let g1 = CellId(1);
        let g2 = CellId(2);
        assert!(tg.level(g1) < tg.level(g2));
        assert_eq!(tg.max_level(), tg.level(g2));
    }

    #[test]
    fn flat_edge_groups_match_naive_per_cell_lists() {
        // Naive per-cell lists: one `Vec` per cell, pushed in net order,
        // sink by sink.
        let generated =
            [(3, 0.0, 1), (6, 0.15, 2), (14, 0.3, 3)].map(|(depth, fanout_tail, seed)| {
                crate::generator::generate(&crate::generator::CircuitSpec {
                    name: "csr".into(),
                    n_inputs: 8,
                    n_outputs: 6,
                    n_flipflops: 7,
                    n_logic: 90,
                    depth,
                    fanout_tail,
                    seed,
                })
            });
        for nl in generated.into_iter().chain([crate::c3540()]) {
            let tg = TimingGraph::build(&nl).unwrap();
            let mut fan_in = vec![Vec::new(); nl.num_cells()];
            let mut fan_out = vec![Vec::new(); nl.num_cells()];
            for (nid, net) in nl.nets() {
                for &sink in &net.sinks {
                    let e = TimingEdge {
                        from: net.driver,
                        to: sink,
                        net: nid,
                    };
                    fan_in[sink.index()].push(e);
                    fan_out[net.driver.index()].push(e);
                }
            }
            for c in nl.cell_ids() {
                assert_eq!(tg.in_edges(c), &fan_in[c.index()][..], "in-edges of {c}");
                assert_eq!(tg.out_edges(c), &fan_out[c.index()][..], "out-edges of {c}");
            }
            let total: usize = fan_in.iter().map(Vec::len).sum();
            assert_eq!(tg.num_edges(), total);
        }
    }

    #[test]
    fn edge_counts() {
        let nl = sequential_netlist();
        let tg = TimingGraph::build(&nl).unwrap();
        // Nets: ni(1 sink) n1(1) n2(2) nq(1) = 5 edges.
        assert_eq!(tg.num_edges(), 5);
        assert_eq!(tg.out_edges(CellId(2)).len(), 2);
        assert_eq!(tg.in_edges(CellId(1)).len(), 2);
    }
}
