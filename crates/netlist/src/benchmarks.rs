//! Benchmark circuits matched to the paper's evaluation set.
//!
//! The paper uses four ISCAS-89 circuits: *highway* (56 cells), *c532*
//! (395 cells), *c1355* (1451 cells) and *c3540* (2243 cells). The original
//! netlists are not redistributable here, so these presets generate
//! synthetic circuits with **the same cell counts** and ISCAS-like structure
//! (see [`crate::generator`]). Seeds are fixed: every run of the experiment
//! harness sees the exact same circuits.

use crate::generator::{generate, CircuitSpec};
use crate::netlist::Netlist;

/// `highway` — 56 cells, the small control circuit.
pub fn highway() -> Netlist {
    generate(&CircuitSpec {
        name: "highway".into(),
        n_inputs: 8,
        n_outputs: 7,
        n_flipflops: 6,
        n_logic: 35,
        depth: 5,
        fanout_tail: 0.15,
        seed: 0x4869_6768_7761_7901, // "Highway" + 01
    })
}

/// `c532` — 395 cells.
pub fn c532() -> Netlist {
    generate(&CircuitSpec {
        name: "c532".into(),
        n_inputs: 28,
        n_outputs: 22,
        n_flipflops: 45,
        n_logic: 300,
        depth: 9,
        fanout_tail: 0.18,
        seed: 0x0532_0532_0532_0532,
    })
}

/// `c1355` — 1451 cells.
pub fn c1355() -> Netlist {
    generate(&CircuitSpec {
        name: "c1355".into(),
        n_inputs: 41,
        n_outputs: 32,
        n_flipflops: 120,
        n_logic: 1258,
        depth: 12,
        fanout_tail: 0.20,
        seed: 0x1355_1355_1355_1355,
    })
}

/// `c3540` — 2243 cells, the largest circuit in the study.
pub fn c3540() -> Netlist {
    generate(&CircuitSpec {
        name: "c3540".into(),
        n_inputs: 50,
        n_outputs: 22,
        n_flipflops: 200,
        n_logic: 1971,
        depth: 14,
        fanout_tail: 0.22,
        seed: 0x3540_3540_3540_3540,
    })
}

/// Names of all paper benchmark circuits, smallest first.
pub fn benchmark_names() -> [&'static str; 4] {
    ["highway", "c532", "c1355", "c3540"]
}

/// Fetch a paper benchmark circuit by name.
pub fn by_name(name: &str) -> Option<Netlist> {
    match name {
        "highway" => Some(highway()),
        "c532" => Some(c532()),
        "c1355" => Some(c1355()),
        "c3540" => Some(c3540()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing_graph::TimingGraph;

    #[test]
    fn cell_counts_match_the_paper() {
        assert_eq!(highway().num_cells(), 56);
        assert_eq!(c532().num_cells(), 395);
        assert_eq!(c1355().num_cells(), 1451);
        assert_eq!(c3540().num_cells(), 2243);
    }

    #[test]
    fn all_benchmarks_have_valid_timing_graphs() {
        for name in benchmark_names() {
            let nl = by_name(name).unwrap();
            let tg = TimingGraph::build(&nl).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!tg.endpoints().is_empty(), "{name} has no endpoints");
            assert!(tg.max_level() >= 3, "{name} is too shallow");
        }
    }

    #[test]
    fn by_name_rejects_unknown() {
        assert!(by_name("s9234").is_none());
    }

    #[test]
    fn benchmarks_are_stable_across_calls() {
        let a = c532();
        let b = c532();
        assert_eq!(a.num_nets(), b.num_nets());
        let pins_a: usize = a.nets().map(|(_, n)| n.degree()).sum();
        let pins_b: usize = b.nets().map(|(_, n)| n.degree()).sum();
        assert_eq!(pins_a, pins_b);
    }

    #[test]
    fn average_fanout_is_realistic() {
        for name in benchmark_names() {
            let nl = by_name(name).unwrap();
            let pins: usize = nl.nets().map(|(_, n)| n.fanout()).sum();
            let avg = pins as f64 / nl.num_nets() as f64;
            assert!(
                (1.0..6.0).contains(&avg),
                "{name}: average fanout {avg} outside ISCAS-like range"
            );
        }
    }
}
