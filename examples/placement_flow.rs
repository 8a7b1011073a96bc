//! A realistic placement flow on a mid-size circuit: constructive initial
//! placement, sequential tabu search baseline, then the paper's parallel
//! tabu search — comparing all three on the fuzzy objectives.
//!
//! ```sh
//! cargo run --release --example placement_flow
//! ```

use parallel_tabu_search::netlist::c532;
use parallel_tabu_search::place::eval::{EvalConfig, Evaluator};
use parallel_tabu_search::place::init::{constructive_placement, random_placement};
use parallel_tabu_search::prelude::*;
use std::sync::Arc;

fn main() {
    let netlist = Arc::new(c532());
    let timing = Arc::new(TimingGraph::build(&netlist).expect("acyclic"));
    println!(
        "circuit {}: {} cells, {} nets\n",
        netlist.name,
        netlist.num_cells(),
        netlist.num_nets()
    );

    // --- initial placements ------------------------------------------------
    let random = random_placement(&netlist, 42);
    let constructive = constructive_placement(&netlist, &timing);
    for (label, p) in [("random", &random), ("constructive", &constructive)] {
        let ev = Evaluator::new(
            netlist.clone(),
            timing.clone(),
            p.clone(),
            EvalConfig::default(),
        );
        let o = ev.objectives();
        println!(
            "{label:>13} start: wire={:9.1}  delay={:6.2}  area={:5.0}",
            o.wire, o.delay, o.area
        );
    }

    // --- sequential baseline ----------------------------------------------
    let run = Pts::builder()
        .tsw_workers(4)
        .clw_workers(2)
        .global_iters(6)
        .local_iters(15)
        .seed(42)
        .build()
        .expect("valid configuration");
    let seq = run_sequential_baseline(run.config(), netlist.clone());
    println!("\nsequential TS best cost: {:.4}", seq.best_cost);

    // --- parallel tabu search from the constructive start ------------------
    let out = run.run_placement_from(netlist.clone(), &VirtualEngine::paper(), constructive);
    let o = &out.outcome;
    println!("parallel  TS best cost: {:.4}", o.best_cost);
    println!(
        "  objectives: wire={:.1}  delay={:.2}  area={:.0}",
        o.objectives.wire, o.objectives.delay, o.objectives.area
    );
    println!(
        "  {:.2} virtual seconds, {} messages across the cluster, {:.0}% utilization",
        o.end_time,
        out.report.total_messages(),
        out.report.utilization() * 100.0
    );
    println!(
        "  forced reports (heterogeneity in action): {}",
        o.forced_reports
    );
}
