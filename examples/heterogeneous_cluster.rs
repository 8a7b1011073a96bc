//! The heterogeneity experiment in miniature: the same search run twice on
//! the 12-machine cluster (7 fast / 3 medium / 2 slow, slow ones with
//! background load) — once waiting for all children at every sync point
//! (the paper's "homogeneous run"), once with the half-report policy (the
//! "heterogeneous run").
//!
//! ```sh
//! cargo run --release --example heterogeneous_cluster
//! ```

use parallel_tabu_search::core::SyncPolicy;
use parallel_tabu_search::netlist::c532;
use parallel_tabu_search::prelude::*;
use std::sync::Arc;

fn main() {
    let netlist = Arc::new(c532());
    println!("cluster: 7 fast (1.0x) + 3 medium (0.6x) + 2 slow (0.35x, loaded)\n");

    for (label, sync) in [
        ("homogeneous (wait-all)", SyncPolicy::WaitAll),
        ("heterogeneous (half-report)", SyncPolicy::HalfReport),
    ] {
        let run = Pts::builder()
            .tsw_workers(4)
            .clw_workers(4)
            .global_iters(5)
            .local_iters(12)
            .sync(sync)
            .build()
            .unwrap();
        let out = run.run_placement(netlist.clone(), &VirtualEngine::paper());
        let o = &out.outcome;
        let report = &out.report;
        println!("{label}:");
        println!("  finished at       : {:8.2} virtual seconds", o.end_time);
        println!("  best cost         : {:.4}", o.best_cost);
        println!("  forced reports    : {}", o.forced_reports);
        println!(
            "  cluster utilization: {:.0}%",
            report.utilization() * 100.0
        );
        println!("  messages          : {}", report.total_messages());
        // Show the tail of the best-cost-vs-time curve (Fig. 11's shape).
        let pts = o.trace.points();
        println!("  last improvements :");
        for p in pts.iter().rev().take(3).rev() {
            println!("    t={:8.2}  best={:.4}", p.time, p.best_cost);
        }
        println!();
    }
    println!(
        "Expected (paper Fig. 11): the half-report run ends much earlier at\n\
         equal or better cost — slow machines stop gating every iteration."
    );
}
