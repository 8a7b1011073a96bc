//! Figure 9 in miniature: the effect of the diversification step, run
//! side by side with identical budgets on one circuit, printing the
//! best-cost-per-global-iteration series the paper plots.
//!
//! ```sh
//! cargo run --release --example diversification_study
//! ```

use parallel_tabu_search::netlist::c532;
use parallel_tabu_search::prelude::*;
use std::sync::Arc;

fn main() {
    let netlist = Arc::new(c532());
    let base = Pts::builder()
        .tsw_workers(4)
        .clw_workers(1)
        .global_iters(8)
        .local_iters(12);

    let with = base.clone().diversify(true).build().unwrap();
    let without = base.diversify(false).build().unwrap();

    let engine = VirtualEngine::paper();
    let a = with.run_placement(netlist.clone(), &engine);
    let b = without.run_placement(netlist, &engine);

    println!("global-iteration best cost (c532, 4 TSW x 1 CLW):\n");
    println!("iter   diversified   no-diversification");
    let xs = &a.outcome.best_per_global_iter;
    let ys = &b.outcome.best_per_global_iter;
    for i in 0..xs.len().max(ys.len()) {
        println!(
            "{:4}   {:>11}   {:>18}",
            i + 1,
            xs.get(i).map(|v| format!("{v:.4}")).unwrap_or_default(),
            ys.get(i).map(|v| format!("{v:.4}")).unwrap_or_default(),
        );
    }
    println!(
        "\nfinal: diversified {:.4} vs plain {:.4}  ({})",
        a.outcome.best_cost,
        b.outcome.best_cost,
        if a.outcome.best_cost <= b.outcome.best_cost {
            "diversification wins, as in the paper"
        } else {
            "plain won this time — rerun with another seed"
        }
    );
}
