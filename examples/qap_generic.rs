//! The parallel pipeline is problem-generic: here the *full* master / TSW
//! / CLW search — diversification over private item ranges, compound-move
//! proposals, half-report heterogeneity — runs on a quadratic assignment
//! problem (the domain of the Kelly-Laguna-Glover diversification study
//! the paper builds on) through exactly the same `Pts::builder()` entry
//! point as VLSI placement, on both execution engines.
//!
//! ```sh
//! cargo run --release --example qap_generic
//! ```

use parallel_tabu_search::prelude::*;

fn main() {
    let n = 30;
    let domain = QapDomain::random(n, 7);
    println!(
        "QAP instance: {n} facilities, instance cost at identity {:.1}\n",
        domain.instance().cost()
    );

    // One validated configuration drives every engine and every domain.
    let run = Pts::builder()
        .tsw_workers(4)
        .clw_workers(2)
        .global_iters(6)
        .local_iters(20)
        .candidates(12)
        .depth(2)
        .tenure(9)
        .seed(3)
        .build()
        .expect("valid configuration");

    // Substrates as trait objects: the virtual-time heterogeneous
    // cluster and native OS threads, selected uniformly.
    let engines: Vec<(&str, Box<dyn ExecutionEngine<QapDomain>>)> = vec![
        (
            "virtual 12-machine cluster",
            Box::new(VirtualEngine::paper()),
        ),
        ("native threads", Box::new(ThreadEngine)),
    ];

    for (label, engine) in &engines {
        let out = run.execute(&domain, engine.as_ref());
        let o = &out.outcome;
        println!("{label} ({} engine):", out.report.engine);
        println!("  initial cost   : {:.1}", o.initial_cost);
        println!("  best cost      : {:.1}", o.best_cost);
        println!(
            "  per-iteration  : {}",
            o.best_per_global_iter
                .iter()
                .map(|c| format!("{c:.0}"))
                .collect::<Vec<_>>()
                .join(" -> ")
        );
        println!(
            "  search time    : {:.3} s ({})",
            o.end_time,
            match out.report.clock {
                ClockDomain::Virtual => "virtual",
                ClockDomain::Wall => "wall",
            }
        );
        println!(
            "  traffic        : {} messages, {} bytes",
            out.report.total_messages(),
            out.report.total_bytes()
        );
        println!("  forced reports : {}\n", o.forced_reports);
        assert!(
            o.best_cost <= o.initial_cost,
            "parallel search must not lose to its own start"
        );
    }

    // Determinism: the virtual clock replays bit-identically.
    let a = run.execute(&domain, &VirtualEngine::paper());
    let b = run.execute(&domain, &VirtualEngine::paper());
    assert_eq!(a.outcome.best_cost, b.outcome.best_cost);
    assert_eq!(a.outcome.end_time, b.outcome.end_time);
    println!(
        "vt replay is bit-identical: best {:.1}",
        a.outcome.best_cost
    );
}
