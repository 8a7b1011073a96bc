//! A thousand tabu search workers on one host — the scale the paper's
//! twelve-workstation PVM cluster points toward.
//!
//! `ThreadEngine` costs one OS thread per logical process, so
//! `n_tsw = 1000` (plus a CLW each, plus the master: 2001 processes)
//! would ask the OS for 2001 threads and their stacks.
//! `AsyncEngine` runs the same master/TSW/CLW protocol as cooperatively
//! scheduled futures on vt's executor, on one speed-1.0 machine with free
//! links and wall-clock stamps: 2001 logical workers, one OS thread.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example async_swarm
//! ```

use parallel_tabu_search::prelude::*;

fn main() {
    const N_TSW: usize = 1000;

    // A QAP instance with fewer facilities than workers: TSW item ranges
    // wrap (worker i shares the range of worker i mod n), and
    // differentiated RNG streams keep the oversubscribed searches from
    // collapsing into duplicates of each other.
    let domain = QapDomain::random(100, 7);

    let run = Pts::builder()
        .tsw_workers(N_TSW)
        .clw_workers(1)
        .global_iters(3)
        .local_iters(4)
        .candidates(6)
        .depth(2)
        .differentiate_streams(true)
        .seed(0xC0FFEE)
        .build()
        .expect("valid configuration");

    let procs = run.config().total_procs();
    println!("async swarm: {N_TSW} TSWs -> {procs} logical processes on one OS thread");

    let out = run.execute(&domain, &AsyncEngine::new());

    assert_eq!(out.report.num_procs(), procs);
    assert!(
        out.outcome.best_cost < out.outcome.initial_cost,
        "a thousand searchers must improve on the initial solution"
    );

    println!(
        "cost         : {:.1} -> {:.1}  ({:.1}% better)",
        out.outcome.initial_cost,
        out.outcome.best_cost,
        100.0 * (1.0 - out.outcome.best_cost / out.outcome.initial_cost)
    );
    println!(
        "best per global iteration: {:?}",
        out.outcome
            .best_per_global_iter
            .iter()
            .map(|c| (c * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    println!(
        "traffic      : {} messages, {:.1} MiB accounted",
        out.report.total_messages(),
        out.report.total_bytes() as f64 / (1024.0 * 1024.0)
    );
    println!(
        "wall time    : {:.2} s for {} logical processes ({} TSW reports/round)",
        out.report.wall_seconds,
        procs,
        run.config().n_tsw
    );
}
