//! Multi-process engine: worker ranks as child OS processes over a socket
//! star must carry the protocol to the *same search result* as the
//! in-process engines. Under `WaitAll` the protocol is deterministic
//! (every round folds all reports in rank order), so the proc engine is
//! pinned against [`AsyncEngine`] on both shipped domains — not "roughly
//! as good", bitwise the same best cost.
//!
//! Worker processes re-enter this test binary's companion CLI (`pts`),
//! which calls `maybe_worker()` first thing in `main`.

use parallel_tabu_search::core::proc::SocketKind;
use parallel_tabu_search::core::{
    AsyncEngine, ProcEngine, Pts, PtsRun, QapDomain, RunControl, RunReport, SyncPolicy,
};
use parallel_tabu_search::netlist::by_name;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The binary that hosts worker ranks (calls `proc::maybe_worker()`).
fn worker_exe() -> &'static str {
    env!("CARGO_BIN_EXE_pts")
}

fn wait_all_run(n_tsw: usize, n_clw: usize, global: u32) -> PtsRun {
    Pts::builder()
        .tsw_workers(n_tsw)
        .clw_workers(n_clw)
        .global_iters(global)
        .local_iters(8)
        .sync(SyncPolicy::WaitAll)
        .seed(0xFEED)
        .build()
        .unwrap()
}

/// `wait_all_run` with its collection tree cut at fan-out `fanout`
/// (0 keeps it flat).
fn wait_all_tree(n_tsw: usize, n_clw: usize, fanout: usize) -> PtsRun {
    Pts::builder()
        .tsw_workers(n_tsw)
        .clw_workers(n_clw)
        .global_iters(4)
        .local_iters(8)
        .sync(SyncPolicy::WaitAll)
        .shard_fanout(fanout)
        .seed(0xFEED)
        .build()
        .unwrap()
}

/// Per-rank `(messages_sent, messages_received, bytes_sent)`.
fn traffic(report: &RunReport) -> Vec<(u64, u64, u64)> {
    report
        .per_proc
        .iter()
        .map(|p| (p.messages_sent, p.messages_received, p.bytes_sent))
        .collect()
}

#[test]
fn proc_matches_async_on_qap_under_wait_all() {
    let run = wait_all_run(3, 1, 4);
    let domain = QapDomain::random(14, 21);

    let async_out = run.execute(&domain, &AsyncEngine::new());
    let proc_out = run.execute(&domain, &ProcEngine::new(worker_exe()));

    assert_eq!(
        proc_out.outcome.best_cost, async_out.outcome.best_cost,
        "proc and async disagree on the QAP best under WaitAll"
    );
    assert_eq!(
        proc_out.outcome.initial_cost,
        async_out.outcome.initial_cost
    );
    assert_eq!(
        proc_out.outcome.best_per_global_iter, async_out.outcome.best_per_global_iter,
        "per-round global bests must agree round by round"
    );
    assert_eq!(proc_out.report.engine, "proc");
    assert!(proc_out.report.total_messages() > 0);
}

#[test]
fn proc_matches_async_on_placement_under_wait_all() {
    let run = wait_all_run(2, 1, 3);
    let netlist = Arc::new(by_name("highway").unwrap());

    let async_out = run.run_placement(Arc::clone(&netlist), &AsyncEngine::new());
    let proc_out = run.run_placement(netlist, &ProcEngine::new(worker_exe()));

    assert_eq!(
        proc_out.outcome.best_cost, async_out.outcome.best_cost,
        "proc and async disagree on the placement best under WaitAll"
    );
    assert_eq!(
        proc_out.outcome.best_per_global_iter,
        async_out.outcome.best_per_global_iter
    );
    // The shipped-back placement is a real, consistent solution.
    proc_out.outcome.best_placement.check_consistency().unwrap();
}

#[test]
fn proc_runs_with_clw_groups_and_shards() {
    // Deeper topology: CLWs under each TSW plus a sub-master collection
    // tree — every role must come up as its own OS process.
    let run = Pts::builder()
        .tsw_workers(4)
        .clw_workers(2)
        .global_iters(2)
        .local_iters(5)
        .sync(SyncPolicy::WaitAll)
        .shard_fanout(2)
        .seed(7)
        .build()
        .unwrap();
    let domain = QapDomain::random(10, 3);
    let async_out = run.execute(&domain, &AsyncEngine::new());
    let proc_out = run.execute(&domain, &ProcEngine::new(worker_exe()));
    assert_eq!(proc_out.outcome.best_cost, async_out.outcome.best_cost);
}

#[test]
fn spawn_failure_is_an_error_not_a_hang() {
    let run = wait_all_run(2, 1, 2);
    let domain = QapDomain::random(8, 5);
    let engine = ProcEngine::new("/nonexistent/pts-worker-binary");
    let initial = {
        use parallel_tabu_search::core::PtsDomain;
        domain.initial(run.config().seed)
    };
    let err = engine
        .try_execute(run.config(), &domain, initial)
        .err()
        .expect("spawning a nonexistent worker binary must fail");
    let msg = err.to_string();
    assert!(
        msg.contains("proc engine"),
        "error should carry engine context, got: {msg}"
    );
}

#[test]
fn cancelled_control_stops_after_first_round() {
    // A pre-cancelled control: the master still completes one round (the
    // stop is checked at round boundaries) and then winds the tree down
    // cleanly — no hang, no orphan children.
    let run = wait_all_run(2, 1, 6);
    let domain = QapDomain::random(10, 11);
    let ctl = RunControl::unlimited();
    ctl.cancel();
    let engine = ProcEngine::new(worker_exe()).with_control(ctl);
    let out = run.execute(&domain, &engine);
    assert_eq!(
        out.outcome.best_per_global_iter.len(),
        1,
        "a cancelled run stops at the first round boundary"
    );
    assert!(out.outcome.best_cost <= out.outcome.initial_cost);
}

#[test]
fn proc_per_rank_traffic_matches_async_twin() {
    // All traffic crosses links the router never sees: the per-rank
    // report is whole only if every worker's final frame brought its own
    // counts in.
    let domain = QapDomain::random(14, 21);
    for (n_tsw, n_clw, fanout) in [(3, 1, 0), (2, 2, 0), (4, 2, 2)] {
        let run = wait_all_tree(n_tsw, n_clw, fanout);
        let async_out = run.execute(&domain, &AsyncEngine::new());
        let proc_out = run.execute(&domain, &ProcEngine::new(worker_exe()));
        let shape = format!("{n_tsw}x{n_clw} fan-out {fanout}");
        assert_eq!(
            proc_out.outcome.best_cost, async_out.outcome.best_cost,
            "{shape}"
        );
        let (got, want) = (traffic(&proc_out.report), traffic(&async_out.report));
        assert_eq!(got.len(), want.len(), "{shape}");
        // A sub-master's `GroupReport` carries the trace it merged from its
        // TSWs' reports by wall-clock stamp, and the report that wins a
        // cost tie is the first to arrive, so its wire bytes follow socket
        // timing (ROADMAP item 2). Its message counts do not.
        let sub_masters = 1 + n_tsw + n_tsw * n_clw;
        for (rank, (g, w)) in got.iter().zip(&want).enumerate() {
            if rank < sub_masters {
                assert_eq!(g, w, "{shape}: rank {rank} (sent, received, bytes)");
            } else {
                assert_eq!(
                    (g.0, g.1),
                    (w.0, w.1),
                    "{shape}: rank {rank} (sent, received)"
                );
            }
        }
    }
}

#[test]
fn proc_over_tcp_matches_async_and_keeps_pace() {
    let tcp = || ProcEngine::new(worker_exe()).with_socket(SocketKind::Tcp);
    let domain = QapDomain::random(14, 21);
    for fanout in [0, 2] {
        let run = wait_all_tree(4, 2, fanout);
        let async_out = run.execute(&domain, &AsyncEngine::new());
        let proc_out = run.execute(&domain, &tcp());
        assert_eq!(proc_out.outcome.best_cost, async_out.outcome.best_cost);
        assert_eq!(
            proc_out.outcome.best_per_global_iter,
            async_out.outcome.best_per_global_iter
        );
        let sent =
            |r: &RunReport| -> Vec<u64> { r.per_proc.iter().map(|p| p.messages_sent).collect() };
        assert_eq!(sent(&proc_out.report), sent(&async_out.report));
    }

    // Many short rounds of small frames: with Nagle's algorithm on, each
    // frame waits for the peer's delayed ACK and this run takes seconds.
    let run = Pts::builder()
        .tsw_workers(1)
        .clw_workers(1)
        .global_iters(50)
        .local_iters(2)
        .sync(SyncPolicy::WaitAll)
        .seed(0xFEED)
        .build()
        .unwrap();
    let domain = QapDomain::random(64, 5);
    let started = Instant::now();
    let out = run.execute(&domain, &tcp());
    let took = started.elapsed();
    assert_eq!(out.outcome.best_per_global_iter.len(), 50);
    assert!(
        took < Duration::from_secs(1),
        "50 rounds over TCP took {took:?}"
    );
}

/// Seeds `proc_matches_async_round_by_round_with_two_tsws` runs: 20, or
/// the count in `PROC_TWIN_SEEDS`.
fn twin_seeds() -> u64 {
    std::env::var("PROC_TWIN_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20)
}

#[test]
fn proc_matches_async_round_by_round_with_two_tsws() {
    // Two TSWs now and then report the same cost in a round. Their
    // collector gives the tie to the lower TSW index whatever order the
    // reports arrive in, and on proc that order is socket timing, so
    // both engines must walk the same search on every seed.
    for seed in 0..twin_seeds() {
        let run = Pts::builder()
            .tsw_workers(2)
            .clw_workers(1)
            .candidates(5)
            .depth(2)
            .global_iters(200)
            .local_iters(2)
            .sync(SyncPolicy::WaitAll)
            .seed(seed)
            .build()
            .unwrap();
        let domain = QapDomain::random(64, seed);
        let async_out = run.execute(&domain, &AsyncEngine::new());
        let proc_out = run.execute(&domain, &ProcEngine::new(worker_exe()));
        assert_eq!(
            proc_out.outcome.best_per_global_iter, async_out.outcome.best_per_global_iter,
            "seed {seed}: proc and async part ways"
        );
    }
}
