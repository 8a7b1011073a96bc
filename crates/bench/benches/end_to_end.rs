//! End-to-end benchmark: one full PTS run (vt engine, highway circuit)
//! and the sequential baseline, sized to finish in seconds. Regressions
//! here flag protocol or evaluator slowdowns across the whole stack.

use criterion::{criterion_group, criterion_main, Criterion};
use pts_core::{run_sequential_baseline, Pts, PtsConfig, PtsRun, VirtualEngine};
use pts_netlist::highway;
use std::sync::Arc;

fn cfg() -> PtsConfig {
    PtsConfig {
        n_tsw: 4,
        n_clw: 2,
        global_iters: 3,
        local_iters: 8,
        search: pts_core::SearchStrategy {
            candidates: 6,
            depth: 2,
            ..Default::default()
        },
        ..PtsConfig::default()
    }
}

fn run() -> PtsRun {
    Pts::from_config(cfg()).build().expect("valid config")
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);

    group.bench_function("pts_vt_highway_4x2", |b| {
        let netlist = Arc::new(highway());
        let run = run();
        let engine = VirtualEngine::paper();
        b.iter(|| {
            let out = run.run_placement(netlist.clone(), &engine);
            std::hint::black_box(out.outcome.best_cost)
        })
    });

    group.bench_function("sequential_baseline_highway", |b| {
        let netlist = Arc::new(highway());
        let cfg = cfg();
        b.iter(|| {
            let r = run_sequential_baseline(&cfg, netlist.clone());
            std::hint::black_box(r.best_cost)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
