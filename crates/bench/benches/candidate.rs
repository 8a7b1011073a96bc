//! Microbenchmarks: candidate-list construction and compound moves on the
//! placement problem (the CLW inner loop), including the early-accept
//! ablation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pts_core::PlacementProblem;
use pts_netlist::{c532, TimingGraph};
use pts_place::eval::{EvalConfig, Evaluator};
use pts_place::init::random_placement;
use pts_tabu::candidate::CandidateList;
use pts_tabu::compound::{build_compound, undo_compound};
use pts_util::Rng;
use std::sync::Arc;

fn problem() -> PlacementProblem {
    let nl = Arc::new(c532());
    let tg = Arc::new(TimingGraph::build(&nl).unwrap());
    let p = random_placement(&nl, 1);
    PlacementProblem::new(Evaluator::new(nl, tg, p, EvalConfig::default()))
}

fn bench_candidate(c: &mut Criterion) {
    let mut group = c.benchmark_group("candidate");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(30);

    group.bench_function("sample_best_m8", |b| {
        let mut pr = problem();
        let mut rng = Rng::new(2);
        let cl = CandidateList::new(8);
        b.iter(|| std::hint::black_box(cl.sample_best(&mut pr, &mut rng, None).trial_cost))
    });

    group.bench_function("sample_best_m32", |b| {
        let mut pr = problem();
        let mut rng = Rng::new(3);
        let cl = CandidateList::new(32);
        b.iter(|| std::hint::black_box(cl.sample_best(&mut pr, &mut rng, None).trial_cost))
    });

    for early in [true, false] {
        group.bench_function(format!("compound_d4_m8_early_{early}"), |b| {
            let pr = problem();
            b.iter_batched(
                || (pr.clone(), Rng::new(4)),
                |(mut pr, mut rng)| {
                    let cm = build_compound(&mut pr, &mut rng, None, 8, 4, early);
                    undo_compound(&mut pr, &cm);
                    std::hint::black_box(cm.cost)
                },
                BatchSize::SmallInput,
            )
        });
    }

    group.finish();
}

criterion_group!(benches, bench_candidate);
criterion_main!(benches);
