//! Microbenchmarks: tabu list operations and attribute-scheme ablation
//! ((cell,slot) pairs vs plain cell attributes).

use criterion::{criterion_group, criterion_main, Criterion};
use pts_tabu::tabu_list::TabuList;
use pts_util::Rng;

fn bench_tabu_list(c: &mut Criterion) {
    let mut group = c.benchmark_group("tabu_list");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    group.bench_function("make_tabu_pair_attr", |b| {
        let mut list: TabuList<(u32, u32)> = TabuList::new(7);
        let mut rng = Rng::new(1);
        let mut iter = 0u64;
        b.iter(|| {
            iter += 1;
            list.make_tabu((rng.next_u32() % 2000, rng.next_u32() % 500), iter);
        })
    });

    group.bench_function("make_tabu_cell_attr", |b| {
        let mut list: TabuList<u32> = TabuList::new(7);
        let mut rng = Rng::new(2);
        let mut iter = 0u64;
        b.iter(|| {
            iter += 1;
            list.make_tabu(rng.next_u32() % 2000, iter);
        })
    });

    group.bench_function("is_tabu_hit_and_miss", |b| {
        let mut list: TabuList<(u32, u32)> = TabuList::new(50);
        let mut rng = Rng::new(3);
        for i in 0..1000u64 {
            list.make_tabu((rng.next_u32() % 2000, rng.next_u32() % 500), i);
        }
        b.iter(|| {
            let attr = (rng.next_u32() % 2000, rng.next_u32() % 500);
            std::hint::black_box(list.is_tabu(&attr, 1000))
        })
    });

    group.bench_function("export_active", |b| {
        let mut list: TabuList<(u32, u32)> = TabuList::new(100);
        for i in 0..500u64 {
            list.make_tabu((i as u32, (i * 7) as u32 % 500), i);
        }
        b.iter(|| std::hint::black_box(list.export(500).len()))
    });

    group.finish();
}

criterion_group!(benches, bench_tabu_list);
criterion_main!(benches);
