//! Microbenchmarks: static timing — full refresh vs incremental estimate.
//!
//! The incremental cone-bounded estimate is what makes trial moves cheap;
//! this bench quantifies its advantage over a full forward sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use pts_netlist::{c1355, c532, CellId, TimingGraph};
use pts_place::layout::Layout;
use pts_place::placement::Placement;
use pts_place::timing::StaModel;
use pts_place::wirelength::WirelengthModel;
use pts_util::Rng;

fn bench_timing(c: &mut Criterion) {
    let mut group = c.benchmark_group("sta");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (name, netlist) in [("c532", c532()), ("c1355", c1355())] {
        let tg = TimingGraph::build(&netlist).unwrap();
        let mut rng = Rng::new(1);
        let placement = Placement::random(
            Layout::for_cells(netlist.num_cells()),
            netlist.num_cells(),
            &mut rng,
        );
        let mut wl = WirelengthModel::new(&netlist, &placement);
        let mut sta = StaModel::new(&netlist, &tg, &wl, 0.15);
        let n = netlist.num_cells();

        group.bench_function(format!("full_refresh/{name}"), |b| {
            b.iter(|| {
                sta.refresh(&netlist, &tg, &wl);
                std::hint::black_box(sta.critical())
            })
        });

        group.bench_function(format!("incremental_estimate/{name}"), |b| {
            let mut rng = Rng::new(2);
            b.iter(|| {
                let a = CellId(rng.index(n) as u32);
                let mut bb = a;
                while bb == a {
                    bb = CellId(rng.index(n) as u32);
                }
                let trial = wl.trial_swap(&netlist, &placement, a, bb);
                std::hint::black_box(sta.estimate(&netlist, &tg, &trial.nets))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_timing);
criterion_main!(benches);
