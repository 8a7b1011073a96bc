//! The paper's evaluation, Figs. 5–11, and the streams ablation, each
//! experiment defined once.
//!
//! An experiment is one function from a [`Profile`] to a [`Figure`]: it
//! builds its configurations, runs them on the paper's twelve-machine
//! virtual cluster and keeps the results as rows. The table a figure
//! prints, the CSV files it writes under `results/` and its section of
//! `results/SUMMARY.md` are all rendered from those rows, so the summary
//! and the CSVs report the same runs. The `figures` binary runs them.
//!
//! Absolute numbers differ from the paper's (its testbed was twelve
//! 2003-era workstations; ours is a virtual cluster), but the *shapes* —
//! who wins, where curves saturate, where crossovers sit — are the
//! reproduction target. Each figure states the shape to check.

use pts_core::{
    fractional_quality_target, speedup_sweep, MasterOutcome, Pts, PtsConfig, SyncPolicy,
    VirtualEngine,
};
use pts_netlist::Netlist;
use pts_util::csv::CsvWriter;
use pts_util::stats::geometric_mean;
use pts_util::table::{fmt_f64, Table};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Experiment scale profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Fast: small iteration counts, circuits up to c1355.
    Quick,
    /// Paper-scale: all four circuits, full iteration counts.
    Full,
}

impl Profile {
    /// Read the profile from the environment (`PTS_FULL=1`).
    pub fn from_env() -> Profile {
        match std::env::var("PTS_FULL") {
            Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => Profile::Full,
            _ => Profile::Quick,
        }
    }

    /// Circuits used under this profile (paper order, smallest first).
    fn circuits(self) -> Vec<&'static str> {
        match self {
            Profile::Quick => vec!["highway", "c532", "c1355"],
            Profile::Full => vec!["highway", "c532", "c1355", "c3540"],
        }
    }

    /// The two circuits of the speedup figures (c532 and c3540 in the
    /// paper).
    fn speedup_circuits(self) -> [&'static str; 2] {
        match self {
            Profile::Quick => ["c532", "c1355"],
            Profile::Full => ["c532", "c3540"],
        }
    }

    /// (global_iters, local_iters) under this profile.
    fn iterations(self) -> (u32, u32) {
        match self {
            Profile::Quick => (6, 15),
            Profile::Full => (15, 40),
        }
    }

    /// Seeds of the averaged experiments. Single-seed runs of a
    /// stochastic search are noisy at quick scale; the paper's trend
    /// claims are about expected behaviour, so those figures average a
    /// few independent runs. The first is the default seed, which the
    /// single-run figures use.
    fn seeds(self) -> Vec<u64> {
        match self {
            Profile::Quick => vec![0xC0FFEE, 0xBEEF, 0xF00D, 0xCAFE, 0xD00D],
            Profile::Full => vec![0xC0FFEE, 0xBEEF, 0xF00D, 0xCAFE, 0xD00D, 0xACE, 0xFADE],
        }
    }
}

/// An experiment: run it under a profile, get its figure.
pub type Experiment = fn(Profile) -> Figure;

/// Every experiment under the id that selects it, in paper order.
pub const EXPERIMENTS: [(&str, Experiment); 8] = [
    ("5", fig5_clw_quality),
    ("6", fig6_clw_speedup),
    ("7", fig7_tsw_quality),
    ("8", fig8_tsw_speedup),
    ("9", fig9_diversification),
    ("10", fig10_local_global),
    ("11", fig11_heterogeneity),
    ("ablation", ablation_streams),
];

/// One value of a figure's row. The CSV keeps every digit; the table
/// rounds.
enum Cell {
    /// A label or a count, or a value preformatted for both.
    Text(String),
    /// A cost: four decimals in the table.
    Cost(f64),
    /// A raw objective: [`fmt_f64`] in the table.
    Raw(f64),
}

impl Cell {
    fn table(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Cost(x) => format!("{x:.4}"),
            Cell::Raw(x) => fmt_f64(*x),
        }
    }

    fn csv(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Cost(x) | Cell::Raw(x) => x.to_string(),
        }
    }
}

fn text(s: impl ToString) -> Cell {
    Cell::Text(s.to_string())
}

/// One experiment's results, ready to print and to write.
#[derive(Default)]
pub struct Figure {
    /// The heading the figure is printed and summarised under.
    title: &'static str,
    /// Column headers: the table's, and the CSV's (`None`: table only).
    columns: Columns,
    /// One row per run or per averaged point, one cell per column.
    rows: Vec<Vec<Cell>>,
    /// The file the rows' CSV columns go to, `results/<csv>.csv`; `None`
    /// when the figure stores only series.
    csv: Option<&'static str>,
    /// Per-point series for plotting, one CSV file each.
    series: Vec<(&'static str, CsvWriter)>,
    /// Verdicts drawn from the rows, one line each.
    verdicts: Vec<String>,
    /// The paper's shape to check against the table.
    shape: &'static str,
}

impl Figure {
    /// The table the figure prints: every column, rounded.
    fn table(&self) -> Table {
        let mut table = Table::new(self.columns.iter().map(|&(header, _)| header));
        for row in &self.rows {
            table.row(row.iter().map(Cell::table));
        }
        table
    }

    /// Every CSV file the figure writes, as `(name, contents)`: its rows'
    /// file first, then its series.
    pub fn csv_files(&self) -> Vec<(&'static str, String)> {
        let rows = self.csv.map(|name| {
            let mut csv = CsvWriter::new(self.columns.iter().filter_map(|&(_, header)| header));
            for row in &self.rows {
                let stored = self
                    .columns
                    .iter()
                    .zip(row)
                    .filter(|((_, h), _)| h.is_some());
                csv.row(stored.map(|(_, cell)| cell.csv()));
            }
            (name, csv.to_string_lossy())
        });
        let series = self
            .series
            .iter()
            .map(|(name, csv)| (*name, csv.to_string_lossy()));
        rows.into_iter().chain(series).collect()
    }

    /// The figure's text: its heading, its table, its verdicts and the
    /// paper shape to check. The binary prints it, and `SUMMARY.md`
    /// embeds it as it is.
    pub fn section(&self) -> String {
        let mut out = format!("## {}\n\n", self.title);
        for line in self.table().render().lines() {
            let _ = writeln!(out, "    {line}");
        }
        out.push('\n');
        for verdict in &self.verdicts {
            let _ = writeln!(out, "- {verdict}");
        }
        if !self.verdicts.is_empty() {
            out.push('\n');
        }
        let _ = writeln!(out, "Paper shape to check: {}", self.shape);
        out
    }
}

/// `results/SUMMARY.md`: every figure's section, under one header.
pub fn summary(profile: Profile, figures: &[Figure]) -> String {
    let mut out = format!(
        "# Figure reproduction summary\n\n\
         Profile: {profile:?}. Times are virtual-cluster seconds on the paper's\n\
         12-machine topology (7 fast / 3 medium / 2 slow). Every number\n\
         below comes from the runs that wrote the CSVs under `results/`.\n"
    );
    for figure in figures {
        out.push('\n');
        out.push_str(&figure.section());
    }
    out
}

/// Where the figures' files go: `<workspace>/results/`.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the workspace root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

/// Fig. 5: final quality against the number of CLWs, TSWs fixed at 4.
///
/// Paper setup: CLWs swept 1..=4, all other parameters fixed, four
/// circuits, twelve-machine PVM. One run per point, on the default seed.
pub fn fig5_clw_quality(profile: Profile) -> Figure {
    Figure {
        title: "Figure 5: solution quality vs number of CLWs (TSWs = 4)",
        csv: Some("fig5_clw_quality"),
        shape: "quality improves with CLWs; for the tiny\n\
                'highway' circuit adding CLWs beyond 2 is not useful.",
        ..quality_sweep(profile, ("CLWs", "clws"), 1..=4, |cfg, n| {
            cfg.n_tsw = 4;
            cfg.n_clw = n;
        })
    }
}

/// Fig. 6: speedup `t(1,x)/t(n,x)` to reach quality x against the
/// number of CLWs, TSWs fixed at 4.
///
/// Paper setup: CLWs 1..=4 on two circuits. Speedups are geometric means
/// over the profile's seeds.
pub fn fig6_clw_speedup(profile: Profile) -> Figure {
    Figure {
        title: "Figure 6: speedup to reach quality x vs number of CLWs (TSWs = 4)",
        csv: Some("fig6_clw_speedup"),
        shape: "speedup increases as CLWs go 1 -> 4; the\n\
                sharpness depends on circuit size.",
        ..averaged_speedup_sweep(profile, ("CLWs", "clws"), &[1, 2, 3, 4], |cfg, n| {
            cfg.n_tsw = 4;
            cfg.n_clw = n;
        })
    }
}

/// Fig. 7: final quality against the number of TSWs, CLWs fixed at 1.
///
/// Paper setup: TSWs swept 1..=8 on all circuits. One run per point, on
/// the default seed.
pub fn fig7_tsw_quality(profile: Profile) -> Figure {
    Figure {
        title: "Figure 7: solution quality vs number of TSWs (CLWs = 1)",
        csv: Some("fig7_tsw_quality"),
        shape: "improvement saturates around 4 TSWs.",
        ..quality_sweep(profile, ("TSWs", "tsws"), 1..=8, |cfg, n| {
            cfg.n_tsw = n;
            cfg.n_clw = 1;
        })
    }
}

/// Fig. 8: speedup to reach quality x against the number of TSWs, CLWs
/// fixed at 1.
///
/// Paper setup: TSWs 1..=8 on two circuits. Speedups are geometric means
/// over the profile's seeds. The paper reports "the critical point
/// occurred at 4 TSWs; adding more TSWs degraded the speedup".
pub fn fig8_tsw_speedup(profile: Profile) -> Figure {
    Figure {
        title: "Figure 8: speedup to reach quality x vs number of TSWs (CLWs = 1)",
        csv: Some("fig8_tsw_speedup"),
        shape: "speedup peaks near 4 TSWs, then degrades.",
        ..averaged_speedup_sweep(
            profile,
            ("TSWs", "tsws"),
            &[1, 2, 3, 4, 5, 6, 7, 8],
            |cfg, n| {
                cfg.n_tsw = n;
                cfg.n_clw = 1;
            },
        )
    }
}

/// Fig. 9: the effect of diversification, 4 TSWs × 1 CLW.
///
/// Paper setup: one run with the Kelly-style diversification step at
/// each global iteration, one without. Final costs are means over the
/// profile's seeds; the per-round curves, for plotting, are the first
/// seed's. The paper: "the diversified run outperforms the
/// non-diversified run significantly".
pub fn fig9_diversification(profile: Profile) -> Figure {
    let seeds = profile.seeds();
    let mut rows = Vec::new();
    let mut curves = CsvWriter::new(["circuit", "global_iter", "diversified", "plain"]);
    for name in profile.circuits() {
        let netlist = circuit(name);
        let [diversified, plain] = [true, false].map(|diversify| {
            let mut cfg = base_config(profile);
            cfg.n_tsw = 4;
            cfg.n_clw = 1;
            cfg.diversify = diversify;
            seed_runs(&cfg, &netlist, &seeds)
        });
        let (with, without) = (mean_best_cost(&diversified), mean_best_cost(&plain));
        rows.push(vec![
            text(name),
            Cell::Cost(with),
            Cell::Cost(without),
            text(if with <= without { "yes" } else { "NO" }),
        ]);
        let (xs, ys) = (
            &diversified[0].best_per_global_iter,
            &plain[0].best_per_global_iter,
        );
        for g in 0..xs.len().max(ys.len()) {
            curves.row([
                name.to_string(),
                (g + 1).to_string(),
                xs.get(g).map(|v| v.to_string()).unwrap_or_default(),
                ys.get(g).map(|v| v.to_string()).unwrap_or_default(),
            ]);
        }
    }
    Figure {
        title: "Figure 9: effect of diversification (4 TSWs, 1 CLW)",
        columns: vec![
            ("circuit", Some("circuit")),
            ("mean best (diversified)", Some("diversified")),
            ("mean best (plain)", Some("plain")),
            ("diversified wins?", None),
        ],
        rows,
        csv: Some("fig9_diversification"),
        series: vec![("fig9_curves", curves)],
        shape: "the diversified run ends at a lower cost.",
        ..Figure::default()
    }
}

/// Fig. 10: local against global iterations, 4 TSWs × 1 CLW.
///
/// Paper setup: fewer global iterations (less diversification) with more
/// local ones (more local investigation), total work constant. The
/// splits are 24, 12, 6 and 3 global rounds, each kept when it divides
/// the profile's budget. The paper: "no general conclusion can be made
/// about the best number of global vs local iterations — it depends on
/// the problem instance".
pub fn fig10_local_global(profile: Profile) -> Figure {
    let base = base_config(profile);
    let budget = base.global_iters * base.local_iters;
    let splits: Vec<(u32, u32)> = [24, 12, 6, 3]
        .into_iter()
        .map(|g: u32| g.min(budget))
        .filter(|&g| budget.is_multiple_of(g))
        .map(|g| (g, budget / g))
        .collect();
    let mut rows = Vec::new();
    let mut verdicts = Vec::new();
    for name in profile.circuits() {
        let netlist = circuit(name);
        let mut best = (f64::INFINITY, 0, 0);
        for &(g, l) in &splits {
            let mut cfg = base.clone();
            cfg.n_tsw = 4;
            cfg.n_clw = 1;
            cfg.global_iters = g;
            cfg.local_iters = l;
            let cost = run(&cfg, &netlist).best_cost;
            if cost < best.0 {
                best = (cost, g, l);
            }
            rows.push(vec![text(name), text(g), text(l), Cell::Cost(cost)]);
        }
        verdicts.push(format!(
            "{name}: best split = {} global x {} local",
            best.1, best.2
        ));
    }
    Figure {
        title: "Figure 10: local vs global iteration split (4 TSWs, 1 CLW)",
        columns: vec![
            ("circuit", Some("circuit")),
            ("global", Some("global_iters")),
            ("local", Some("local_iters")),
            ("best cost", Some("best_cost")),
        ],
        rows,
        csv: Some("fig10_local_global"),
        verdicts,
        shape: "the winning split differs per circuit — no\n\
                universal best.",
        ..Figure::default()
    }
}

/// Fig. 11: best cost against runtime, heterogeneous against homogeneous
/// runs, 4 TSWs × 4 CLWs.
///
/// Paper setup: the twelve-machine cluster (7 fast / 3 medium / 2 slow)
/// and the same global iteration count. The *heterogeneous* run uses the
/// half-report policy (parents force stragglers once half their children
/// have reported); the *homogeneous* run waits for all children. The
/// CSV holds every run's best-cost trace; the table, each run's end. The
/// paper: the heterogeneous run finishes in much less time and "is doing
/// either better than or at least as good as the homogeneous run, but
/// never performs worse" toward the end.
pub fn fig11_heterogeneity(profile: Profile) -> Figure {
    let mut rows = Vec::new();
    let mut traces = CsvWriter::new(["circuit", "policy", "time", "best_cost"]);
    for name in profile.circuits() {
        let netlist = circuit(name);
        for (policy, sync) in [
            ("heterogeneous", SyncPolicy::HalfReport),
            ("homogeneous", SyncPolicy::WaitAll),
        ] {
            let mut cfg = base_config(profile);
            cfg.n_tsw = 4;
            cfg.n_clw = 4;
            cfg.sync = sync;
            let o = run(&cfg, &netlist);
            rows.push(vec![
                text(name),
                text(policy),
                text(format!("{:.2}", o.end_time)),
                Cell::Cost(o.best_cost),
                text(o.forced_reports),
            ]);
            for p in o.trace.points() {
                traces.row([
                    name.to_string(),
                    policy.to_string(),
                    p.time.to_string(),
                    p.best_cost.to_string(),
                ]);
            }
        }
    }
    Figure {
        title: "Figure 11: best cost vs runtime, half-report vs wait-all (4 TSW x 4 CLW)",
        columns: vec![
            ("circuit", None),
            ("policy", None),
            ("end time [vsec]", None),
            ("final best", None),
            ("forced reports", None),
        ],
        rows,
        series: vec![("fig11_heterogeneity", traces)],
        shape: "half-report ends far earlier at equal-or-\n\
                better cost; near the end of the run its curve is never above the\n\
                wait-all curve.",
        ..Figure::default()
    }
}

/// Ablation beyond the paper: what differentiates the parallel searches?
///
/// The paper's design is MPSS: all TSWs run the *same* strategy and are
/// told apart only by the diversification step over private cell ranges.
/// A modern alternative gives every worker an independent RNG stream.
/// This compares the four corners, 4 TSWs × 1 CLW, each a mean over the
/// profile's seeds:
///
/// | streams      | diversification | corresponds to |
/// |--------------|-----------------|----------------|
/// | shared       | on              | the paper (MPSS) |
/// | shared       | off             | the paper's Fig. 9 baseline |
/// | independent  | on              | extension |
/// | independent  | off             | extension (implicit differentiation) |
pub fn ablation_streams(profile: Profile) -> Figure {
    let seeds = profile.seeds();
    let mut rows = Vec::new();
    for name in profile.circuits() {
        let netlist = circuit(name);
        for (streams, differentiate) in [("shared", false), ("independent", true)] {
            for diversify in [true, false] {
                let mut cfg = base_config(profile);
                cfg.n_tsw = 4;
                cfg.n_clw = 1;
                cfg.differentiate_streams = differentiate;
                cfg.diversify = diversify;
                let mean = mean_best_cost(&seed_runs(&cfg, &netlist, &seeds));
                rows.push(vec![
                    text(name),
                    text(streams),
                    text(diversify),
                    Cell::Cost(mean),
                ]);
            }
        }
    }
    Figure {
        title: "Ablation: search differentiation — RNG streams vs diversification",
        columns: vec![
            ("circuit", Some("circuit")),
            ("streams", Some("streams")),
            ("diversify", Some("diversify")),
            ("mean best cost", Some("mean_best_cost")),
        ],
        rows,
        csv: Some("ablation_streams"),
        shape: "with shared streams (the paper's MPSS),\n\
                diversification is what makes multiple TSWs pay off (Fig. 9's\n\
                message). Independent streams differentiate implicitly and weaken\n\
                that contrast.",
        ..Figure::default()
    }
}

/// Column headers of a figure's table and CSV.
type Columns = Vec<(&'static str, Option<&'static str>)>;

/// The columns and rows of a worker-count sweep with one run per point,
/// on every circuit of the profile, at the default seed: each row is a
/// run's final quality.
fn quality_sweep(
    profile: Profile,
    (axis, axis_csv): (&'static str, &'static str),
    ns: std::ops::RangeInclusive<usize>,
    configure: impl Fn(&mut PtsConfig, usize),
) -> Figure {
    let mut rows = Vec::new();
    for name in profile.circuits() {
        let netlist = circuit(name);
        for n in ns.clone() {
            let mut cfg = base_config(profile);
            configure(&mut cfg, n);
            let o = run(&cfg, &netlist);
            rows.push(vec![
                text(name),
                text(n),
                Cell::Cost(o.best_cost),
                Cell::Raw(o.objectives.wire),
                Cell::Raw(o.objectives.delay),
                Cell::Raw(o.objectives.area),
            ]);
        }
    }
    let columns = vec![
        ("circuit", Some("circuit")),
        (axis, Some(axis_csv)),
        ("best cost", Some("best_cost")),
        ("wire", Some("wire")),
        ("delay", Some("delay")),
        ("area", Some("area")),
    ];
    Figure {
        columns,
        rows,
        ..Figure::default()
    }
}

/// The columns and rows of a speedup sweep on the profile's two speedup
/// circuits. For each seed it runs every point, takes a quality target x
/// 80% of the way from the initial cost to the sweep's worst final cost,
/// and computes each point's speedup `t(1,x)/t(n,x)`. A row is one
/// point: the geometric mean of its speedups and the mean of its times
/// to x, over the seeds where it and the baseline both reached x.
fn averaged_speedup_sweep(
    profile: Profile,
    (axis, axis_csv): (&'static str, &'static str),
    ns: &[usize],
    configure: impl Fn(&mut PtsConfig, usize),
) -> Figure {
    let mut rows = Vec::new();
    for name in profile.speedup_circuits() {
        let netlist = circuit(name);
        let mut speedups = vec![Vec::new(); ns.len()];
        let mut times = vec![Vec::new(); ns.len()];
        for seed in profile.seeds() {
            let traces: Vec<_> = ns
                .iter()
                .map(|&n| {
                    let mut cfg = base_config(profile);
                    cfg.seed = seed;
                    configure(&mut cfg, n);
                    (n, run(&cfg, &netlist).trace)
                })
                .collect();
            let x = fractional_quality_target(&traces, 0.8);
            for (i, p) in speedup_sweep(&traces, x).into_iter().enumerate() {
                speedups[i].extend(p.speedup.filter(|s| s.is_finite()));
                times[i].extend(p.time_to_quality);
            }
        }
        for ((&n, ss), ts) in ns.iter().zip(&speedups).zip(&times) {
            let speedup = (!ss.is_empty()).then(|| geometric_mean(ss));
            let mean_time = (!ts.is_empty()).then(|| ts.iter().sum::<f64>() / ts.len() as f64);
            rows.push(vec![
                text(name),
                text(n),
                text(fmt_opt(mean_time)),
                text(fmt_opt(speedup)),
                text(ss.len()),
            ]);
        }
    }
    let columns = vec![
        ("circuit", Some("circuit")),
        (axis, Some(axis_csv)),
        ("mean t(n,x)", Some("mean_time_to_x")),
        ("speedup (geo mean)", Some("speedup")),
        ("seeds", Some("samples")),
    ];
    Figure {
        columns,
        rows,
        ..Figure::default()
    }
}

/// Load a paper circuit by name (panics on unknown names — harness bug).
fn circuit(name: &str) -> Arc<Netlist> {
    Arc::new(pts_netlist::by_name(name).unwrap_or_else(|| panic!("unknown circuit '{name}'")))
}

/// The configuration every experiment starts from.
fn base_config(profile: Profile) -> PtsConfig {
    let (global_iters, local_iters) = profile.iterations();
    PtsConfig {
        global_iters,
        local_iters,
        ..PtsConfig::default()
    }
}

/// Run a configuration on the twelve-machine paper cluster (virtual).
///
/// Experiments share runs: Fig. 9's are the streams ablation's shared
/// corners, and Fig. 5's 1-CLW point is Fig. 7's 4-TSW point. vt runs
/// are deterministic, so each circuit and configuration runs once per
/// process and repeats are served from a memo.
fn run(cfg: &PtsConfig, netlist: &Arc<Netlist>) -> MasterOutcome {
    static RUNS: Mutex<BTreeMap<(String, String), MasterOutcome>> = Mutex::new(BTreeMap::new());
    let key = (netlist.name.clone(), format!("{cfg:?}"));
    const UNPOISONED: &str = "no run happens while the memo is locked";
    if let Some(outcome) = RUNS.lock().expect(UNPOISONED).get(&key) {
        return outcome.clone();
    }
    let outcome = Pts::from_config(cfg.clone())
        .build()
        .expect("experiment configs are valid")
        .run_placement(Arc::clone(netlist), &VirtualEngine::paper())
        .outcome;
    RUNS.lock().expect(UNPOISONED).insert(key, outcome.clone());
    outcome
}

/// One run of `cfg` per seed, in seed order.
fn seed_runs(cfg: &PtsConfig, netlist: &Arc<Netlist>, seeds: &[u64]) -> Vec<MasterOutcome> {
    seeds
        .iter()
        .map(|&seed| {
            let mut c = cfg.clone();
            c.seed = seed;
            run(&c, netlist)
        })
        .collect()
}

/// Mean final best cost of a set of runs.
fn mean_best_cost(runs: &[MasterOutcome]) -> f64 {
    runs.iter().map(|o| o.best_cost).sum::<f64>() / runs.len() as f64
}

/// Format an `Option<f64>` for a cell.
fn fmt_opt(x: Option<f64>) -> String {
    match x {
        Some(v) if v.is_finite() => fmt_f64(v),
        Some(_) => "inf".to_string(),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ() {
        assert!(Profile::Full.circuits().len() > Profile::Quick.circuits().len());
        assert!(Profile::Full.iterations().0 > Profile::Quick.iterations().0);
    }

    #[test]
    fn circuit_loads_paper_benchmarks() {
        assert_eq!(circuit("highway").num_cells(), 56);
    }

    #[test]
    fn results_dir_is_workspace_level() {
        let d = results_dir();
        assert!(d.ends_with("results"));
    }

    #[test]
    fn fmt_opt_cases() {
        assert_eq!(fmt_opt(None), "-");
        assert_eq!(fmt_opt(Some(f64::INFINITY)), "inf");
        assert_eq!(fmt_opt(Some(2.0)), "2.0000");
    }

    #[test]
    fn a_figures_csv_and_its_summary_section_carry_the_same_rows() {
        let figure = Figure {
            title: "Synthetic",
            columns: vec![
                ("circuit", Some("circuit")),
                ("CLWs", Some("clws")),
                ("best cost", Some("best_cost")),
                ("wire", Some("wire")),
                ("mean t(n,x)", Some("mean_time_to_x")),
                ("wins?", None),
            ],
            rows: vec![
                vec![
                    text("c532"),
                    text(1),
                    Cell::Cost(0.338_215_04),
                    Cell::Raw(10_745.0),
                    text(fmt_opt(Some(848.281_2))),
                    text("NO"),
                ],
                vec![
                    text("c1355"),
                    text(4),
                    Cell::Cost(0.386_300_49),
                    Cell::Raw(14.415_65),
                    text(fmt_opt(None)),
                    text("yes"),
                ],
            ],
            csv: Some("synthetic"),
            shape: "the synthetic shape.",
            ..Figure::default()
        };
        let files = figure.csv_files();
        let [(name, csv)] = files.as_slice() else {
            panic!("one CSV file: {files:?}");
        };
        assert_eq!(*name, "synthetic");
        let summary = summary(Profile::Quick, std::slice::from_ref(&figure));
        let section = &summary[summary.find("## Synthetic").expect("a section")..];
        assert!(section.contains("Paper shape to check: the synthetic shape."));

        // The section's table rows follow its indented header and rule.
        let shown: Vec<Vec<&str>> = section
            .lines()
            .filter(|l| l.starts_with("    "))
            .skip(2)
            .map(|l| l.split_whitespace().collect())
            .collect();
        let stored: Vec<Vec<&str>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').collect())
            .collect();
        assert_eq!(shown.len(), 2);
        assert_eq!(shown.len(), stored.len());
        for (shown, stored) in shown.iter().zip(&stored) {
            // Every CSV cell, then the table-only verdict.
            assert_eq!(shown.len(), stored.len() + 1);
            for (s, c) in shown.iter().zip(stored) {
                match (s.parse::<f64>(), c.parse::<f64>()) {
                    (Ok(s_value), Ok(c_value)) => {
                        let decimals = s.split('.').nth(1).map_or(0, str::len) as i32;
                        let rounding = 0.5 * 10f64.powi(-decimals);
                        assert!((s_value - c_value).abs() <= rounding, "{s} shows {c}");
                    }
                    _ => assert_eq!(s, c),
                }
            }
        }
    }
}
