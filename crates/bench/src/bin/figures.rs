//! Reproduce the paper's Figs. 5–11 and the streams ablation.
//!
//! `figures [ID...]` runs the experiments named by ID (`5` … `11`,
//! `ablation`), or every one of them when no ID is given. Each prints its
//! table and writes its CSV files under `results/`; `results/SUMMARY.md`
//! then collects the sections of the experiments this run made.
//! `PTS_FULL=1` selects the paper-scale profile. The exit status is 2 on
//! an unknown ID and 1 when a file could not be written.

use pts_bench::figures::{results_dir, summary, Profile, EXPERIMENTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut chosen = Vec::new();
    for arg in std::env::args().skip(1) {
        match EXPERIMENTS.iter().find(|(id, _)| *id == arg) {
            Some(&experiment) => chosen.push(experiment),
            None => {
                let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
                eprintln!(
                    "figures: unknown figure '{arg}'; choose from {}",
                    ids.join(" ")
                );
                return ExitCode::from(2);
            }
        }
    }
    if chosen.is_empty() {
        chosen = EXPERIMENTS.to_vec();
    }

    let profile = Profile::from_env();
    let mut written = true;
    let mut figures = Vec::new();
    for (_, experiment) in chosen {
        let figure = experiment(profile);
        println!("{}", figure.section());
        for (name, contents) in figure.csv_files() {
            written &= write(&format!("{name}.csv"), &contents);
        }
        println!();
        figures.push(figure);
    }
    written &= write("SUMMARY.md", &summary(profile, &figures));
    if written {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Write one output file under `results/`, and say where it went or why
/// it did not.
fn write(file: &str, contents: &str) -> bool {
    let dir = results_dir();
    let path = dir.join(file);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents)) {
        Ok(()) => {
            println!("[wrote] {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("figures: cannot write {}: {e}", path.display());
            false
        }
    }
}
