//! Experiment harness: the paper's figures, the fault and chaos sweeps,
//! and the CI benchmark gates.
//!
//! [`figures`] defines each experiment of the paper's evaluation
//! (Figs. 5–11) and the streams ablation once; the `figures` binary runs
//! them, prints their tables, and writes their CSVs and a summary under
//! `results/`. By default the experiments run in a seconds-scale "quick"
//! profile; `PTS_FULL=1` selects the paper-scale profile (more
//! iterations, all circuits). [`kernel`] is the candidate-kernel
//! measurement behind `engine_compare`'s time gate.

pub mod figures;
pub mod kernel;
