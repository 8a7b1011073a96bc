//! VLSI standard-cell placement model for the parallel tabu search paper.
//!
//! A placement assigns every cell of a [`pts_netlist::Netlist`] to a slot on
//! a row-based layout grid. Solutions are evaluated against the paper's
//! three noisy objectives:
//!
//! * **wirelength** — half-perimeter bounding box (HPWL) summed over nets,
//!   maintained incrementally per swap ([`wirelength`]),
//! * **critical-path delay** — static timing with a linear net-delay model,
//!   using an incremental estimate for trial moves and an exact refresh on
//!   commit ([`timing`]),
//! * **area** — the widest row (row-width balance), since total chip area is
//!   `max_row_width × total_height` ([`area`]).
//!
//! The objectives are combined with the fuzzy goal-based scheme the paper
//! cites (piecewise-linear memberships + ordered-weighted-average, see
//! [`fuzzy`]) into a single scalar cost minimized by tabu search.
//!
//! [`eval::Evaluator`] packages all of this behind a `trial_swap` /
//! `commit_swap` interface — the contract the tabu search layers build on.

pub mod area;
pub mod cost;
pub mod eval;
pub mod fuzzy;
pub mod init;
pub mod layout;
pub mod placement;
pub mod timing;
mod top;
pub mod wirelength;

pub use cost::{CostScheme, RawObjectives};
pub use eval::{Evaluator, TrialCost};
pub use fuzzy::{FuzzyGoals, GoalConfig};
pub use layout::{Layout, SlotId};
pub use placement::Placement;
