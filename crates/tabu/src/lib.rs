//! Generic sequential tabu search engine.
//!
//! Implements the algorithm of the paper's Figure 1 over an abstract
//! [`problem::SearchProblem`]:
//!
//! * short-term memory: a tenure-based [`tabu_list::TabuList`] over move
//!   attributes, preventing recently reversed moves,
//! * [`aspiration`]: tabu moves are still accepted when they beat the best
//!   known cost,
//! * candidate lists: `m` sampled moves per step, best taken
//!   ([`candidate`]),
//! * [`compound`] moves of depth `d` with early accept on improvement — the
//!   exact move structure the paper's candidate-list workers use,
//! * long-term [`memory`]: frequency counts driving
//!   [`diversify`]`::diversify`, the Kelly-et-al-style diversification the
//!   paper applies at the start of every global iteration,
//! * [`trace`]: best-cost-versus-time recording, from which the paper's
//!   speedup metric `t(1,x)/t(n,x)` is computed.
//!
//! The engine is domain-agnostic; [`qap`] provides a classic quadratic
//! assignment problem binding (the domain of the cited Kelly et al.
//! diversification study) used for tests, examples, and as a second proof
//! of the public API. The VLSI placement binding lives in `pts-core`.

pub mod aspiration;
pub mod candidate;
pub mod compound;
pub mod diversify;
pub mod intensify;
pub mod memory;
pub mod problem;
pub mod qap;
pub mod search;
pub mod tabu_list;
pub mod trace;

pub use candidate::CandidateList;
pub use compound::{build_compound, CompoundMove};
pub use diversify::DiversifiableProblem;
pub use intensify::{intensify, ElitePool};
pub use memory::FrequencyMemory;
pub use problem::{AttrPair, SearchProblem};
pub use qap::{Qap, QapAssignment};
pub use search::{SearchResult, TabuSearch, TabuSearchConfig};
pub use tabu_list::TabuList;
pub use trace::{Trace, TracePoint};
