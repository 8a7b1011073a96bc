//! Parallel Tabu Search (PTS) — the primary contribution of Al-Yamani,
//! Sait, Barada & Youssef, *"Parallel Tabu Search in a Heterogeneous
//! Environment"*, IPDPS 2003.
//!
//! Two parallelization strategies are combined, exactly as in the paper:
//!
//! * **high level (multi-search threads, p-control)**: a [`master`]
//!   process coordinates several Tabu Search Workers ([`tsw`]), each
//!   running its own tabu search from the shared initial solution after a
//!   Kelly-style diversification over a private item subset; the master
//!   collects bests per *global iteration* and broadcasts the winner
//!   (solution + tabu list) — optionally through a sharded tree of
//!   sub-masters ([`config::PtsConfig::shard_fanout`]) so collection
//!   stays O(fan-out) per process at thousand-worker scale;
//! * **low level (functional decomposition, 1-control)**: each TSW drives
//!   Candidate-List Workers ([`clw`]) that explore the neighborhood in
//!   parallel, each anchored to an item range (probabilistic domain
//!   decomposition), building compound moves of depth `d` from best-of-`m`
//!   candidate moves;
//! * **heterogeneity**: under [`config::SyncPolicy::HalfReport`], a parent
//!   waits only for half of its children, then forces the rest to report
//!   immediately — at both the master/TSW and TSW/CLW levels.
//!
//! The pipeline is generic along two axes:
//!
//! * **problem**: any [`domain::PtsDomain`] — VLSI placement
//!   ([`placement_problem::PlacementDomain`], the paper's workload) and
//!   quadratic assignment ([`qap_domain::QapDomain`]) are wired in;
//! * **substrate**: any [`engine::ExecutionEngine`] — the deterministic
//!   heterogeneous cluster under a virtual clock
//!   ([`virtual_engine::VirtualEngine`], the paper's PVM-testbed
//!   substitute, thousands of logical workers on one OS thread), native
//!   threads ([`engine::ThreadEngine`]) for real wall-clock parallelism,
//!   the same cooperative executor on a zero-cost cluster and a wall
//!   clock ([`async_engine::AsyncEngine`]),
//!   or one OS process per rank over sockets ([`proc::ProcEngine`]).
//!   Every engine spawns its worker ranks through one
//!   [`engine::run_role`], and all return one unified
//!   [`report::RunReport`].
//!
//! Entry point: [`builder::Pts::builder`] → validated
//! [`builder::PtsRun`] → `execute` / `run_placement`.

#![warn(missing_docs)]

pub mod async_engine;
pub mod builder;
pub mod clw;
pub mod config;
pub mod control;
pub mod domain;
pub mod engine;
pub mod fault;
pub mod master;
pub mod messages;
pub mod meter;
pub mod placement_problem;
pub mod proc;
pub mod qap_domain;
pub mod report;
pub mod run;
pub mod serve;
pub mod socket;
pub mod speedup;
pub mod transport;
pub mod tsw;
pub mod virtual_engine;
pub mod wire;

pub use async_engine::AsyncEngine;
pub use builder::{ConfigError, PlacementRunOutput, Pts, PtsRun, RunBuilder};
pub use config::{
    Children, CostKind, PtsConfig, Role, SearchStrategy, ShardSpec, SnapshotMode, SyncPolicy,
    WorkModel,
};
pub use control::RunControl;
pub use domain::{
    DeltaOf, DeltaSnapshot, FromSwap, PtsDomain, PtsProblem, SearchOutcome, SnapshotOf, WireSized,
};
pub use engine::{EngineOutput, ExecutionEngine, ThreadEngine};
pub use fault::{Contention, FaultMix, FaultSpec, WorkerFault};
pub use messages::{PtsMsg, SharedTabu, SnapshotBase, SnapshotPayload, TabuEntries, TabuPayload};
pub use meter::{take_snapshot_meter, take_trials, SnapshotMeter};
pub use placement_problem::{MasterOutcome, PlacementDelta, PlacementDomain, PlacementProblem};
pub use proc::{ProcDomain, ProcEngine};
pub use qap_domain::{QapDelta, QapDomain};
pub use report::{ClockDomain, RunReport};
pub use run::run_sequential_baseline;
pub use socket::{SocketRouter, SocketTransport};
pub use speedup::{common_quality_target, fractional_quality_target, speedup_sweep, SpeedupPoint};
pub use virtual_engine::VirtualEngine;
pub use wire::{WireError, WireProblem, WIRE_VERSION};
