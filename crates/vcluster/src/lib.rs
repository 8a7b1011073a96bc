//! A deterministic virtual-time heterogeneous cluster runtime.
//!
//! The paper runs its parallel tabu search with PVM on twelve physical
//! workstations of three speed classes. This crate substitutes that
//! testbed with a simulated cluster that reproduces exactly the properties
//! the experiments measure — *relative* execution speed, background load,
//! and message latency — while being fully deterministic and runnable
//! anywhere:
//!
//! * every logical process is a future on one OS thread, and a
//!   discrete-event scheduler ([`virtual_runtime`]) advances a global
//!   **virtual clock** to the next wake-up in `(time, task id)` order, so
//!   runs are exactly reproducible and thousands of processes fit on one
//!   host; it is the workspace's one cooperative executor,
//! * CPU work is charged explicitly via
//!   [`virtual_runtime::VirtualTaskCtx::compute`] in abstract *work
//!   units*; a machine of speed `s` executes `s` units per virtual second,
//!   modulated by its background [`machine::LoadModel`],
//! * messages travel through a [`message::LinkModel`] with latency and
//!   bandwidth; mailbox delivery order is `(arrival time, send sequence)`,
//! * per-process [`metrics`] (busy time, message counts) feed the
//!   experiment harness,
//! * opt-in [`fault`] plans and machine contention extend the model
//!   without disturbing it when off.
//!
//! The paper's twelve-machine cluster (7 fast / 3 medium / 2 slow) is
//! provided by [`topology::paper_cluster`]; [`topology::zero_cost`] is its
//! opposite, one speed-1.0 machine behind a free link, on which the same
//! executor orders a swarm by charged work alone (`pts-core`'s wall-clock
//! `AsyncEngine` runs there).

pub mod fault;
pub mod machine;
pub mod mailbox;
pub mod message;
pub mod metrics;
pub mod topology;
pub mod virtual_runtime;

pub use fault::{Contention, FaultPlan, MachineEvent, RouteAction, RouteFault};
pub use machine::{LoadModel, Machine};
pub use message::LinkModel;
pub use metrics::{ProcStats, RunReport, TaskFate};
pub use topology::ClusterSpec;
pub use virtual_runtime::{EventQueue, VirtualTaskCluster, VirtualTaskCtx};
