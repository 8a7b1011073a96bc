//! Worker-level fault injection for the virtual-time engine.
//!
//! [`pts_vcluster::FaultPlan`] speaks the runtime's language — task ids,
//! machine indices, opaque notification messages. This module speaks the
//! *protocol's* language: "kill TSW 3 at t=40", "crash machine 2",
//! "drop every Broadcast on the master→TSW routes for a while". A
//! [`FaultSpec`] holds such worker-level events and
//! [`FaultSpec::resolve`] lowers them onto a `FaultPlan`, wiring up the
//! PVM-style death notices ([`PtsMsg::Down`]) each kill must deliver to
//! the dead worker's protocol neighbours (its parent collector and its
//! children) so the survivors can re-plan instead of waiting forever.
//!
//! [`FaultSpec::seeded`] derives a whole adversarial scenario
//! deterministically from a `u64` seed and a [`FaultMix`] — the fuzz
//! driver's generator. Same seed, same mix, same config → the same
//! events, bit for bit, so every fuzz failure is a one-line repro.
//!
//! The master (rank 0) is never killed and its machine never crashed:
//! the run's outcome lives in the master, so killing it turns every
//! scenario into the same degenerate "no result" case. The resolver
//! filters such events rather than panicking, so a seeded generator can
//! pick targets uniformly.

use crate::config::PtsConfig;
use crate::domain::PtsProblem;
use crate::messages::PtsMsg;
use pts_util::Rng;
pub use pts_vcluster::Contention;
use pts_vcluster::{FaultPlan, RouteAction, RouteFault};

/// One worker-level fault event. Times are virtual seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WorkerFault {
    /// Kill TSW `tsw` at time `at`; its parent and CLWs get `Down`.
    KillTsw {
        /// Virtual time of death.
        at: f64,
        /// TSW index (`0..n_tsw`).
        tsw: usize,
    },
    /// Kill CLW `clw` of TSW `tsw` at time `at`; the TSW gets `Down`.
    KillClw {
        /// Virtual time of death.
        at: f64,
        /// Owning TSW index.
        tsw: usize,
        /// CLW index within the TSW's group (`0..n_clw`).
        clw: usize,
    },
    /// Kill sub-master `shard` at time `at`; parent and children get
    /// `Down`.
    KillShard {
        /// Virtual time of death.
        at: f64,
        /// Shard index (`0..n_shards`).
        shard: usize,
    },
    /// Crash a whole machine: every hosted worker dies with notices; the
    /// machine never computes again. Skipped if it hosts the master.
    CrashMachine {
        /// Virtual time of the crash.
        at: f64,
        /// Machine index in the cluster spec.
        machine: usize,
    },
    /// Multiply a machine's speed by `factor` from `at` on.
    SlowMachine {
        /// Virtual time the slowdown starts.
        at: f64,
        /// Machine index in the cluster spec.
        machine: usize,
        /// Speed multiplier in `(0, 1]` (e.g. `0.2` = 5× slower).
        factor: f64,
    },
    /// Freeze a machine over `[at, until)`; computes resume afterwards.
    PauseMachine {
        /// Virtual time the pause starts.
        at: f64,
        /// Machine index in the cluster spec.
        machine: usize,
        /// Virtual time the machine thaws.
        until: f64,
    },
    /// Silently lose matching messages over a window.
    DropRoute {
        /// Window start (send time).
        from: f64,
        /// Window end, exclusive.
        until: f64,
        /// Sender rank filter (`None` = any).
        src: Option<usize>,
        /// Receiver rank filter (`None` = any).
        dst: Option<usize>,
    },
    /// Stall matching messages by `delay` (FIFO preserved).
    DelayRoute {
        /// Window start (send time).
        from: f64,
        /// Window end, exclusive.
        until: f64,
        /// Extra latency in virtual seconds.
        delay: f64,
        /// Sender rank filter (`None` = any).
        src: Option<usize>,
        /// Receiver rank filter (`None` = any).
        dst: Option<usize>,
    },
    /// Add seeded per-message jitter in `[0, spread)` — can reorder.
    JitterRoute {
        /// Window start (send time).
        from: f64,
        /// Window end, exclusive.
        until: f64,
        /// Maximum extra latency; actual value is seeded per message.
        spread: f64,
        /// Sender rank filter (`None` = any).
        src: Option<usize>,
        /// Receiver rank filter (`None` = any).
        dst: Option<usize>,
    },
}

/// Named families of seeded scenarios — the fuzz driver's axes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultMix {
    /// Worker and machine deaths only.
    Crashes,
    /// Machine slowdowns and pauses only (everybody survives).
    Slowdowns,
    /// Message drops, delays, and reordering only.
    MessageChaos,
    /// All of the above at once.
    Mixed,
}

impl FaultMix {
    /// Every mix, in a stable order (fuzz sweeps iterate this).
    pub const ALL: [FaultMix; 4] = [
        FaultMix::Crashes,
        FaultMix::Slowdowns,
        FaultMix::MessageChaos,
        FaultMix::Mixed,
    ];

    /// Stable lowercase name (CLI value, repro lines).
    pub fn name(self) -> &'static str {
        match self {
            FaultMix::Crashes => "crashes",
            FaultMix::Slowdowns => "slowdowns",
            FaultMix::MessageChaos => "message-chaos",
            FaultMix::Mixed => "mixed",
        }
    }

    /// Parse a [`FaultMix::name`] back; `None` for anything else.
    pub fn parse(s: &str) -> Option<FaultMix> {
        FaultMix::ALL.into_iter().find(|m| m.name() == s)
    }
}

impl std::fmt::Display for FaultMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A worker-level fault scenario: events plus the seed that also drives
/// message jitter. Attach to the vt engine with
/// [`crate::VirtualEngine::with_faults`].
#[derive(Clone, Debug, Default)]
pub struct FaultSpec {
    /// The events, in no particular order (the resolver's plan sorts).
    pub events: Vec<WorkerFault>,
    /// Seed for per-message jitter and the record of how `seeded` built
    /// this spec.
    pub seed: u64,
}

impl FaultSpec {
    /// An empty scenario (injects nothing) under `seed`.
    pub fn new(seed: u64) -> FaultSpec {
        FaultSpec {
            events: Vec::new(),
            seed,
        }
    }

    /// Add one event (builder style).
    pub fn with(mut self, ev: WorkerFault) -> FaultSpec {
        self.events.push(ev);
        self
    }

    /// No events at all?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Derive a scenario deterministically from `(seed, mix)` for a run
    /// of `cfg` on `n_machines` machines, with all events scheduled
    /// inside `[0, horizon)` virtual seconds.
    ///
    /// Event *targets and times* depend only on the arguments — rerunning
    /// with the same five values rebuilds the identical spec, which is
    /// what makes a `seed=… mix=…` line a complete repro.
    pub fn seeded(
        seed: u64,
        mix: FaultMix,
        cfg: &PtsConfig,
        n_machines: usize,
        horizon: f64,
    ) -> FaultSpec {
        assert!(horizon > 0.0, "fault horizon must be positive");
        let mut spec = FaultSpec::new(seed);
        let mut rng = Rng::new(seed ^ 0x000F_A017_5EED);
        if matches!(mix, FaultMix::Crashes | FaultMix::Mixed) {
            spec.push_crashes(&mut rng.fork(1), cfg, n_machines, horizon);
        }
        if matches!(mix, FaultMix::Slowdowns | FaultMix::Mixed) {
            spec.push_slowdowns(&mut rng.fork(2), n_machines, horizon);
        }
        if matches!(mix, FaultMix::MessageChaos | FaultMix::Mixed) {
            spec.push_message_chaos(&mut rng.fork(3), cfg, horizon);
        }
        spec
    }

    fn push_crashes(&mut self, rng: &mut Rng, cfg: &PtsConfig, n_machines: usize, horizon: f64) {
        // Kill up to a third of the TSWs — enough to stress quorums
        // without routinely extinguishing the whole search.
        let max_kills = (cfg.n_tsw / 3).max(1);
        let n_kills = 1 + rng.index(max_kills);
        for tsw in rng.sample_indices(cfg.n_tsw, n_kills.min(cfg.n_tsw)) {
            let at = rng.range_f64(0.05, 0.95) * horizon;
            self.events.push(WorkerFault::KillTsw { at, tsw });
        }
        if rng.chance(0.5) {
            let at = rng.range_f64(0.05, 0.95) * horizon;
            let tsw = rng.index(cfg.n_tsw);
            let clw = rng.index(cfg.n_clw);
            self.events.push(WorkerFault::KillClw { at, tsw, clw });
        }
        if cfg.n_shards() > 0 && rng.chance(0.3) {
            let at = rng.range_f64(0.05, 0.95) * horizon;
            let shard = rng.index(cfg.n_shards());
            self.events.push(WorkerFault::KillShard { at, shard });
        }
        // A whole-machine crash (the resolver skips it if the pick hosts
        // the master).
        if n_machines > 1 && rng.chance(0.4) {
            let at = rng.range_f64(0.05, 0.95) * horizon;
            let machine = rng.index(n_machines);
            self.events.push(WorkerFault::CrashMachine { at, machine });
        }
    }

    fn push_slowdowns(&mut self, rng: &mut Rng, n_machines: usize, horizon: f64) {
        let n_slow = 1 + rng.index(n_machines.min(3));
        for machine in rng.sample_indices(n_machines, n_slow) {
            let at = rng.range_f64(0.0, 0.7) * horizon;
            let factor = rng.range_f64(0.1, 0.6);
            self.events.push(WorkerFault::SlowMachine {
                at,
                machine,
                factor,
            });
        }
        if rng.chance(0.4) {
            let machine = rng.index(n_machines);
            let at = rng.range_f64(0.1, 0.6) * horizon;
            let until = at + rng.range_f64(0.05, 0.25) * horizon;
            self.events
                .push(WorkerFault::PauseMachine { at, machine, until });
        }
    }

    fn push_message_chaos(&mut self, rng: &mut Rng, cfg: &PtsConfig, horizon: f64) {
        let n_procs = cfg.total_procs();
        let n_faults = 2 + rng.index(4);
        for _ in 0..n_faults {
            let from = rng.range_f64(0.0, 0.8) * horizon;
            let until = from + rng.range_f64(0.05, 0.3) * horizon;
            let src = rng.chance(0.5).then(|| rng.index(n_procs));
            let dst = rng.chance(0.5).then(|| rng.index(n_procs));
            let ev = match rng.index(3) {
                0 => WorkerFault::DropRoute {
                    from,
                    until,
                    src,
                    dst,
                },
                1 => WorkerFault::DelayRoute {
                    from,
                    until,
                    delay: rng.range_f64(0.02, 0.15) * horizon,
                    src,
                    dst,
                },
                _ => WorkerFault::JitterRoute {
                    from,
                    until,
                    spread: rng.range_f64(0.02, 0.1) * horizon,
                    src,
                    dst,
                },
            };
            self.events.push(ev);
        }
    }

    /// Lower the scenario onto a runtime [`FaultPlan`] for a run of `cfg`
    /// whose rank→machine map is `assignment` (the same
    /// `round_robin_assignment` the vt engine spawns with — task ids and
    /// protocol ranks coincide there).
    ///
    /// Events that would decapitate the run (kill rank 0, crash the
    /// master's machine) or that reference out-of-range workers are
    /// silently skipped — see the module docs.
    pub fn resolve<P: PtsProblem>(
        &self,
        cfg: &PtsConfig,
        assignment: &[usize],
    ) -> FaultPlan<PtsMsg<P>> {
        let mut plan: FaultPlan<PtsMsg<P>> = FaultPlan::new(self.seed);
        let master_machine = assignment[0];
        let n_machines = assignment.iter().copied().max().map_or(0, |m| m + 1);
        for ev in &self.events {
            match *ev {
                WorkerFault::KillTsw { at, tsw } if tsw < cfg.n_tsw => {
                    let rank = cfg.tsw_rank(tsw);
                    plan.kill_task(at, rank, death_notifies::<P>(cfg, rank));
                }
                WorkerFault::KillClw { at, tsw, clw } if tsw < cfg.n_tsw && clw < cfg.n_clw => {
                    let rank = cfg.clw_rank(tsw, clw);
                    plan.kill_task(at, rank, death_notifies::<P>(cfg, rank));
                }
                WorkerFault::KillShard { at, shard } if shard < cfg.n_shards() => {
                    let rank = cfg.shard_rank(shard);
                    plan.kill_task(at, rank, death_notifies::<P>(cfg, rank));
                }
                WorkerFault::CrashMachine { at, machine }
                    if machine < n_machines && machine != master_machine =>
                {
                    plan.crash_machine(at, machine);
                    // The runtime's Crash only stops the machine's clock;
                    // the hosted workers die *as protocol participants*
                    // here, each with its death notices.
                    for (rank, &m) in assignment.iter().enumerate() {
                        if m == machine {
                            plan.kill_task(at, rank, death_notifies::<P>(cfg, rank));
                        }
                    }
                }
                WorkerFault::SlowMachine {
                    at,
                    machine,
                    factor,
                } if machine < n_machines => plan.slow_machine(at, machine, factor),
                WorkerFault::PauseMachine { at, machine, until } if machine < n_machines => {
                    plan.pause_machine(at, machine, until)
                }
                WorkerFault::DropRoute {
                    from,
                    until,
                    src,
                    dst,
                } => plan.route(RouteFault {
                    src,
                    dst,
                    from,
                    until,
                    action: RouteAction::Drop,
                }),
                WorkerFault::DelayRoute {
                    from,
                    until,
                    delay,
                    src,
                    dst,
                } => plan.route(RouteFault {
                    src,
                    dst,
                    from,
                    until,
                    action: RouteAction::Delay(delay),
                }),
                WorkerFault::JitterRoute {
                    from,
                    until,
                    spread,
                    src,
                    dst,
                } => plan.route(RouteFault {
                    src,
                    dst,
                    from,
                    until,
                    action: RouteAction::Jitter(spread),
                }),
                // Out-of-range target or a decapitating event: skip.
                _ => {}
            }
        }
        plan
    }
}

/// The `Down` notices a dying `rank` owes its protocol neighbours: the
/// parent that would otherwise wait on its report, and the children that
/// would otherwise wait on its broadcasts.
fn death_notifies<P: PtsProblem>(cfg: &PtsConfig, rank: usize) -> Vec<(usize, PtsMsg<P>)> {
    down_recipients(cfg, rank)
        .into_iter()
        .map(|to| (to, PtsMsg::Down { rank }))
        .collect()
}

/// The ranks a dying `rank` owes a [`PtsMsg::Down`] notice: the parent
/// that would otherwise wait on its report, and the children that would
/// otherwise wait on its broadcasts. Rank 0 (the master) notifies nobody
/// — its death ends the run. On the proc engine these are exactly the
/// rank's link peers (its [`PtsConfig::parent_rank`] and the ranks that
/// answer to it), and each one reads the notice off its link's end.
pub fn down_recipients(cfg: &PtsConfig, rank: usize) -> Vec<usize> {
    // The master's death is fatal, not excusable.
    let Some(parent) = cfg.parent_rank(rank) else {
        return Vec::new();
    };
    let children = cfg.children_of(rank).into_iter();
    std::iter::once(parent)
        .chain(children.flat_map(|c| (0..c.len()).map(move |k| c.rank(cfg, k))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pts_tabu::qap::Qap;

    fn cfg(n_tsw: usize, n_clw: usize) -> PtsConfig {
        PtsConfig {
            n_tsw,
            n_clw,
            ..PtsConfig::default()
        }
    }

    #[test]
    fn down_recipients_are_exactly_the_link_peers() {
        let sharded = |n_tsw, n_clw, shard_fanout| PtsConfig {
            shard_fanout,
            ..cfg(n_tsw, n_clw)
        };
        for c in [cfg(3, 1), cfg(2, 2), sharded(4, 2, 2), sharded(9, 1, 2)] {
            let total = c.total_procs();
            assert!(
                down_recipients(&c, 0).is_empty(),
                "the master's death is fatal"
            );
            for rank in 1..total {
                let mut peers: Vec<usize> = c.parent_rank(rank).into_iter().collect();
                peers.extend((0..total).filter(|&r| c.parent_rank(r) == Some(rank)));
                let mut notified = down_recipients(&c, rank);
                peers.sort_unstable();
                notified.sort_unstable();
                assert_eq!(notified, peers, "rank {rank} of {total}");
            }
        }
    }

    #[test]
    fn seeded_specs_are_deterministic() {
        let c = cfg(8, 2);
        for mix in FaultMix::ALL {
            let a = FaultSpec::seeded(0xBEEF, mix, &c, 12, 100.0);
            let b = FaultSpec::seeded(0xBEEF, mix, &c, 12, 100.0);
            assert_eq!(a.events, b.events, "{mix} not deterministic");
            assert!(!a.is_empty(), "{mix} generated nothing");
        }
    }

    #[test]
    fn seeded_specs_differ_across_seeds() {
        let c = cfg(8, 2);
        let a = FaultSpec::seeded(1, FaultMix::Mixed, &c, 12, 100.0);
        let b = FaultSpec::seeded(2, FaultMix::Mixed, &c, 12, 100.0);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn mix_names_roundtrip() {
        for mix in FaultMix::ALL {
            assert_eq!(FaultMix::parse(mix.name()), Some(mix));
        }
        assert_eq!(FaultMix::parse("nope"), None);
    }

    #[test]
    fn kill_tsw_notifies_parent_and_clws() {
        let c = cfg(3, 2);
        let spec = FaultSpec::new(0).with(WorkerFault::KillTsw { at: 5.0, tsw: 1 });
        let assignment: Vec<usize> = (0..c.total_procs()).collect();
        let plan = spec.resolve::<Qap>(&c, &assignment);
        let kills = plan.kills();
        assert_eq!(kills.len(), 1);
        let (at, task, notified) = &kills[0];
        assert_eq!(*at, 5.0);
        assert_eq!(*task, c.tsw_rank(1));
        assert_eq!(*notified, vec![0, c.clw_rank(1, 0), c.clw_rank(1, 1)]);
    }

    #[test]
    fn crash_of_master_machine_is_skipped() {
        let c = cfg(3, 2);
        let assignment = vec![0; c.total_procs()]; // everyone on machine 0
        let spec = FaultSpec::new(0).with(WorkerFault::CrashMachine {
            at: 1.0,
            machine: 0,
        });
        let plan = spec.resolve::<Qap>(&c, &assignment);
        assert!(plan.is_empty(), "decapitating crash must be filtered");
    }

    #[test]
    fn crash_kills_every_hosted_worker_with_notices() {
        let c = cfg(2, 1);
        // ranks: 0 master(m0), 1 tsw0(m1), 2 tsw1(m0), 3 clw00(m1), 4 clw10(m0)
        let assignment = vec![0, 1, 0, 1, 0];
        let spec = FaultSpec::new(0).with(WorkerFault::CrashMachine {
            at: 2.0,
            machine: 1,
        });
        let plan = spec.resolve::<Qap>(&c, &assignment);
        // one Machine event + kills for ranks 1 and 3
        assert_eq!(plan.len(), 3);
        let killed: Vec<usize> = plan.kills().iter().map(|&(_, task, _)| task).collect();
        assert_eq!(killed, vec![1, 3]);
    }

    #[test]
    fn out_of_range_targets_are_skipped() {
        let c = cfg(2, 1);
        let assignment: Vec<usize> = (0..c.total_procs()).collect();
        let spec = FaultSpec::new(0)
            .with(WorkerFault::KillTsw { at: 1.0, tsw: 99 })
            .with(WorkerFault::SlowMachine {
                at: 1.0,
                machine: 99,
                factor: 0.5,
            });
        assert!(spec.resolve::<Qap>(&c, &assignment).is_empty());
    }
}
