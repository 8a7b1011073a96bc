//! The master side of the protocol: the root collector and, under a
//! sharded topology, the tree of sub-masters — generic over the problem
//! domain.
//!
//! Distributes the initial solution to every worker, then runs
//! `global_iters` rounds: collect one report per TSW — under the
//! heterogeneous policy, forcing stragglers once half have reported —
//! select the overall best, and broadcast it (solution + tabu list) back to
//! all TSWs. One collect+broadcast is one *global iteration*.
//!
//! With `shard_fanout` set (see [`PtsConfig::shard_fanout`]), collection
//! runs over a tree: each leaf sub-master collects its TSW group, applies
//! the quorum/force policy locally, reduces the group to one best
//! (cost + snapshot + merged trace + folded stats), and forwards a single
//! `GroupReport`; inner sub-masters reduce `GroupReport`s the same way;
//! the root reduces the top level and broadcasts the global best back down
//! the tree. Every process then handles O(fan-out) messages per round
//! instead of the root handling O(`n_tsw`).
//!
//! Snapshot handling is delta-aware and zero-copy (see
//! [`crate::messages::SnapshotPayload`]): every collector tracks the
//! [`SnapshotBase`] its children share (the initial solution, then each
//! broadcast as it passes through), resolves incoming payloads against it
//! lazily — only a report that *wins* the reduction is ever materialized
//! — and fans broadcasts out as `Arc` clones, O(1) snapshot allocations
//! per node per round regardless of fan-out. Sub-masters relay broadcast
//! payloads verbatim: everyone below still holds the same base.
//!
//! One collection loop, `Reduction::collect_round`, serves the root and
//! every sub-master: it takes `Report`s from a TSW group and
//! `GroupReport`s from a sub-master group, and [`ShardChildren`] maps
//! each child to its rank and back. The loop is *hardened for release
//! builds*: a stale report (earlier round) is dropped silently (it is the
//! one semi-expected anomaly — a late report can legitimately cross
//! control traffic), while a report for a later round, a report from a
//! worker that is not one of this node's children (including a
//! `GroupReport` at a leaf or a `Report` above one), a duplicate report
//! (same child twice in one round), a message of an unexpected type, or
//! a delta against a base this node does not hold is dropped with a
//! stderr note. None of them is ever merged into the wrong round.
//! Debug-only assertions used to be the sole guard here, which meant a
//! release build would silently double-count `n_rep` and corrupt or
//! deadlock the round.

use crate::config::{PtsConfig, Role, ShardChildren, SyncPolicy};
use crate::control::RunControl;
use crate::domain::{PtsDomain, SearchOutcome, SnapshotOf};
use crate::messages::{PtsMsg, SharedTabu, SnapshotBase, SnapshotPayload, TabuPayload};
use crate::transport::{protocol_warn, Transport};
use pts_tabu::search::SearchStats;
use pts_tabu::trace::Trace;
use pts_util::Rng;
use std::sync::Arc;

/// Exploration rate of the root's epsilon-greedy strategy reallocator:
/// each group re-rolls a uniformly random portfolio entry with this
/// probability per round, and exploits the best observed mean cost
/// improvement otherwise.
const PORTFOLIO_EPSILON: f64 = 0.2;

/// RNG stream salt for the reallocator — its draws must never perturb
/// any search stream, so it forks its own generator off the run seed.
const PORTFOLIO_RNG_SALT: u64 = 0x5052_5446_4F4C_494F; // "PRTFOLIO"

/// Shorthand for the base/payload types over a domain's problem.
type BaseOf<D> = SnapshotBase<<D as PtsDomain>::Problem>;
type PayloadOf<D> = SnapshotPayload<<D as PtsDomain>::Problem>;
type TabuOf<D> = SharedTabu<<D as PtsDomain>::Problem>;
type TabuPayloadOf<D> = TabuPayload<<D as PtsDomain>::Problem>;

/// Running reduction state shared by the root master and every
/// sub-master: the best solution seen in this node's subtree (kept
/// resolved — deltas are applied the moment they win), the merged trace,
/// the folded final-round statistics, and the forces this node itself
/// issued.
struct Reduction<D: PtsDomain> {
    best_cost: f64,
    best_snapshot: Arc<SnapshotOf<D>>,
    best_tabu: TabuOf<D>,
    merged: Trace,
    stats: SearchStats,
    forced: u64,
    /// Latest *cumulative* best cost each child reported (index = child
    /// offset within this node's group; seeded with the initial cost).
    /// The root's strategy reallocator differences consecutive rounds of
    /// this vector to score portfolio entries.
    child_cost: Vec<f64>,
}

impl<D: PtsDomain> Reduction<D> {
    fn new(initial_cost: f64, initial: Arc<SnapshotOf<D>>, n_children: usize) -> Reduction<D> {
        Reduction {
            best_cost: initial_cost,
            best_snapshot: initial,
            best_tabu: Arc::new(Vec::new()),
            merged: Trace::new(),
            stats: SearchStats::default(),
            forced: 0,
            child_cost: vec![initial_cost; n_children],
        }
    }

    /// Fold one child report into the reduction. Strict `<` keeps the
    /// earliest achiever on cost ties, matching the flat master. Only an
    /// improving payload is resolved to a full snapshot (losing deltas
    /// are never materialized); a winning delta against a base this node
    /// does not hold is a protocol violation — warned and ignored, like
    /// the other malformed-message paths.
    fn offer(
        &mut self,
        rank: usize,
        base: &BaseOf<D>,
        cost: f64,
        payload: PayloadOf<D>,
        tabu: TabuOf<D>,
    ) {
        if cost < self.best_cost {
            match payload.resolve(base) {
                Some(full) => {
                    self.best_cost = cost;
                    self.best_snapshot = full;
                    self.best_tabu = tabu;
                }
                None => protocol_warn(
                    rank,
                    "ignoring winning report delta against a base this collector does not hold",
                ),
            }
        }
    }

    fn fold_stats(&mut self, stats: &SearchStats) {
        self.stats.iterations += stats.iterations;
        self.stats.accepted += stats.accepted;
        self.stats.rejected_tabu += stats.rejected_tabu;
        self.stats.aspirated += stats.aspirated;
        self.stats.improved_best += stats.improved_best;
    }

    /// Collect one round-`g` report per *live* child: a `Report` from
    /// each TSW of a leaf group (the flat root, leaf sub-masters) or a
    /// `GroupReport` from each sub-master of an inner one (the sharded
    /// root, inner sub-masters). The straggler policy lives at the leaf
    /// level: under [`SyncPolicy::HalfReport`] a TSW group forces its
    /// stragglers once a quorum of its live children has reported, while
    /// a sub-master group waits for every surviving child and records
    /// each subtree's cumulative force count in `child_forced[k]`.
    ///
    /// Fault tolerance: `dead[k]` marks children whose death notice
    /// ([`PtsMsg::Down`]) has arrived — they are excused from the round
    /// (a report already folded still counts), excluded from the
    /// force/quorum arithmetic, and stay dead for the rest of the run.
    /// `deadline`, when set, bounds the whole collection: silence past it
    /// (a stalled but not-dead child, e.g. a paused machine) completes
    /// the round with the reports in hand — the straggler's stale report
    /// is dropped by the round guard next round and it resynchronizes on
    /// the broadcast already sitting in its mailbox. Fault-free runs
    /// (`dead` all false, `deadline` `None`) take exactly the historical
    /// path.
    #[allow(clippy::too_many_arguments)]
    async fn collect_round<T: Transport<D::Problem>>(
        &mut self,
        t: &mut T,
        cfg: &PtsConfig,
        base: &BaseOf<D>,
        g: u32,
        children: ShardChildren,
        child_forced: &mut [u64],
        dead: &mut [bool],
        deadline: Option<f64>,
    ) {
        let n = children.len();
        let final_round = g + 1 == cfg.global_iters;
        let mut reported = vec![false; n];
        let mut n_rep = 0;
        let mut may_force = cfg.tsw_sync == SyncPolicy::HalfReport
            && matches!(children, ShardChildren::Tsws { .. });
        // Children that died without reporting are excused; the round
        // completes when every survivor has reported. With no deaths
        // this is all `n`.
        let n_alive = |dead: &[bool], reported: &[bool]| {
            n - dead
                .iter()
                .zip(reported)
                .filter(|&(&d, &r)| d && !r)
                .count()
        };

        loop {
            let alive = n_alive(dead, &reported);
            if n_rep >= alive {
                break;
            }
            let msg = match deadline {
                None => t.recv().await,
                Some(d) => match t.recv_deadline(d).await {
                    Some(m) => m,
                    None => {
                        protocol_warn(
                            t.rank(),
                            &format!(
                                "liveness timeout collecting round {g}: proceeding with {n_rep}/{alive} reports"
                            ),
                        );
                        break;
                    }
                },
            };
            let (child, global, cost, snapshot, tabu, trace, stats, forced) = match msg {
                PtsMsg::Report {
                    tsw,
                    global,
                    cost,
                    snapshot,
                    tabu,
                    trace,
                    stats,
                } => (
                    Role::Tsw(tsw),
                    global,
                    cost,
                    snapshot,
                    tabu,
                    trace,
                    stats,
                    None,
                ),
                PtsMsg::GroupReport {
                    shard,
                    global,
                    cost,
                    snapshot,
                    tabu,
                    trace,
                    stats,
                    forced,
                } => (
                    Role::Shard(shard),
                    global,
                    cost,
                    snapshot,
                    tabu,
                    trace,
                    stats,
                    Some(forced),
                ),
                PtsMsg::Down { rank } => {
                    note_down(t.rank(), cfg, children, dead, rank);
                    continue;
                }
                other => {
                    protocol_warn(
                        t.rank(),
                        &format!(
                            "dropping unexpected {} while collecting reports",
                            other.tag()
                        ),
                    );
                    continue;
                }
            };
            // Release-mode protocol hardening: reports are strictly
            // per-round and per-child; anything else is dropped, never
            // merged into the wrong round.
            if global < g {
                // Stale: a late report from an earlier round.
                continue;
            }
            let k = match children.index_of_role(child) {
                Some(k) if global == g => k,
                _ => {
                    protocol_warn(
                        t.rank(),
                        &format!("dropping report from {child:?} for round {global} (collecting {children:?} round {g})"),
                    );
                    continue;
                }
            };
            if reported[k] {
                protocol_warn(
                    t.rank(),
                    &format!("rejecting duplicate report from {child:?} in round {g}"),
                );
                continue;
            }
            reported[k] = true;
            n_rep += 1;
            self.child_cost[k] = cost;
            t.compute(cfg.work.per_report).await;
            self.merged = Trace::merge([&self.merged, &Trace::from_points(trace)]);
            self.offer(t.rank(), base, cost, snapshot, tabu);
            // Stats are cumulative per child; summing every round would
            // over-count, so fold them in on the final round only.
            if final_round {
                self.fold_stats(&stats);
            }
            if let Some(forced) = forced {
                child_forced[k] = forced;
            }
            // Quorum over the children still alive: the dead can neither
            // report nor be forced.
            let alive = n_alive(dead, &reported);
            if may_force && n_rep >= cfg.report_quorum(alive) && n_rep < alive {
                for (k, &done) in reported.iter().enumerate() {
                    if !done && !dead[k] {
                        t.send(children.rank(cfg, k), PtsMsg::ForceReport { global: g });
                        self.forced += 1;
                    }
                }
                may_force = false;
            }
        }
    }

    /// Forces issued in this node's whole subtree so far.
    fn subtree_forced(&self, child_forced: &[u64]) -> u64 {
        self.forced + child_forced.iter().sum::<u64>()
    }
}

/// Downward payload of [`send_down`]: the round winner to broadcast, or
/// `None` for `Stop` after the final round. Cloning the payload per
/// child is O(1) — the snapshot (or delta) and tabu list sit behind
/// `Arc`s.
type Winner<'a, D> = Option<(u32, &'a PayloadOf<D>, &'a TabuPayloadOf<D>)>;

/// Strategy ids riding a downward broadcast: one per child (the root's
/// reallocator output — child `lo + k` gets entry `k`) or one for the
/// whole subtree (sub-master relays: everything below a sub-master is a
/// single group). Always `Uniform(0)` in uniform runs.
#[derive(Clone, Copy)]
enum StrategyDown<'a> {
    Uniform(u8),
    PerChild(&'a [u8]),
}

impl StrategyDown<'_> {
    fn of(&self, idx: usize) -> u8 {
        match *self {
            StrategyDown::Uniform(s) => s,
            StrategyDown::PerChild(v) => v[idx],
        }
    }
}

/// Send the round-`g` winner (or `Stop` after the final round) down to
/// this node's children, stamping each child's strategy assignment: a
/// `Broadcast` to each TSW of a leaf group, a `GroupBroadcast` to each
/// sub-master of an inner one.
fn send_down<D: PtsDomain, T: Transport<D::Problem>>(
    t: &mut T,
    cfg: &PtsConfig,
    children: ShardChildren,
    msg: Winner<'_, D>,
    strat: StrategyDown<'_>,
) {
    for k in 0..children.len() {
        let m = match msg {
            Some((global, snapshot, tabu)) => {
                let (snapshot, tabu, strategy) = (snapshot.clone(), tabu.clone(), strat.of(k));
                match children {
                    ShardChildren::Tsws { .. } => PtsMsg::Broadcast {
                        global,
                        snapshot,
                        tabu,
                        strategy,
                    },
                    ShardChildren::Shards { .. } => PtsMsg::GroupBroadcast {
                        global,
                        snapshot,
                        tabu,
                        strategy,
                    },
                }
            }
            None => PtsMsg::Stop,
        };
        t.send(children.rank(cfg, k), m);
    }
}

/// Send the initial solution down (`Arc` clones, not copies): to each
/// child in turn, followed at the leaf level by that TSW's CLWs.
/// Sub-masters pass it on to their own subtrees.
fn send_init<D: PtsDomain, T: Transport<D::Problem>>(
    t: &mut T,
    cfg: &PtsConfig,
    children: ShardChildren,
    initial: &Arc<SnapshotOf<D>>,
) {
    let init = || PtsMsg::Init {
        snapshot: Arc::clone(initial),
    };
    for k in 0..children.len() {
        t.send(children.rank(cfg, k), init());
        if let ShardChildren::Tsws { lo, .. } = children {
            for j in 0..cfg.n_clw {
                t.send(cfg.clw_rank(lo + k, j), init());
            }
        }
    }
}

/// Mark child `rank` dead on its [`PtsMsg::Down`] notice; a notice for a
/// rank that is not one of `children` is warned about and ignored.
fn note_down(me: usize, cfg: &PtsConfig, children: ShardChildren, dead: &mut [bool], rank: usize) {
    match children.index_of(cfg, rank) {
        Some(k) if !dead[k] => {
            dead[k] = true;
            protocol_warn(me, &format!("child {k} (rank {rank}) is down"));
        }
        Some(_) => {}
        None => protocol_warn(
            me,
            &format!("ignoring Down for rank {rank} (not a child of this node)"),
        ),
    }
}

/// The portfolio entry with the best observed mean cost improvement per
/// assigned round; never-sampled entries count as infinitely promising
/// (optimistic initialization), and ties resolve to the lowest id.
fn best_strategy(score: &[f64], rounds: &[u64]) -> u8 {
    let mut best = 0usize;
    let mut best_mean = f64::NEG_INFINITY;
    for s in 0..score.len() {
        let mean = if rounds[s] == 0 {
            f64::INFINITY
        } else {
            score[s] / rounds[s] as f64
        };
        if mean > best_mean {
            best_mean = mean;
            best = s;
        }
    }
    best as u8
}

/// Run the root-master protocol to completion.
///
/// `async` over any [`Transport`]: on blocking substrates drive it with
/// [`crate::transport::drive_sync`]; on the cooperative substrate each
/// `recv` is a scheduling point.
///
/// `ctl` is consulted once per global iteration, at the point where the
/// master already chooses between "broadcast and continue" and "send
/// `Stop`": a cancel or expired deadline simply makes the current round
/// the final one, so an early stop is indistinguishable to the workers
/// from a configured last round — no new protocol state. Callers without
/// external control pass [`RunControl::unlimited`].
pub async fn run_master<D: PtsDomain, T: Transport<D::Problem>>(
    t: &mut T,
    cfg: &PtsConfig,
    domain: &D,
    initial: SnapshotOf<D>,
    ctl: &RunControl,
) -> SearchOutcome<SnapshotOf<D>> {
    // Cost of the initial solution under the (frozen) domain.
    let initial_cost = domain.cost_of(&initial);
    let initial = Arc::new(initial);
    let children = cfg.root_children();

    // Initialize the tree. Flat: the root addresses every worker, each
    // TSW followed by its CLWs. Sharded: only the top sub-masters are
    // addressed; they fan the Init out to their subtrees, keeping the
    // root's traffic O(fan-out).
    send_init::<D, T>(t, cfg, children, &initial);

    // The base every child currently shares with this node: the initial
    // solution, re-anchored on each broadcast sent below.
    let mut base: BaseOf<D> = SnapshotBase::initial(Arc::clone(&initial));
    let mut red: Reduction<D> = Reduction::new(initial_cost, initial, children.len());
    red.merged.record(t.now(), 0, red.best_cost);
    let mut best_per_global_iter = Vec::with_capacity(cfg.global_iters as usize);
    let mut child_forced = vec![0u64; children.len()];
    // Death notices persist: a child reported down stays excused for
    // every later round. Always all-false in fault-free runs.
    let mut dead = vec![false; children.len()];

    // Strategy reallocation state. With an empty portfolio every entry
    // of `assign` is 0, the scoring/reassignment block below is skipped
    // entirely (no RNG draws, no behaviour change), and every broadcast
    // carries strategy byte 0 — bit-identical to the uniform protocol.
    // With a portfolio: groups start round-robin, each round's per-group
    // cost improvement is credited to the strategy the group ran, and an
    // epsilon-greedy step (own RNG stream, deterministic given the run
    // seed) picks next round's assignment, which rides the broadcast.
    let n_strategies = cfg.portfolio.len();
    let mut assign: Vec<u8> = (0..children.len())
        .map(|g| cfg.initial_strategy_of_group(g))
        .collect();
    let mut strat_score = vec![0.0f64; n_strategies];
    let mut strat_rounds = vec![0u64; n_strategies];
    let mut prev_cost = vec![initial_cost; children.len()];
    let mut realloc_rng = Rng::new(cfg.seed ^ PORTFOLIO_RNG_SALT);

    for g in 0..cfg.global_iters {
        let deadline = ctl.recv_deadline(t.now(), cfg.liveness_timeout);
        red.collect_round(
            t,
            cfg,
            &base,
            g,
            children,
            &mut child_forced,
            &mut dead,
            deadline,
        )
        .await;

        red.merged.record(t.now(), g as u64 + 1, red.best_cost);
        best_per_global_iter.push(red.best_cost);
        ctl.note_progress(g, red.best_cost);

        let last_round = g + 1 == cfg.global_iters || ctl.should_stop();

        if n_strategies > 0 {
            // Credit this round's cost improvement of each group to the
            // strategy it ran (reports carry cumulative bests, so the
            // difference is non-negative and dead/silent groups score 0).
            for g_idx in 0..children.len() {
                let now_cost = red.child_cost[g_idx];
                let improvement = (prev_cost[g_idx] - now_cost).max(0.0);
                prev_cost[g_idx] = now_cost;
                let s = assign[g_idx] as usize % n_strategies;
                strat_score[s] += improvement;
                strat_rounds[s] += 1;
            }
            if !last_round {
                // Epsilon-greedy: explore a random entry, else exploit
                // the best observed mean improvement.
                for a in assign.iter_mut() {
                    *a = if realloc_rng.chance(PORTFOLIO_EPSILON) {
                        realloc_rng.index(n_strategies) as u8
                    } else {
                        best_strategy(&strat_score, &strat_rounds)
                    };
                }
            }
        }

        if !last_round {
            // Diff the round winner against the base the children still
            // hold, ship it once per child (Arc clones), then re-anchor
            // the shared base on what was just broadcast.
            let payload = SnapshotPayload::encode(cfg.snapshot_mode, &base, &red.best_snapshot);
            let tabu_payload = TabuPayload::Full(Arc::clone(&red.best_tabu));
            send_down::<D, T>(
                t,
                cfg,
                children,
                Some((g, &payload, &tabu_payload)),
                StrategyDown::PerChild(&assign),
            );
            base.advance(g, Arc::clone(&red.best_snapshot));
        } else {
            send_down::<D, T>(t, cfg, children, None, StrategyDown::Uniform(0));
            break;
        }
    }

    let forced_reports = red.subtree_forced(&child_forced);
    SearchOutcome {
        best_cost: red.best_cost,
        best: (*red.best_snapshot).clone(),
        initial_cost,
        trace: red.merged,
        best_per_global_iter,
        tsw_stats: red.stats,
        forced_reports,
        end_time: t.now(),
    }
}

/// Run one sub-master of the sharded collection tree to completion.
///
/// Per global iteration: collect from the children (TSW group with local
/// quorum/force policy at the leaves, `GroupReport`s above), reduce to
/// the subtree best, forward one `GroupReport` to the parent (diffed
/// against the shared base), then relay the parent's `GroupBroadcast`
/// payload verbatim (or `Stop`) back down.
pub async fn run_sub_master<D: PtsDomain, T: Transport<D::Problem>>(
    t: &mut T,
    cfg: &PtsConfig,
    shard: usize,
    domain: &D,
) {
    let spec = cfg.shard_spec(shard);

    // Wait for the Init relayed from above.
    let initial = loop {
        match t.recv().await {
            PtsMsg::Init { snapshot } => break snapshot,
            PtsMsg::Stop => {
                send_down::<D, T>(t, cfg, spec.children, None, StrategyDown::Uniform(0));
                return;
            }
            other => {
                protocol_warn(
                    t.rank(),
                    &format!("dropping unexpected {} before Init", other.tag()),
                );
            }
        }
    };

    send_init::<D, T>(t, cfg, spec.children, &initial);

    // Seed the reduction exactly like the root: subtree best starts at
    // the initial solution with an empty tabu list, so a round in which
    // no TSW improves reduces to the same winner the flat master picks.
    let initial_cost = domain.cost_of(&initial);
    let mut base: BaseOf<D> = SnapshotBase::initial(Arc::clone(&initial));
    let mut red: Reduction<D> = Reduction::new(initial_cost, initial, spec.children.len());
    let mut child_forced = vec![0u64; spec.children.len()];
    let mut dead = vec![false; spec.children.len()];

    for g in 0..cfg.global_iters {
        let deadline = (cfg.liveness_timeout > 0.0).then(|| t.now() + cfg.liveness_timeout);
        red.collect_round(
            t,
            cfg,
            &base,
            g,
            spec.children,
            &mut child_forced,
            &mut dead,
            deadline,
        )
        .await;

        // The parent shares `base` (the broadcast chain passed through
        // it), so the upward group best rides the same delta encoding.
        let payload = SnapshotPayload::encode(cfg.snapshot_mode, &base, &red.best_snapshot);
        t.send(
            spec.parent_rank,
            PtsMsg::GroupReport {
                shard,
                global: g,
                cost: red.best_cost,
                snapshot: payload,
                tabu: Arc::clone(&red.best_tabu),
                trace: red.merged.points().to_vec(),
                stats: red.stats,
                forced: red.subtree_forced(&child_forced),
            },
        );

        // Relay the parent's decision down the tree. Under a liveness
        // timeout a dead or stalled parent cannot hang the subtree: the
        // wait gives up and winds the subtree down as if Stop arrived.
        loop {
            let msg = match (cfg.liveness_timeout > 0.0).then(|| t.now() + cfg.liveness_timeout) {
                None => t.recv().await,
                Some(d) => match t.recv_deadline(d).await {
                    Some(m) => m,
                    None => {
                        protocol_warn(
                            t.rank(),
                            &format!(
                                "liveness timeout awaiting GroupBroadcast {g}: stopping subtree"
                            ),
                        );
                        send_down::<D, T>(t, cfg, spec.children, None, StrategyDown::Uniform(0));
                        return;
                    }
                },
            };
            match msg {
                PtsMsg::Down { rank } if rank == spec.parent_rank => {
                    // The parent died: nothing above will ever broadcast
                    // or Stop again. Wind the subtree down.
                    protocol_warn(
                        t.rank(),
                        &format!("parent rank {rank} is down; stopping subtree"),
                    );
                    send_down::<D, T>(t, cfg, spec.children, None, StrategyDown::Uniform(0));
                    return;
                }
                PtsMsg::Down { rank } => {
                    // A child died between its report and the broadcast:
                    // record it so the next collection excuses it.
                    note_down(t.rank(), cfg, spec.children, &mut dead, rank);
                }
                PtsMsg::GroupBroadcast {
                    global,
                    snapshot,
                    tabu,
                    strategy,
                } if global == g => {
                    // Resolve for this node's own base bookkeeping, then
                    // relay the payload verbatim — every process below
                    // holds the same base this payload was diffed
                    // against, so no re-encode is needed. The strategy
                    // stamp applies to this whole subtree (one group):
                    // relay it unchanged.
                    match snapshot.resolve(&base) {
                        Some(full) => {
                            send_down::<D, T>(
                                t,
                                cfg,
                                spec.children,
                                Some((global, &snapshot, &tabu)),
                                StrategyDown::Uniform(strategy),
                            );
                            base.advance(global, full);
                            break;
                        }
                        None => protocol_warn(
                            t.rank(),
                            "dropping GroupBroadcast delta against a base this sub-master does not hold",
                        ),
                    }
                }
                PtsMsg::Stop => {
                    send_down::<D, T>(t, cfg, spec.children, None, StrategyDown::Uniform(0));
                    return;
                }
                // Stale broadcast from an earlier round: drop.
                PtsMsg::GroupBroadcast { .. } => {}
                other => {
                    protocol_warn(
                        t.rank(),
                        &format!(
                            "dropping unexpected {} while awaiting GroupBroadcast",
                            other.tag()
                        ),
                    );
                }
            }
        }
    }
    // All global iterations done without receiving Stop (the parent
    // always terminates with Stop, so this is unreachable in practice).
    send_down::<D, T>(t, cfg, spec.children, None, StrategyDown::Uniform(0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_fields_are_accessible() {
        // Structural smoke test; behavioural coverage lives in the engine
        // integration tests and crates/core/tests/protocol_robustness.rs.
        fn assert_send<T: Send>() {}
        assert_send::<SearchOutcome<pts_place::placement::Placement>>();
    }
}
