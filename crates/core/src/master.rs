//! The master side of the protocol: the root collector and, under a
//! sharded topology, the tree of sub-masters — generic over the problem
//! domain.
//!
//! Sends the initial solution down the tree, then runs
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
//! per node per round regardless of fan-out. A child that did not report
//! the round may have missed a broadcast, so it gets the full snapshot.
//!
//! One collection loop, `Reduction::collect_round`, serves the root and
//! every sub-master: it takes `Report`s from a TSW group and
//! `GroupReport`s from a sub-master group. `Quorum`, the half-report rule
//! over a [`Children`] map, serves it and the TSW's collection of its
//! CLWs' proposals alike. The loop is *hardened for release
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
//!
//! The downward half of a round is one function as well:
//! `Parent::down_step` is where a TSW or a sub-master takes everything
//! its parent sends — the `Init`, each round's `Broadcast` (whatever
//! round it closes), `Stop` — and the parent's death. A collection loop
//! that meets such a message keeps it for that step instead of dropping
//! it (`Parent::keep`), so a message from above is never lost for
//! arriving early.

use crate::config::{Children, PtsConfig, Role, SyncPolicy};
use crate::control::RunControl;
use crate::domain::{PtsDomain, PtsProblem, SearchOutcome, SnapshotOf};
use crate::messages::{PtsMsg, SharedTabu, SnapshotBase, SnapshotPayload, TabuPayload};
use crate::transport::{protocol_warn, Transport};
use pts_tabu::search::SearchStats;
use pts_tabu::trace::Trace;
use pts_util::Rng;
use std::collections::VecDeque;
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
    /// The child whose report holds the best this round, if one does.
    round_winner: Option<usize>,
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
            round_winner: None,
        }
    }

    /// Fold child `k`'s report into the reduction. It wins on a lower
    /// cost, or on this round's winning cost from a lower child index (the
    /// TSW's rule for its CLWs), so arrival order never picks the winner;
    /// a tie with a best carried from an earlier round keeps that. Only a
    /// winning payload is resolved to a full snapshot (losing deltas are
    /// never materialized); a winning delta against a base this node does
    /// not hold is a protocol violation — warned and ignored, like the
    /// other malformed-message paths.
    fn offer(
        &mut self,
        rank: usize,
        k: usize,
        base: &BaseOf<D>,
        cost: f64,
        payload: PayloadOf<D>,
        tabu: TabuOf<D>,
    ) {
        let tie_won = cost == self.best_cost && self.round_winner.is_some_and(|w| k < w);
        if cost < self.best_cost || tie_won {
            match payload.resolve(base) {
                Some(full) => {
                    self.best_cost = cost;
                    self.best_snapshot = full;
                    self.best_tabu = tabu;
                    self.round_winner = Some(k);
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
    /// root, inner sub-masters). The [`Quorum`] says when the round is
    /// complete and whom to force: a TSW group may force, while a
    /// sub-master group waits for every surviving child and records each
    /// subtree's cumulative force count in `child_forced[k]`.
    ///
    /// Fault tolerance: children whose death notice ([`PtsMsg::Down`])
    /// has arrived are excused from the round (a report already folded
    /// still counts), excluded from the force/quorum arithmetic, and stay
    /// dead for the rest of the run. `deadline`, when set, bounds the
    /// whole collection: silence past it (a stalled but not-dead child,
    /// e.g. a paused machine) completes the round with the reports in
    /// hand — the straggler's stale report is dropped by the round guard
    /// next round and it resynchronizes on the broadcast already sitting
    /// in its mailbox, sent to it in full. Fault-free runs (no deaths,
    /// `deadline` `None`) take exactly the historical path.
    ///
    /// A sub-master passes its `parent`: traffic from above that the
    /// collection meets is kept for [`Parent::down_step`] (see
    /// [`Parent::keep`]), and the collection ends there with the reports
    /// in hand. The root has no parent.
    ///
    /// Afterwards `group` knows who reported round `g`.
    #[allow(clippy::too_many_arguments)]
    async fn collect_round<T: Transport<D::Problem>>(
        &mut self,
        t: &mut T,
        cfg: &PtsConfig,
        base: &BaseOf<D>,
        g: u32,
        group: &mut Quorum,
        child_forced: &mut [u64],
        deadline: Option<f64>,
        mut parent: Option<&mut Parent<D::Problem>>,
    ) {
        let final_round = g + 1 == cfg.global_iters;
        group.start();
        self.round_winner = None;

        while group.owed() > 0 && !parent.as_ref().is_some_and(|p| p.has_kept()) {
            let msg = match deadline {
                None => t.recv().await,
                Some(d) => match t.recv_deadline(d).await {
                    Some(m) => m,
                    None => {
                        let owed = group.owed();
                        protocol_warn(
                            t.rank(),
                            &format!(
                                "liveness timeout collecting round {g}: proceeding without {owed} reports"
                            ),
                        );
                        break;
                    }
                },
            };
            let msg = match parent.as_deref_mut() {
                Some(p) => match p.keep(g, msg) {
                    Some(msg) => msg,
                    None => continue,
                },
                None => msg,
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
                    group.note_down(t.rank(), cfg, rank);
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
            let k = match group.children().index_of_role(child) {
                Some(k) if global == g => k,
                _ => {
                    protocol_warn(
                        t.rank(),
                        &format!("dropping report from {child:?} for round {global} (collecting {:?} round {g})", group.children()),
                    );
                    continue;
                }
            };
            if !group.accept(k) {
                protocol_warn(
                    t.rank(),
                    &format!("rejecting duplicate report from {child:?} in round {g}"),
                );
                continue;
            }
            self.child_cost[k] = cost;
            t.compute(cfg.work.per_report).await;
            self.merged = Trace::merge([&self.merged, &Trace::from_points(trace)]);
            self.offer(t.rank(), k, base, cost, snapshot, tabu);
            // Stats are cumulative per child; summing every round would
            // over-count, so fold them in on the final round only.
            if final_round {
                self.fold_stats(&stats);
            }
            if let Some(forced) = forced {
                child_forced[k] = forced;
            }
            for rank in group.stragglers(cfg, false) {
                t.send(rank, PtsMsg::ForceReport { global: g });
                self.forced += 1;
            }
        }
    }

    /// Forces issued in this node's whole subtree so far.
    fn subtree_forced(&self, child_forced: &[u64]) -> u64 {
        self.forced + child_forced.iter().sum::<u64>()
    }
}

/// One collector's children under the paper's half-report rule, its
/// heterogeneity mechanism, at every level: the root, each sub-master and
/// each TSW over its CLWs. It holds the child map, which children have
/// died (for the rest of the run), which have replied this round, and
/// whether this round has forced its stragglers.
pub(crate) struct Quorum {
    children: Children,
    dead: Vec<bool>,
    replied: Vec<bool>,
    /// Under [`SyncPolicy::HalfReport`] a group of TSWs or of CLWs forces
    /// once a quorum has replied; a group of sub-masters waits for every
    /// subtree, which forces within itself.
    forces_at_quorum: bool,
    forced: bool,
}

impl Quorum {
    pub(crate) fn new(cfg: &PtsConfig, children: Children) -> Quorum {
        Quorum {
            children,
            dead: vec![false; children.len()],
            replied: vec![false; children.len()],
            forces_at_quorum: cfg.sync == SyncPolicy::HalfReport
                && !matches!(children, Children::Shards { .. }),
            forced: false,
        }
    }

    pub(crate) fn children(&self) -> Children {
        self.children
    }

    /// Open a round: no replies in, nobody forced.
    pub(crate) fn start(&mut self) {
        self.replied.fill(false);
        self.forced = false;
    }

    /// Mark child `rank` dead on its [`PtsMsg::Down`] notice; a notice
    /// for a rank that is not a child is warned about and ignored.
    pub(crate) fn note_down(&mut self, me: usize, cfg: &PtsConfig, rank: usize) {
        match self.children.index_of(cfg, rank) {
            Some(k) if !self.dead[k] => {
                self.dead[k] = true;
                protocol_warn(me, &format!("child {k} (rank {rank}) is down"));
            }
            Some(_) => {}
            None => protocol_warn(
                me,
                &format!("ignoring Down for rank {rank} (not a child of this node)"),
            ),
        }
    }

    /// The children not known dead, in order.
    pub(crate) fn live(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.dead.len()).filter(|&k| !self.dead[k])
    }

    /// Children still owed a reply this round: a dead child that has not
    /// replied is excused, and one that replied before dying still counts.
    pub(crate) fn owed(&self) -> usize {
        self.live().filter(|&k| !self.replied[k]).count()
    }

    /// Child `k`'s copy of this round's broadcast: `payload`, diffed
    /// against the base reporters hold, or the full `snapshot` for a child
    /// that did not report, which may have missed a broadcast.
    pub(crate) fn payload_for<P: PtsProblem>(
        &self,
        k: usize,
        payload: &SnapshotPayload<P>,
        snapshot: &Arc<P::Snapshot>,
    ) -> SnapshotPayload<P> {
        if self.replied[k] {
            payload.clone()
        } else {
            SnapshotPayload::Full(Arc::clone(snapshot))
        }
    }

    /// Take child `k`'s reply; `false` for a duplicate or out of range.
    pub(crate) fn accept(&mut self, k: usize) -> bool {
        let fresh = self.replied.get(k) == Some(&false);
        if fresh {
            self.replied[k] = true;
        }
        fresh
    }

    /// The ranks of the living children owed a reply, to force at most
    /// once a round: at once on `cut` (a TSW its parent forced, or that
    /// met a broadcast), else when [`PtsConfig::report_quorum`] of the
    /// living have replied.
    pub(crate) fn stragglers(&mut self, cfg: &PtsConfig, cut: bool) -> Vec<usize> {
        let quorum_reached = || {
            let (owed, replied) = (self.owed(), self.replied.iter().filter(|&&r| r).count());
            owed > 0 && replied >= cfg.report_quorum(replied + owed)
        };
        if self.forced || !(cut || (self.forces_at_quorum && quorum_reached())) {
            return Vec::new();
        }
        self.forced = true;
        self.live()
            .filter(|&k| !self.replied[k])
            .map(|k| self.children.rank(cfg, k))
            .collect()
    }
}

/// A TSW's or sub-master's link to its parent: the parent's rank, and
/// what a collection loop met from above and kept for
/// [`Parent::down_step`], in arrival order.
pub(crate) struct Parent<P: PtsProblem> {
    pub rank: usize,
    kept: VecDeque<PtsMsg<P>>,
}

/// What [`Parent::down_step`] hands back.
pub(crate) enum FromParent<P: PtsProblem> {
    /// The run's initial solution.
    Init(Arc<P::Snapshot>),
    /// The broadcast closing round `global`: the winner resolved, the
    /// payload as it arrived (a sub-master relays it to its reporters),
    /// its tabu list, and the strategy the node's group runs from now on.
    Round {
        global: u32,
        snapshot: Arc<P::Snapshot>,
        payload: SnapshotPayload<P>,
        tabu: TabuPayload<P>,
        strategy: u8,
    },
    /// `Stop` or the parent's death.
    WindDown,
}

impl<P: PtsProblem> Parent<P> {
    pub(crate) fn new(rank: usize) -> Parent<P> {
        Parent {
            rank,
            kept: VecDeque::new(),
        }
    }

    /// Take `msg`, met by a collection loop of round `g`: keep a
    /// `Broadcast` of round `g` or later, a `Stop` or this parent's
    /// `Down`, drop an older `Broadcast`, and hand anything else back. A
    /// wind-down supersedes everything kept before or after it. A parent
    /// broadcasts only once every live child has reported, and stops only
    /// after the final round, so fault-free runs never keep anything.
    pub(crate) fn keep(&mut self, g: u32, msg: PtsMsg<P>) -> Option<PtsMsg<P>> {
        match msg {
            PtsMsg::Broadcast { global, .. } if global < g => {}
            PtsMsg::Broadcast { .. } => {
                if !self.winds_down() {
                    self.kept.push_back(msg);
                }
            }
            PtsMsg::Stop => self.kept = VecDeque::from([msg]),
            PtsMsg::Down { rank } if rank == self.rank => self.kept = VecDeque::from([msg]),
            other => return Some(other),
        }
        None
    }

    /// Is something kept? The node ends its collection: a kept broadcast
    /// acts like a `ForceReport`.
    pub(crate) fn has_kept(&self) -> bool {
        !self.kept.is_empty()
    }

    /// Is a wind-down kept? The node stops without reporting.
    pub(crate) fn winds_down(&self) -> bool {
        matches!(self.kept.front(), Some(PtsMsg::Stop | PtsMsg::Down { .. }))
    }

    /// The downward half of a round: the one place a TSW or a sub-master
    /// takes what its parent sends. It waits for the run's `Init` (`base`
    /// `None`) or for a `Broadcast` of round `g` or later that resolves
    /// against `base`, taking kept messages first.
    ///
    /// * `Stop` or this parent's `Down` winds the node down. There is no
    ///   deadline: a parent's death reaches the node as its `Down`.
    /// * Any other `Down` is a child's death, handed to `child_down`.
    /// * A broadcast that does not resolve is warned about, and the wait
    ///   goes on.
    /// * Traffic from a closed round is dropped silently: an older
    ///   `Broadcast`, a `ForceReport`, `Proposal` or `CutShort`, a late
    ///   `Report` or `GroupReport`. Anything else is warned about.
    ///
    /// A broadcast closes a later round than `g` when faults cost the
    /// node rounds; the node resumes after the round it closes.
    pub(crate) async fn down_step<T: Transport<P>>(
        &mut self,
        t: &mut T,
        base: Option<&SnapshotBase<P>>,
        g: u32,
        mut child_down: impl FnMut(usize),
    ) -> FromParent<P> {
        loop {
            let msg = match self.kept.pop_front() {
                Some(msg) => msg,
                None => t.recv().await,
            };
            match msg {
                PtsMsg::Init { snapshot } if base.is_none() => return FromParent::Init(snapshot),
                PtsMsg::Stop => return FromParent::WindDown,
                PtsMsg::Down { rank } if rank == self.rank => {
                    protocol_warn(
                        t.rank(),
                        &format!("parent rank {rank} is down: winding down"),
                    );
                    return FromParent::WindDown;
                }
                PtsMsg::Down { rank } => child_down(rank),
                PtsMsg::Broadcast {
                    global,
                    snapshot: payload,
                    tabu,
                    strategy,
                } if global >= g => match base.and_then(|base| payload.resolve(base)) {
                    Some(snapshot) => {
                        return FromParent::Round {
                            global,
                            snapshot,
                            payload,
                            tabu,
                            strategy,
                        }
                    }
                    None => protocol_warn(
                        t.rank(),
                        "dropping Broadcast delta against a base this node does not hold",
                    ),
                },
                PtsMsg::Broadcast { .. }
                | PtsMsg::ForceReport { .. }
                | PtsMsg::Proposal { .. }
                | PtsMsg::CutShort { .. }
                | PtsMsg::Report { .. }
                | PtsMsg::GroupReport { .. } => {}
                other => protocol_warn(
                    t.rank(),
                    &format!("dropping unexpected {} from above", other.tag()),
                ),
            }
        }
    }
}

/// Send each of this node's children `k` the message `msg(k)`: the
/// run's `Init`, the round's `Broadcast`, stamped with that child's
/// strategy, or `Stop`. Cloning either per child is O(1): its snapshot
/// (or delta) and tabu list sit behind `Arc`s.
fn send_down<P: PtsProblem, T: Transport<P>>(
    t: &mut T,
    cfg: &PtsConfig,
    children: Children,
    msg: impl Fn(usize) -> PtsMsg<P>,
) {
    for k in 0..children.len() {
        t.send(children.rank(cfg, k), msg(k));
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

    // Initialize the tree: the root sends the Init to its own children
    // only, and every sub-master and TSW passes it on to its own, so
    // every node sends one Init per child.
    send_down(t, cfg, children, |_| PtsMsg::Init {
        snapshot: Arc::clone(&initial),
    });

    // The base every child currently shares with this node: the initial
    // solution, re-anchored on each broadcast sent below.
    let mut base: BaseOf<D> = SnapshotBase::initial(Arc::clone(&initial));
    let mut red: Reduction<D> = Reduction::new(initial_cost, initial, children.len());
    red.merged.record(t.now(), 0, red.best_cost);
    let mut best_per_global_iter = Vec::with_capacity(cfg.global_iters as usize);
    let mut child_forced = vec![0u64; children.len()];
    let mut group = Quorum::new(cfg, children);

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
            &mut group,
            &mut child_forced,
            deadline,
            None,
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
            // Diff the round winner against the base the reporters hold,
            // ship it once per child (Arc clones), then re-anchor the
            // shared base on what was just broadcast.
            let payload = SnapshotPayload::encode(cfg.snapshot_mode, &base, &red.best_snapshot);
            let tabu = TabuPayload::Full(Arc::clone(&red.best_tabu));
            send_down(t, cfg, children, |k| PtsMsg::Broadcast {
                global: g,
                snapshot: group.payload_for(k, &payload, &red.best_snapshot),
                tabu: tabu.clone(),
                strategy: assign[k],
            });
            base.advance(g, Arc::clone(&red.best_snapshot));
        } else {
            send_down(t, cfg, children, |_| PtsMsg::Stop);
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
/// against the shared base), then relay the parent's `Broadcast` (or
/// `Stop`) back down — its payload to the children that reported, the
/// full snapshot to the rest. Everything from the parent arrives through
/// `Parent::down_step`.
pub async fn run_sub_master<D: PtsDomain, T: Transport<D::Problem>>(
    t: &mut T,
    cfg: &PtsConfig,
    shard: usize,
    domain: &D,
) {
    let spec = cfg.shard_spec(shard);
    let me = t.rank();
    let mut parent = Parent::new(spec.parent_rank);
    // Death notices persist, including one that beats the Init.
    let mut group = Quorum::new(cfg, spec.children);

    // Wait for the Init relayed from above.
    let FromParent::Init(initial) = parent
        .down_step(t, None, 0, |rank| group.note_down(me, cfg, rank))
        .await
    else {
        send_down(t, cfg, spec.children, |_| PtsMsg::Stop);
        return;
    };

    send_down(t, cfg, spec.children, |_| PtsMsg::Init {
        snapshot: Arc::clone(&initial),
    });

    // Seed the reduction exactly like the root: subtree best starts at
    // the initial solution with an empty tabu list, so a round in which
    // no TSW improves reduces to the same winner the flat master picks.
    let initial_cost = domain.cost_of(&initial);
    let mut base: BaseOf<D> = SnapshotBase::initial(Arc::clone(&initial));
    let mut red: Reduction<D> = Reduction::new(initial_cost, initial, spec.children.len());
    let mut child_forced = vec![0u64; spec.children.len()];
    // Under a liveness timeout silent children cannot hang the subtree.
    // The parent's broadcast is awaited without one, as a TSW awaits its
    // own: a parent's death arrives as its `Down`.
    let deadline = |now: f64| (cfg.liveness_timeout > 0.0).then_some(now + cfg.liveness_timeout);

    let mut g = 0;
    while g < cfg.global_iters {
        red.collect_round(
            t,
            cfg,
            &base,
            g,
            &mut group,
            &mut child_forced,
            deadline(t.now()),
            Some(&mut parent),
        )
        .await;
        // Stop, or the parent's death, met mid-collection: nobody above
        // waits for this round's report.
        if parent.winds_down() {
            break;
        }

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

        // Relay the parent's decision down the tree: a delta that resolved
        // here goes on as is to the children that reported round `g`, and
        // the strategy stamp covers this whole subtree.
        match parent
            .down_step(t, Some(&base), g, |rank| group.note_down(me, cfg, rank))
            .await
        {
            FromParent::Round {
                global,
                snapshot,
                payload,
                tabu,
                strategy,
            } => {
                send_down(t, cfg, spec.children, |k| PtsMsg::Broadcast {
                    global,
                    snapshot: group.payload_for(k, &payload, &snapshot),
                    tabu: tabu.clone(),
                    strategy,
                });
                base.advance(global, snapshot);
                g = global + 1;
            }
            _ => break,
        }
    }
    send_down(t, cfg, spec.children, |_| PtsMsg::Stop);
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

    fn cfg(sync: SyncPolicy, report_fraction: f64) -> PtsConfig {
        PtsConfig {
            n_tsw: 4,
            n_clw: 4,
            sync,
            report_fraction,
            ..PtsConfig::default()
        }
    }

    const TSWS: Children = Children::Tsws { lo: 0, hi: 4 };

    /// A round of `children` under `cfg`, with children `dead` down.
    fn round(cfg: &PtsConfig, children: Children, dead: &[usize]) -> Quorum {
        let mut q = Quorum::new(cfg, children);
        for &k in dead {
            q.note_down(0, cfg, children.rank(cfg, k));
        }
        q.start();
        q
    }

    #[test]
    fn a_dead_child_that_has_not_replied_is_excused() {
        let cfg = cfg(SyncPolicy::WaitAll, 0.5);
        let mut q = round(&cfg, TSWS, &[]);
        assert!(q.accept(0) && q.accept(2));
        assert_eq!(q.owed(), 2);
        q.note_down(0, &cfg, cfg.tsw_rank(1));
        assert_eq!(q.owed(), 1);
        q.note_down(0, &cfg, cfg.tsw_rank(3));
        assert_eq!(q.owed(), 0, "the round is complete");
        // Deaths outlast the round; replies do not.
        q.start();
        assert_eq!(q.live().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(q.owed(), 2);
    }

    #[test]
    fn a_dead_child_that_replied_still_counts() {
        let cfg = cfg(SyncPolicy::WaitAll, 0.5);
        let mut q = round(&cfg, TSWS, &[]);
        assert!(q.accept(1));
        q.note_down(0, &cfg, cfg.tsw_rank(1));
        // Its reply stands; the three others are still owed.
        assert_eq!(q.owed(), 3);
        for k in [0, 2, 3] {
            assert!(q.owed() > 0);
            assert!(q.accept(k));
        }
        assert_eq!(q.owed(), 0);
    }

    #[test]
    fn the_round_forces_once_at_quorum() {
        let cfg = cfg(SyncPolicy::HalfReport, 0.5);
        for children in [TSWS, Children::Clws { tsw: 1, n: 4 }] {
            // Quorum of the three living is two.
            let mut q = round(&cfg, children, &[2]);
            assert!(q.accept(3));
            assert_eq!(q.stragglers(&cfg, false), Vec::<usize>::new());
            assert!(q.accept(0));
            assert_eq!(q.stragglers(&cfg, false), vec![children.rank(&cfg, 1)]);
            // Once a round, whatever comes next.
            assert_eq!(q.stragglers(&cfg, false), Vec::<usize>::new());
            assert_eq!(q.stragglers(&cfg, true), Vec::<usize>::new());
            assert!(q.accept(1));
            assert_eq!(q.owed(), 0);
            // The next round may force again.
            q.start();
            assert!(q.accept(0) && q.accept(1));
            assert_eq!(q.stragglers(&cfg, false), vec![children.rank(&cfg, 3)]);
        }
    }

    #[test]
    fn nothing_is_forced_by_a_one_child_group_or_at_fraction_one() {
        let half = cfg(SyncPolicy::HalfReport, 0.5);
        let mut one = round(&half, Children::Clws { tsw: 0, n: 1 }, &[]);
        assert!(one.accept(0));
        assert_eq!(one.stragglers(&half, false), Vec::<usize>::new());
        let all = cfg(SyncPolicy::HalfReport, 1.0);
        let mut q = round(&all, TSWS, &[]);
        for k in 0..3 {
            assert!(q.accept(k));
            assert_eq!(q.stragglers(&all, false), Vec::<usize>::new());
        }
        // Nor under WaitAll, nor by a group of sub-masters, at quorum.
        let wait_all = cfg(SyncPolicy::WaitAll, 0.5);
        let shards = PtsConfig {
            n_tsw: 8,
            shard_fanout: 2,
            ..half.clone()
        };
        for (cfg, children) in [(&wait_all, TSWS), (&shards, shards.root_children())] {
            let mut q = round(cfg, children, &[]);
            assert!(q.accept(0) && q.accept(1));
            assert_eq!(q.stragglers(cfg, false), Vec::<usize>::new());
        }
    }

    #[test]
    fn a_cut_forces_at_once_under_either_policy() {
        for sync in [SyncPolicy::WaitAll, SyncPolicy::HalfReport] {
            let cfg = cfg(sync, 0.5);
            let mut q = round(&cfg, Children::Clws { tsw: 2, n: 3 }, &[1]);
            let ranks = vec![cfg.clw_rank(2, 0), cfg.clw_rank(2, 2)];
            assert_eq!(q.stragglers(&cfg, true), ranks);
            assert_eq!(q.stragglers(&cfg, true), Vec::<usize>::new());
        }
    }

    #[test]
    fn a_duplicate_or_out_of_range_reply_is_rejected() {
        let cfg = cfg(SyncPolicy::HalfReport, 0.5);
        let mut q = round(&cfg, TSWS, &[]);
        assert!(q.accept(2));
        assert!(!q.accept(2));
        assert!(!q.accept(4));
        assert!(!q.accept(usize::MAX));
        assert_eq!(q.owed(), 3);
    }

    #[test]
    fn a_down_for_a_rank_outside_the_group_changes_nothing() {
        let cfg = cfg(SyncPolicy::WaitAll, 0.5);
        let mut q = round(&cfg, Children::Clws { tsw: 1, n: 4 }, &[]);
        for rank in [cfg.master_rank(), cfg.tsw_rank(1), cfg.clw_rank(0, 0), 99] {
            q.note_down(0, &cfg, rank);
        }
        assert_eq!(q.live().count(), 4);
    }
}
