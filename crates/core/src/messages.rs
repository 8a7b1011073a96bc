//! The master / TSW / CLW message protocol, generic over the search
//! problem.
//!
//! Mirrors the paper's process interactions: the master and TSWs exchange
//! best solutions *plus the associated tabu list*; TSWs and CLWs exchange
//! only best solutions (proposals). `ForceReport` and `CutShort` implement
//! the heterogeneity mechanism ("once half have reported, force the rest").
//!
//! Messages carry the global-iteration / investigation sequence they belong
//! to so that late control messages (a `ForceReport` crossing a `Report` in
//! flight) are recognized as stale and ignored.
//!
//! One message carries a round's result down the tree at every level:
//! [`PtsMsg::Broadcast`], from the root or a sub-master to each of its
//! children. Reports going up keep two shapes, a TSW's `Report` and a
//! sub-master's `GroupReport`.
//!
//! The payload types come from the problem: solution snapshots
//! ([`pts_tabu::SearchProblem::Snapshot`]), elementary moves, and tabu
//! attributes. Any [`PtsProblem`] rides the same protocol — placement and
//! QAP use identical message flow.
//!
//! Two payload-level optimizations keep snapshot traffic from dominating
//! at scale (the communication bottleneck both the GPU tabu-search
//! literature and the paper's own measurements point at):
//!
//! * **zero-copy fan-out** — snapshots and tabu lists travel behind
//!   [`Arc`]s, so broadcasting to `f` children clones `f` pointers, not
//!   `f` solutions; the wire model still charges every link the full
//!   payload (an `Arc` is a process-local trick, not a network one);
//! * **delta encoding** ([`SnapshotPayload`]) — solution-bearing
//!   messages ship a move delta against the last *base* snapshot both
//!   link ends provably share (the previous global broadcast, or the
//!   initial solution), falling back to a full snapshot when no shared
//!   base exists or the delta would be at least as large. See
//!   [`crate::config::SnapshotMode`].

use crate::config::SnapshotMode;
use crate::domain::{DeltaOf, DeltaSnapshot, PtsProblem, WireSized};
use crate::meter;
use pts_tabu::search::SearchStats;
use pts_tabu::trace::TracePoint;
use std::sync::Arc;

/// Exported tabu list: attribute + remaining tenure.
pub type TabuEntries<P> = Vec<(<P as pts_tabu::SearchProblem>::Attribute, u64)>;

/// A tabu list shared across recipients without per-recipient copies.
pub type SharedTabu<P> = Arc<TabuEntries<P>>;

/// A base snapshot both ends of a link hold: `seq` 0 is the initial
/// solution, `seq` `g + 1` the global broadcast concluding round `g`.
/// Every process tracks the latest base it shares with its protocol
/// neighbours and re-anchors it as each broadcast passes through.
pub struct SnapshotBase<P: PtsProblem> {
    /// Which broadcast this base is (0 = the initial solution).
    pub seq: u32,
    /// The resolved full snapshot.
    pub snapshot: Arc<P::Snapshot>,
}

impl<P: PtsProblem> SnapshotBase<P> {
    /// The run-initial base (sequence 0).
    pub fn initial(snapshot: Arc<P::Snapshot>) -> SnapshotBase<P> {
        SnapshotBase { seq: 0, snapshot }
    }

    /// Re-anchor on the broadcast concluding round `global`.
    pub fn advance(&mut self, global: u32, snapshot: Arc<P::Snapshot>) {
        self.seq = global + 1;
        self.snapshot = snapshot;
    }
}

impl<P: PtsProblem> Clone for SnapshotBase<P> {
    fn clone(&self) -> Self {
        SnapshotBase {
            seq: self.seq,
            snapshot: Arc::clone(&self.snapshot),
        }
    }
}

/// A tabu list as it rides a broadcast: always the complete entry list,
/// shared across recipients behind an [`Arc`].
pub enum TabuPayload<P: PtsProblem> {
    /// The complete tabu list.
    Full(SharedTabu<P>),
}

impl<P: PtsProblem> Clone for TabuPayload<P> {
    fn clone(&self) -> Self {
        let TabuPayload::Full(t) = self;
        TabuPayload::Full(Arc::clone(t))
    }
}

impl<P: PtsProblem> TabuPayload<P> {
    /// Wire bytes this payload occupies.
    pub fn wire_bytes(&self) -> u64 {
        let TabuPayload::Full(t) = self;
        TABU_ENTRY_BYTES * t.len() as u64
    }
}

/// A solution snapshot as it travels in a protocol message: the full
/// solution, or a delta against a [`SnapshotBase`] the sender knows the
/// receiver holds. Cloning is O(1) either way (`Arc`s inside), which is
/// what makes the downward broadcast fan-out allocation-free per
/// recipient.
pub enum SnapshotPayload<P: PtsProblem> {
    /// The complete solution.
    Full(Arc<P::Snapshot>),
    /// A delta to apply against the receiver's copy of base `base_seq`.
    Delta {
        /// Sequence of the [`SnapshotBase`] the delta was diffed against.
        base_seq: u32,
        /// The encoded difference.
        delta: Arc<DeltaOf<P>>,
    },
}

impl<P: PtsProblem> Clone for SnapshotPayload<P> {
    fn clone(&self) -> Self {
        match self {
            SnapshotPayload::Full(s) => SnapshotPayload::Full(Arc::clone(s)),
            SnapshotPayload::Delta { base_seq, delta } => SnapshotPayload::Delta {
                base_seq: *base_seq,
                delta: Arc::clone(delta),
            },
        }
    }
}

impl<P: PtsProblem> SnapshotPayload<P> {
    /// Encode `full` for the wire: under [`SnapshotMode::Delta`], a delta
    /// against `base` when that is strictly smaller than the full
    /// snapshot; the full snapshot otherwise (and always under
    /// [`SnapshotMode::Full`]). The payload's [`wire_bytes`] is therefore
    /// never larger than the full snapshot's.
    ///
    /// [`wire_bytes`]: SnapshotPayload::wire_bytes
    pub fn encode(
        mode: SnapshotMode,
        base: &SnapshotBase<P>,
        full: &Arc<P::Snapshot>,
    ) -> SnapshotPayload<P> {
        if mode == SnapshotMode::Delta {
            let delta = <P::Snapshot as DeltaSnapshot>::diff(&base.snapshot, full);
            if DELTA_HDR_BYTES + delta.wire_bytes() < full.wire_bytes() {
                return SnapshotPayload::Delta {
                    base_seq: base.seq,
                    delta: Arc::new(delta),
                };
            }
        }
        SnapshotPayload::Full(Arc::clone(full))
    }

    /// Reconstruct the full snapshot. `None` when the payload is a delta
    /// against a base the holder does not share — a protocol violation
    /// (senders only diff against bases the receiver provably holds);
    /// callers warn and drop, mirroring the other release-mode
    /// hardening paths.
    pub fn resolve(&self, base: &SnapshotBase<P>) -> Option<Arc<P::Snapshot>> {
        match self {
            SnapshotPayload::Full(s) => Some(Arc::clone(s)),
            SnapshotPayload::Delta { base_seq, delta } => (*base_seq == base.seq).then(|| {
                meter::record_snapshot_alloc();
                Arc::new(<P::Snapshot as DeltaSnapshot>::apply_delta(
                    &base.snapshot,
                    delta,
                ))
            }),
        }
    }

    /// Wire bytes this payload occupies (full snapshot, or delta plus
    /// its small header).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            SnapshotPayload::Full(s) => s.wire_bytes(),
            SnapshotPayload::Delta { delta, .. } => DELTA_HDR_BYTES + delta.wire_bytes(),
        }
    }

    /// `true` when delta-encoded.
    pub fn is_delta(&self) -> bool {
        matches!(self, SnapshotPayload::Delta { .. })
    }
}

/// Protocol messages for a run over problem `P`.
pub enum PtsMsg<P: PtsProblem> {
    /// Master → everyone: the initial solution (run-constant data such as
    /// the placement cost scheme is frozen into the domain before workers
    /// spawn). Always a full snapshot — no base is shared yet — and the
    /// anchor of every process's sequence-0 [`SnapshotBase`].
    Init {
        /// The shared starting solution.
        snapshot: Arc<P::Snapshot>,
    },
    /// Parent → TSW or sub-master: the global best after a global
    /// iteration, with its tabu list. Sub-masters relay it down the tree.
    /// A child that reported the round gets the payload diffed against
    /// the base it holds; one that did not gets the full snapshot.
    Broadcast {
        /// Global iteration this broadcast concludes.
        global: u32,
        /// Best solution across all TSW reports of the round, usually as
        /// a delta against the previous broadcast.
        snapshot: SnapshotPayload<P>,
        /// Tabu list accompanying the winning solution, in full.
        tabu: TabuPayload<P>,
        /// Strategy id the receiving TSW's group runs from this round on
        /// (see [`crate::config::PtsConfig::portfolio`]). Always `0` in
        /// uniform runs — it rides the header's otherwise-unused origin
        /// bytes, so the wire size never changes.
        strategy: u8,
    },
    /// Master → TSW: report your current best immediately (half-report
    /// sync).
    ForceReport {
        /// Global iteration the forced report belongs to (stale-message
        /// guard).
        global: u32,
    },
    /// TSW → master: end-of-global-iteration report.
    Report {
        /// Index of the reporting TSW.
        tsw: usize,
        /// Global iteration the report belongs to.
        global: u32,
        /// Best cost found by this TSW so far.
        cost: f64,
        /// The solution achieving `cost`, usually as a delta against the
        /// last broadcast this TSW adopted (which its parent also holds).
        snapshot: SnapshotPayload<P>,
        /// The TSW's tabu list (travels with the solution, as in the
        /// paper).
        tabu: SharedTabu<P>,
        /// Best-cost-over-time points recorded since the run started.
        trace: Vec<TracePoint>,
        /// Cumulative per-TSW search statistics.
        stats: SearchStats,
    },
    /// Sub-master → parent: the reduced best of one subtree after a
    /// global iteration (sharded-master topology). Carries the same
    /// payload as the [`PtsMsg::Report`]s it folds — one group-best
    /// solution with its tabu list, the merged subtree trace, and the
    /// folded search statistics — so the root's reduction is equivalent
    /// to collecting every TSW directly.
    GroupReport {
        /// Shard id of the reporting sub-master.
        shard: usize,
        /// Global iteration the group report belongs to.
        global: u32,
        /// Best cost found anywhere in this subtree so far.
        cost: f64,
        /// The solution achieving `cost`, diffed against the same base
        /// the parent holds.
        snapshot: SnapshotPayload<P>,
        /// Tabu list accompanying the subtree-best solution.
        tabu: SharedTabu<P>,
        /// Merged best-cost-over-time points of the whole subtree.
        trace: Vec<TracePoint>,
        /// Folded subtree search statistics (non-zero only on the final
        /// round — per-TSW stats are cumulative, summing every round
        /// would over-count).
        stats: SearchStats,
        /// Cumulative `ForceReport`s issued inside this subtree.
        forced: u64,
    },
    /// TSW → CLW: adopt this solution as the current state. Shared, not
    /// copied, across the TSW's CLW group — and usually a delta: the TSW
    /// and its CLWs move in lockstep (every accepted compound is
    /// mirrored via [`PtsMsg::ApplyMoves`]), so the CLW's *own current
    /// state* is the base, and the delta is just the broadcast adoption
    /// plus the diversification moves.
    AdoptState {
        /// Sync sequence: how many `AdoptState`s this TSW sent before
        /// this one (= the global iteration). The TSW/CLW link is FIFO
        /// with exactly one sync per round, so a delta whose `seq`
        /// disagrees with the CLW's own count is a protocol violation.
        seq: u32,
        /// The state to take before the next investigation, as a delta
        /// against the CLW's current state when smaller. The CLW reaches
        /// it by swaps when the snapshot type offers a short path
        /// ([`crate::domain::DeltaSnapshot::swap_path`]), by a restore
        /// otherwise.
        snapshot: SnapshotPayload<P>,
    },
    /// TSW → CLW: build one compound-move proposal (investigation `seq`).
    Investigate {
        /// Investigation sequence number (stale-proposal guard).
        seq: u64,
        /// Strategy id whose candidates/depth budget the CLW must use
        /// (`0` in uniform runs; rides the unused aux bytes).
        strategy: u8,
    },
    /// TSW → CLW: stop investigating `seq`, report what you have.
    CutShort {
        /// Sequence of the investigation being cut short.
        seq: u64,
    },
    /// CLW → TSW: proposed compound move and the cost it reaches.
    Proposal {
        /// Index of the proposing CLW within its TSW group.
        clw: usize,
        /// Investigation this proposal answers.
        seq: u64,
        /// The proposed elementary-move chain.
        moves: Vec<P::Move>,
        /// Cost reached after applying `moves`.
        cost: f64,
    },
    /// TSW → CLW: the accepted move sequence; apply to stay in sync.
    ApplyMoves {
        /// Moves to apply to the CLW's local state.
        moves: Vec<P::Move>,
    },
    /// Runtime → protocol neighbour: the process at `rank` died. Never
    /// sent by a worker itself — the fault layer synthesizes it at the
    /// kill instant and delivers it out-of-band (PVM's `pvm_notify`
    /// model), so it bypasses route faults and FIFO ordering. Receivers
    /// mark the rank dead and stop waiting for it.
    Down {
        /// Rank of the process that died.
        rank: usize,
    },
    /// Shut down (master → TSW → CLW).
    Stop,
}

// The widths of the byte model. `PtsMsg::wire_size` charges them and the
// codec in `crate::wire` writes exactly them, so each is defined once,
// here.
/// Fixed message header.
pub(crate) const HDR_BYTES: u64 = 32;
/// One elementary move: two `u32` item indices.
pub(crate) const MOVE_BYTES: u64 = 8;
/// One tabu entry: an 8-byte attribute and a `u32` tenure.
pub(crate) const TABU_ENTRY_BYTES: u64 = 12;
/// One trace point: `f64` time, `u32` iteration and `f64` cost.
pub(crate) const TRACE_POINT_BYTES: u64 = 20;
/// A delta payload's header: `u32` base sequence and 4 reserved bytes.
pub(crate) const DELTA_HDR_BYTES: u64 = 8;

impl<P: PtsProblem> PtsMsg<P> {
    /// Approximate wire size in bytes, used by the virtual cluster's
    /// bandwidth model. Snapshots dominate, matching the paper's
    /// observation that solution exchange is the main traffic — which is
    /// exactly what delta payloads shrink. Under
    /// [`SnapshotMode::Full`] every size equals the pre-delta protocol's,
    /// keeping its pinned virtual timelines bit-compatible.
    pub fn wire_size(&self) -> u64 {
        match self {
            // The +64 covers the run-constant data (the placement cost
            // scheme) that historically travelled with Init. The scheme is
            // now frozen into the domain before workers spawn, but the
            // charge is retained deliberately so virtual timelines stay
            // bit-compatible with the pre-redesign engine (the pinned
            // golden values in tests/determinism.rs depend on it).
            PtsMsg::Init { snapshot } => HDR_BYTES + snapshot.wire_bytes() + 64,
            PtsMsg::Broadcast { snapshot, tabu, .. } => {
                HDR_BYTES + snapshot.wire_bytes() + tabu.wire_bytes()
            }
            PtsMsg::Report {
                snapshot,
                tabu,
                trace,
                ..
            } => {
                HDR_BYTES
                    + snapshot.wire_bytes()
                    + TABU_ENTRY_BYTES * tabu.len() as u64
                    + TRACE_POINT_BYTES * trace.len() as u64
                    + 48
            }
            // Same payload shape as Report, plus the shard id and the
            // folded force counter — the simulated bandwidth model must
            // charge the tree links what the flat links used to carry.
            PtsMsg::GroupReport {
                snapshot,
                tabu,
                trace,
                ..
            } => {
                HDR_BYTES
                    + snapshot.wire_bytes()
                    + TABU_ENTRY_BYTES * tabu.len() as u64
                    + TRACE_POINT_BYTES * trace.len() as u64
                    + 64
            }
            PtsMsg::AdoptState { snapshot, .. } => HDR_BYTES + snapshot.wire_bytes(),
            PtsMsg::Proposal { moves, .. } => HDR_BYTES + MOVE_BYTES * moves.len() as u64 + 16,
            PtsMsg::ApplyMoves { moves } => HDR_BYTES + MOVE_BYTES * moves.len() as u64,
            PtsMsg::ForceReport { .. }
            | PtsMsg::Investigate { .. }
            | PtsMsg::CutShort { .. }
            | PtsMsg::Down { .. }
            | PtsMsg::Stop => HDR_BYTES,
        }
    }

    /// Wire bytes of the solution-snapshot payload this message carries
    /// (0 for control and move-only messages). Feeds the
    /// [`crate::meter`] counters the wire benchmark reports.
    pub fn snapshot_wire_bytes(&self) -> u64 {
        match self {
            PtsMsg::Init { snapshot } => snapshot.wire_bytes(),
            PtsMsg::AdoptState { snapshot, .. }
            | PtsMsg::Broadcast { snapshot, .. }
            | PtsMsg::Report { snapshot, .. }
            | PtsMsg::GroupReport { snapshot, .. } => snapshot.wire_bytes(),
            _ => 0,
        }
    }

    /// Wire bytes of the tabu-list payload this message carries (0 for
    /// messages without one). Feeds the [`crate::meter`] counters the
    /// wire benchmark reports alongside the snapshot bytes.
    pub fn tabu_wire_bytes(&self) -> u64 {
        match self {
            PtsMsg::Broadcast { tabu, .. } => tabu.wire_bytes(),
            PtsMsg::Report { tabu, .. } | PtsMsg::GroupReport { tabu, .. } => {
                TABU_ENTRY_BYTES * tabu.len() as u64
            }
            _ => 0,
        }
    }

    /// Short tag for logging/diagnostics.
    pub fn tag(&self) -> &'static str {
        match self {
            PtsMsg::Init { .. } => "Init",
            PtsMsg::Broadcast { .. } => "Broadcast",
            PtsMsg::ForceReport { .. } => "ForceReport",
            PtsMsg::Report { .. } => "Report",
            PtsMsg::GroupReport { .. } => "GroupReport",
            PtsMsg::AdoptState { .. } => "AdoptState",
            PtsMsg::Investigate { .. } => "Investigate",
            PtsMsg::CutShort { .. } => "CutShort",
            PtsMsg::Proposal { .. } => "Proposal",
            PtsMsg::ApplyMoves { .. } => "ApplyMoves",
            PtsMsg::Down { .. } => "Down",
            PtsMsg::Stop => "Stop",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement_problem::PlacementProblem;
    use pts_place::layout::Layout;
    use pts_place::placement::Placement;
    use pts_tabu::qap::{Qap, QapAssignment};
    use pts_tabu::SearchProblem as _;

    fn full<P: PtsProblem>(snapshot: P::Snapshot) -> SnapshotPayload<P> {
        SnapshotPayload::Full(Arc::new(snapshot))
    }

    #[test]
    fn placement_bearing_messages_are_heavier() {
        let p = Placement::sequential(Layout::new(4, 25, 2.0, 1.0), 100);
        let adopt: PtsMsg<PlacementProblem> = PtsMsg::AdoptState {
            seq: 0,
            snapshot: SnapshotPayload::Full(Arc::new(p)),
        };
        let stop: PtsMsg<PlacementProblem> = PtsMsg::Stop;
        assert!(adopt.wire_size() > stop.wire_size() + 300);
        assert!(adopt.snapshot_wire_bytes() > 300);
        assert_eq!(stop.snapshot_wire_bytes(), 0);
    }

    #[test]
    fn control_messages_are_small() {
        let msgs: Vec<PtsMsg<PlacementProblem>> = vec![
            PtsMsg::Stop,
            PtsMsg::Investigate {
                seq: 1,
                strategy: 0,
            },
            PtsMsg::CutShort { seq: 1 },
            PtsMsg::ForceReport { global: 0 },
        ];
        for m in msgs {
            assert!(m.wire_size() <= 64);
        }
    }

    #[test]
    fn qap_messages_size_by_assignment_length() {
        let q = Qap::random(40, 1);
        let init: PtsMsg<Qap> = PtsMsg::Init {
            snapshot: Arc::new(q.snapshot()),
        };
        let small = Qap::random(4, 1);
        let init_small: PtsMsg<Qap> = PtsMsg::Init {
            snapshot: Arc::new(small.snapshot()),
        };
        assert!(init.wire_size() > init_small.wire_size());
    }

    #[test]
    fn group_report_costs_at_least_what_a_report_costs() {
        // The sharded tree must not get free bandwidth: a GroupReport
        // carrying the same solution/tabu/trace payload is at least as
        // heavy as the TSW Report it reduces.
        let q = Qap::random(40, 1);
        let snapshot = q.snapshot();
        let tabu: SharedTabu<Qap> = Arc::new(vec![((0, 1), 3)]);
        let report: PtsMsg<Qap> = PtsMsg::Report {
            tsw: 0,
            global: 0,
            cost: 1.0,
            snapshot: full::<Qap>(snapshot.clone()),
            tabu: Arc::clone(&tabu),
            trace: vec![],
            stats: SearchStats::default(),
        };
        let group: PtsMsg<Qap> = PtsMsg::GroupReport {
            shard: 0,
            global: 0,
            cost: 1.0,
            snapshot: full::<Qap>(snapshot),
            tabu,
            trace: vec![],
            stats: SearchStats::default(),
            forced: 2,
        };
        assert!(group.wire_size() >= report.wire_size());
    }

    #[test]
    fn payload_encodes_delta_when_smaller_and_falls_back_when_not() {
        use crate::config::SnapshotMode;
        let base_snap = QapAssignment::new((0..32).collect());
        let base: SnapshotBase<Qap> = SnapshotBase::initial(Arc::new(base_snap.clone()));

        // Two facilities moved: a 2-entry delta (16 B + 8 B header)
        // against a 256 B full snapshot.
        let mut close = base_snap.as_slice().to_vec();
        close.swap(3, 7);
        let close = Arc::new(QapAssignment::new(close));
        let p = SnapshotPayload::<Qap>::encode(SnapshotMode::Delta, &base, &close);
        assert!(p.is_delta());
        assert_eq!(p.wire_bytes(), 8 + 16);
        assert!(p.wire_bytes() <= close.wire_bytes());
        assert_eq!(*p.resolve(&base).unwrap(), *close);

        // Everything moved: the delta would be 8 B/entry against 8 B/entry
        // full — the encoder must fall back to Full.
        let far = Arc::new(QapAssignment::new((0..32).rev().collect()));
        let p = SnapshotPayload::<Qap>::encode(SnapshotMode::Delta, &base, &far);
        assert!(!p.is_delta());
        assert_eq!(p.wire_bytes(), far.wire_bytes());

        // Full mode never deltas, even when one would be tiny.
        let p = SnapshotPayload::<Qap>::encode(SnapshotMode::Full, &base, &close);
        assert!(!p.is_delta());
    }

    #[test]
    fn payload_resolve_rejects_unshared_base() {
        let base: SnapshotBase<Qap> =
            SnapshotBase::initial(Arc::new(QapAssignment::new((0..8).collect())));
        let delta = SnapshotPayload::<Qap>::Delta {
            base_seq: 3, // diffed against a broadcast this holder never saw
            delta: Arc::new(<QapAssignment as DeltaSnapshot>::diff(
                &base.snapshot,
                &QapAssignment::new((0..8).rev().collect()),
            )),
        };
        assert!(delta.resolve(&base).is_none());
        let mut advanced = base.clone();
        advanced.advance(2, Arc::clone(&base.snapshot));
        assert_eq!(advanced.seq, 3);
        assert!(delta.resolve(&advanced).is_some());
    }

    #[test]
    fn tags_cover_all_variants() {
        let stop: PtsMsg<Qap> = PtsMsg::Stop;
        assert_eq!(stop.tag(), "Stop");
        let inv: PtsMsg<Qap> = PtsMsg::Investigate {
            seq: 0,
            strategy: 0,
        };
        assert_eq!(inv.tag(), "Investigate");
    }
}
