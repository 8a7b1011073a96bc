//! Process-wide counters for snapshot traffic and materialization.
//!
//! The delta-encoded snapshot protocol exists to cut two costs: the
//! *simulated wire bytes* solution snapshots occupy (the bandwidth model
//! the paper's measurements care about) and the *real allocations* spent
//! deep-copying solutions per recipient. Per-process byte totals already
//! live in [`pts_vcluster::ProcStats`]; these counters isolate the
//! snapshot-payload share of that traffic and count every full-snapshot
//! materialization (a deep clone or a delta application), which is what
//! ptsbench reports and the `BENCH_wire.json` regression gate tracks.
//!
//! The counters are global atomics: all engines run their whole process
//! tree inside one OS process (simulated processes, threads, or
//! cooperative tasks), so a run's totals accumulate here regardless of
//! substrate. They are *per-process-wide*, not per-run — benchmarks that
//! compare runs must call [`take_snapshot_meter`] between runs and must
//! not execute runs concurrently.

use crate::domain::PtsProblem;
use crate::messages::PtsMsg;
use std::sync::atomic::{AtomicU64, Ordering};

static ROUND_PAYLOAD_BYTES: AtomicU64 = AtomicU64::new(0);
static INIT_PAYLOAD_BYTES: AtomicU64 = AtomicU64::new(0);
static SNAPSHOT_ALLOCS: AtomicU64 = AtomicU64::new(0);
static PAYLOAD_SENDS: AtomicU64 = AtomicU64::new(0);
static TABU_PAYLOAD_BYTES: AtomicU64 = AtomicU64::new(0);
static TRIALS: AtomicU64 = AtomicU64::new(0);

/// A reading of the snapshot meters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotMeter {
    /// Wire bytes of snapshot payloads in *per-round* traffic
    /// (`Broadcast`/`Report`/`GroupReport`/`AdoptState`),
    /// as charged by the bandwidth model. This is the recurring cost
    /// delta encoding attacks; divide by the round count for the
    /// per-round figure `BENCH_wire.json` gates on.
    pub round_payload_bytes: u64,
    /// Wire bytes of the one-time `Init` snapshot fan-out (always full —
    /// no base exists yet — and identical across snapshot modes).
    pub init_payload_bytes: u64,
    /// Full-snapshot materializations: deep clones made to ship or adopt
    /// a solution, plus delta applications reconstructing one.
    pub allocs: u64,
    /// Snapshot-bearing messages sent. Before the zero-copy (`Arc`)
    /// payload path, every one of these deep-copied its solution per
    /// recipient — the allocation floor the `Arc` fan-out removed;
    /// compare with [`SnapshotMeter::allocs`].
    pub payload_sends: u64,
    /// Wire bytes of tabu-list payloads across all tabu-bearing traffic:
    /// the lists riding `Broadcast` and
    /// `Report`/`GroupReport`, always in full.
    pub tabu_payload_bytes: u64,
}

impl SnapshotMeter {
    /// All snapshot-payload wire bytes, one-time and per-round.
    pub fn payload_bytes(&self) -> u64 {
        self.round_payload_bytes + self.init_payload_bytes
    }
}

/// Account one sent message's snapshot payload (called by the transports
/// per send).
pub(crate) fn note_send<P: PtsProblem>(msg: &PtsMsg<P>) {
    // Tabu accounting first: a tabu-bearing message with an *empty* list
    // adds 0 bytes anyway, but the counter must not depend on whether the
    // message also carries a snapshot.
    let tabu_bytes = msg.tabu_wire_bytes();
    if tabu_bytes > 0 {
        TABU_PAYLOAD_BYTES.fetch_add(tabu_bytes, Ordering::Relaxed);
    }
    let bytes = msg.snapshot_wire_bytes();
    if bytes == 0 {
        return;
    }
    PAYLOAD_SENDS.fetch_add(1, Ordering::Relaxed);
    if matches!(msg, PtsMsg::Init { .. }) {
        INIT_PAYLOAD_BYTES.fetch_add(bytes, Ordering::Relaxed);
    } else {
        ROUND_PAYLOAD_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Record one full-snapshot materialization.
pub(crate) fn record_snapshot_alloc() {
    SNAPSHOT_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// Record `n` candidate-move trial evaluations (one compound-move step
/// samples the strategy's `candidates` moves). Called by the CLW per
/// *executed* step, so forced-early rounds, cut-short investigations,
/// and dead workers are naturally excluded — this is the exact count a
/// per-trial cost denominator needs, where the nominal
/// `tsws × clws × candidates × depth × iterations` product is only an
/// upper bound.
pub(crate) fn record_trials(n: u64) {
    TRIALS.fetch_add(n, Ordering::Relaxed);
}

/// Read and reset the exact trial-evaluation counter — same discipline as
/// [`take_snapshot_meter`]: drain before the measured run, read after,
/// never overlap runs.
pub fn take_trials() -> u64 {
    TRIALS.swap(0, Ordering::Relaxed)
}

/// Read and reset all counters — call before and after the run being
/// measured (runs must not overlap).
pub fn take_snapshot_meter() -> SnapshotMeter {
    SnapshotMeter {
        round_payload_bytes: ROUND_PAYLOAD_BYTES.swap(0, Ordering::Relaxed),
        init_payload_bytes: INIT_PAYLOAD_BYTES.swap(0, Ordering::Relaxed),
        allocs: SNAPSHOT_ALLOCS.swap(0, Ordering::Relaxed),
        payload_sends: PAYLOAD_SENDS.swap(0, Ordering::Relaxed),
        tabu_payload_bytes: TABU_PAYLOAD_BYTES.swap(0, Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::SnapshotPayload;
    use pts_tabu::qap::{Qap, QapAssignment};
    use std::sync::Arc;

    #[test]
    fn take_resets_and_classifies() {
        // Serialize against other tests in this binary touching the
        // globals: drain first, then observe known increments. Concurrent
        // tests may add more in between, hence >= rather than ==.
        let _ = take_snapshot_meter();
        let snap = Arc::new(QapAssignment::new((0..10).collect()));
        note_send::<Qap>(&PtsMsg::Init {
            snapshot: Arc::clone(&snap),
        });
        note_send::<Qap>(&PtsMsg::AdoptState {
            seq: 0,
            snapshot: SnapshotPayload::Full(snap),
        });
        note_send::<Qap>(&PtsMsg::Broadcast {
            global: 0,
            snapshot: SnapshotPayload::Full(Arc::new(QapAssignment::new((0..10).collect()))),
            tabu: crate::messages::TabuPayload::Full(Arc::new(vec![((0, 1), 3), ((2, 3), 2)])),
            strategy: 0,
        });
        note_send::<Qap>(&PtsMsg::Stop); // no payload
        record_snapshot_alloc();
        let m = take_snapshot_meter();
        assert!(m.init_payload_bytes >= 80);
        assert!(m.round_payload_bytes >= 80);
        assert!(m.payload_bytes() >= 160);
        assert!(m.allocs >= 1);
        assert!(m.payload_sends >= 2);
        assert!(m.tabu_payload_bytes >= 24, "two 12-byte tabu entries");
    }
}
