//! Unified run metrics across execution engines.
//!
//! All four engines produce the *same* report type: the virtual-time
//! engine fills it with virtual-time accounting (the paper's
//! measurements — busy/wait seconds per process), the thread engine with
//! wall-clock and channel accounting, the cooperative async engine with
//! wall-clock accounting for its single-threaded task schedule, and the
//! proc engine with the traffic its socket router observed. No field is
//! engine-optional — code consuming a report never needs to know which
//! substrate carried the run.

use pts_vcluster::ProcStats;

/// Which clock [`RunReport::end_time`] and the per-process times are in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockDomain {
    /// Deterministic virtual seconds (simulated heterogeneous cluster).
    Virtual,
    /// Host wall-clock seconds (native threads and the cooperative async
    /// engine, which both execute in real time).
    Wall,
}

/// Metrics of one PTS run, engine-independent.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Engine that carried the run ("threads", "async", "vt", "proc").
    pub engine: &'static str,
    /// Clock the search-time metrics are measured in.
    pub clock: ClockDomain,
    /// Search time: when the last process finished, in [`RunReport::clock`]
    /// units.
    pub end_time: f64,
    /// Real wall-clock duration of the whole run on this host (equals the
    /// search time for the thread engine, host time for the vt engine).
    pub wall_seconds: f64,
    /// Per-process counters, indexed by rank (master = 0). The vt engine
    /// reports full virtual-time accounting; the thread and async engines
    /// report message/byte/work counters and recv wait time. On Linux the
    /// thread engine also fills `busy_time` with each worker thread's CPU
    /// time (`getrusage(RUSAGE_THREAD)`); the async engine reports 0 busy
    /// time (all workers share the calling thread).
    pub per_proc: Vec<ProcStats>,
    /// Ranks observed to die mid-run (sorted, deduplicated). Populated
    /// only by the proc engine's supervisor — abnormal child exits and
    /// stale heartbeats; the in-process engines cannot lose a rank and
    /// the vt engine's injected faults are part of the scenario, not an
    /// observation. A non-empty list marks a degraded-but-truthful run:
    /// the search completed over the quorum of the living.
    pub dead_ranks: Vec<usize>,
}

impl RunReport {
    /// Number of logical processes the run spawned.
    pub fn num_procs(&self) -> usize {
        self.per_proc.len()
    }

    /// Total messages sent across all processes.
    pub fn total_messages(&self) -> u64 {
        self.per_proc.iter().map(|p| p.messages_sent).sum()
    }

    /// Total accounted wire bytes sent across all processes.
    pub fn total_bytes(&self) -> u64 {
        self.per_proc.iter().map(|p| p.bytes_sent).sum()
    }

    /// Total work units charged via `compute` across all processes.
    pub fn total_work(&self) -> f64 {
        self.per_proc.iter().map(|p| p.work_done).sum()
    }

    /// Fraction of total process-time spent computing rather than waiting.
    /// Meaningful for the vt engine (the paper's utilization
    /// measure, in virtual time) and, on Linux, for the thread engine
    /// (per-thread CPU time via `getrusage(RUSAGE_THREAD)` against
    /// channel-blocked wall time). The async engine multiplexes every
    /// worker on one thread and reports 0 busy time, hence 0.
    pub fn utilization(&self) -> f64 {
        let busy: f64 = self.per_proc.iter().map(|p| p.busy_time).sum();
        let wait: f64 = self.per_proc.iter().map(|p| p.wait_time).sum();
        if busy + wait == 0.0 {
            0.0
        } else {
            busy / (busy + wait)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc(busy: f64, wait: f64, sent: u64, bytes: u64) -> ProcStats {
        ProcStats {
            busy_time: busy,
            wait_time: wait,
            messages_sent: sent,
            bytes_sent: bytes,
            work_done: busy,
            ..ProcStats::default()
        }
    }

    #[test]
    fn aggregates_sum_over_procs() {
        let r = RunReport {
            engine: "vt",
            clock: ClockDomain::Virtual,
            end_time: 12.0,
            wall_seconds: 0.5,
            per_proc: vec![proc(6.0, 2.0, 3, 300), proc(2.0, 6.0, 1, 100)],
            dead_ranks: vec![],
        };
        assert_eq!(r.num_procs(), 2);
        assert_eq!(r.total_messages(), 4);
        assert_eq!(r.total_bytes(), 400);
        assert!((r.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_utilization_is_zero() {
        let r = RunReport {
            engine: "threads",
            clock: ClockDomain::Wall,
            end_time: 0.0,
            wall_seconds: 0.0,
            per_proc: vec![],
            dead_ranks: vec![],
        };
        assert_eq!(r.utilization(), 0.0);
    }
}
