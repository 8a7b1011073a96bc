//! External run control: cooperative cancellation, deadlines, and
//! progress taps for a master loop.
//!
//! Every engine before the job service ran a search to its configured
//! `global_iters` and nothing could stop it early. The `pts-serve`
//! service needs all three missing capabilities — cancel a job whose
//! client hung up, cap a job's wall-clock budget, and stream progress
//! frames while the search runs — without widening the master/worker
//! protocol. [`RunControl`] supplies them from outside: the master polls
//! it once per global iteration, at the exact point where it already
//! decides between "broadcast and continue" and "send `Stop` down", so an
//! early stop is indistinguishable on the wire from a configured final
//! round. Workers need no changes and no new message variants.
//!
//! All engines thread a `RunControl` through; callers that predate run
//! control pass [`RunControl::unlimited`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Progress observer: called once per completed global iteration with
/// `(global_iteration, best_cost_so_far)`. Runs on the master's thread —
/// keep it cheap.
pub type ProgressFn = Arc<dyn Fn(u32, f64) + Send + Sync>;

/// Cheaply clonable handle controlling a running search.
///
/// One clone goes into the engine; the caller keeps another and may flip
/// [`RunControl::cancel`] from any thread. The deadline is a wall-clock
/// [`Instant`] the caller fixes up front, so everything between that
/// point and the search — queueing, process launch, earlier attempts —
/// counts against it.
#[derive(Clone)]
pub struct RunControl {
    cancelled: Arc<AtomicBool>,
    deadline: Option<Instant>,
    progress: Option<ProgressFn>,
}

impl RunControl {
    /// No cancellation, no deadline, no progress tap — the behaviour of
    /// every engine before run control existed.
    pub fn unlimited() -> RunControl {
        RunControl {
            cancelled: Arc::new(AtomicBool::new(false)),
            deadline: None,
            progress: None,
        }
    }

    /// Stop at the first global-iteration boundary past `deadline`.
    pub fn with_deadline(mut self, deadline: Instant) -> RunControl {
        self.deadline = Some(deadline);
        self
    }

    /// Invoke `f` after every completed global iteration.
    pub fn with_progress(mut self, f: ProgressFn) -> RunControl {
        self.progress = Some(f);
        self
    }

    /// Request the search stop at the next global-iteration boundary.
    /// Safe from any thread; idempotent.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Has [`RunControl::cancel`] been called?
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Should the search wind down now (cancelled, or past the
    /// deadline)?
    pub fn should_stop(&self) -> bool {
        self.is_cancelled() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Report one completed global iteration to the progress tap, if any.
    pub fn note_progress(&self, global: u32, best_cost: f64) {
        if let Some(f) = &self.progress {
            f(global, best_cost);
        }
    }

    /// Absolute receive deadline, in the transport's clock, for a
    /// collection wait starting at transport time `now` under a per-round
    /// liveness `timeout`. `None` when `timeout <= 0` — liveness
    /// disabled, wait indefinitely (the historical behaviour; the run
    /// deadline alone never interrupts an in-flight wait, it only stops
    /// the search at round boundaries). With liveness on, the wait ends
    /// after the sooner of `timeout` and the wall-clock time left before
    /// the run's deadline (none, when it has passed: the wait times out
    /// at once).
    pub fn recv_deadline(&self, now: f64, timeout: f64) -> Option<f64> {
        (timeout > 0.0).then(|| match self.deadline {
            Some(d) => now + timeout.min(d.saturating_duration_since(Instant::now()).as_secs_f64()),
            None => now + timeout,
        })
    }
}

impl std::fmt::Debug for RunControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunControl")
            .field("cancelled", &self.is_cancelled())
            .field("deadline", &self.deadline)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_never_stops() {
        let ctl = RunControl::unlimited();
        assert!(!ctl.should_stop());
    }

    #[test]
    fn cancel_is_visible_through_clones() {
        let ctl = RunControl::unlimited();
        let held = ctl.clone();
        ctl.cancel();
        assert!(held.is_cancelled());
        assert!(held.should_stop());
    }

    #[test]
    fn deadline_stops_at_wall_clock_time() {
        let ctl = RunControl::unlimited().with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!ctl.should_stop());
        assert!(!ctl.is_cancelled());
        let ctl = RunControl::unlimited().with_deadline(Instant::now());
        assert!(ctl.should_stop());
        assert!(!ctl.is_cancelled(), "a passed deadline is not a cancel");
    }

    #[test]
    fn recv_deadline_combines_liveness_and_run_deadline() {
        let ctl = RunControl::unlimited();
        assert_eq!(ctl.recv_deadline(10.0, 0.0), None, "liveness off");
        assert_eq!(ctl.recv_deadline(10.0, 5.0), Some(15.0));
        let ctl = RunControl::unlimited().with_deadline(Instant::now() + Duration::from_secs(2));
        assert_eq!(
            ctl.recv_deadline(10.0, 0.0),
            None,
            "deadline alone never interrupts"
        );
        let d = ctl.recv_deadline(10.0, 3600.0).unwrap();
        assert!(d > 10.0 && d <= 12.0, "run deadline wins: {d}");
        assert_eq!(ctl.recv_deadline(10.0, 1.0), Some(11.0), "liveness wins");
        // Past the run deadline: time out immediately, not in the past.
        let ctl = RunControl::unlimited().with_deadline(Instant::now());
        assert_eq!(ctl.recv_deadline(20.0, 5.0), Some(20.0));
    }

    #[test]
    fn progress_tap_fires() {
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<(u32, f64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let ctl = RunControl::unlimited()
            .with_progress(Arc::new(move |g, c| sink.lock().unwrap().push((g, c))));
        ctl.note_progress(0, 10.0);
        ctl.note_progress(1, 8.5);
        assert_eq!(*seen.lock().unwrap(), vec![(0, 10.0), (1, 8.5)]);
    }
}
