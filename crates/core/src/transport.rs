//! Transport abstraction: the same master/TSW/CLW code runs on native
//! threads (real parallel wall-clock execution), on the cooperative
//! virtual-time executor (thousands of logical workers on one thread),
//! and over sockets between OS processes
//! ([`crate::socket::SocketTransport`]).
//!
//! The protocol loops are `async`: [`Transport::recv`] and
//! [`Transport::compute`] are their suspension points. Blocking
//! substrates (native threads, sockets) resolve both futures on their
//! first poll — they block *inside* the poll, so driving their protocol
//! futures with [`drive_sync`] never actually suspends. The cooperative
//! substrate suspends for real: [`VirtualTransport`] returns `Pending` on
//! an empty mailbox and parks inside `compute` until the charged work
//! completes on the task's machine, which is what lets one OS thread
//! interleave thousands of workers under a virtual clock. The async
//! engine runs the same transport with its stamps on the wall clock.
//!
//! All transports account per-process metrics into the same
//! [`ProcStats`] shape, which is what lets the engines return one unified
//! [`crate::report::RunReport`] regardless of substrate.

use crate::domain::PtsProblem;
use crate::messages::PtsMsg;
use pts_vcluster::{ProcStats, VirtualTaskCtx};
use std::future::Future;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::task::Poll;
use std::time::Instant;

/// Process-side communication + time + work accounting.
pub trait Transport<P: PtsProblem> {
    /// This process's rank in the PTS topology.
    fn rank(&self) -> usize;
    /// Seconds since the run started (virtual or wall).
    fn now(&self) -> f64;
    /// Charge CPU work (advances virtual time; the blocking wall-clock
    /// transports only record it — real computation takes real time).
    ///
    /// Like [`Transport::recv`] this is a suspension point: on the
    /// cooperative substrate ([`VirtualTransport`]) the task parks until
    /// the charged work completes on its machine, which is how one OS
    /// thread interleaves thousands of workers, and how a sibling's
    /// `CutShort` can land in the middle of a CLW investigation. The
    /// blocking transports resolve on first poll and only record the
    /// units.
    fn compute(&mut self, work: f64) -> impl Future<Output = ()>;
    /// Deliver `msg` to the process at rank `dst`.
    fn send(&mut self, dst: usize, msg: PtsMsg<P>);
    /// Wait for the next message — the protocol's main suspension point.
    /// Blocking transports resolve on first poll; the cooperative
    /// transports park the task until a message arrives.
    fn recv(&mut self) -> impl Future<Output = PtsMsg<P>>;
    /// Take a message if one has already arrived; never waits.
    fn try_recv(&mut self) -> Option<PtsMsg<P>>;
    /// Wait for the next message, giving up at absolute time `deadline`
    /// (in this transport's clock): `None` means the deadline passed with
    /// nothing delivered. The default never times out — only substrates
    /// with a controllable clock (the virtual-time transport) override
    /// it, which is where the round-liveness timeout is meaningful; on
    /// blocking substrates a lost peer is a lost channel, not a silence.
    fn recv_deadline(&mut self, deadline: f64) -> impl Future<Output = Option<PtsMsg<P>>> {
        let _ = deadline;
        async move { Some(self.recv().await) }
    }
}

/// Protocol-anomaly note: a message was dropped because it did not fit
/// the protocol state (stale round, duplicate child, unexpected type).
/// These indicate a misbehaving peer — never a normal execution path — so
/// they go to stderr unconditionally; in debug builds they are loud but
/// non-fatal, matching the release behaviour the regression tests pin.
pub(crate) fn protocol_warn(rank: usize, what: &str) {
    eprintln!("pts protocol [rank {rank}]: {what}");
}

/// Drive a protocol future built over a *blocking* transport.
///
/// [`ThreadTransport`] and [`crate::socket::SocketTransport`] block
/// inside `poll` (a channel or socket `recv`), so their protocol futures
/// complete on the first poll. This is the thread and proc engines'
/// bridge to the shared `async` protocol code.
///
/// # Panics
///
/// If the future suspends — that would mean it was built over a
/// cooperative transport, which only the virtual-time executor can drive.
pub fn drive_sync<F: Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    let mut cx = std::task::Context::from_waker(std::task::Waker::noop());
    match fut.as_mut().poll(&mut cx) {
        Poll::Ready(out) => out,
        Poll::Pending => unreachable!("blocking transports never suspend"),
    }
}

/// Shared per-rank stats sink filled as thread transports retire.
pub type StatsSink = Arc<Mutex<Vec<ProcStats>>>;

/// Native-thread transport over std mpsc channels. Counts messages,
/// bytes, charged work, and recv wait time so the thread engine can report
/// the same per-process metrics shape as the virtual-time engine.
pub struct ThreadTransport<P: PtsProblem> {
    rank: usize,
    start: Instant,
    senders: Vec<Sender<PtsMsg<P>>>,
    receiver: Receiver<PtsMsg<P>>,
    stats: ProcStats,
    sink: StatsSink,
    /// This thread's CPU time when [`ThreadTransport::mark_thread_start`]
    /// ran — the baseline `busy_time` is measured from. `None` until the
    /// owning thread marks itself (the transport is constructed on the
    /// spawning thread, whose CPU time is not this worker's).
    cpu_baseline: Option<f64>,
}

impl<P: PtsProblem> ThreadTransport<P> {
    /// Wire up rank `rank`: one sender per peer, this rank's receiver, and
    /// the shared sink its stats are deposited into on drop.
    pub fn new(
        rank: usize,
        start: Instant,
        senders: Vec<Sender<PtsMsg<P>>>,
        receiver: Receiver<PtsMsg<P>>,
        sink: StatsSink,
    ) -> ThreadTransport<P> {
        ThreadTransport {
            rank,
            start,
            senders,
            receiver,
            stats: ProcStats::default(),
            sink,
            cpu_baseline: None,
        }
    }

    /// Start per-thread CPU accounting — call on the thread that will
    /// drive the protocol, before its first protocol step. On Linux the
    /// thread's CPU time from here to drop is reported as `busy_time`
    /// (via `getrusage(RUSAGE_THREAD)`), which is what makes
    /// [`crate::report::RunReport::utilization`] meaningful on the
    /// thread engine; elsewhere busy time stays 0.
    pub fn mark_thread_start(&mut self) {
        self.cpu_baseline = pts_util::thread_cpu_seconds();
    }

    fn recv_blocking(&mut self) -> PtsMsg<P> {
        let blocked = Instant::now();
        let msg = self
            .receiver
            .recv()
            .expect("peer channels outlive the protocol");
        self.stats.wait_time += blocked.elapsed().as_secs_f64();
        self.stats.messages_received += 1;
        msg
    }
}

impl<P: PtsProblem> Transport<P> for ThreadTransport<P> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn compute(&mut self, work: f64) -> impl Future<Output = ()> {
        // Real computation takes real wall time; only record the units.
        self.stats.work_done += work;
        std::future::ready(())
    }

    fn send(&mut self, dst: usize, msg: PtsMsg<P>) {
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += msg.wire_size();
        crate::meter::note_send(&msg);
        // A receiver that already processed Stop may be gone; that's fine.
        let _ = self.senders[dst].send(msg);
    }

    fn recv(&mut self) -> impl Future<Output = PtsMsg<P>> {
        // Blocks inside poll on the channel — never `Pending`.
        std::future::poll_fn(|_cx| Poll::Ready(self.recv_blocking()))
    }

    fn try_recv(&mut self) -> Option<PtsMsg<P>> {
        let msg = self.receiver.try_recv().ok()?;
        self.stats.messages_received += 1;
        Some(msg)
    }
}

impl<P: PtsProblem> Drop for ThreadTransport<P> {
    fn drop(&mut self) {
        self.stats.finished_at = self.now();
        // CPU consumed by this worker thread since mark_thread_start:
        // its busy time (channel waits sleep, so they don't count).
        if let (Some(baseline), Some(now_cpu)) = (self.cpu_baseline, pts_util::thread_cpu_seconds())
        {
            self.stats.busy_time = (now_cpu - baseline).max(0.0);
        }
        if let Ok(mut sink) = self.sink.lock() {
            if self.rank < sink.len() {
                sink[self.rank] = std::mem::take(&mut self.stats);
            }
        }
    }
}

/// Cooperative transport over a [`VirtualTaskCtx`]: ranks coincide with
/// task ids (the vt and async engines spawn tasks in rank order). Both
/// `recv` *and* `compute` suspend — a parked future stands in for a
/// process blocked on its machine, so the discrete-event executor can
/// interleave thousands of workers under one virtual clock.
pub struct VirtualTransport<P: PtsProblem> {
    /// The virtual-time task handle this transport wraps.
    pub ctx: VirtualTaskCtx<PtsMsg<P>>,
    /// The clock of [`Transport::now`]: `None` reads the executor's
    /// virtual clock; `Some(start)` reads host seconds since `start`,
    /// the async engine's clock, and then `recv_deadline` never times
    /// out, because a wall deadline means nothing to the executor.
    pub wall: Option<Instant>,
}

impl<P: PtsProblem> Transport<P> for VirtualTransport<P> {
    fn rank(&self) -> usize {
        self.ctx.id()
    }

    fn now(&self) -> f64 {
        match self.wall {
            Some(start) => start.elapsed().as_secs_f64(),
            None => self.ctx.now(),
        }
    }

    fn compute(&mut self, work: f64) -> impl Future<Output = ()> {
        // Suspends until the charged work completes on this task's
        // machine (speed + background load), advancing virtual time.
        self.ctx.compute(work)
    }

    fn send(&mut self, dst: usize, msg: PtsMsg<P>) {
        let bytes = msg.wire_size();
        crate::meter::note_send(&msg);
        self.ctx.send_sized(dst, msg, bytes);
    }

    fn recv(&mut self) -> impl Future<Output = PtsMsg<P>> {
        self.ctx.recv()
    }

    fn try_recv(&mut self) -> Option<PtsMsg<P>> {
        self.ctx.try_recv()
    }

    async fn recv_deadline(&mut self, deadline: f64) -> Option<PtsMsg<P>> {
        // On the virtual clock a timeout is well-defined: the
        // discrete-event queue wakes the task at the deadline if nothing
        // arrives first.
        match self.wall {
            Some(_) => Some(self.ctx.recv().await),
            None => self.ctx.recv_deadline(deadline).await,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pts_tabu::qap::Qap;
    use std::sync::mpsc::channel;

    fn sink(n: usize) -> StatsSink {
        Arc::new(Mutex::new(vec![ProcStats::default(); n]))
    }

    #[test]
    fn thread_transport_routes_messages() {
        let (s0, r0) = channel();
        let (s1, r1) = channel();
        let start = Instant::now();
        let sk = sink(2);
        let mut a: ThreadTransport<Qap> =
            ThreadTransport::new(0, start, vec![s0.clone(), s1.clone()], r0, Arc::clone(&sk));
        let mut b: ThreadTransport<Qap> = ThreadTransport::new(1, start, vec![s0, s1], r1, sk);
        assert_eq!(Transport::rank(&a), 0);
        assert_eq!(Transport::rank(&b), 1);
        a.send(1, PtsMsg::Stop);
        assert!(matches!(drive_sync(b.recv()), PtsMsg::Stop));
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn thread_transport_send_to_dropped_receiver_is_silent() {
        let (s0, r0) = channel();
        let (s1, r1) = channel();
        drop(r1);
        let start = Instant::now();
        let mut a: ThreadTransport<Qap> = ThreadTransport::new(0, start, vec![s0, s1], r0, sink(2));
        a.send(1, PtsMsg::Stop); // must not panic
    }

    #[test]
    fn thread_transport_clock_advances() {
        let (s0, r0) = channel();
        let start = Instant::now();
        let a: ThreadTransport<Qap> = ThreadTransport::new(0, start, vec![s0], r0, sink(1));
        let t1 = a.now();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(a.now() > t1);
    }

    #[test]
    fn thread_transport_deposits_stats_on_drop() {
        let (s0, r0) = channel();
        let (s1, r1) = channel();
        let start = Instant::now();
        let sk = sink(2);
        {
            let mut a: ThreadTransport<Qap> =
                ThreadTransport::new(0, start, vec![s0.clone(), s1], r0, Arc::clone(&sk));
            a.send(
                1,
                PtsMsg::Investigate {
                    seq: 1,
                    strategy: 0,
                },
            );
            drive_sync(a.compute(3.0));
            drop(r1);
        }
        let stats = sk.lock().unwrap();
        assert_eq!(stats[0].messages_sent, 1);
        assert!(stats[0].bytes_sent > 0);
        assert!((stats[0].work_done - 3.0).abs() < 1e-12);
        assert!(stats[0].finished_at >= 0.0);
    }

    #[test]
    fn drive_sync_returns_immediately_ready_value() {
        assert_eq!(drive_sync(std::future::ready(42)), 42);
    }

    #[test]
    fn wall_clock_transport_routes_messages() {
        use pts_vcluster::{topology::zero_cost, VirtualTaskCluster};
        let start = Instant::now();
        let wall = Some(start);
        let mut cluster: VirtualTaskCluster<PtsMsg<Qap>> = VirtualTaskCluster::new(zero_cost());
        cluster.spawn(0, move |ctx| async move {
            let mut t = VirtualTransport { ctx, wall };
            assert_eq!(Transport::rank(&t), 0);
            assert!(t.try_recv().is_none());
            assert!(matches!(t.recv().await, PtsMsg::Investigate { seq: 9, .. }));
            t.send(1, PtsMsg::Stop);
        });
        cluster.spawn(0, move |ctx| async move {
            let mut t = VirtualTransport { ctx, wall };
            assert_eq!(Transport::rank(&t), 1);
            t.compute(1.5).await;
            t.send(
                0,
                PtsMsg::Investigate {
                    seq: 9,
                    strategy: 0,
                },
            );
            assert!(matches!(t.recv().await, PtsMsg::Stop));
            // Stamps are host seconds, not the 1.5 work units charged.
            assert!(t.now() <= start.elapsed().as_secs_f64());
        });
        let report = cluster.run();
        assert_eq!(report.per_proc[0].messages_sent, 1);
        assert_eq!(report.per_proc[0].messages_received, 1);
        assert_eq!(report.per_proc[1].messages_received, 1);
        assert!((report.per_proc[1].work_done - 1.5).abs() < 1e-12);
        assert_eq!(
            report.per_proc[0].bytes_sent,
            PtsMsg::<Qap>::Stop.wire_size(),
            "wire sizes accounted"
        );
    }
}
