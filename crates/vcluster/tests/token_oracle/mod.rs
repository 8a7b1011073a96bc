//! The token scheduler: an independent, thread-per-process implementation
//! of the virtual-time cluster model, kept as the reference that the
//! cooperative discrete-event executor ([`pts_vcluster::VirtualTaskCluster`])
//! is checked against bit for bit.
//!
//! Every process runs on its own OS thread, but a single token (the
//! `current` field) admits exactly one at a time. When the running
//! process blocks (compute or recv), it computes its wake-up time, hands
//! the token to the ready process with the smallest `(wake, pid)`, and
//! parks on a condvar. The clock jumps to the chosen process's wake-up.
//! Every scheduling decision is a function of virtual times and pids,
//! never of OS scheduling, so identical inputs replay identically.

use pts_vcluster::mailbox::{Envelope, Mailbox};
use pts_vcluster::{ClusterSpec, ProcStats, RunReport};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

#[derive(Clone, Copy, Debug, PartialEq)]
enum Status {
    /// Will be runnable at the given virtual time.
    Ready(f64),
    /// Currently holds the token.
    Running,
    /// Blocked in `recv` with an empty mailbox.
    BlockedRecv,
    Dead,
}

struct Proc<M> {
    status: Status,
    machine: usize,
    mailbox: Mailbox<M>,
    stats: ProcStats,
}

struct State<M> {
    now: f64,
    current: Option<usize>,
    procs: Vec<Proc<M>>,
    send_seq: u64,
    /// Last delivery time per (src, dst) pair: FIFO channels.
    pair_last: HashMap<(usize, usize), f64>,
    poisoned: Option<String>,
}

struct Shared<M> {
    state: Mutex<State<M>>,
    cv: Condvar,
    cluster: ClusterSpec,
}

impl<M> Shared<M> {
    fn lock(&self) -> MutexGuard<'_, State<M>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hand the token to the ready process with the smallest
    /// `(wake, pid)` and move the clock to its wake-up. The caller holds
    /// the lock and has already parked the running process's status.
    fn schedule_next(state: &mut State<M>) {
        let mut best: Option<(f64, usize)> = None;
        for (id, p) in state.procs.iter().enumerate() {
            if let Status::Ready(wake) = p.status {
                if best.is_none_or(|(bw, bid)| (wake, id) < (bw, bid)) {
                    best = Some((wake, id));
                }
            }
        }
        match best {
            Some((wake, id)) => {
                state.now = state.now.max(wake);
                state.procs[id].status = Status::Running;
                state.current = Some(id);
            }
            None if state.procs.iter().any(|p| p.status == Status::BlockedRecv) => {
                state.poisoned = Some(format!("deadlock at t={}", state.now));
            }
            None => state.current = None,
        }
    }

    /// Wait until process `id` holds the token.
    fn wait_turn<'a>(
        &'a self,
        state: MutexGuard<'a, State<M>>,
        id: usize,
    ) -> MutexGuard<'a, State<M>> {
        let state = self
            .cv
            .wait_while(state, |s| s.poisoned.is_none() && s.current != Some(id))
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(msg) = state.poisoned.clone() {
            drop(state);
            self.cv.notify_all();
            panic!("virtual cluster poisoned: {msg}");
        }
        state
    }

    /// Park the calling process (status already set by the caller), hand
    /// the token over, and wait for it to come back.
    fn yield_and_wait<'a>(
        &'a self,
        mut state: MutexGuard<'a, State<M>>,
        id: usize,
    ) -> MutexGuard<'a, State<M>> {
        Self::schedule_next(&mut state);
        self.cv.notify_all();
        self.wait_turn(state, id)
    }

    fn compute(&self, id: usize, work: f64) {
        let mut state = self.lock();
        let now = state.now;
        let end = self.cluster.machines[state.procs[id].machine].compute_end(now, work);
        let p = &mut state.procs[id];
        p.stats.busy_time += end - now;
        p.stats.work_done += work;
        p.status = Status::Ready(end);
        drop(self.yield_and_wait(state, id));
    }

    fn send(&self, src: usize, dst: usize, msg: M, bytes: u64) {
        let mut state = self.lock();
        let (src_machine, dst_machine) = (state.procs[src].machine, state.procs[dst].machine);
        let mut deliver_at = state.now
            + self
                .cluster
                .link
                .transfer_time(src_machine, dst_machine, bytes);
        let last = state.pair_last.entry((src, dst)).or_insert(0.0);
        deliver_at = deliver_at.max(*last);
        *last = deliver_at;
        state.send_seq += 1;
        let seq = state.send_seq;
        let sender = &mut state.procs[src].stats;
        sender.messages_sent += 1;
        sender.bytes_sent += bytes;
        let dp = &mut state.procs[dst];
        if dp.status == Status::Dead {
            return; // undeliverable
        }
        dp.mailbox.push(Envelope {
            deliver_at,
            seq,
            msg,
        });
        if dp.status == Status::BlockedRecv {
            dp.status = Status::Ready(deliver_at);
        }
    }

    fn recv(&self, id: usize) -> M {
        let mut state = self.lock();
        loop {
            let now = state.now;
            if let Some(env) = state.procs[id].mailbox.pop_ready(now) {
                state.procs[id].stats.messages_received += 1;
                return env.msg;
            }
            state.procs[id].status = match state.procs[id].mailbox.earliest() {
                Some(t) => Status::Ready(t),
                None => Status::BlockedRecv,
            };
            state = self.yield_and_wait(state, id);
            state.procs[id].stats.wait_time += state.now - now;
        }
    }

    /// Mark a process dead and pass the token on; runs on the process's
    /// thread as it exits, normally or by panic.
    fn retire(&self, id: usize, panicked: bool) {
        let mut state = self.lock();
        state.procs[id].status = Status::Dead;
        state.procs[id].stats.finished_at = state.now;
        if panicked && state.poisoned.is_none() {
            state.poisoned = Some(format!("process p{id} panicked"));
        }
        if state.current == Some(id) {
            state.current = None;
            if state.poisoned.is_none() {
                Self::schedule_next(&mut state);
            }
        }
        self.cv.notify_all();
    }
}

/// A simulated process's handle: all virtual time flows through it.
pub struct ProcCtx<M> {
    id: usize,
    shared: Arc<Shared<M>>,
}

impl<M> ProcCtx<M> {
    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.shared.lock().now
    }

    /// Charge `work` units on this process's machine; virtual time
    /// advances to the charged end.
    pub fn compute(&self, work: f64) {
        self.shared.compute(self.id, work);
    }

    /// Send `msg` of `bytes` to process `dst`; delivery follows the link
    /// model, FIFO per route.
    pub fn send_sized(&self, dst: usize, msg: M, bytes: u64) {
        self.shared.send(self.id, dst, msg, bytes);
    }

    /// Block until the next message arrives.
    pub fn recv(&self) -> M {
        self.shared.recv(self.id)
    }
}

type Body<M> = Box<dyn FnOnce(ProcCtx<M>) + Send>;

/// Builder: declare the cluster, spawn processes, run to completion.
pub struct TokenCluster<M> {
    cluster: ClusterSpec,
    bodies: Vec<(usize, Body<M>)>,
}

impl<M: Send + 'static> TokenCluster<M> {
    pub fn new(cluster: ClusterSpec) -> TokenCluster<M> {
        TokenCluster {
            cluster,
            bodies: Vec::new(),
        }
    }

    /// Register a process on `machine`; returns its pid (spawn order).
    pub fn spawn(&mut self, machine: usize, f: impl FnOnce(ProcCtx<M>) + Send + 'static) -> usize {
        self.bodies.push((machine, Box::new(f)));
        self.bodies.len() - 1
    }

    /// Run every process to completion and report; re-raises the first
    /// process panic (a deadlock panics every blocked process).
    pub fn run(self) -> RunReport {
        let procs = self
            .bodies
            .iter()
            .map(|&(machine, _)| Proc {
                status: Status::Ready(0.0),
                machine,
                mailbox: Mailbox::new(),
                stats: ProcStats {
                    machine,
                    ..ProcStats::default()
                },
            })
            .collect();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                now: 0.0,
                current: None,
                procs,
                send_seq: 0,
                pair_last: HashMap::new(),
                poisoned: None,
            }),
            cv: Condvar::new(),
            cluster: self.cluster,
        });

        struct Retire<M> {
            shared: Arc<Shared<M>>,
            id: usize,
            done: bool,
        }
        impl<M> Drop for Retire<M> {
            fn drop(&mut self) {
                self.shared.retire(self.id, !self.done);
            }
        }
        let handles: Vec<_> = self
            .bodies
            .into_iter()
            .enumerate()
            .map(|(id, (_, body))| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut guard = Retire {
                        shared: Arc::clone(&shared),
                        id,
                        done: false,
                    };
                    drop(shared.wait_turn(shared.lock(), id));
                    body(ProcCtx { id, shared });
                    guard.done = true;
                })
            })
            .collect();

        // Hand the token to the first process.
        Shared::schedule_next(&mut shared.lock());
        shared.cv.notify_all();

        let mut panic = None;
        for h in handles {
            if let Err(e) = h.join() {
                panic.get_or_insert(e);
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
        let state = shared.lock();
        RunReport {
            end_time: state
                .procs
                .iter()
                .map(|p| p.stats.finished_at)
                .fold(0.0, f64::max),
            per_proc: state.procs.iter().map(|p| p.stats.clone()).collect(),
        }
    }
}
