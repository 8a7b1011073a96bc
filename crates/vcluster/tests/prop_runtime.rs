//! Property tests for the virtual-time runtime: determinism, clock
//! monotonicity, message conservation, and FIFO ordering over randomized
//! process/topology structures — plus the cross-implementation law that
//! the cooperative discrete-event executor ([`VirtualTaskCluster`])
//! replays the thread-per-process token scheduler
//! ([`token_oracle::TokenCluster`], the reference model kept beside these
//! tests) bit for bit, and model-checked properties of the
//! [`EventQueue`] that drives it.

mod token_oracle;

use proptest::prelude::*;
use pts_vcluster::machine::{LoadModel, Machine};
use pts_vcluster::message::LinkModel;
use pts_vcluster::topology::ClusterSpec;
use pts_vcluster::{Contention, EventQueue, VirtualTaskCluster};
use std::sync::{Arc, Mutex};
use token_oracle::TokenCluster;

/// A randomized star workload: `n_workers` send `msgs_each` messages to a
/// collector after per-message compute bursts.
#[derive(Clone, Debug)]
struct StarSpec {
    speeds: Vec<f64>,
    msgs_each: usize,
    bursts: Vec<f64>,
    latency: f64,
}

fn arb_star() -> impl Strategy<Value = StarSpec> {
    (
        proptest::collection::vec(0.2f64..2.0, 1..6),
        1usize..6,
        proptest::collection::vec(0.1f64..3.0, 1..6),
        0.0f64..0.01,
    )
        .prop_map(|(speeds, msgs_each, bursts, latency)| StarSpec {
            speeds,
            msgs_each,
            bursts,
            latency,
        })
}

/// The star's cluster: a speed-1.0 hub machine, then one machine per
/// worker, so every process has a machine to itself.
fn star_cluster(spec: &StarSpec) -> ClusterSpec {
    let machines: Vec<Machine> = std::iter::once(Machine::new("hub", 1.0))
        .chain(
            spec.speeds
                .iter()
                .enumerate()
                .map(|(i, &s)| Machine::new(format!("w{i}"), s)),
        )
        .collect();
    ClusterSpec::new(
        machines,
        LinkModel {
            latency: spec.latency,
            local_latency: spec.latency / 2.0,
            bytes_per_sec: 1e9,
        },
    )
}

/// Run the star workload on the token-scheduler reference; return the
/// collector's observation log `(worker, msg_index, virtual_time)` and
/// the full run report.
fn run_star_token(spec: &StarSpec) -> (Vec<(u64, u64, f64)>, pts_vcluster::RunReport) {
    let n_workers = spec.speeds.len();
    let total = n_workers * spec.msgs_each;
    let log: Arc<Mutex<Vec<(u64, u64, f64)>>> = Arc::new(Mutex::new(Vec::new()));

    let mut token: TokenCluster<(u64, u64)> = TokenCluster::new(star_cluster(spec));
    let l = Arc::clone(&log);
    let hub = token.spawn(0, move |ctx| {
        for _ in 0..total {
            let (w, i) = ctx.recv();
            l.lock().unwrap().push((w, i, ctx.now()));
        }
    });
    for w in 0..n_workers {
        let bursts = spec.bursts.clone();
        let msgs = spec.msgs_each;
        token.spawn(1 + w, move |ctx| {
            for i in 0..msgs {
                ctx.compute(bursts[i % bursts.len()]);
                ctx.send_sized(hub, (w as u64, i as u64), 64);
            }
        });
    }
    let report = token.run();
    let out = log.lock().unwrap().clone();
    (out, report)
}

/// The identical star workload on the cooperative virtual-time executor;
/// returns the observation log and the full per-process accounting. One
/// process per machine, so `contention` must be behaviourally inert.
fn run_star_vt(
    spec: &StarSpec,
    contention: Contention,
) -> (Vec<(u64, u64, f64)>, pts_vcluster::RunReport) {
    let n_workers = spec.speeds.len();
    let total = n_workers * spec.msgs_each;
    let log: Arc<Mutex<Vec<(u64, u64, f64)>>> = Arc::new(Mutex::new(Vec::new()));

    let mut vt: VirtualTaskCluster<(u64, u64)> = VirtualTaskCluster::new(star_cluster(spec));
    vt.set_contention(contention);
    let l = Arc::clone(&log);
    let hub = vt.spawn(0, move |ctx| async move {
        for _ in 0..total {
            let (w, i) = ctx.recv().await;
            let t = ctx.now();
            l.lock().unwrap().push((w, i, t));
        }
    });
    for w in 0..n_workers {
        let bursts = spec.bursts.clone();
        let msgs = spec.msgs_each;
        vt.spawn(1 + w, move |ctx| async move {
            for i in 0..msgs {
                ctx.compute(bursts[i % bursts.len()]).await;
                ctx.send_sized(hub, (w as u64, i as u64), 64);
            }
        });
    }
    let report = vt.run();
    let out = log.lock().unwrap().clone();
    (out, report)
}

/// Reference model for the event queue: a plain vector of live entries,
/// popped by linear minimum scan over `(time, task, seq)`.
#[derive(Clone, Debug)]
struct QueueOp {
    /// `Some((time_offset, task))` = schedule; `None` = pop.
    schedule: Option<(f64, usize)>,
    /// When scheduling: index into the live set to also cancel (mod len).
    cancel_one: bool,
}

fn arb_queue_ops() -> impl Strategy<Value = Vec<QueueOp>> {
    proptest::collection::vec(
        (0usize..4, 0.0f64..5.0, 0usize..8, any::<bool>()).prop_map(
            |(kind, dt, task, cancel_one)| QueueOp {
                schedule: (kind != 0).then_some((dt, task)),
                cancel_one: kind == 2 && cancel_one,
            },
        ),
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn replay_is_bit_identical(spec in arb_star()) {
        let (log_a, report_a) = run_star_vt(&spec, Contention::Exclusive);
        let (log_b, report_b) = run_star_vt(&spec, Contention::Exclusive);
        prop_assert_eq!(log_a, log_b);
        prop_assert_eq!(report_a.end_time, report_b.end_time);
        prop_assert_eq!(report_a.per_proc, report_b.per_proc);
    }

    #[test]
    fn collector_times_are_monotone(spec in arb_star()) {
        let (log, report) = run_star_vt(&spec, Contention::Exclusive);
        for w in log.windows(2) {
            prop_assert!(w[1].2 >= w[0].2, "receive times must be non-decreasing");
        }
        if let Some(last) = log.last() {
            prop_assert!(report.end_time >= last.2, "run ends after the last receive");
        }
    }

    #[test]
    fn vt_executor_matches_token_scheduler_bit_for_bit(spec in arb_star()) {
        // The cooperative discrete-event executor is not "close to" the
        // thread-backed token scheduler — it IS the same timing model:
        // observation log, end time, and every per-process counter
        // (busy/wait virtual seconds included) must be equal, bit for
        // bit, over arbitrary star workloads.
        let (log_token, report_token) = run_star_token(&spec);
        let (log_vt, report_vt) = run_star_vt(&spec, Contention::Exclusive);
        prop_assert_eq!(log_token, log_vt);
        prop_assert_eq!(report_token.end_time, report_vt.end_time);
        prop_assert_eq!(report_token.per_proc, report_vt.per_proc);
    }

    #[test]
    fn contention_is_bit_inert_without_machine_sharing(spec in arb_star()) {
        // The star topology hosts exactly one process per machine, so
        // time-slicing has nobody to slice between: switching it on must
        // not move a single bit — log, end time, or per-process
        // accounting — even though it routes every compute through the
        // tracked-job path (share 1.0 is IEEE-exact).
        let (log_ex, report_ex) = run_star_vt(&spec, Contention::Exclusive);
        let (log_ts, report_ts) = run_star_vt(&spec, Contention::TimeSliced);
        prop_assert_eq!(log_ex, log_ts);
        prop_assert_eq!(report_ex.end_time, report_ts.end_time);
        prop_assert_eq!(report_ex.per_proc, report_ts.per_proc);
    }

    #[test]
    fn oversubscription_never_beats_running_alone(
        works in proptest::collection::vec(0.5f64..10.0, 2..6),
        speed in 0.3f64..2.0,
    ) {
        // All jobs share one time-sliced machine from t=0. Each must
        // finish no earlier than it would alone on the idle machine, and
        // the last finisher must account for exactly the summed work
        // (time-slicing divides the machine, it never creates capacity).
        let machine = Machine::new("m", speed);
        let cluster = ClusterSpec::new(vec![machine.clone()], LinkModel::default());
        let finish: Arc<Mutex<Vec<(usize, f64)>>> = Arc::new(Mutex::new(Vec::new()));
        let mut vt: VirtualTaskCluster<()> = VirtualTaskCluster::new(cluster);
        vt.set_contention(Contention::TimeSliced);
        for (i, &w) in works.iter().enumerate() {
            let f = Arc::clone(&finish);
            vt.spawn(0, move |ctx| async move {
                ctx.compute(w).await;
                let t = ctx.now();
                f.lock().unwrap().push((i, t));
            });
        }
        vt.run();
        let finish = finish.lock().unwrap().clone();
        prop_assert_eq!(finish.len(), works.len());
        let mut last = 0.0f64;
        for &(i, t) in &finish {
            let alone = machine.compute_end(0.0, works[i]);
            prop_assert!(
                t >= alone - 1e-9,
                "job {i}: finished at {t} under contention, {alone} alone"
            );
            last = last.max(t);
        }
        let total = machine.compute_end(0.0, works.iter().sum());
        prop_assert!(
            (last - total).abs() < 1e-6,
            "last finisher {last} must equal the serialized total {total}"
        );
    }

    #[test]
    fn event_queue_preserves_total_order_and_drains(ops in arb_queue_ops()) {
        // Model-checked: the queue pops exactly the live-set minimum in
        // (time, task, seq) order, never yields an event before (or after)
        // its scheduled time once the clock reaches it, never yields a
        // cancelled entry, and drains to quiescence.
        let mut q = EventQueue::new();
        let mut model: Vec<(f64, usize, u64)> = Vec::new();
        let mut clock = 0.0f64;
        let pop_min = |q: &mut EventQueue, model: &mut Vec<(f64, usize, u64)>,
                           clock: &mut f64| {
            let expect = model
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
                })
                .map(|(i, _)| i);
            match (q.pop(), expect) {
                (None, None) => {}
                (Some(ev), Some(i)) => {
                    let (t, task, seq) = model.remove(i);
                    assert_eq!((ev.time, ev.task, ev.seq), (t, task, seq));
                    // "Never run a task early": the executor clock jumps
                    // TO the event's time, never past a later event, and
                    // schedules are never in the past — so pop times are
                    // non-decreasing.
                    assert!(
                        ev.time >= *clock,
                        "event at {} popped after clock reached {}",
                        ev.time,
                        *clock
                    );
                    *clock = clock.max(ev.time);
                }
                (got, want) => panic!("queue/model diverged: got {got:?}, want index {want:?}"),
            }
        };
        for op in &ops {
            match op.schedule {
                Some((dt, task)) => {
                    let time = clock + dt;
                    let ticket = q.schedule(time, task);
                    model.push((time, task, ticket));
                    if op.cancel_one {
                        // Cancel the oldest live entry; it must never
                        // surface from a later pop.
                        let (_, _, ticket) = model.remove(0);
                        prop_assert!(q.cancel(ticket), "live ticket must cancel");
                        prop_assert!(!q.cancel(ticket), "double cancel must report dead");
                    }
                }
                None => pop_min(&mut q, &mut model, &mut clock),
            }
            prop_assert_eq!(q.len(), model.len());
        }
        // Drain to quiescence: every live entry comes out, in order.
        while !model.is_empty() {
            pop_min(&mut q, &mut model, &mut clock);
        }
        prop_assert!(q.is_empty());
        prop_assert!(q.pop().is_none(), "drained queue must stay quiescent");
    }

    #[test]
    fn all_messages_delivered_exactly_once(spec in arb_star()) {
        let (log, _report) = run_star_vt(&spec, Contention::Exclusive);
        prop_assert_eq!(log.len(), spec.speeds.len() * spec.msgs_each);
        let mut seen = std::collections::HashSet::new();
        for &(w, i, _) in &log {
            prop_assert!(seen.insert((w, i)), "duplicate delivery of ({w},{i})");
        }
    }

    #[test]
    fn per_worker_fifo_holds(spec in arb_star()) {
        let (log, _) = run_star_vt(&spec, Contention::Exclusive);
        let mut last_index: std::collections::HashMap<u64, u64> = Default::default();
        for &(w, i, _) in &log {
            if let Some(&prev) = last_index.get(&w) {
                prop_assert!(i > prev, "messages from worker {w} must arrive in order");
            }
            last_index.insert(w, i);
        }
    }

    #[test]
    fn slower_machines_finish_later(speed in 0.1f64..0.9) {
        // Two identical workloads, machine 1 runs at `speed` < 1.0.
        let cluster = ClusterSpec::new(
            vec![Machine::new("fast", 1.0), Machine::new("slow", speed)],
            LinkModel::default(),
        );
        let finish: Arc<Mutex<[f64; 2]>> = Arc::new(Mutex::new([0.0; 2]));
        let mut vt: VirtualTaskCluster<()> = VirtualTaskCluster::new(cluster);
        for m in 0..2 {
            let f = Arc::clone(&finish);
            vt.spawn(m, move |ctx| async move {
                ctx.compute(10.0).await;
                f.lock().unwrap()[m] = ctx.now();
            });
        }
        vt.run();
        let [fast, slow] = *finish.lock().unwrap();
        prop_assert!((fast - 10.0).abs() < 1e-9);
        prop_assert!((slow - 10.0 / speed).abs() < 1e-6);
    }

    #[test]
    fn load_never_accelerates(duty in 0.1f64..0.9, busy in 0.1f64..0.9) {
        let m_free = Machine::new("free", 1.0);
        let m_loaded = Machine::new("loaded", 1.0).with_load(LoadModel::Periodic {
            period: 5.0,
            duty,
            busy_factor: busy,
        });
        for work in [0.5, 3.0, 12.0, 50.0] {
            let t_free = m_free.compute_end(0.0, work);
            let t_loaded = m_loaded.compute_end(0.0, work);
            prop_assert!(
                t_loaded >= t_free - 1e-9,
                "background load cannot speed a machine up"
            );
        }
    }
}
