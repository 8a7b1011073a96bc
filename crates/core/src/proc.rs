//! The `proc` engine: the pipeline as real OS processes.
//!
//! The paper ran its search on PVM — a master process and worker
//! processes on separate machines, exchanging typed messages. The other
//! engines keep all ranks in one address space (native threads, or
//! cooperative tasks under a wall or virtual clock). [`ProcEngine`]
//! crosses the process boundary: it spawns one child process per worker
//! rank, links every parent–child pair of the protocol tree with a socket
//! of its own, wires every rank to a [`crate::socket::SocketRouter`] hub
//! for launch and supervision, and drives the unchanged `run_master`
//! protocol from the parent — rank 0 speaks the same [`crate::wire`]
//! codec over the same kind of links as everyone else.
//!
//! A child re-enters through its own binary: the engine launches
//! `<worker_exe> __pts-worker --sock <addr> --rank <n>`, adding `--links`
//! for a rank with protocol children, and any binary hosting the engine
//! calls [`maybe_worker`] first thing in `main` to dispatch that
//! invocation. A worker given `--links` binds its link listener before it
//! says hello (it learns its role only from the setup frame, but the
//! engine knows every role before it spawns); rank 0 binds its own before
//! any child exists. The worker handshakes with the router, which hands
//! it one *setup frame* — its uplink, then config, decode context, initial
//! solution, domain specification — connects its uplink and accepts its
//! children's, reconstructs the domain from the spec ([`ProcDomain`]),
//! re-freezes it against the shipped initial (freezing is deterministic),
//! and runs the rank's role through the same [`crate::engine::run_role`]
//! every other engine uses. Nothing in `master.rs`/`tsw.rs`/`clw.rs`
//! knows whether its peers share its address space.
//!
//! # Launch
//!
//! A run's launch is its process spawns plus one pass over the setup
//! bytes. The engine spawns every worker first and encodes the setup
//! while they start; the router's barrier writes every rank's setup frame
//! at once ([`SocketRouter::run_barrier`]), and each worker decodes its
//! frame where it was read. The QAP specification is `n` and the upper
//! triangle of each matrix, diagonal included — a `Qap` is symmetric by
//! contract — which the worker decodes straight into the instance's
//! shared buffers through the writer `Qap::random` uses: 526,344 bytes at
//! n = 256, about half of the two full matrices.
//!
//! # Supervision
//!
//! Real processes die. A dead rank's links end, and each link peer reads
//! that end as [`crate::PtsMsg::Down`] and excuses the rank through the
//! same quorum-over-the-living machinery the vt engine exercises; the run
//! completes degraded-but-truthful, and [`RunReport::dead_ranks`] lists
//! every rank that was lost. The engine runs a monitor thread alongside
//! the master that polls every child with `try_wait`, recording each
//! abnormal exit. With `heartbeat_ms > 0` workers also beacon to the
//! router, so a *hung* child (alive but silent) is found once it has been
//! quiet for three beacon intervals (at least a second) — and killed on
//! the spot, which ends its links. Clean exits are never excused: a
//! worker only exits zero after the protocol's own `Stop` wind-down.

use crate::config::PtsConfig;
use crate::control::RunControl;
use crate::domain::{PtsDomain, SearchOutcome, SnapshotOf};
use crate::engine::{run_role, EngineOutput, ExecutionEngine};
use crate::master::run_master;
use crate::report::{ClockDomain, RunReport};
use crate::socket::{Handshake, Listener, SocketRouter, SocketTransport, Stream};
use crate::transport::drive_sync;
use crate::wire::{self, WireError, WireProblem, WireReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a worker keeps retrying its first connect — and, once its
/// setup frame is in, waits for its children to link — and how long the
/// router waits for the full rank barrier.
const CONNECT_OVERALL: Duration = Duration::from_secs(10);
const BARRIER_TIMEOUT: Duration = Duration::from_secs(20);
/// Grace period for children to exit after the protocol's `Stop` before
/// they are killed. Failure paths (spawn or barrier errors) use the
/// shorter, configurable `PtsConfig::reap_grace_ms` instead — there is
/// no protocol left to wind down.
const REAP_TIMEOUT: Duration = Duration::from_secs(10);
/// How often the supervisor polls children for exits and stale streams.
const MONITOR_TICK: Duration = Duration::from_millis(25);
/// `reap`'s longest pause between polls; its first pause is 1 ms, and
/// each one doubles up to this.
const REAP_POLL_CAP: Duration = Duration::from_millis(20);

/// A domain that can be reconstructed inside another OS process from a
/// byte specification — the proc engine's serialization boundary for
/// *problem data* (the wire codec covers protocol messages; this covers
/// the run-constant instance a worker must rebuild once at startup).
pub trait ProcDomain: PtsDomain
where
    Self::Problem: WireProblem,
{
    /// Tag identifying this domain in the setup frame, so the generic
    /// worker entry can dispatch to the right decoder. Registry:
    /// 1 = QAP, 2 = placement.
    const KIND: u8;

    /// Encode everything a worker needs to rebuild this domain (minus
    /// the run config, which travels separately in the setup frame).
    fn encode_spec(&self, out: &mut Vec<u8>);

    /// Rebuild the domain from [`ProcDomain::encode_spec`] bytes.
    fn decode_spec(r: &mut WireReader<'_>, cfg: &PtsConfig) -> Result<Self, WireError>;
}

impl ProcDomain for crate::qap_domain::QapDomain {
    const KIND: u8 = 1;

    /// `n`, then the flow matrix's upper triangle, diagonal included, row
    /// by row, then the distance matrix's: `8 + 8·n·(n+1)` bytes. A `Qap`
    /// is symmetric by contract, so the triangles are the whole instance.
    /// The spec ends the setup frame ([`encode_setup`]), so `out` is sized
    /// for it exactly.
    fn encode_spec(&self, out: &mut Vec<u8>) {
        let q = self.instance();
        let n = q.n();
        out.reserve_exact(8 + 8 * n * (n + 1));
        wire::put_u64(out, n as u64);
        for m in [q.flow_matrix(), q.dist_matrix()] {
            for i in 0..n {
                for &v in &m[i * n + i..(i + 1) * n] {
                    wire::put_f64(out, v);
                }
            }
        }
    }

    /// Decodes the triangles straight into the instance's buffers, through
    /// the writer `Qap::random` uses.
    fn decode_spec(r: &mut WireReader<'_>, _cfg: &PtsConfig) -> Result<Self, WireError> {
        let n = r.u64()? as usize;
        if !(2..=1 << 16).contains(&n) {
            return Err(WireError::Malformed("implausible QAP size"));
        }
        // Two triangles of n(n+1)/2 f64 each must follow. Check before
        // anything is reserved for them: `n` is untrusted, and 65,536²
        // entries would abort the worker.
        let half = 8 * (n as u64) * (n as u64 + 1) / 2;
        if (r.remaining() as u64) < 2 * half {
            return Err(WireError::Malformed("QAP triangles shorter than n(n+1)/2"));
        }
        let (flow, dist) = (r.bytes(half as usize)?, r.bytes(half as usize)?);
        let mut cells = flow.chunks_exact(8).zip(dist.chunks_exact(8));
        let f64_of = |v: &[u8]| f64::from_le_bytes(v.try_into().expect("8 bytes"));
        let qap = pts_tabu::qap::Qap::from_upper_triangles(n, |_, _| {
            let (f, d) = cells.next().expect("one value per upper cell");
            (f64_of(f), f64_of(d))
        });
        Ok(crate::qap_domain::QapDomain::new(qap))
    }
}

impl ProcDomain for crate::placement_problem::PlacementDomain {
    const KIND: u8 = 2;

    /// The netlist in its text format (`pts_netlist::format`); timing
    /// graph, evaluator, and cost scheme are all rebuilt deterministically
    /// from it plus the config and the shipped initial placement.
    fn encode_spec(&self, out: &mut Vec<u8>) {
        let text = pts_netlist::format::to_text(self.netlist());
        wire::put_u32(out, text.len() as u32);
        out.extend_from_slice(text.as_bytes());
    }

    fn decode_spec(r: &mut WireReader<'_>, cfg: &PtsConfig) -> Result<Self, WireError> {
        let len = r.u32()? as usize;
        let bytes = r.bytes(len)?;
        let text =
            std::str::from_utf8(bytes).map_err(|_| WireError::Malformed("netlist not UTF-8"))?;
        let netlist = pts_netlist::format::from_text(text)
            .map_err(|_| WireError::Malformed("unparseable netlist"))?;
        Ok(crate::placement_problem::PlacementDomain::new(
            std::sync::Arc::new(netlist),
            cfg,
        ))
    }
}

/// Compose the setup frame every rank receives after the barrier:
/// version, config, domain kind, decode context, initial solution, spec.
/// The spec goes last: on QAP it is nearly the whole frame, so the buffer
/// takes its final size once, when the spec is written, and nothing
/// grows it after.
pub fn encode_setup<D: ProcDomain>(cfg: &PtsConfig, domain: &D, initial: &SnapshotOf<D>) -> Vec<u8>
where
    D::Problem: WireProblem,
{
    let mut out = Vec::new();
    out.push(wire::WIRE_VERSION);
    wire::put_config(cfg, &mut out);
    out.push(D::KIND);
    let ctx = <D::Problem as WireProblem>::ctx_of(initial);
    <D::Problem as WireProblem>::put_ctx(&ctx, &mut out);
    let mut snap = Vec::new();
    <D::Problem as WireProblem>::put_snapshot(initial, &mut snap);
    wire::put_u32(&mut out, snap.len() as u32);
    out.extend_from_slice(&snap);
    domain.encode_spec(&mut out);
    out
}

fn worker_for_domain<D: ProcDomain>(
    stream: Stream,
    links: Vec<(usize, Stream)>,
    rank: usize,
    cfg: &PtsConfig,
    r: &mut WireReader<'_>,
) -> Result<(), String>
where
    D::Problem: WireProblem,
{
    let ctx = <D::Problem as WireProblem>::get_ctx(r).map_err(|e| format!("ctx: {e}"))?;
    let snap_len = r.u32().map_err(|e| format!("initial length: {e}"))? as usize;
    let initial = <D::Problem as WireProblem>::get_snapshot(r, snap_len, &ctx)
        .map_err(|e| format!("initial solution: {e}"))?;
    let domain = D::decode_spec(r, cfg).map_err(|e| format!("domain spec: {e}"))?;
    // Freezing is deterministic in (domain, initial): the worker arrives
    // at the same cost scheme the parent froze before spawning.
    let domain = domain.freeze(&initial);
    let mut t = SocketTransport::<D::Problem>::new(stream, links, rank, ctx)
        .map_err(|e| format!("transport: {e}"))?;
    if cfg.heartbeat_ms > 0 {
        t.start_heartbeat(Duration::from_millis(cfg.heartbeat_ms));
    }
    drive_sync(run_role(&mut t, cfg, &domain, rank));
    Ok(())
}

/// Test/chaos instrumentation: crash this worker when
/// `PTS_CHAOS_CRASH_RANKS` (comma-separated rank list) names it. The
/// crash is a hard `abort` — no wind-down, no `Stop` — so the parent
/// sees exactly what a SIGKILL or OOM kill looks like. Two knobs shape
/// it:
///
/// - `PTS_CHAOS_CRASH_ONCE=<path>`: only the process that wins creating
///   `<path>` crashes, so a retry test loses exactly one attempt.
/// - `PTS_CHAOS_CRASH_AFTER_MS=<n>`: arm a timer and crash mid-run
///   instead of immediately after the handshake.
///
/// Deliberately inert unless the environment opts in; production runs
/// never set these.
fn chaos_maybe_crash(rank: u32) {
    let Ok(ranks) = std::env::var("PTS_CHAOS_CRASH_RANKS") else {
        return;
    };
    if !ranks.split(',').any(|r| r.trim().parse() == Ok(rank)) {
        return;
    }
    if let Ok(token) = std::env::var("PTS_CHAOS_CRASH_ONCE") {
        let won = std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&token)
            .is_ok();
        if !won {
            return;
        }
    }
    let delay_ms: u64 = std::env::var("PTS_CHAOS_CRASH_AFTER_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    if delay_ms == 0 {
        std::process::abort();
    }
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(delay_ms));
        std::process::abort();
    });
}

/// Worker-process entry: bind a link listener when the rank has protocol
/// children (`links`), connect to `addr`, handshake as `rank` — which
/// links the rank to its tree neighbours — decode the setup frame, and
/// run this rank's role to completion.
pub fn worker_main(addr: &str, rank: u32, links: bool) -> Result<(), String> {
    let listener = links
        .then(|| Listener::bind_like(addr))
        .transpose()
        .map_err(|e| format!("rank {rank} link listener: {e}"))?;
    // The handshake is domain-independent; generics begin after the kind
    // byte. QAP's problem type anchors the generic handshake call.
    let Handshake {
        stream,
        setup,
        links,
    } = SocketTransport::<pts_tabu::qap::Qap>::handshake(
        addr,
        rank,
        listener.as_ref(),
        CONNECT_OVERALL,
    )
    .map_err(|e| format!("rank {rank} handshake: {e}"))?;
    // Every child has linked: the listener has done its work.
    drop(listener);
    // After the handshake, so the barrier completes and the crash lands
    // on a live, linked rank — the case supervision must survive.
    chaos_maybe_crash(rank);
    let mut r = WireReader::new(&setup);
    let version = r.u8().map_err(|e| format!("setup: {e}"))?;
    if !wire::version_ok(version) {
        return Err(format!("setup version {version}"));
    }
    let cfg = wire::get_config(&mut r).map_err(|e| format!("setup config: {e}"))?;
    let kind = r.u8().map_err(|e| format!("setup kind: {e}"))?;
    let rank = rank as usize;
    match kind {
        <crate::qap_domain::QapDomain as ProcDomain>::KIND => {
            worker_for_domain::<crate::qap_domain::QapDomain>(stream, links, rank, &cfg, &mut r)
        }
        <crate::placement_problem::PlacementDomain as ProcDomain>::KIND => {
            worker_for_domain::<crate::placement_problem::PlacementDomain>(
                stream, links, rank, &cfg, &mut r,
            )
        }
        other => Err(format!("unknown domain kind {other}")),
    }
}

/// Re-entry hook for binaries hosting the proc engine: call first thing
/// in `main`. When the process was launched as
/// `<exe> __pts-worker --sock <addr> --rank <n> [--links]`, runs the
/// worker role and exits the process; otherwise returns so `main`
/// proceeds normally.
pub fn maybe_worker() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) != Some("__pts-worker") {
        return;
    }
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(addr), Some(rank)) = (flag("--sock"), flag("--rank")) else {
        eprintln!("__pts-worker requires --sock <addr> --rank <n>");
        std::process::exit(2);
    };
    let rank: u32 = match rank.parse() {
        Ok(r) => r,
        Err(_) => {
            eprintln!("__pts-worker: bad rank {rank:?}");
            std::process::exit(2);
        }
    };
    match worker_main(&addr, rank, args.iter().any(|a| a == "--links")) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("pts worker rank {rank}: {e}");
            std::process::exit(1);
        }
    }
}

/// A proc-engine failure: the run could not be carried (a worker never
/// connected, the binary could not spawn, …). Distinct from a search
/// failing — the search itself has no failure mode.
#[derive(Debug)]
pub enum ProcError {
    /// Socket or process-spawn failure, with context.
    Io(std::io::Error),
    /// The master's outcome never materialized (should be unreachable).
    NoOutcome,
}

impl std::fmt::Display for ProcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcError::Io(e) => write!(f, "proc engine: {e}"),
            ProcError::NoOutcome => write!(f, "proc engine: master produced no outcome"),
        }
    }
}

impl std::error::Error for ProcError {}

impl From<std::io::Error> for ProcError {
    fn from(e: std::io::Error) -> ProcError {
        ProcError::Io(e)
    }
}

/// Which socket family the engine wires ranks with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketKind {
    /// Unix-domain sockets under the temp directory (default).
    Unix,
    /// TCP on an ephemeral loopback port.
    Tcp,
}

/// Multi-process engine: each worker rank is a child OS process, wired to
/// the master over a socket star.
#[derive(Clone)]
pub struct ProcEngine {
    worker_exe: PathBuf,
    kind: SocketKind,
    control: RunControl,
}

impl ProcEngine {
    /// Spawn workers by re-entering `worker_exe` (a binary that calls
    /// [`maybe_worker`] first thing in `main`).
    pub fn new(worker_exe: impl Into<PathBuf>) -> ProcEngine {
        ProcEngine {
            worker_exe: worker_exe.into(),
            kind: SocketKind::Unix,
            control: RunControl::unlimited(),
        }
    }

    /// Spawn workers by re-entering the current executable.
    pub fn from_current_exe() -> std::io::Result<ProcEngine> {
        Ok(ProcEngine::new(std::env::current_exe()?))
    }

    /// Select the socket family (default Unix-domain).
    pub fn with_socket(mut self, kind: SocketKind) -> ProcEngine {
        self.kind = kind;
        self
    }

    /// Attach an external run control (cancellation, deadline, progress).
    pub fn with_control(mut self, control: RunControl) -> ProcEngine {
        self.control = control;
        self
    }

    /// Like [`ExecutionEngine::execute`] but with spawn/connect failures
    /// surfaced as errors instead of panics. Children are reaped on every
    /// path — no orphan processes.
    pub fn try_execute<D: ProcDomain>(
        &self,
        cfg: &PtsConfig,
        domain: &D,
        initial: SnapshotOf<D>,
    ) -> Result<EngineOutput<D>, ProcError>
    where
        D::Problem: WireProblem,
    {
        let wall = Instant::now();
        let mut router = match self.kind {
            SocketKind::Unix => SocketRouter::bind_unix_auto()?,
            SocketKind::Tcp => SocketRouter::bind_tcp_loopback()?,
        };
        let addr = router.addr().to_string();
        let total = cfg.total_procs();
        // The protocol tree, one link per edge: a rank's death reaches
        // exactly its link peers, the ranks `fault::down_recipients`
        // names for the virtual engines.
        let parents: Vec<Option<usize>> = (0..total).map(|r| cfg.parent_rank(r)).collect();
        // Rank 0's link listener exists before any child does.
        let links0 = Listener::bind_like(&addr)?;
        let failure_grace = Duration::from_millis(cfg.reap_grace_ms);

        // Children first: they start while the setup is encoded, and
        // connect while the barrier runs. Rank-tagged so the monitor can
        // name the rank a corpse held.
        let mut children: Vec<(usize, Child)> = Vec::with_capacity(total - 1);
        for rank in 1..total {
            let mut command = Command::new(&self.worker_exe);
            command
                .arg("__pts-worker")
                .args(["--sock", &addr])
                .args(["--rank", &rank.to_string()]);
            if cfg.children_of(rank).is_some() {
                command.arg("--links");
            }
            match command.stdin(Stdio::null()).spawn() {
                Ok(child) => children.push((rank, child)),
                Err(e) => {
                    reap(&mut children, failure_grace);
                    return Err(ProcError::Io(std::io::Error::new(
                        e.kind(),
                        format!("spawning worker rank {rank}: {e}"),
                    )));
                }
            }
        }

        let setup = encode_setup(cfg, domain, &initial);
        // Barrier on one thread, rank-0 handshake on this one (the
        // barrier counts the master's connection too).
        let barrier = std::thread::spawn(move || {
            let result = router.run_barrier(&parents, &setup, BARRIER_TIMEOUT);
            (router, result)
        });
        let handshake =
            SocketTransport::<D::Problem>::handshake(&addr, 0, Some(&links0), CONNECT_OVERALL);
        drop(links0);
        let (mut router, barrier_result) = barrier.join().expect("barrier thread");
        let hs = match (handshake, barrier_result) {
            (Ok(hs), Ok(())) => hs,
            (hs, barrier_result) => {
                // Either failure wedges the run; tear everything down.
                router.finish();
                reap(&mut children, failure_grace);
                if let Err(e) = barrier_result {
                    return Err(ProcError::Io(e));
                }
                return Err(ProcError::Io(hs.err().expect("one side failed")));
            }
        };

        // Supervisor: poll children while the master runs. An abnormal
        // exit is recorded (the rank's link peers have already read its
        // links' end as `Down`, so the run degrades instead of hanging).
        // A rank whose beacons stopped past three heartbeat intervals is
        // hung: it is recorded and killed at once, which ends its links.
        // Clean exits are the protocol's own wind-down — never excused.
        let children = Arc::new(Mutex::new(children));
        let dead = Arc::new(Mutex::new(Vec::<usize>::new()));
        // Dropping `monitor_stop` ends the monitor's wait between ticks.
        let (monitor_stop, stop) = std::sync::mpsc::channel::<()>();
        let monitor = {
            let children = Arc::clone(&children);
            let dead = Arc::clone(&dead);
            let sup = router.supervisor();
            let stale_after = (cfg.heartbeat_ms > 0).then(|| (3 * cfg.heartbeat_ms).max(1_000));
            std::thread::Builder::new()
                .name("pts-proc-monitor".into())
                .spawn(move || {
                    let mut settled = vec![false; total];
                    loop {
                        {
                            let mut kids = children.lock().expect("children lock");
                            for (rank, child) in kids.iter_mut() {
                                if settled[*rank] {
                                    continue;
                                }
                                let lost = match child.try_wait() {
                                    Ok(Some(status)) => {
                                        settled[*rank] = true;
                                        !status.success()
                                    }
                                    Ok(None) => {
                                        let hung = stale_after.is_some_and(|limit| {
                                            sup.idle_ms(*rank).is_some_and(|ms| ms > limit)
                                        });
                                        if hung {
                                            settled[*rank] = true;
                                            let _ = child.kill();
                                        }
                                        hung
                                    }
                                    Err(_) => false,
                                };
                                if lost {
                                    dead.lock().expect("dead lock").push(*rank);
                                }
                            }
                        }
                        if !matches!(
                            stop.recv_timeout(MONITOR_TICK),
                            Err(RecvTimeoutError::Timeout)
                        ) {
                            break;
                        }
                    }
                })
                .expect("spawn monitor thread")
        };

        // Rank 0 derives the decode context locally: it composed the
        // setup, so the router sent it only its link block.
        let ctx = <D::Problem as WireProblem>::ctx_of(&initial);
        let mut t = SocketTransport::<D::Problem>::new(hs.stream, hs.links, 0, ctx)?;
        let outcome: SearchOutcome<SnapshotOf<D>> =
            drive_sync(run_master(&mut t, cfg, domain, initial, &self.control));

        let mut master_stats = t.stats();
        master_stats.finished_at = outcome.end_time;
        drop(t);
        drop(monitor_stop);
        let _ = monitor.join();
        let mut children = Arc::try_unwrap(children)
            .expect("monitor joined; no other owner")
            .into_inner()
            .expect("children lock");
        // A crash in the monitor's last tick (the master can finish a
        // degraded round well inside MONITOR_TICK of the kill) must still
        // reach `dead`: `reap` reports every abnormal exit it collects.
        let crashed = reap(&mut children, REAP_TIMEOUT);
        router.finish();
        let mut dead_ranks = dead.lock().expect("dead lock").clone();
        dead_ranks.extend(crashed);
        dead_ranks.sort_unstable();
        dead_ranks.dedup();

        // Rank 0's counters are its own (accurate local accounting);
        // worker ranks' traffic is what each counted and reported in its
        // final frame to the router (a rank killed mid-run loses only its
        // own). busy/work stay 0 for ranks that lived in other processes —
        // like the async engine, the proc report measures traffic, not
        // worker CPU.
        let mut per_proc = router.traffic().to_proc_stats();
        if per_proc.is_empty() {
            per_proc = vec![Default::default(); total];
        }
        per_proc[0] = master_stats;

        Ok(EngineOutput {
            outcome,
            report: RunReport {
                engine: "proc",
                clock: ClockDomain::Wall,
                end_time: per_proc[0].finished_at,
                wall_seconds: wall.elapsed().as_secs_f64(),
                per_proc,
                dead_ranks,
            },
        })
    }
}

/// Wait up to `timeout` for children to exit on their own (the protocol's
/// `Stop` normally gets them there), then kill and reap stragglers. The
/// grace window is a parameter — wind-down uses [`REAP_TIMEOUT`], error
/// paths the configurable `PtsConfig::reap_grace_ms` — but stragglers
/// are killed unconditionally either way: no path leaves an orphan.
/// Polls back off from 1 ms to [`REAP_POLL_CAP`]: children that are
/// already exiting are reaped within about a millisecond. Returns the
/// ranks that exited abnormally on their own (a crash or an outside
/// kill) — never the stragglers killed here.
fn reap(children: &mut Vec<(usize, Child)>, timeout: Duration) -> Vec<usize> {
    let deadline = Instant::now() + timeout;
    let mut pause = Duration::from_millis(1);
    let mut crashed = Vec::new();
    loop {
        children.retain_mut(|(rank, c)| match c.try_wait() {
            Ok(Some(status)) => {
                if !status.success() {
                    crashed.push(*rank);
                }
                false
            }
            _ => true,
        });
        if children.is_empty() {
            return crashed;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        std::thread::sleep(pause.min(left));
        pause = (pause * 2).min(REAP_POLL_CAP);
    }
    for (_, c) in children.iter_mut() {
        let _ = c.kill();
        let _ = c.wait();
    }
    children.clear();
    crashed
}

impl<D: ProcDomain> ExecutionEngine<D> for ProcEngine
where
    D::Problem: WireProblem,
{
    fn name(&self) -> &'static str {
        "proc"
    }

    fn execute(&self, cfg: &PtsConfig, domain: &D, initial: SnapshotOf<D>) -> EngineOutput<D> {
        match self.try_execute(cfg, domain, initial) {
            Ok(output) => output,
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qap_domain::QapDomain;

    /// The flow and distance matrices of `d`, as bit patterns.
    fn matrix_bits(d: &QapDomain) -> [Vec<u64>; 2] {
        let q = d.instance();
        [q.flow_matrix(), q.dist_matrix()].map(|m| m.iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn qap_spec_roundtrips() {
        let cfg = PtsConfig::default();
        for n in [2, 3, 17, 256] {
            // Arbitrary bit patterns, diagonals included.
            let mut rng = pts_util::Rng::new(n as u64);
            let domain = QapDomain::new(pts_tabu::qap::Qap::from_upper_triangles(n, |_, _| {
                (f64::from_bits(rng.next_u64()), rng.range_f64(-1e9, 1e9))
            }));
            let mut spec = Vec::new();
            domain.encode_spec(&mut spec);
            assert_eq!(spec.len(), 8 + 8 * n * (n + 1), "n = {n}");
            let mut r = WireReader::new(&spec);
            let rebuilt = QapDomain::decode_spec(&mut r, &cfg).unwrap();
            assert_eq!(r.remaining(), 0);
            assert_eq!(rebuilt.instance().n(), n);
            assert!(matrix_bits(&rebuilt) == matrix_bits(&domain), "n = {n}");
        }
    }

    #[test]
    fn qap_spec_claiming_more_than_it_holds_is_a_typed_error() {
        let cfg = PtsConfig::default();
        let decode = |spec: &[u8]| QapDomain::decode_spec(&mut WireReader::new(spec), &cfg);
        // A 72-byte spec claiming the largest size: rejected before its
        // two 16 GiB triangles are reserved.
        let mut huge = Vec::new();
        wire::put_u64(&mut huge, 1 << 16);
        huge.extend_from_slice(&[0; 64]);
        assert!(matches!(decode(&huge), Err(WireError::Malformed(_))));
        // A real n = 4,096 spec cut off after its first rows.
        let mut cut = Vec::new();
        wire::put_u64(&mut cut, 4096);
        cut.extend_from_slice(&[0; 8 * 4096 * 3]);
        assert!(matches!(decode(&cut), Err(WireError::Malformed(_))));
        // Two whole triangles decode, and one byte short of them does not.
        let mut zeros = Vec::new();
        wire::put_u64(&mut zeros, 64);
        zeros.resize(8 + 8 * 64 * 65, 0);
        assert_eq!(decode(&zeros).map(|d| d.instance().n()), Ok(64));
        assert!(matches!(
            decode(&zeros[..zeros.len() - 1]),
            Err(WireError::Malformed(_))
        ));
        // So does an encoded spec, and one byte short of whole does not.
        let mut spec = Vec::new();
        QapDomain::random(5, 1).encode_spec(&mut spec);
        assert_eq!(decode(&spec).map(|d| d.instance().n()), Ok(5));
        assert!(decode(&spec[..spec.len() - 1]).is_err());
    }

    #[test]
    fn placement_spec_roundtrips() {
        use crate::placement_problem::PlacementDomain;
        let netlist = pts_netlist::benchmarks::by_name("chain16").or_else(|| {
            pts_netlist::benchmarks::benchmark_names()
                .first()
                .and_then(|n| pts_netlist::benchmarks::by_name(n))
        });
        let netlist = netlist.expect("a benchmark exists");
        let cfg = PtsConfig::default();
        let domain = PlacementDomain::new(std::sync::Arc::new(netlist), &cfg);
        let mut spec = Vec::new();
        domain.encode_spec(&mut spec);
        let rebuilt = PlacementDomain::decode_spec(&mut WireReader::new(&spec), &cfg).unwrap();
        assert_eq!(rebuilt.netlist().num_cells(), domain.netlist().num_cells());
    }

    #[test]
    fn setup_frame_decodes_in_order() {
        let domain = QapDomain::random(64, 9);
        let cfg = PtsConfig::default();
        let initial = domain.initial(cfg.seed);
        let setup = encode_setup(&cfg, &domain, &initial);
        let mut r = WireReader::new(&setup);
        assert_eq!(r.u8().unwrap(), wire::WIRE_VERSION);
        let got_cfg = wire::get_config(&mut r).unwrap();
        assert_eq!(got_cfg, cfg);
        assert_eq!(r.u8().unwrap(), <QapDomain as ProcDomain>::KIND);
        <pts_tabu::qap::Qap as WireProblem>::get_ctx(&mut r).unwrap();
        let n = r.u32().unwrap() as usize;
        let got_initial =
            <pts_tabu::qap::Qap as WireProblem>::get_snapshot(&mut r, n, &()).unwrap();
        assert_eq!(got_initial, initial);
        let got_domain = QapDomain::decode_spec(&mut r, &got_cfg).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(got_domain.instance().n(), 64);
        // The spec, written last, sized the frame: nothing grew it after.
        assert_eq!(setup.capacity(), setup.len());
    }

    #[test]
    fn reap_kills_stragglers() {
        let mut children = vec![(
            1usize,
            Command::new("sleep")
                .arg("30")
                .stdin(Stdio::null())
                .spawn()
                .unwrap(),
        )];
        let id = children[0].1.id();
        reap(&mut children, Duration::from_millis(100));
        assert!(children.is_empty());
        // The process must actually be gone.
        let alive = std::path::Path::new(&format!("/proc/{id}")).exists();
        assert!(
            !alive || {
                // PID may be recycled in theory; accept zombie-free state.
                std::fs::read_to_string(format!("/proc/{id}/stat"))
                    .map(|s| s.contains(") Z "))
                    .unwrap_or(true)
            }
        );
    }
}
