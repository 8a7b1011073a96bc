//! `pts-serve`: a long-lived search-job service over a socket.
//!
//! The paper's PVM testbed was operated batch-style — one run, one
//! process tree. This module turns the proc engine into a *service*: a
//! daemon listens on a Unix-domain (or TCP) socket; clients submit search
//! jobs (a full [`PtsConfig`] plus a [`JobDomainSpec`] and an optional
//! wall-clock budget) over a small framed protocol; the server queues
//! jobs FIFO, runs up to `max_concurrent` of them at once — each as its
//! own [`crate::proc::ProcEngine`] process tree — streams per-round
//! progress frames back, and delivers a final result frame. A job can be
//! cancelled explicitly, by its budget expiring, or implicitly by its
//! client disconnecting (or taking no frame for
//! [`CLIENT_WRITE_TIMEOUT`]); all three routes flip the job's
//! [`RunControl`], which the master turns into a protocol-clean `Stop`
//! wave through the shard tree, after which the engine reaps its child
//! processes — no orphans on any path.
//!
//! # Retry
//!
//! A job whose attempt crashes (engine error) or completes *degraded*
//! (the proc engine lost worker ranks mid-run — see
//! [`crate::report::RunReport::dead_ranks`]) is retried up to its
//! [`JobRequest::max_restarts`] budget: the client sees a
//! [`kind::RETRYING`] frame, the job re-enters the queue after a capped
//! exponential backoff (250 ms doubling to 5 s), and its registry entry
//! — hence cancellation — survives the wait. The wall-clock budget is
//! job-level and runs from submission: queueing, process launch and
//! every attempt count against it, so restarts never extend it, and a
//! job whose budget runs out while it waits completes as cancelled
//! without running. Exhausting the restart budget is
//! a final [`kind::ERROR`]: a client that asked for restarts asked for a
//! clean run. Only jobs submitted with `max_restarts = 0` have degraded
//! completions delivered truthfully as results.
//!
//! # Client protocol
//!
//! Frames are length-prefixed like the rank protocol
//! ([`crate::wire::write_frame`]); each body is
//! `[version][kind][payload]`. Client → server kinds: [`kind::SUBMIT`],
//! [`kind::CANCEL`]. Server → client: [`kind::ACCEPTED`],
//! [`kind::PROGRESS`], [`kind::RESULT`], [`kind::ERROR`],
//! [`kind::RETRYING`]. A frame of another [`SERVE_VERSION`], of an
//! unknown kind, or whose payload does not decode gets an [`kind::ERROR`]
//! for job 0, and the connection stays open. The [`Client`] type wraps
//! the exchange for tests and tooling.

use crate::config::PtsConfig;
use crate::control::RunControl;
use crate::proc::{ProcDomain, ProcEngine};
use crate::socket::{FrameReader, Listener, Next, Stream};
use crate::wire::{self, WireError, WireReader, FRAME_LEN_BYTES};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Version byte opening every client-protocol frame, both ways. A frame
/// of any other version is a [`WireError::VersionMismatch`].
pub const SERVE_VERSION: u8 = 3;

/// Heartbeat interval (ms) the daemon arms on jobs that did not set one.
/// A long-lived service cannot afford a hung worker wedging a runner
/// slot forever, so liveness beacons default *on* here — unlike the
/// [`ProcEngine`] library default, where `heartbeat_ms = 0` stays off.
/// Override with [`Server::with_default_heartbeat`] (0 disables).
pub const DEFAULT_HEARTBEAT_MS: u64 = 500;

/// How long one server → client frame may wait on a full socket. A
/// client that takes no frame for this long counts as disconnected, so a
/// client that stops reading cannot wedge its job's runner (nor, through
/// it, a SIGTERM drain).
pub const CLIENT_WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Client-protocol frame kinds.
pub mod kind {
    /// Client → server: submit a job ([`super::JobRequest`] payload).
    pub const SUBMIT: u8 = 0x01;
    /// Client → server: cancel a job (`u32` job id).
    pub const CANCEL: u8 = 0x02;
    /// Server → client: job accepted (`u32` job id).
    pub const ACCEPTED: u8 = 0x81;
    /// Server → client: one global iteration finished
    /// (`u32` job, `u32` global, `f64` best cost).
    pub const PROGRESS: u8 = 0x82;
    /// Server → client: final result ([`super::JobResult`] payload).
    pub const RESULT: u8 = 0x83;
    /// Server → client: job failed (`u32` job, string message).
    pub const ERROR: u8 = 0x84;
    /// Server → client: an attempt failed; the job re-queues after
    /// backoff (`u32` job, `u32` restart number, 1-based).
    pub const RETRYING: u8 = 0x85;
}

/// What problem a submitted job searches.
#[derive(Clone, Debug, PartialEq)]
pub enum JobDomainSpec {
    /// Random symmetric QAP instance, deterministic in the seed.
    QapRandom {
        /// Instance size (facilities = locations).
        n: u32,
        /// Instance seed.
        seed: u64,
    },
    /// A built-in placement benchmark (see
    /// [`pts_netlist::benchmarks::benchmark_names`]).
    Bench {
        /// Benchmark name.
        name: String,
    },
    /// An explicit netlist in the `pts_netlist::format` text format.
    NetlistText {
        /// The netlist source text.
        text: String,
    },
}

/// A submitted search job: full run config, problem, optional budget.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRequest {
    /// Run configuration (validated server-side).
    pub cfg: PtsConfig,
    /// Problem to search.
    pub spec: JobDomainSpec,
    /// Wall-clock budget in milliseconds, counted from submission; 0 =
    /// unlimited (the configured `global_iters` is then the only bound).
    pub budget_ms: u64,
    /// How many times a crashed or degraded attempt may be restarted
    /// before the failure is final. 0 = never retry.
    pub max_restarts: u32,
}

impl JobRequest {
    /// Encode as a [`kind::SUBMIT`] payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        wire::put_config(&self.cfg, &mut out);
        wire::put_u64(&mut out, self.budget_ms);
        wire::put_u32(&mut out, self.max_restarts);
        match &self.spec {
            JobDomainSpec::QapRandom { n, seed } => {
                out.push(0);
                wire::put_u32(&mut out, *n);
                wire::put_u64(&mut out, *seed);
            }
            JobDomainSpec::Bench { name } => {
                out.push(1);
                put_str(&mut out, name);
            }
            JobDomainSpec::NetlistText { text } => {
                out.push(2);
                put_str(&mut out, text);
            }
        }
        out
    }

    /// Decode a [`kind::SUBMIT`] payload written by [`JobRequest::encode`].
    pub fn decode(payload: &[u8]) -> Result<JobRequest, WireError> {
        let mut r = WireReader::new(payload);
        let cfg = wire::get_config(&mut r)?;
        let budget_ms = r.u64()?;
        let max_restarts = r.u32()?;
        let spec = match r.u8()? {
            0 => JobDomainSpec::QapRandom {
                n: r.u32()?,
                seed: r.u64()?,
            },
            1 => JobDomainSpec::Bench {
                name: get_str(&mut r)?,
            },
            2 => JobDomainSpec::NetlistText {
                text: get_str(&mut r)?,
            },
            other => return Err(WireError::Tag(other)),
        };
        Ok(JobRequest {
            cfg,
            spec,
            budget_ms,
            max_restarts,
        })
    }
}

/// Final outcome of a job, as delivered in a [`kind::RESULT`] frame.
#[derive(Clone, Debug, PartialEq)]
pub struct JobResult {
    /// The job this result belongs to.
    pub job: u32,
    /// Best cost found.
    pub best_cost: f64,
    /// Cost of the initial solution.
    pub initial_cost: f64,
    /// Global iterations actually completed (≤ configured when cancelled
    /// or out of budget).
    pub rounds: u32,
    /// Whether the job was stopped early (cancel or budget).
    pub cancelled: bool,
}

impl JobResult {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        wire::put_u32(&mut out, self.job);
        wire::put_f64(&mut out, self.best_cost);
        wire::put_f64(&mut out, self.initial_cost);
        wire::put_u32(&mut out, self.rounds);
        out.push(self.cancelled as u8);
        out
    }

    fn decode(payload: &[u8]) -> Result<JobResult, WireError> {
        let mut r = WireReader::new(payload);
        Ok(JobResult {
            job: r.u32()?,
            best_cost: r.f64()?,
            initial_cost: r.f64()?,
            rounds: r.u32()?,
            cancelled: r.u8()? != 0,
        })
    }
}

/// One server → client event, decoded.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeEvent {
    /// The server queued the job under this id.
    Accepted {
        /// Assigned job id.
        job: u32,
    },
    /// One global iteration finished.
    Progress {
        /// The reporting job.
        job: u32,
        /// Completed global iteration (0-based).
        global: u32,
        /// Best cost so far.
        best_cost: f64,
    },
    /// The job finished (normally or early).
    Result(JobResult),
    /// The job failed before/while running.
    Error {
        /// The failing job (0 when no job could be identified).
        job: u32,
        /// Human-readable reason.
        message: String,
    },
    /// An attempt crashed or degraded; the server will retry after
    /// backoff.
    Retrying {
        /// The retrying job.
        job: u32,
        /// Which restart this is (1-based).
        attempt: u32,
    },
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    wire::put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(r: &mut WireReader<'_>) -> Result<String, WireError> {
    let len = r.u32()? as usize;
    let bytes = r.bytes(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("string not UTF-8"))
}

fn write_client_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    let mut body = Vec::with_capacity(2 + payload.len());
    body.push(SERVE_VERSION);
    body.push(kind);
    body.extend_from_slice(payload);
    wire::write_frame(w, &body)
}

/// Split a client frame of this [`SERVE_VERSION`] into (kind, payload).
fn parse_client_frame(body: &[u8]) -> Result<(u8, &[u8]), WireError> {
    if body.len() < 2 {
        return Err(WireError::Truncated);
    }
    if body[0] != SERVE_VERSION {
        return Err(WireError::VersionMismatch {
            got: body[0],
            want: SERVE_VERSION,
        });
    }
    Ok((body[1], &body[2..]))
}

/// Blocking client for the serve protocol — what `tests/serve.rs` and
/// ad-hoc tooling drive the daemon with.
pub struct Client {
    stream: Stream,
}

impl Client {
    /// Connect to a server address (`unix:<path>` or `tcp:<addr>`),
    /// retrying while the daemon starts up.
    pub fn connect(addr: &str, overall: Duration) -> std::io::Result<Client> {
        // Clients have no rank; jitter the retry backoff from the pid so
        // a herd of client processes spreads out like respawned workers.
        Ok(Client {
            stream: crate::socket::connect_retry(addr, overall, u64::from(std::process::id()))?,
        })
    }

    /// Submit a job; the id arrives in the next [`ServeEvent::Accepted`].
    pub fn submit(&mut self, req: &JobRequest) -> std::io::Result<()> {
        write_client_frame(&mut self.stream, kind::SUBMIT, &req.encode())
    }

    /// Ask the server to cancel `job`.
    pub fn cancel(&mut self, job: u32) -> std::io::Result<()> {
        let mut payload = Vec::new();
        wire::put_u32(&mut payload, job);
        write_client_frame(&mut self.stream, kind::CANCEL, &payload)
    }

    /// Block for the next server event; `None` when the server closed
    /// the connection.
    pub fn next_event(&mut self) -> std::io::Result<Option<ServeEvent>> {
        loop {
            let Some(body) = wire::read_frame(&mut self.stream)? else {
                return Ok(None);
            };
            let (k, payload) = parse_client_frame(&body)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            let mut r = WireReader::new(payload);
            let bad =
                |e: WireError| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string());
            let event = match k {
                kind::ACCEPTED => ServeEvent::Accepted {
                    job: r.u32().map_err(bad)?,
                },
                kind::PROGRESS => ServeEvent::Progress {
                    job: r.u32().map_err(bad)?,
                    global: r.u32().map_err(bad)?,
                    best_cost: r.f64().map_err(bad)?,
                },
                kind::RESULT => ServeEvent::Result(JobResult::decode(payload).map_err(bad)?),
                kind::ERROR => ServeEvent::Error {
                    job: r.u32().map_err(bad)?,
                    message: get_str(&mut r).map_err(bad)?,
                },
                kind::RETRYING => ServeEvent::Retrying {
                    job: r.u32().map_err(bad)?,
                    attempt: r.u32().map_err(bad)?,
                },
                _ => continue, // unknown event kinds are skippable
            };
            return Ok(Some(event));
        }
    }
}

/// A queued or running job, as the server tracks it.
struct Job {
    id: u32,
    req: JobRequest,
    ctl: RunControl,
    writer: Arc<Mutex<Stream>>,
    /// Restarts consumed so far (0 on first submission).
    attempt: u32,
    /// Backoff gate: runners skip the job until this instant.
    not_before: Instant,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    /// Jobs not yet finished (queued or running): id → (owning
    /// connection, control). Cancellation flips the control from here.
    registry: Mutex<HashMap<u32, (u64, RunControl)>>,
    shutdown: AtomicBool,
    worker_exe: PathBuf,
    /// Heartbeat interval armed on jobs whose config left it at 0
    /// ([`DEFAULT_HEARTBEAT_MS`] unless overridden; 0 = keep beacons off,
    /// the [`ProcEngine`] library default).
    default_heartbeat_ms: u64,
}

impl Shared {
    fn cancel_job(&self, job: u32) {
        if let Some((_, ctl)) = self.registry.lock().unwrap().get(&job) {
            ctl.cancel();
        }
    }

    fn cancel_conn(&self, conn: u64) {
        for (owner, ctl) in self.registry.lock().unwrap().values() {
            if *owner == conn {
                ctl.cancel();
            }
        }
    }

    fn cancel_all(&self) {
        for (_, ctl) in self.registry.lock().unwrap().values() {
            ctl.cancel();
        }
    }
}

/// The job daemon: one listening socket, a FIFO queue, and a bounded
/// pool of job-runner threads.
pub struct Server {
    listener: Listener,
    max_concurrent: usize,
    shared: Arc<Shared>,
}

impl Server {
    /// Listen on a Unix-domain socket at `path` (created; removed on
    /// drop). `worker_exe` is the binary re-entered for worker ranks —
    /// it must call [`crate::proc::maybe_worker`] first thing in `main`.
    pub fn bind_unix(
        path: impl Into<PathBuf>,
        max_concurrent: usize,
        worker_exe: impl Into<PathBuf>,
    ) -> std::io::Result<Server> {
        Ok(Server::listening(
            Listener::bind_unix(path)?,
            max_concurrent,
            worker_exe,
        ))
    }

    /// Listen on TCP (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind_tcp(
        addr: &str,
        max_concurrent: usize,
        worker_exe: impl Into<PathBuf>,
    ) -> std::io::Result<Server> {
        Ok(Server::listening(
            Listener::bind_tcp(addr)?,
            max_concurrent,
            worker_exe,
        ))
    }

    fn listening(
        listener: Listener,
        max_concurrent: usize,
        worker_exe: impl Into<PathBuf>,
    ) -> Server {
        Server {
            listener,
            max_concurrent: max_concurrent.max(1),
            shared: Arc::new(Shared {
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                registry: Mutex::new(HashMap::new()),
                shutdown: AtomicBool::new(false),
                worker_exe: worker_exe.into(),
                default_heartbeat_ms: DEFAULT_HEARTBEAT_MS,
            }),
        }
    }

    /// Override the heartbeat interval armed on jobs that did not set
    /// one (default [`DEFAULT_HEARTBEAT_MS`]; 0 disables the defaulting
    /// entirely). Call before [`Server::run`].
    pub fn with_default_heartbeat(mut self, ms: u64) -> Server {
        Arc::get_mut(&mut self.shared)
            .expect("set default heartbeat before Server::run")
            .default_heartbeat_ms = ms;
        self
    }

    /// The address clients connect to (`unix:<path>` or `tcp:<addr>`).
    pub fn addr(&self) -> &str {
        self.listener.addr()
    }

    /// Serve until `stop` becomes true (typically the SIGTERM flag from
    /// [`install_term_handler`]). On shutdown: cancels every job —
    /// which stops their masters at the next round boundary and reaps
    /// their worker processes — drains the runner pool, and returns.
    pub fn run(&mut self, stop: &AtomicBool) {
        let runners: Vec<_> = (0..self.max_concurrent)
            .map(|i| {
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(format!("pts-serve-run{i}"))
                    .spawn(move || runner_loop(shared))
                    .expect("spawn job runner")
            })
            .collect();

        if self.listener.set_nonblocking(true).is_err() {
            stop.store(true, Ordering::Release);
        }

        let mut next_conn: u64 = 1;
        while !stop.load(Ordering::Acquire) {
            match self.listener.accept() {
                Ok(stream) => {
                    let conn = next_conn;
                    next_conn += 1;
                    let shared = Arc::clone(&self.shared);
                    let _ = std::thread::Builder::new()
                        .name(format!("pts-serve-conn{conn}"))
                        .spawn(move || client_loop(shared, stream, conn));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(_) => break,
            }
        }

        // Graceful shutdown: every running master stops at its next
        // round boundary (its engine then reaps its children), queued
        // jobs never start, runners drain.
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.cancel_all();
        self.shared.available.notify_all();
        for r in runners {
            let _ = r.join();
        }
    }
}

/// Per-connection reader: accepts submissions and cancellations until the
/// client disconnects; a disconnect cancels everything it submitted. A
/// frame it cannot act on gets an [`kind::ERROR`] for job 0, so its
/// client never waits for a reply that will not come. A length prefix
/// past the frame cap ends the connection like a hang-up, before anything
/// is allocated for it.
fn client_loop(shared: Arc<Shared>, stream: Stream, conn: u64) {
    static NEXT_JOB: AtomicU32 = AtomicU32::new(1);
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    // Poll the stream so a server shutdown unblocks this thread; the
    // frame reader keeps partial frames intact across poll ticks. Both
    // timeouts belong to the socket, so they cover the writer clone.
    if stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .and_then(|()| stream.set_write_timeout(Some(CLIENT_WRITE_TIMEOUT)))
        .is_err()
    {
        return;
    }
    let mut reader = FrameReader::new(stream);
    'conn: while !shared.shutdown.load(Ordering::Acquire) {
        reader.fill(true);
        loop {
            let body = match reader.next_frame(false) {
                Next::Frame(frame) => &frame[FRAME_LEN_BYTES..],
                Next::Pending => break,
                // The client hung up, or announced a frame past the cap.
                Next::Closed => {
                    writer
                        .lock()
                        .expect("a client writer is never locked across a panic")
                        .shutdown();
                    break 'conn;
                }
            };
            let (k, payload) = match parse_client_frame(body) {
                Ok(parsed) => parsed,
                Err(e) => {
                    send_error(&writer, 0, &format!("bad frame: {e}"));
                    continue;
                }
            };
            match k {
                kind::SUBMIT => match JobRequest::decode(payload) {
                    Ok(req) => {
                        let id = NEXT_JOB.fetch_add(1, Ordering::Relaxed);
                        let mut ctl = RunControl::unlimited();
                        if req.budget_ms > 0 {
                            ctl = ctl.with_deadline(
                                Instant::now() + Duration::from_millis(req.budget_ms),
                            );
                        }
                        shared
                            .registry
                            .lock()
                            .unwrap()
                            .insert(id, (conn, ctl.clone()));
                        shared.queue.lock().unwrap().push_back(Job {
                            id,
                            req,
                            ctl,
                            writer: Arc::clone(&writer),
                            attempt: 0,
                            not_before: Instant::now(),
                        });
                        shared.available.notify_one();
                        let mut ack = Vec::new();
                        wire::put_u32(&mut ack, id);
                        send_frame(&writer, kind::ACCEPTED, &ack);
                    }
                    Err(e) => send_error(&writer, 0, &format!("bad submit: {e}")),
                },
                kind::CANCEL => match WireReader::new(payload).u32() {
                    Ok(job) => shared.cancel_job(job),
                    Err(e) => send_error(&writer, 0, &format!("bad cancel: {e}")),
                },
                other => send_error(&writer, 0, &format!("unknown frame kind {other:#04x}")),
            }
        }
    }
    // Disconnect: whatever this client had queued or running stops.
    shared.cancel_conn(conn);
}

/// Write one server → client frame. Every write on a client connection
/// is bounded by [`CLIENT_WRITE_TIMEOUT`]; one that fails or times out
/// may leave a partial frame behind, so the connection is shut down. Its
/// reader then sees the hang-up and cancels the client's jobs, as for any
/// disconnect.
fn send_frame(writer: &Mutex<Stream>, kind: u8, payload: &[u8]) {
    let mut stream = writer.lock().unwrap();
    if write_client_frame(&mut *stream, kind, payload).is_err() {
        stream.shutdown();
    }
}

/// Send `job`'s [`kind::ERROR`] frame; job 0 names no job.
fn send_error(writer: &Mutex<Stream>, job: u32, message: &str) {
    let mut payload = Vec::new();
    wire::put_u32(&mut payload, job);
    put_str(&mut payload, message);
    send_frame(writer, kind::ERROR, &payload);
}

/// Job-runner thread: takes ready jobs FIFO (skipping jobs still inside
/// their retry backoff) and runs each attempt; a retryable failure puts
/// the job back in the queue instead of finishing it.
fn runner_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                let now = Instant::now();
                if let Some(pos) = queue.iter().position(|j| j.not_before <= now) {
                    break queue.remove(pos);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                // The 200 ms tick doubles as the backoff-expiry poll.
                let (guard, _) = shared
                    .available
                    .wait_timeout(queue, Duration::from_millis(200))
                    .unwrap();
                queue = guard;
            }
        };
        let Some(job) = job else { return };
        let id = job.id;
        match run_job(&shared, job) {
            JobOutcome::Done => {
                shared.registry.lock().unwrap().remove(&id);
            }
            JobOutcome::Requeue(job) => {
                let job = *job;
                // Registry entry survives: the job is still cancellable
                // (and owned by its connection) while it backs off.
                shared.queue.lock().unwrap().push_back(job);
                shared.available.notify_one();
            }
        }
    }
}

/// What a single attempt did to its job. The boxed variant keeps the
/// enum pointer-sized (`Job` carries the full request).
enum JobOutcome {
    /// Final frame sent; drop the registry entry.
    Done,
    /// Attempt failed retryably; the job goes back in the queue.
    Requeue(Box<Job>),
}

/// Capped exponential backoff: 250 ms doubling per restart, 5 s ceiling.
fn retry_backoff(restarts: u32) -> Duration {
    Duration::from_millis(250u64.saturating_mul(1 << restarts.min(5)).min(5_000))
}

/// The config an attempt actually runs with: a submission that left
/// `heartbeat_ms` at 0 inherits the daemon's default so hung workers are
/// excused by the staleness monitor instead of wedging a runner slot.
/// An explicit client value (or a 0 daemon default) passes through
/// untouched.
fn effective_config(req: &PtsConfig, default_heartbeat_ms: u64) -> PtsConfig {
    let mut cfg = req.clone();
    if cfg.heartbeat_ms == 0 {
        cfg.heartbeat_ms = default_heartbeat_ms;
    }
    cfg
}

fn run_job(shared: &Shared, mut job: Job) -> JobOutcome {
    let job_id = job.id;
    let writer = Arc::clone(&job.writer);
    let fail = |message: String| send_error(&writer, job_id, &message);
    if job.ctl.should_stop() {
        // Cancelled, or out of budget, while queued: report without
        // running anything.
        let result = JobResult {
            job: job.id,
            best_cost: f64::NAN,
            initial_cost: f64::NAN,
            rounds: 0,
            cancelled: true,
        };
        send_frame(&job.writer, kind::RESULT, &result.encode());
        return JobOutcome::Done;
    }
    let cfg = effective_config(&job.req.cfg, shared.default_heartbeat_ms);
    if let Err(e) = cfg.validate() {
        // Deterministic failure — retrying cannot help.
        fail(format!("invalid config: {e}"));
        return JobOutcome::Done;
    }
    let progress_writer = Arc::clone(&job.writer);
    let ctl = job.ctl.clone().with_progress(Arc::new(move |global, best| {
        let mut payload = Vec::new();
        wire::put_u32(&mut payload, job_id);
        wire::put_u32(&mut payload, global);
        wire::put_f64(&mut payload, best);
        send_frame(&progress_writer, kind::PROGRESS, &payload);
    }));
    let engine = ProcEngine::new(&shared.worker_exe).with_control(ctl.clone());

    let ran = match &job.req.spec {
        JobDomainSpec::QapRandom { n, seed } => {
            let domain = crate::qap_domain::QapDomain::random(*n as usize, *seed);
            run_one(&engine, &cfg, domain)
        }
        JobDomainSpec::Bench { name } => match pts_netlist::benchmarks::by_name(name) {
            Some(netlist) => {
                let domain =
                    crate::placement_problem::PlacementDomain::new(Arc::new(netlist), &cfg);
                run_one(&engine, &cfg, domain)
            }
            None => Err(format!("unknown benchmark {name:?}")),
        },
        JobDomainSpec::NetlistText { text } => match pts_netlist::format::from_text(text) {
            Ok(netlist) => {
                let domain =
                    crate::placement_problem::PlacementDomain::new(Arc::new(netlist), &cfg);
                run_one(&engine, &cfg, domain)
            }
            Err(e) => Err(format!("bad netlist: {e:?}")),
        },
    };
    // A crashed attempt (engine error) or a degraded one (worker ranks
    // died mid-run) is retried while the restart budget and the job's
    // own control (cancel flag and wall-clock budget) allow it.
    let failed = match &ran {
        Err(_) => true,
        Ok((_, _, _, dead_ranks)) => !dead_ranks.is_empty(),
    };
    if failed && !ctl.should_stop() && job.attempt < job.req.max_restarts {
        let restart = job.attempt + 1;
        let mut payload = Vec::new();
        wire::put_u32(&mut payload, job_id);
        wire::put_u32(&mut payload, restart);
        send_frame(&job.writer, kind::RETRYING, &payload);
        job.not_before = Instant::now() + retry_backoff(job.attempt);
        job.attempt = restart;
        return JobOutcome::Requeue(Box::new(job));
    }
    match ran {
        Ok((_, _, _, dead_ranks))
            if !dead_ranks.is_empty() && job.req.max_restarts > 0 && !ctl.should_stop() =>
        {
            // The client asked for clean runs (a restart budget) and
            // never got one: exhausting the budget is a failure, not a
            // quietly-degraded result.
            fail(format!(
                "{} worker rank(s) died mid-run; restart budget exhausted after {} attempts",
                dead_ranks.len(),
                job.attempt + 1,
            ));
        }
        Ok((best_cost, initial_cost, rounds, _dead_ranks)) => {
            // With no restart budget (or a stopped control), a
            // degraded completion is delivered truthfully — the quorum
            // machinery kept the search sound over the surviving ranks.
            let result = JobResult {
                job: job.id,
                best_cost,
                initial_cost,
                rounds,
                cancelled: ctl.is_cancelled() || rounds < job.req.cfg.global_iters,
            };
            send_frame(&job.writer, kind::RESULT, &result.encode());
        }
        Err(message) if job.attempt > 0 => {
            fail(format!("{message} (after {} attempts)", job.attempt + 1));
        }
        Err(message) => fail(message),
    }
    JobOutcome::Done
}

/// Freeze, execute, reduce: returns (best, initial, completed rounds,
/// ranks lost mid-run — empty on a clean attempt).
fn run_one<D: ProcDomain>(
    engine: &ProcEngine,
    cfg: &PtsConfig,
    domain: D,
) -> Result<(f64, f64, u32, Vec<usize>), String>
where
    D::Problem: crate::wire::WireProblem,
{
    let initial = domain.initial(cfg.seed);
    let domain = domain.freeze(&initial);
    let output = engine
        .try_execute(cfg, &domain, initial)
        .map_err(|e| e.to_string())?;
    Ok((
        output.outcome.best_cost,
        output.outcome.initial_cost,
        output.outcome.best_per_global_iter.len() as u32,
        output.report.dead_ranks,
    ))
}

static TERM: AtomicBool = AtomicBool::new(false);
static TERM_TICKS: AtomicU64 = AtomicU64::new(0);

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::SeqCst);
    TERM_TICKS.fetch_add(1, Ordering::SeqCst);
}

// Hand-rolled libc binding, matching the repo's offline-FFI precedent in
// `pts_util::cputime` (no libc crate in the dependency set).
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

/// The flag [`install_term_handler`] flips on SIGTERM/SIGINT — pass it
/// to [`Server::run`].
pub fn term_flag() -> &'static AtomicBool {
    &TERM
}

/// Install SIGTERM + SIGINT handlers that flip [`term_flag`] — the
/// daemon's graceful-shutdown trigger.
pub fn install_term_handler() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term as *const () as usize);
        signal(SIGINT, on_term as *const () as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_request_roundtrips() {
        for spec in [
            JobDomainSpec::QapRandom { n: 12, seed: 7 },
            JobDomainSpec::Bench {
                name: "chain16".into(),
            },
            JobDomainSpec::NetlistText {
                text: "circuit x\n".into(),
            },
        ] {
            let req = JobRequest {
                cfg: PtsConfig {
                    n_tsw: 3,
                    seed: 11,
                    ..PtsConfig::default()
                },
                spec,
                budget_ms: 2500,
                max_restarts: 3,
            };
            let decoded = JobRequest::decode(&req.encode()).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn job_result_roundtrips() {
        let result = JobResult {
            job: 4,
            best_cost: 123.5,
            initial_cost: 200.0,
            rounds: 9,
            cancelled: true,
        };
        assert_eq!(JobResult::decode(&result.encode()).unwrap(), result);
    }

    #[test]
    fn retry_backoff_doubles_then_caps() {
        assert_eq!(retry_backoff(0), Duration::from_millis(250));
        assert_eq!(retry_backoff(1), Duration::from_millis(500));
        assert_eq!(retry_backoff(4), Duration::from_millis(4000));
        assert_eq!(retry_backoff(5), Duration::from_millis(5000));
        assert_eq!(retry_backoff(40), Duration::from_millis(5000));
    }

    #[test]
    fn client_frame_version_enforced() {
        let mut out = Vec::new();
        write_client_frame(&mut out, kind::ACCEPTED, &[1, 0, 0, 0]).unwrap();
        let mut r = &out[..];
        let body = wire::read_frame(&mut r).unwrap().unwrap();
        assert_eq!(body[0], SERVE_VERSION);
        let (k, payload) = parse_client_frame(&body).unwrap();
        assert_eq!(k, kind::ACCEPTED);
        assert_eq!(payload, &[1, 0, 0, 0]);
        // The versions either side are typed mismatches.
        for got in [SERVE_VERSION - 1, SERVE_VERSION + 1] {
            let mut bad = body.clone();
            bad[0] = got;
            assert_eq!(
                parse_client_frame(&bad).err(),
                Some(WireError::VersionMismatch {
                    got,
                    want: SERVE_VERSION
                })
            );
        }
    }

    #[test]
    fn default_heartbeat_applies_only_when_unset() {
        let cfg = PtsConfig::default();
        assert_eq!(cfg.heartbeat_ms, 0, "library default stays off");
        assert_eq!(effective_config(&cfg, 500).heartbeat_ms, 500);
        assert_eq!(effective_config(&cfg, 0).heartbeat_ms, 0);
        let explicit = PtsConfig {
            heartbeat_ms: 125,
            ..PtsConfig::default()
        };
        assert_eq!(effective_config(&explicit, 500).heartbeat_ms, 125);
    }
}
