//! Socket substrate: the PTS protocol over real OS streams.
//!
//! Two halves, both speaking the [`crate::wire`] codec:
//!
//! * [`SocketRouter`] — the hub of a star topology, owned by the process
//!   that spawns a run (the [`crate::proc::ProcEngine`] or `pts-serve`).
//!   It binds one listening socket, barriers until every rank of the
//!   topology has connected and identified itself, hands each connection
//!   its setup frame, and then forwards message frames between ranks.
//!   Forwarding is *opaque*: the router reads the destination rank
//!   straight out of the fixed frame header ([`crate::wire::peek_dst`])
//!   and never decodes a payload — so the router is not generic over the
//!   problem type and one router binary-path serves every domain.
//!   A forwarder never waits on a rank that is not reading: it hands
//!   each frame to the destination socket with one non-waiting `send(2)`,
//!   and whatever does not fit goes to that rank's *backlog*, which a
//!   drain thread (spawned on the rank's first overflow) writes out in
//!   order. So a rank's `send` never waits for its receiver to read —
//!   the guarantee every in-process transport has, and the one that keeps
//!   two ranks that each send the other more than a socket buffer holds
//!   from deadlocking.
//! * [`SocketTransport`] — the per-rank endpoint implementing
//!   [`Transport`]. Like [`crate::transport::ThreadTransport`] it is a
//!   blocking transport: `recv` resolves on first poll, so protocol
//!   futures built over it are driven with
//!   [`crate::transport::drive_sync`]. There is no reader thread: the
//!   protocol thread frames and decodes its own socket through a buffered
//!   read half, so a message costs the receiver one wake-up.
//!
//! Ranks connect with bounded-backoff retry (the router may still be
//! binding when a freshly spawned worker first tries); the router's
//! barrier has a deadline and fails naming the ranks that never arrived
//! (a worker that crashed on startup turns into a clear error, not a
//! hang). The barrier's acceptor blocks in `accept`; however the barrier
//! ends, it shuts the listener down, which ends that `accept` (on Linux;
//! elsewhere one throwaway connect wakes it), and joins the acceptor, so
//! the listener closes with the barrier.
//!
//! The router is also the run's *supervisor*. A worker stream reaching
//! EOF — clean exit or SIGKILL, the socket cannot tell — makes the router
//! synthesize [`PtsMsg::Down`] frames to that rank's protocol neighbours
//! (routes precomputed by the engine via
//! [`SocketRouter::set_down_routes`]), so masters excuse the dead through
//! the same quorum-over-the-living machinery the virtual engines use.
//! Each origin's frames are read and forwarded by one thread in order,
//! and a synthesized Down takes the same path as every frame before it —
//! onto the destination's backlog whenever that is not empty — so the
//! Down always trails anything the departed rank actually sent: a clean
//! wind-down delivers its `Stop`s first and the trailing Down lands on
//! peers that are already gone. Heartbeat frames
//! ([`crate::wire::encode_heartbeat_frame`]) keep the router's last-seen
//! clock advancing on idle streams so a *hung* (not dead) child is
//! distinguishable from a quiet one. On the endpoint side, a transport
//! whose own stream reaches EOF synthesizes [`PtsMsg::Stop`] — the
//! protocol's ordinary shutdown message — and writes toward a departed
//! peer are silently dropped, matching `ThreadTransport`'s
//! dropped-receiver rule.

use crate::messages::PtsMsg;
use crate::transport::Transport;
use crate::wire::{self, WireProblem, FRAME_LEN_BYTES};
use pts_vcluster::ProcStats;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One byte of handshake version + 4 bytes of rank: what a connecting
/// rank writes before anything else.
const HELLO_BYTES: usize = 5;

/// Initial size of a [`FrameReader`]'s buffer, and so the most one read
/// takes in while no larger frame is pending: many protocol frames at
/// once (a QAP-256 round moves about 2 KB).
const READ_CHUNK: usize = 64 << 10;

/// A connected stream of either family. Unix-domain is the default
/// (lowest latency, no port allocation); TCP loopback is the option for
/// environments without UDS support in the filesystem.
pub enum Stream {
    /// Unix-domain stream socket.
    Unix(UnixStream),
    /// TCP stream (loopback in practice).
    Tcp(TcpStream),
}

impl Stream {
    /// Clone the underlying socket handle (shared file description).
    pub fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    /// Shut both directions down, unblocking any reader on a clone.
    pub fn shutdown(&self) {
        let _ = match self {
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    /// Set (or clear) the read timeout on the socket.
    pub fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(d),
            Stream::Tcp(s) => s.set_read_timeout(d),
        }
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Unix(s) => s.as_raw_fd(),
            Stream::Tcp(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Socket calls that never wait. `std` has no per-call "don't wait"
/// flag, and setting `O_NONBLOCK` would change every clone of the socket
/// (a rank's heartbeat thread writes through one), so `recv(2)` and
/// `send(2)` are declared directly, the way `pts_util::cputime` declares
/// `getrusage` — the workspace builds without the `libc` crate, and std
/// already links the system C library.
mod sys {
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    #[cfg(any(target_os = "linux", target_os = "android"))]
    const MSG_DONTWAIT: c_int = 0x40;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const MSG_NOSIGNAL: c_int = 0x4000;
    // The BSD-derived systems (macOS, the BSDs) number `MSG_DONTWAIT`
    // 0x80. macOS has no per-call SIGPIPE flag, so none is passed there;
    // Rust binaries ignore SIGPIPE from startup.
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const MSG_DONTWAIT: c_int = 0x80;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const MSG_NOSIGNAL: c_int = 0;

    const SHUT_RDWR: c_int = 2;

    extern "C" {
        fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
        fn send(fd: c_int, buf: *const c_void, len: usize, flags: c_int) -> isize;
        fn shutdown(fd: c_int, how: c_int) -> c_int;
    }

    /// Retry a call interrupted by a signal; map `-1` to the OS error.
    fn retry(mut call: impl FnMut() -> isize) -> std::io::Result<usize> {
        loop {
            let n = call();
            if n >= 0 {
                return Ok(n as usize);
            }
            let e = std::io::Error::last_os_error();
            if e.kind() != std::io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }

    /// Take the bytes that have already arrived on `sock`, up to
    /// `buf.len()`: `WouldBlock` when none have, `Ok(0)` at EOF.
    pub fn recv_now(sock: &impl AsRawFd, buf: &mut [u8]) -> std::io::Result<usize> {
        retry(|| {
            // SAFETY: `buf` is valid for writes of `buf.len()` bytes for
            // the whole call; `recv` writes at most that many into it and
            // keeps no pointer past the call. `sock` is borrowed across
            // the call, so its descriptor stays open.
            unsafe {
                recv(
                    sock.as_raw_fd(),
                    buf.as_mut_ptr().cast(),
                    buf.len(),
                    MSG_DONTWAIT,
                )
            }
        })
    }

    /// Write as much of `buf` as `sock` takes right now — possibly none
    /// (`WouldBlock`) — raising no `SIGPIPE` on a departed peer.
    pub fn send_now(sock: &impl AsRawFd, buf: &[u8]) -> std::io::Result<usize> {
        retry(|| {
            // SAFETY: `buf` is valid for reads of `buf.len()` bytes for the
            // whole call; `send` only reads it and keeps no pointer past
            // the call. `sock` is borrowed across the call, so its
            // descriptor stays open.
            unsafe {
                send(
                    sock.as_raw_fd(),
                    buf.as_ptr().cast(),
                    buf.len(),
                    MSG_DONTWAIT | MSG_NOSIGNAL,
                )
            }
        })
    }

    /// Shut `sock` down in both directions. On Linux this also ends an
    /// `accept` blocked on a listening socket: the `accept` fails.
    pub fn shutdown_both(sock: &impl AsRawFd) -> std::io::Result<()> {
        // SAFETY: `shutdown` takes no pointers. `sock` is borrowed across
        // the call, so its descriptor stays open and names this socket.
        retry(|| unsafe { shutdown(sock.as_raw_fd(), SHUT_RDWR) } as isize).map(drop)
    }
}

/// How a [`FrameReader`] may wait for bytes.
#[derive(Clone, Copy)]
enum Wait {
    /// Block in `read` until bytes or EOF arrive.
    Block,
    /// Block in `read`, but no later than this instant (the socket's read
    /// timeout).
    Until(Instant),
    /// Take only bytes that have already arrived.
    Never,
}

/// What [`FrameReader::next_frame`] found.
enum Next<'a> {
    /// A whole frame, length prefix included.
    Frame(&'a [u8]),
    /// No whole frame yet, and the wait is over. A partial frame stays
    /// buffered for the next call.
    Pending,
    /// The stream is over: EOF, a read error, or a length prefix past
    /// the frame cap (refused before anything is allocated for it).
    Closed,
}

/// A socket's read half with its own buffer, framing in place: one read
/// can bring in many frames, and a frame split across reads waits in the
/// buffer for its rest. The router's forwarders and every rank's
/// transport read through one.
struct FrameReader {
    stream: Stream,
    /// Bytes `start..end` are read and not yet framed; the rest is room
    /// for the next read. Always initialised, so reads land in place.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Whether the socket carries a read timeout from a `Wait::Until`.
    timed: bool,
}

impl FrameReader {
    fn new(stream: Stream) -> FrameReader {
        FrameReader {
            stream,
            buf: vec![0; READ_CHUNK],
            start: 0,
            end: 0,
            timed: false,
        }
    }

    /// The next whole frame, reading as `wait` allows when the buffer
    /// holds none.
    fn next_frame(&mut self, wait: Wait) -> Next<'_> {
        loop {
            let held = self.end - self.start;
            let need = if held < FRAME_LEN_BYTES {
                FRAME_LEN_BYTES
            } else {
                let prefix = self.buf[self.start..self.start + FRAME_LEN_BYTES]
                    .try_into()
                    .expect("slice of FRAME_LEN_BYTES");
                match wire::frame_body_len(prefix) {
                    Ok(body) => FRAME_LEN_BYTES + body,
                    Err(_) => return Next::Closed,
                }
            };
            if held >= need {
                let frame = self.start..self.start + need;
                self.start += need;
                return Next::Frame(&self.buf[frame]);
            }
            match self.fill(need, wait) {
                Ok(0) => return Next::Closed,
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Next::Pending
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Next::Closed,
            }
        }
    }

    /// Read more bytes after making room for the pending frame, which
    /// needs `need` bytes from `start` (the buffer grows only for a frame
    /// larger than itself). `Ok(0)` is EOF.
    fn fill(&mut self, need: usize, wait: Wait) -> std::io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.start + need > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if need > self.buf.len() {
                self.buf.resize(need, 0);
            }
        }
        let block = self.arm(wait)?;
        let room = &mut self.buf[self.end..];
        let n = if block {
            self.stream.read(room)?
        } else {
            sys::recv_now(&self.stream, room)?
        };
        self.end += n;
        Ok(n)
    }

    /// Give the socket the read timeout `wait` asks for; `false` when the
    /// read must not wait at all.
    fn arm(&mut self, wait: Wait) -> std::io::Result<bool> {
        let limit = match wait {
            Wait::Never => return Ok(false),
            Wait::Block => None,
            Wait::Until(at) => {
                let left = at.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Ok(false);
                }
                Some(left)
            }
        };
        if limit.is_some() || self.timed {
            self.stream.set_read_timeout(limit)?;
            self.timed = limit.is_some();
        }
        Ok(true)
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Unix(l) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }
}

/// Connect to a router address string (`unix:<path>` or `tcp:<addr>`).
fn connect_once(addr: &str) -> std::io::Result<Stream> {
    if let Some(path) = addr.strip_prefix("unix:") {
        Ok(Stream::Unix(UnixStream::connect(path)?))
    } else if let Some(sock) = addr.strip_prefix("tcp:") {
        Ok(Stream::Tcp(TcpStream::connect(sock)?))
    } else {
        Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            format!("address {addr:?} has neither unix: nor tcp: scheme"),
        ))
    }
}

/// Connect with bounded exponential backoff — a freshly spawned worker
/// may beat the router to its own socket. Backoff starts at 10 ms,
/// doubles to a 200 ms ceiling, and gives up at `overall`. Each pause is
/// jittered from `seed` (uniform in [pause/2, pause]) so a batch of
/// simultaneously respawned workers spreads out instead of hammering the
/// router in lockstep; callers pass a per-rank seed.
pub fn connect_retry(addr: &str, overall: Duration, seed: u64) -> std::io::Result<Stream> {
    let deadline = Instant::now() + overall;
    let mut rng = pts_util::Rng::new(seed ^ 0x0C04_4EC7);
    let mut pause = Duration::from_millis(10);
    loop {
        match connect_once(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                let jittered = pause.mul_f64(0.5 + 0.5 * rng.next_f64());
                if Instant::now() + jittered >= deadline {
                    return Err(std::io::Error::new(
                        e.kind(),
                        format!("router at {addr} unreachable after {overall:?}: {e}"),
                    ));
                }
                std::thread::sleep(jittered);
                pause = (pause * 2).min(Duration::from_millis(200));
            }
        }
    }
}

/// Per-rank traffic counters the router accumulates while forwarding —
/// the source of `messages_sent` / `bytes_sent` / `messages_received` in
/// the proc engine's [`crate::report::RunReport`] (worker processes take
/// their local stats with them when they exit; the hub sees every frame).
pub struct RouterTraffic {
    sent_msgs: Vec<AtomicU64>,
    sent_bytes: Vec<AtomicU64>,
    recv_msgs: Vec<AtomicU64>,
}

impl RouterTraffic {
    fn new(n: usize) -> RouterTraffic {
        RouterTraffic {
            sent_msgs: (0..n).map(|_| AtomicU64::new(0)).collect(),
            sent_bytes: (0..n).map(|_| AtomicU64::new(0)).collect(),
            recv_msgs: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Fold the counters into per-rank [`ProcStats`] (traffic fields
    /// only; time accounting belongs to each process).
    pub fn to_proc_stats(&self) -> Vec<ProcStats> {
        (0..self.sent_msgs.len())
            .map(|r| ProcStats {
                messages_sent: self.sent_msgs[r].load(Ordering::Relaxed),
                bytes_sent: self.sent_bytes[r].load(Ordering::Relaxed),
                messages_received: self.recv_msgs[r].load(Ordering::Relaxed),
                ..ProcStats::default()
            })
            .collect()
    }
}

/// One rank's delivery end at the router.
struct Outbox {
    state: Mutex<Outgoing>,
    /// Wakes the drain thread when bytes join the backlog or the router
    /// closes the outbox.
    ready: Condvar,
}

struct Outgoing {
    /// The rank's socket; `None` once the rank is gone (a failed write)
    /// or the router finished.
    stream: Option<Stream>,
    /// Bytes accepted for the rank that its socket had no room for yet,
    /// oldest first.
    backlog: Vec<u8>,
    /// The drain thread is writing bytes it took off `backlog`: later
    /// frames queue behind them even while `backlog` is empty.
    draining: bool,
    /// The drain thread, spawned on the rank's first overflow.
    drain: Option<JoinHandle<()>>,
}

impl Outbox {
    fn new(stream: Stream) -> Outbox {
        Outbox {
            state: Mutex::new(Outgoing {
                stream: Some(stream),
                backlog: Vec::new(),
                draining: false,
                drain: None,
            }),
            ready: Condvar::new(),
        }
    }

    /// Shut the rank's socket and release its drain thread.
    fn close(&self) {
        if let Ok(mut out) = self.state.lock() {
            if let Some(s) = out.stream.take() {
                s.shutdown();
            }
        }
        self.ready.notify_all();
    }
}

/// The state forwarders, drain threads and the supervisor share, sized
/// per rank by the barrier.
struct Hub {
    outboxes: Vec<Outbox>,
    traffic: Arc<RouterTraffic>,
    /// Per-rank death-notice recipients (protocol neighbours). Empty
    /// routes mean EOF stays silent.
    down_routes: Vec<Vec<usize>>,
    /// Per-rank "Down already announced" latches (idempotence: EOF and an
    /// engine-side `mark_down` may race).
    down_flags: Vec<AtomicBool>,
    /// Per-rank last-frame-seen clock, milliseconds since `epoch`.
    /// Heartbeats refresh it without being forwarded.
    last_seen: Vec<AtomicU64>,
    epoch: Instant,
}

impl Hub {
    fn new(outboxes: Vec<Outbox>, down_routes: Vec<Vec<usize>>, epoch: Instant) -> Hub {
        let n = outboxes.len();
        let now_ms = epoch.elapsed().as_millis() as u64;
        Hub {
            outboxes,
            traffic: Arc::new(RouterTraffic::new(n)),
            down_routes,
            down_flags: (0..n).map(|_| AtomicBool::new(false)).collect(),
            last_seen: (0..n).map(|_| AtomicU64::new(now_ms)).collect(),
            epoch,
        }
    }

    fn idle_ms(&self, rank: usize) -> Option<u64> {
        let seen = self.last_seen.get(rank)?.load(Ordering::Relaxed);
        Some((self.epoch.elapsed().as_millis() as u64).saturating_sub(seen))
    }

    /// Hand `frame` (length prefix included) to rank `dst` without
    /// waiting: straight into its socket when nothing is queued ahead of
    /// it and the socket has room, onto its backlog otherwise. `false`
    /// when the rank is gone — the frame is dropped, matching
    /// `ThreadTransport`'s dropped-receiver rule.
    fn deliver(self: &Arc<Hub>, dst: usize, frame: &[u8]) -> bool {
        let outbox = &self.outboxes[dst];
        let mut out = outbox.state.lock().expect("outbox lock");
        let Some(stream) = out.stream.as_ref() else {
            return false;
        };
        let sent = if out.backlog.is_empty() && !out.draining {
            match sys::send_now(stream, frame) {
                Ok(n) if n == frame.len() => return true,
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => 0,
                Err(_) => {
                    out.stream = None;
                    return false;
                }
            }
        } else {
            0
        };
        if out.drain.is_none() {
            let Some(stream) = out.stream.as_ref().and_then(|s| s.try_clone().ok()) else {
                out.stream = None;
                return false;
            };
            let hub = Arc::clone(self);
            out.drain = Some(
                std::thread::Builder::new()
                    .name(format!("pts-sock-drain{dst}"))
                    .spawn(move || hub.drain(dst, stream))
                    .expect("spawn drain thread"),
            );
        }
        out.backlog.extend_from_slice(&frame[sent..]);
        outbox.ready.notify_one();
        true
    }

    /// Rank `dst`'s drain thread: write its backlog out in order, waiting
    /// for the rank to read, until the router closes the outbox or the
    /// rank is gone.
    fn drain(&self, dst: usize, mut stream: Stream) {
        let outbox = &self.outboxes[dst];
        let mut batch = Vec::new();
        let mut out = outbox.state.lock().expect("outbox lock");
        loop {
            if out.stream.is_none() {
                out.backlog.clear();
                out.draining = false;
                return;
            }
            if out.backlog.is_empty() {
                out.draining = false;
                out = outbox.ready.wait(out).expect("outbox lock");
                continue;
            }
            std::mem::swap(&mut batch, &mut out.backlog);
            out.draining = true;
            drop(out);
            let written = stream.write_all(&batch);
            batch.clear();
            out = outbox.state.lock().expect("outbox lock");
            if written.is_err() {
                out.stream = None;
            }
        }
    }

    /// Deliver a synthesized `Down{origin}` frame to each of `origin`'s
    /// route neighbours, exactly once per rank across EOF/`mark_down`
    /// races. Synthesized frames bypass the traffic counters: they are
    /// supervision, and counting them would make fault-free teardown
    /// stats racy.
    fn announce_down(self: &Arc<Hub>, origin: usize) {
        let Some(flag) = self.down_flags.get(origin) else {
            return;
        };
        if flag.swap(true, Ordering::SeqCst) {
            return;
        }
        let Some(recipients) = self.down_routes.get(origin) else {
            return;
        };
        for &dst in recipients {
            if dst < self.outboxes.len() {
                self.deliver(
                    dst,
                    &wire::frame(&wire::encode_down_frame(origin, dst as u32)),
                );
            }
        }
    }

    /// Forward rank `origin`'s frames until its stream ends, then announce
    /// it down.
    fn forward(self: &Arc<Hub>, origin: usize, mut reader: FrameReader) {
        loop {
            let frame = match reader.next_frame(Wait::Block) {
                Next::Frame(frame) => frame,
                Next::Pending => continue,
                Next::Closed => break,
            };
            self.last_seen[origin]
                .store(self.epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
            let body = &frame[FRAME_LEN_BYTES..];
            if wire::is_heartbeat(body) {
                // Liveness beacon: last-seen refreshed above, never forwarded
                // and never counted — heartbeats are supervision, not traffic.
                continue;
            }
            let dst = match wire::peek_dst(body) {
                Ok(d) => d as usize,
                Err(e) => {
                    crate::transport::protocol_warn(origin, &format!("undecodable frame: {e}"));
                    continue;
                }
            };
            let traffic = &self.traffic;
            traffic.sent_msgs[origin].fetch_add(1, Ordering::Relaxed);
            traffic.sent_bytes[origin].fetch_add(body.len() as u64, Ordering::Relaxed);
            if dst >= self.outboxes.len() {
                crate::transport::protocol_warn(origin, &format!("frame for unknown rank {dst}"));
                continue;
            }
            if self.deliver(dst, frame) {
                traffic.recv_msgs[dst].fetch_add(1, Ordering::Relaxed);
            }
        }
        // EOF — clean exit or a killed process, the socket cannot tell.
        // Tell the rank's protocol neighbours it is down; the quorum
        // machinery sorts death from wind-down (a clean exit's Stop frames
        // were delivered or queued above, by this same thread, before
        // this notice).
        self.announce_down(origin);
    }
}

/// The star hub: accepts one connection per rank, then forwards frames
/// by destination rank until every connection winds down.
pub struct SocketRouter {
    listener: Option<Listener>,
    addr: String,
    forwarders: Vec<JoinHandle<()>>,
    /// Death-notice routes waiting for the barrier to size the hub.
    down_routes: Vec<Vec<usize>>,
    hub: Arc<Hub>,
    unix_path: Option<PathBuf>,
}

impl SocketRouter {
    fn listening(listener: Listener, addr: String, unix_path: Option<PathBuf>) -> SocketRouter {
        SocketRouter {
            listener: Some(listener),
            addr,
            forwarders: Vec::new(),
            down_routes: Vec::new(),
            hub: Arc::new(Hub::new(Vec::new(), Vec::new(), Instant::now())),
            unix_path,
        }
    }

    /// Bind a fresh Unix-domain socket under the system temp directory
    /// (unique per process and per router).
    pub fn bind_unix_auto() -> std::io::Result<SocketRouter> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "pts-{}-{}.sock",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        Ok(SocketRouter::listening(
            Listener::Unix(listener),
            format!("unix:{}", path.display()),
            Some(path),
        ))
    }

    /// Bind an ephemeral TCP loopback port.
    pub fn bind_tcp_loopback() -> std::io::Result<SocketRouter> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = format!("tcp:{}", listener.local_addr()?);
        Ok(SocketRouter::listening(Listener::Tcp(listener), addr, None))
    }

    /// The address workers connect to (`unix:<path>` or `tcp:<addr>`).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Shared traffic counters (live while forwarders run).
    pub fn traffic(&self) -> Arc<RouterTraffic> {
        Arc::clone(&self.hub.traffic)
    }

    /// Install per-rank death-notice routes: when rank `r`'s stream
    /// reaches EOF (or the engine calls [`SocketRouter::mark_down`]), the
    /// router delivers a synthesized [`PtsMsg::Down`]`{rank: r}` frame to
    /// every rank in `routes[r]`. Must be called before the barrier; with
    /// no routes installed, EOF stays silent (the pre-supervision
    /// behaviour, which `pts-serve`'s setup-only paths rely on).
    pub fn set_down_routes(&mut self, routes: Vec<Vec<usize>>) {
        self.down_routes = routes;
    }

    /// Announce rank `rank` as down to its route neighbours now, without
    /// waiting for its stream to reach EOF — the engine's supervisor
    /// calls this when `try_wait` sees an abnormal child exit or a
    /// heartbeat goes stale. Idempotent per rank.
    pub fn mark_down(&self, rank: usize) {
        self.hub.announce_down(rank);
    }

    /// Milliseconds since the router last saw a frame (heartbeats
    /// included) from `rank`. `None` before the barrier or for an unknown
    /// rank.
    pub fn idle_ms(&self, rank: usize) -> Option<u64> {
        self.hub.idle_ms(rank)
    }

    /// A cloneable handle over the supervision state
    /// ([`SocketRouter::mark_down`] / [`SocketRouter::idle_ms`]) for the
    /// engine's monitor thread, which runs while the router itself is
    /// parked in the master's call stack. Take it *after* the barrier —
    /// the per-rank state is sized there.
    pub fn supervisor(&self) -> RouterSupervisor {
        RouterSupervisor {
            hub: Arc::clone(&self.hub),
        }
    }

    /// Accept until all `total` ranks (0..total) have connected and said
    /// hello, send `setup` to each as the first frame on its connection,
    /// and start forwarding. Fails after `timeout`, naming the ranks
    /// that never arrived.
    pub fn run_barrier(
        &mut self,
        total: usize,
        setup: &[u8],
        timeout: Duration,
    ) -> std::io::Result<()> {
        let listener = Arc::new(self.listener.take().expect("barrier runs once"));
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel::<(u32, Stream)>();
        let (accept_from, accept_stop) = (Arc::clone(&listener), Arc::clone(&stop));
        let acceptor = std::thread::Builder::new()
            .name("pts-sock-accept".into())
            .spawn(move || accept_loop(&accept_from, &accept_stop, tx))
            .expect("spawn acceptor");
        let gathered = gather(&rx, total, timeout);
        // However the barrier ended, end the acceptor with it: raise the
        // flag and end its blocking `accept` by shutting the listener
        // down. Where that is refused (a listener elsewhere than Linux),
        // one throwaway connection wakes it instead. Join only once one of
        // the two went through, so the barrier always returns; after the
        // join the listener closes here, not at process exit.
        stop.store(true, Ordering::Release);
        if sys::shutdown_both(&*listener).is_ok() || connect_once(&self.addr).is_ok() {
            let _ = acceptor.join();
        }
        drop(listener);

        // Hand every rank its setup frame, then start forwarding.
        let mut outboxes = Vec::with_capacity(total);
        let mut readers = Vec::with_capacity(total);
        for (rank, mut stream) in gathered?.into_iter().enumerate() {
            stream.set_read_timeout(None)?;
            wire::write_frame(&mut stream, setup).map_err(|e| {
                std::io::Error::new(e.kind(), format!("sending setup to rank {rank}: {e}"))
            })?;
            readers.push(FrameReader::new(stream.try_clone()?));
            outboxes.push(Outbox::new(stream));
        }
        self.hub = Arc::new(Hub::new(
            outboxes,
            std::mem::take(&mut self.down_routes),
            self.hub.epoch,
        ));
        for (rank, reader) in readers.into_iter().enumerate() {
            let hub = Arc::clone(&self.hub);
            let handle = std::thread::Builder::new()
                .name(format!("pts-sock-fwd{rank}"))
                .spawn(move || hub.forward(rank, reader))
                .expect("spawn forwarder");
            self.forwarders.push(handle);
        }
        Ok(())
    }

    /// Close every connection and join the forwarder and drain threads.
    /// Called after the run's processes have exited (or to abort a failed
    /// run).
    pub fn finish(&mut self) {
        for outbox in &self.hub.outboxes {
            outbox.close();
        }
        for handle in self.forwarders.drain(..) {
            let _ = handle.join();
        }
        for outbox in &self.hub.outboxes {
            let drain = outbox
                .state
                .lock()
                .ok()
                .and_then(|mut out| out.drain.take());
            if let Some(handle) = drain {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for SocketRouter {
    fn drop(&mut self) {
        self.finish();
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Detached view of a router's supervision state — see
/// [`SocketRouter::supervisor`].
#[derive(Clone)]
pub struct RouterSupervisor {
    hub: Arc<Hub>,
}

impl RouterSupervisor {
    /// Same as [`SocketRouter::mark_down`].
    pub fn mark_down(&self, rank: usize) {
        self.hub.announce_down(rank);
    }

    /// Same as [`SocketRouter::idle_ms`].
    pub fn idle_ms(&self, rank: usize) -> Option<u64> {
        self.hub.idle_ms(rank)
    }
}

/// Collect one identified connection per rank `0..total` from the
/// acceptor, or fail: on the deadline (naming the ranks that never
/// arrived), on a rank outside the topology, or on a rank connecting
/// twice.
fn gather(
    rx: &Receiver<(u32, Stream)>,
    total: usize,
    timeout: Duration,
) -> std::io::Result<Vec<Stream>> {
    let deadline = Instant::now() + timeout;
    let mut conns: Vec<Option<Stream>> = (0..total).map(|_| None).collect();
    let mut have = 0usize;
    while have < total {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let (rank, stream) = match rx.recv_timeout(remaining) {
            Ok(conn) => conn,
            Err(RecvTimeoutError::Timeout) => {
                let missing: Vec<String> = conns
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.is_none())
                    .map(|(r, _)| r.to_string())
                    .collect();
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    format!(
                        "rank barrier timed out after {timeout:?}: {have}/{total} connected, \
                         missing ranks [{}]",
                        missing.join(", ")
                    ),
                ));
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(std::io::Error::new(
                    ErrorKind::BrokenPipe,
                    "acceptor thread died",
                ));
            }
        };
        let slot = conns.get_mut(rank as usize).ok_or_else(|| {
            std::io::Error::new(
                ErrorKind::InvalidData,
                format!("rank {rank} outside topology of {total}"),
            )
        })?;
        if slot.is_some() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("rank {rank} connected twice"),
            ));
        }
        *slot = Some(stream);
        have += 1;
    }
    Ok(conns.into_iter().flatten().collect())
}

fn accept_loop(listener: &Listener, stop: &AtomicBool, tx: Sender<(u32, Stream)>) {
    loop {
        let accepted: std::io::Result<Stream> = match listener {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        };
        // The barrier is over: the listener was shut down, or this is the
        // wake-up connection (or a rank too late to count).
        if stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(mut stream) = accepted else {
            return;
        };
        // Identify the rank; a peer that connects but never says hello
        // must not wedge the barrier.
        if stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .is_err()
        {
            continue;
        }
        let mut hello = [0u8; HELLO_BYTES];
        if stream.read_exact(&mut hello).is_err() || hello[0] != wire::WIRE_VERSION {
            continue;
        }
        let rank = u32::from_le_bytes(hello[1..5].try_into().expect("4 rank bytes"));
        if tx.send((rank, stream)).is_err() {
            return;
        }
    }
}

/// Outcome of [`SocketTransport::handshake`]: the connected stream plus
/// the raw setup frame the router sent (the caller decodes it — its
/// contents are domain-specific).
pub struct Handshake {
    /// The connected, identified stream.
    pub stream: Stream,
    /// The router's setup frame, verbatim.
    pub setup: Vec<u8>,
}

/// Per-rank socket endpoint implementing [`Transport`]. There is no
/// reader thread: the protocol thread reads its own socket through a
/// buffered read half and decodes each frame as it takes it. `recv`
/// blocks in `read` inside the first poll, so
/// [`crate::transport::drive_sync`] drives protocol futures built over
/// this transport; `try_recv` takes only bytes that have already arrived
/// (a non-waiting `recv(2)`); `recv_deadline` waits with the socket's
/// read timeout. `send` never waits for the receiver to read — the
/// router's per-rank backlog takes what the receiver's socket cannot.
pub struct SocketTransport<P: WireProblem> {
    rank: usize,
    start: Instant,
    // Shared with the optional heartbeat thread; the lock serializes
    // whole frames so a beacon never interleaves a protocol message.
    writer: Arc<Mutex<Stream>>,
    reader: FrameReader,
    ctx: P::Ctx,
    /// The heartbeat thread and the sender whose drop stops it.
    heartbeat: Option<(Sender<()>, JoinHandle<()>)>,
    stats: ProcStats,
    eof: bool,
}

impl<P: WireProblem> SocketTransport<P> {
    /// Connect to the router (with retry), identify as `rank`, and read
    /// the setup frame. Domain-independent first phase — the caller
    /// decodes the setup, recovers the decode context, then finishes
    /// with [`SocketTransport::new`].
    pub fn handshake(addr: &str, rank: u32, overall: Duration) -> std::io::Result<Handshake> {
        let mut stream = connect_retry(addr, overall, rank as u64)?;
        let mut hello = [0u8; HELLO_BYTES];
        hello[0] = wire::WIRE_VERSION;
        hello[1..5].copy_from_slice(&rank.to_le_bytes());
        stream.write_all(&hello)?;
        let setup = wire::read_frame(&mut stream)?.ok_or_else(|| {
            std::io::Error::new(ErrorKind::UnexpectedEof, "router closed before setup frame")
        })?;
        Ok(Handshake { stream, setup })
    }

    /// Wrap an identified stream as rank `rank`'s transport. `ctx` is
    /// the domain's decode context (from the setup frame, or derived
    /// locally on the master).
    pub fn new(stream: Stream, rank: usize, ctx: P::Ctx) -> std::io::Result<SocketTransport<P>> {
        Ok(SocketTransport {
            rank,
            start: Instant::now(),
            reader: FrameReader::new(stream.try_clone()?),
            writer: Arc::new(Mutex::new(stream)),
            ctx,
            heartbeat: None,
            stats: ProcStats::default(),
            eof: false,
        })
    }

    /// Start a liveness beacon: every `interval`, write a heartbeat frame
    /// so the router's last-seen clock for this rank keeps advancing even
    /// while the protocol is quiet (a long local search). The beacon
    /// stops when the transport drops or the stream dies; a zero interval
    /// is a no-op.
    pub fn start_heartbeat(&mut self, interval: Duration) {
        if self.heartbeat.is_some() || interval.is_zero() {
            return;
        }
        let writer = Arc::clone(&self.writer);
        let (stop_tx, stop) = std::sync::mpsc::channel::<()>();
        let frame = wire::encode_heartbeat_frame(self.rank as u32);
        let handle = std::thread::Builder::new()
            .name(format!("pts-sock-hb{}", self.rank))
            .spawn(move || {
                // Dropping the transport drops the sender, which ends the
                // wait at once.
                while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(interval) {
                    let mut w = writer.lock().expect("writer lock");
                    if wire::write_frame(&mut *w, &frame).is_err() {
                        return; // stream gone: the run is over
                    }
                }
            })
            .expect("spawn heartbeat");
        self.heartbeat = Some((stop_tx, handle));
    }

    /// Take the next message off the socket, waiting as `wait` allows.
    /// `None` when none arrived in time, or at EOF — which also latches
    /// `eof`. Heartbeats are skipped and undecodable frames dropped.
    fn next_msg(&mut self, wait: Wait) -> Option<PtsMsg<P>> {
        while !self.eof {
            match self.reader.next_frame(wait) {
                Next::Frame(frame) => {
                    let body = &frame[FRAME_LEN_BYTES..];
                    if wire::is_heartbeat(body) {
                        // Beacons are router-facing; never surface them.
                        continue;
                    }
                    match wire::decode_msg::<P>(body, &self.ctx) {
                        Ok((_dst, msg)) => {
                            self.stats.messages_received += 1;
                            return Some(msg);
                        }
                        Err(e) => crate::transport::protocol_warn(
                            self.rank,
                            &format!("dropping undecodable frame: {e}"),
                        ),
                    }
                }
                Next::Pending => return None,
                // Stream EOF (router gone / run torn down): wind down
                // through the protocol's normal path.
                Next::Closed => self.eof = true,
            }
        }
        None
    }

    /// Wait for a message until `until` (forever when `None`: then the
    /// result is always `Some`); a stream that ended reads as a sticky
    /// `Stop`.
    fn recv_blocking(&mut self, until: Option<Instant>) -> Option<PtsMsg<P>> {
        let blocked = Instant::now();
        let wait = until.map_or(Wait::Block, Wait::Until);
        let got = loop {
            if let Some(msg) = self.next_msg(wait) {
                break Some(msg);
            }
            if self.eof {
                break Some(PtsMsg::Stop);
            }
            if until.is_some() {
                break None;
            }
        };
        self.stats.wait_time += blocked.elapsed().as_secs_f64();
        got
    }

    /// Take the locally accounted stats (rank 0 feeds these into the
    /// run report; worker processes' stats die with the process).
    pub fn take_stats(&mut self) -> ProcStats {
        let mut stats = std::mem::take(&mut self.stats);
        stats.finished_at = self.now();
        stats
    }
}

impl<P: WireProblem> Transport<P> for SocketTransport<P> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn compute(&mut self, work: f64) -> impl std::future::Future<Output = ()> {
        // Real computation takes real wall time; only record the units.
        self.stats.work_done += work;
        std::future::ready(())
    }

    fn send(&mut self, dst: usize, msg: PtsMsg<P>) {
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += msg.wire_size();
        crate::meter::note_send(&msg);
        let frame = wire::encode_msg(&msg, dst as u32);
        // A torn-down router means the run is winding up; like a dropped
        // channel receiver, the write is silently discarded.
        let mut w = self.writer.lock().expect("writer lock");
        let _ = wire::write_frame(&mut *w, &frame);
    }

    fn recv(&mut self) -> impl std::future::Future<Output = PtsMsg<P>> {
        // Blocks inside poll on the socket — never `Pending`.
        std::future::poll_fn(|_cx| {
            let msg = self.recv_blocking(None);
            std::task::Poll::Ready(msg.expect("a wait without deadline ends in a message"))
        })
    }

    fn try_recv(&mut self) -> Option<PtsMsg<P>> {
        self.next_msg(Wait::Never)
    }

    fn recv_deadline(
        &mut self,
        deadline: f64,
    ) -> impl std::future::Future<Output = Option<PtsMsg<P>>> {
        // Wall clock is controllable enough here: a dead peer is an EOF,
        // but a *hung* peer is silence — bound the wait so the protocol's
        // liveness timeouts work on real sockets, not just virtual time.
        // A deadline past what `Instant` can hold is no deadline.
        let until = Duration::try_from_secs_f64(deadline.max(0.0))
            .ok()
            .and_then(|d| self.start.checked_add(d));
        std::future::poll_fn(move |_cx| std::task::Poll::Ready(self.recv_blocking(until)))
    }
}

impl<P: WireProblem> Drop for SocketTransport<P> {
    fn drop(&mut self) {
        let heartbeat = self.heartbeat.take();
        if let Ok(w) = self.writer.lock() {
            w.shutdown();
        }
        if let Some((stop, hb)) = heartbeat {
            drop(stop);
            let _ = hb.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::drive_sync;
    use pts_tabu::qap::{Qap, QapAssignment};
    use std::sync::Arc as StdArc;

    fn start_pair(router: &mut SocketRouter) -> (SocketTransport<Qap>, SocketTransport<Qap>) {
        // Each rank handshakes on its own thread: the setup frame only
        // arrives once the barrier completes, so sequential handshakes
        // would deadlock by construction.
        let joiners: Vec<_> = (0..2u32)
            .map(|rank| {
                let addr = router.addr().to_string();
                std::thread::spawn(move || {
                    SocketTransport::<Qap>::handshake(&addr, rank, Duration::from_secs(5)).unwrap()
                })
            })
            .collect();
        router
            .run_barrier(2, b"setup!", Duration::from_secs(5))
            .unwrap();
        let mut handshakes = joiners.into_iter().map(|j| j.join().unwrap());
        let (h0, h1) = (handshakes.next().unwrap(), handshakes.next().unwrap());
        assert_eq!(h0.setup, b"setup!");
        assert_eq!(h1.setup, b"setup!");
        (
            SocketTransport::new(h0.stream, 0, ()).unwrap(),
            SocketTransport::new(h1.stream, 1, ()).unwrap(),
        )
    }

    #[test]
    fn unix_pair_routes_messages() {
        let mut router = SocketRouter::bind_unix_auto().unwrap();
        let (mut a, mut b) = start_pair(&mut router);
        a.send(
            1,
            PtsMsg::Init {
                snapshot: StdArc::new(QapAssignment::new(vec![1, 0, 2])),
            },
        );
        match drive_sync(b.recv()) {
            PtsMsg::Init { snapshot } => assert_eq!(snapshot.as_slice(), &[1, 0, 2]),
            other => panic!("got {}", other.tag()),
        }
        b.send(
            0,
            PtsMsg::Investigate {
                seq: 4,
                strategy: 0,
            },
        );
        assert!(matches!(
            drive_sync(a.recv()),
            PtsMsg::Investigate { seq: 4, .. }
        ));
        let traffic = router.traffic().to_proc_stats();
        assert_eq!(traffic[0].messages_sent, 1);
        assert_eq!(traffic[1].messages_sent, 1);
        drop((a, b));
        router.finish();
    }

    #[test]
    fn tcp_pair_routes_messages() {
        let mut router = SocketRouter::bind_tcp_loopback().unwrap();
        let (mut a, mut b) = start_pair(&mut router);
        a.send(1, PtsMsg::Stop);
        assert!(matches!(drive_sync(b.recv()), PtsMsg::Stop));
        drop((a, b));
        router.finish();
    }

    #[test]
    fn eof_synthesizes_stop() {
        let mut router = SocketRouter::bind_unix_auto().unwrap();
        let (a, mut b) = start_pair(&mut router);
        drop(a);
        router.finish(); // closes b's stream too
        assert!(matches!(drive_sync(b.recv()), PtsMsg::Stop));
        assert!(
            matches!(drive_sync(b.recv()), PtsMsg::Stop),
            "EOF is sticky"
        );
    }

    #[test]
    fn barrier_timeout_names_missing_ranks() {
        let mut router = SocketRouter::bind_unix_auto().unwrap();
        let addr = router.addr().to_string();
        let joiner = std::thread::spawn(move || {
            SocketTransport::<Qap>::handshake(&addr, 1, Duration::from_secs(5))
        });
        let err = router
            .run_barrier(3, b"", Duration::from_millis(300))
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("missing ranks [0, 2]"), "got: {msg}");
        // The rank that did connect sees EOF once the router is dropped.
        drop(router);
        let _ = joiner.join();
    }

    #[test]
    fn connect_retry_gives_up_with_context() {
        let start = Instant::now();
        let err = match connect_retry("unix:/nonexistent/pts.sock", Duration::from_millis(80), 3) {
            Ok(_) => panic!("connected to a nonexistent socket"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("unreachable"), "got: {err}");
        // Jitter must not break the overall-deadline contract.
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "gave up far past the 80ms deadline: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn eof_announces_down_to_route_neighbours() {
        let mut router = SocketRouter::bind_unix_auto().unwrap();
        // Rank 0's death notifies rank 1; rank 1's death notifies nobody.
        router.set_down_routes(vec![vec![1], vec![]]);
        let (a, mut b) = start_pair(&mut router);
        drop(a); // rank 0 "dies": its stream reaches EOF at the router
        match drive_sync(b.recv()) {
            PtsMsg::Down { rank: 0 } => {}
            other => panic!("expected Down{{0}}, got {}", other.tag()),
        }
        drop(b);
        router.finish();
    }

    #[test]
    fn mark_down_is_idempotent_with_eof() {
        let mut router = SocketRouter::bind_unix_auto().unwrap();
        router.set_down_routes(vec![vec![1], vec![]]);
        let (a, mut b) = start_pair(&mut router);
        // The engine's supervisor announces first; the later EOF must not
        // produce a second notice.
        router.mark_down(0);
        router.mark_down(0);
        drop(a);
        assert!(matches!(drive_sync(b.recv()), PtsMsg::Down { rank: 0 }));
        std::thread::sleep(Duration::from_millis(50));
        assert!(b.try_recv().is_none(), "Down{{0}} announced more than once");
        drop(b);
        router.finish();
    }

    #[test]
    fn heartbeats_refresh_idle_clock_without_surfacing() {
        let mut router = SocketRouter::bind_unix_auto().unwrap();
        let (mut a, mut b) = start_pair(&mut router);
        a.start_heartbeat(Duration::from_millis(20));
        std::thread::sleep(Duration::from_millis(250));
        let idle_a = router.idle_ms(0).unwrap();
        let idle_b = router.idle_ms(1).unwrap();
        assert!(
            idle_a < 150,
            "beacons should keep rank 0 fresh ({idle_a}ms idle)"
        );
        assert!(idle_b >= 150, "silent rank 1 should look idle ({idle_b}ms)");
        // Beacons are consumed by the router, never delivered as messages.
        assert!(b.try_recv().is_none());
        drop((a, b));
        router.finish();
    }

    #[test]
    fn recv_deadline_times_out_on_silence() {
        let mut router = SocketRouter::bind_unix_auto().unwrap();
        let (mut a, mut b) = start_pair(&mut router);
        let t0 = Instant::now();
        let deadline = b.now() + 0.15;
        assert!(drive_sync(b.recv_deadline(deadline)).is_none());
        assert!(t0.elapsed() >= Duration::from_millis(120));
        // The transport is still usable after a timeout.
        a.send(
            1,
            PtsMsg::Investigate {
                seq: 4,
                strategy: 0,
            },
        );
        let deadline = b.now() + 5.0;
        assert!(matches!(
            drive_sync(b.recv_deadline(deadline)),
            Some(PtsMsg::Investigate { seq: 4, .. })
        ));
        drop((a, b));
        router.finish();
    }

    /// Run `f` on a thread of its own and fail if it has not finished
    /// within `limit`, so a hang fails in seconds instead of wedging the
    /// suite.
    fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(limit) {
            Ok(v) => {
                worker.join().unwrap();
                v
            }
            Err(RecvTimeoutError::Timeout) => panic!("hung: still running after {limit:?}"),
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().unwrap_err())
            }
        }
    }

    /// A 250,000-entry assignment: 2 MB on the wire, several times what a
    /// socket buffer holds.
    fn bulky() -> StdArc<QapAssignment> {
        StdArc::new(QapAssignment::new((0..250_000).collect()))
    }

    fn investigate(seq: u64) -> PtsMsg<Qap> {
        PtsMsg::Investigate { seq, strategy: 0 }
    }

    #[test]
    fn bulk_exchange_past_socket_buffers_completes() {
        within(Duration::from_secs(30), || {
            let mut router = SocketRouter::bind_unix_auto().unwrap();
            let (mut a, mut b) = start_pair(&mut router);
            let snap = bulky();
            // Both ranks send before either reads: this only completes if
            // the router never waits on a rank that is not reading.
            for (t, dst) in [(&mut a, 1), (&mut b, 0)] {
                for _ in 0..8 {
                    let snapshot = StdArc::clone(&snap);
                    t.send(dst, PtsMsg::Init { snapshot });
                }
            }
            for t in [&mut a, &mut b] {
                for _ in 0..8 {
                    match drive_sync(t.recv()) {
                        PtsMsg::Init { snapshot } => assert!(snapshot == snap),
                        other => panic!("got {}", other.tag()),
                    }
                }
            }
            drop((a, b));
            router.finish();
        });
    }

    #[test]
    fn down_trails_a_backlogged_burst() {
        within(Duration::from_secs(30), || {
            let mut router = SocketRouter::bind_unix_auto().unwrap();
            router.set_down_routes(vec![vec![1], vec![]]);
            let (mut a, mut b) = start_pair(&mut router);
            let snap = bulky();
            // Rank 1 is not reading, so most of the burst still waits in
            // the router's backlog when rank 0 leaves.
            for _ in 0..4 {
                let snapshot = StdArc::clone(&snap);
                a.send(1, PtsMsg::Init { snapshot });
            }
            a.send(1, investigate(9));
            drop(a);
            for _ in 0..4 {
                assert!(matches!(drive_sync(b.recv()), PtsMsg::Init { .. }));
            }
            assert!(matches!(
                drive_sync(b.recv()),
                PtsMsg::Investigate { seq: 9, .. }
            ));
            match drive_sync(b.recv()) {
                PtsMsg::Down { rank: 0 } => {}
                other => panic!("expected Down{{0}} last, got {}", other.tag()),
            }
            drop(b);
            router.finish();
        });
    }

    #[test]
    fn out_of_range_hello_fails_the_barrier_and_closes_the_listener() {
        let mut router = SocketRouter::bind_unix_auto().unwrap();
        let path = router.addr().strip_prefix("unix:").unwrap().to_string();
        let mut rogue = UnixStream::connect(&path).unwrap();
        let mut hello = [wire::WIRE_VERSION, 0, 0, 0, 0];
        hello[1..].copy_from_slice(&7u32.to_le_bytes());
        rogue.write_all(&hello).unwrap();
        let err = router
            .run_barrier(2, b"", Duration::from_secs(5))
            .unwrap_err();
        assert!(err.to_string().contains("outside topology"), "got: {err}");
        assert!(
            UnixStream::connect(&path).is_err(),
            "listener still open after a failed barrier"
        );
    }

    #[test]
    fn a_barrier_whose_socket_file_is_gone_still_returns() {
        within(Duration::from_secs(10), || {
            let mut router = SocketRouter::bind_unix_auto().unwrap();
            let path = router.addr().strip_prefix("unix:").unwrap().to_string();
            // With the file gone, no connection can reach the acceptor,
            // so only the shutdown can end its `accept`.
            std::fs::remove_file(&path).unwrap();
            let err = router
                .run_barrier(1, b"", Duration::from_millis(100))
                .unwrap_err();
            assert_eq!(err.kind(), ErrorKind::TimedOut, "got: {err}");
        });
    }

    /// Rank 1's transport over one end of a socket pair, and the other end
    /// to write raw frames into.
    fn direct() -> (SocketTransport<Qap>, UnixStream) {
        let (ours, theirs) = UnixStream::pair().unwrap();
        let t = SocketTransport::new(Stream::Unix(ours), 1, ()).unwrap();
        (t, theirs)
    }

    fn framed(msg: &PtsMsg<Qap>) -> Vec<u8> {
        wire::frame(&wire::encode_msg(msg, 1))
    }

    #[test]
    fn a_frame_written_in_two_halves_arrives_once_whole() {
        let (mut t, mut peer) = direct();
        let bytes = framed(&investigate(7));
        // Cut inside the length prefix, then inside the body.
        for cut in [2, bytes.len() / 2] {
            peer.write_all(&bytes[..cut]).unwrap();
            assert!(t.try_recv().is_none(), "part of a frame is no message");
            peer.write_all(&bytes[cut..]).unwrap();
            assert!(matches!(
                t.try_recv(),
                Some(PtsMsg::Investigate { seq: 7, .. })
            ));
        }
    }

    #[test]
    fn three_frames_in_one_write_arrive_in_order() {
        let (mut t, mut peer) = direct();
        let bytes: Vec<u8> = (1..=3).flat_map(|seq| framed(&investigate(seq))).collect();
        peer.write_all(&bytes).unwrap();
        for want in 1..=3 {
            match drive_sync(t.recv()) {
                PtsMsg::Investigate { seq, .. } => assert_eq!(seq, want),
                other => panic!("got {}", other.tag()),
            }
        }
        assert!(t.try_recv().is_none());
    }

    #[test]
    fn a_heartbeat_between_messages_is_skipped() {
        let (mut t, mut peer) = direct();
        let mut bytes = framed(&investigate(1));
        bytes.extend(wire::frame(&wire::encode_heartbeat_frame(0)));
        bytes.extend(framed(&investigate(2)));
        peer.write_all(&bytes).unwrap();
        assert!(matches!(
            drive_sync(t.recv()),
            PtsMsg::Investigate { seq: 1, .. }
        ));
        assert!(matches!(
            t.try_recv(),
            Some(PtsMsg::Investigate { seq: 2, .. })
        ));
        assert!(t.try_recv().is_none());
    }

    #[test]
    fn a_length_prefix_past_the_cap_stops_without_allocating() {
        let (mut t, mut peer) = direct();
        peer.write_all(&u32::MAX.to_le_bytes()).unwrap();
        // The peer stays connected: the prefix alone ends the stream.
        assert!(matches!(drive_sync(t.recv()), PtsMsg::Stop));
        assert_eq!(t.reader.buf.len(), READ_CHUNK, "grew for a refused frame");
        assert!(matches!(drive_sync(t.recv()), PtsMsg::Stop), "sticky");
    }

    #[test]
    fn eof_inside_a_frame_is_a_sticky_stop() {
        let (mut t, mut peer) = direct();
        let bytes = framed(&investigate(5));
        peer.write_all(&bytes[..bytes.len() - 3]).unwrap();
        drop(peer);
        assert!(matches!(drive_sync(t.recv()), PtsMsg::Stop));
        assert!(matches!(drive_sync(t.recv()), PtsMsg::Stop), "sticky");
        assert!(t.try_recv().is_none());
    }

    #[test]
    fn try_recv_on_an_empty_socket_returns_none() {
        let (t, _peer) = direct();
        within(Duration::from_secs(10), move || {
            let mut t = t;
            assert!(t.try_recv().is_none());
            assert!(t.try_recv().is_none(), "and again");
        });
    }
}
