//! Socket substrate: the PTS protocol over real OS streams.
//!
//! A proc run wires its ranks two ways, both speaking the
//! [`crate::wire`] codec:
//!
//! * **Links.** Every parent–child edge of the protocol tree — master or
//!   sub-master ↔ TSW, sub-master ↔ sub-master, TSW ↔ CLW — is a stream of
//!   its own. Every protocol message runs between tree neighbours, so a
//!   message costs one hop and one wake-up of its receiver. A rank with
//!   protocol children binds a [`Listener`] before it says hello to the
//!   router, and inside [`SocketTransport::handshake`] each child connects
//!   its *uplink* to its parent's listener. Sends on a link never wait:
//!   one non-waiting `send(2)`, and whatever the peer's socket has no room
//!   for goes to the link's backlog, which a drain thread (spawned on the
//!   first overflow) writes out in order. So two ranks that each send the
//!   other more than a socket buffer holds cannot deadlock — the guarantee
//!   every in-process transport has.
//! * **The router.** [`SocketRouter`] is the hub of a star over every rank,
//!   owned by the process that spawns a run (the
//!   [`crate::proc::ProcEngine`]). It runs the launch barrier: it gathers
//!   every rank's hello, which carries the address of the rank's link
//!   listener, and only then hands each rank its setup frame, led by a link
//!   block that names the rank's uplink. Every listener is therefore bound
//!   before any child learns of it, and no connect retries. After the
//!   barrier the router forwards nothing: it watches each rank's stream
//!   for heartbeats and for the rank's final traffic tally, and keeps the
//!   streams only to shut them when the run ends. It never decodes a
//!   protocol message, so one router serves every domain.
//!
//! [`SocketTransport`] is the per-rank endpoint implementing [`Transport`].
//! Like [`crate::transport::ThreadTransport`] it is a blocking transport:
//! `recv` resolves on first poll, so protocol futures built over it are
//! driven with [`crate::transport::drive_sync`]. There is no reader
//! thread. A receive first takes a frame already buffered from any of the
//! rank's links, and only then waits in `poll(2)` over every link and the
//! router stream, which carries nothing to a rank after its setup frame:
//! the transport watches it only for its end.
//!
//! # Ends of streams
//!
//! A link's end — EOF, a read error, or a length prefix past the frame cap
//! — reads as [`PtsMsg::Down`]`{peer}` exactly once, after every frame the
//! link brought, so the notice trails everything the peer sent and a clean
//! wind-down delivers its `Stop` first. The ranks that read it are the
//! peer's link neighbours, exactly the ones
//! [`crate::fault::down_recipients`] names for the virtual engines, and
//! the masters excuse the dead through the same quorum-over-the-living
//! machinery. An uplink to rank 0 ending means the run itself is over: it
//! reads as a sticky [`PtsMsg::Stop`], as the end of the router stream
//! does. The router synthesizes nothing. Writes toward a departed peer are
//! dropped, matching `ThreadTransport`'s dropped-receiver rule; a dropped
//! transport first writes out what its links still hold.
//!
//! # Launch, supervision and accounting
//!
//! Workers retry their router connect with bounded backoff; the barrier
//! has a deadline and fails naming the ranks that never arrived (a worker
//! that crashed on startup turns into a clear error, not a hang), or the
//! ranks whose setup frames are not out by then. It writes every rank's
//! frame at once from its own thread, with non-waiting `send(2)` calls and
//! one `poll(2)` for room, so a rank that reads late holds up no other and
//! one that never reads cannot wedge the barrier. The barrier's acceptor
//! blocks in `accept`; however the barrier ends, it shuts the listener
//! down, which ends that `accept` (on Linux; elsewhere one throwaway
//! connect wakes it), and joins the acceptor, so the listener closes with
//! the barrier. A parent accepts its children's uplinks within the same
//! handshake deadline, waiting in `poll(2)`.
//!
//! Heartbeat frames ([`crate::wire::encode_heartbeat_frame`]) keep the
//! router's last-seen clock advancing on a rank's router stream, so the
//! engine's monitor can tell a *hung* rank from a quiet one. Traffic never
//! passes the router, so each transport reports its own counts in one
//! final frame as it drops ([`crate::wire::encode_tally_frame`]), and that
//! frame is the rank's traffic. A rank killed mid-run never sends it: it
//! loses its own counts, and only those.

use crate::messages::PtsMsg;
use crate::transport::Transport;
use crate::wire::{self, WireError, WireProblem, WireReader, FRAME_LEN_BYTES};
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

/// Fixed part of a hello, what a rank writes first on its router stream
/// and on its uplink: one byte of wire version, four of rank, two of
/// link-address length. The address follows; it is empty on an uplink and
/// from a rank without protocol children.
const HELLO_BYTES: usize = 7;

/// Initial size of a [`FrameReader`]'s buffer, and so the most one read
/// takes in while no larger frame is pending: many protocol frames at
/// once (a QAP-256 round moves about 2 KB).
const READ_CHUNK: usize = 64 << 10;

/// The uplink rank of a setup frame's link block for a rank without one.
const NO_PARENT: u32 = u32::MAX;

/// How long a dropping transport may take to write out what its links
/// still hold before it gives the rest up.
const FLUSH_LIMIT: Duration = Duration::from_secs(10);

fn invalid(what: String) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, what)
}

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

    /// Set (or clear) the write timeout on the socket.
    pub(crate) fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_write_timeout(d),
            Stream::Tcp(s) => s.set_write_timeout(d),
        }
    }

    fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_nonblocking(on),
            Stream::Tcp(s) => s.set_nonblocking(on),
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

/// Socket calls that never wait, and the one wait over many sockets.
/// `std` has no per-call "don't wait" flag, and setting `O_NONBLOCK`
/// would change every clone of the socket (a rank's heartbeat thread
/// writes through one), so `recv(2)` and `send(2)` are declared directly,
/// the way `pts_util::cputime` declares `getrusage` — the workspace
/// builds without the `libc` crate, and std already links the system C
/// library. `std` has no `poll(2)` either.
mod sys {
    use std::os::raw::{c_int, c_short, c_void};
    use std::os::unix::io::AsRawFd;
    use std::time::Instant;

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

    /// `POLLIN` and `POLLOUT`, the same bits on Linux, macOS and the BSDs.
    const POLLIN: c_short = 0x1;
    const POLLOUT: c_short = 0x4;
    // `nfds_t` is an `unsigned long` on Linux and an `unsigned int` on
    // macOS and the BSDs.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NfdsT = std::os::raw::c_uint;

    /// One C `struct pollfd`: the same fields, types and order on every
    /// Unix.
    #[repr(C)]
    pub struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    impl PollFd {
        /// Watch `sock` for bytes to read, its end, or an error.
        pub fn readable(sock: &impl AsRawFd) -> PollFd {
            PollFd {
                fd: sock.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            }
        }

        /// Watch `sock` for room to write, its end, or an error.
        pub fn writable(sock: &impl AsRawFd) -> PollFd {
            PollFd {
                fd: sock.as_raw_fd(),
                events: POLLOUT,
                revents: 0,
            }
        }

        /// Whether the last [`poll_ready`] found this socket ready for
        /// what it watches, at its end, or in error.
        pub fn ready(&self) -> bool {
            self.revents != 0
        }
    }

    extern "C" {
        fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
        fn send(fd: c_int, buf: *const c_void, len: usize, flags: c_int) -> isize;
        fn shutdown(fd: c_int, how: c_int) -> c_int;
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
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

    /// Wait until a socket in `fds` is ready for what it watches — bytes
    /// to read or room to write — or at its end or in error, or until
    /// `until` passes: forever when `None`, and an instant already past
    /// only looks. Returns how many sockets are ready, 0 when the wait ran
    /// out.
    pub fn poll_ready(fds: &mut [PollFd], until: Option<Instant>) -> std::io::Result<usize> {
        retry(|| {
            // Whole milliseconds, rounded up so the wait never ends early;
            // recomputed when a signal interrupts the wait.
            let timeout = until.map_or(-1, |at| {
                let left = at.saturating_duration_since(Instant::now());
                c_int::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
            });
            // SAFETY: `fds` is an exclusively borrowed array of
            // `fds.len()` `PollFd`s, each laid out as a C `struct pollfd`
            // (`repr(C)`). `poll` writes only their `revents` fields,
            // inside the array, and keeps no pointer past the call.
            unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout) as isize }
        })
    }
}

/// What [`FrameReader::next_frame`] found.
pub(crate) enum Next<'a> {
    /// A whole frame, length prefix included.
    Frame(&'a [u8]),
    /// No whole frame yet. A partial frame stays buffered for the next
    /// call.
    Pending,
    /// The stream is over, and every whole frame it brought was taken.
    Closed,
}

/// A socket's read half with its own buffer, framing in place: one read
/// can bring in many frames, and a frame split across reads waits in the
/// buffer for its rest. The router's watchers, every link of a rank's
/// transport and each `pts-serve` client connection read through one.
pub(crate) struct FrameReader {
    stream: Stream,
    /// Bytes `start..end` are read and not yet framed; the rest is room
    /// for the next read. Always initialised, so reads land in place.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// The stream ended: EOF, a read error, or a length prefix past the
    /// frame cap (refused before anything is allocated for it). Whole
    /// frames read before the end are still handed out.
    closed: bool,
}

impl FrameReader {
    pub(crate) fn new(stream: Stream) -> FrameReader {
        FrameReader {
            stream,
            buf: vec![0; READ_CHUNK],
            start: 0,
            end: 0,
            closed: false,
        }
    }

    /// Bytes from `start` the pending frame needs, length prefix
    /// included; `None` when the prefix announces more than the frame
    /// cap.
    fn need(&self) -> Option<usize> {
        if self.end - self.start < FRAME_LEN_BYTES {
            return Some(FRAME_LEN_BYTES);
        }
        let prefix = self.buf[self.start..self.start + FRAME_LEN_BYTES]
            .try_into()
            .expect("slice of FRAME_LEN_BYTES");
        wire::frame_body_len(prefix)
            .ok()
            .map(|body| FRAME_LEN_BYTES + body)
    }

    /// The next whole frame. With `block`, read — waiting — until one is
    /// whole or the stream ends; without, take only what the buffer holds.
    pub(crate) fn next_frame(&mut self, block: bool) -> Next<'_> {
        loop {
            let Some(need) = self.need() else {
                self.closed = true;
                return Next::Closed;
            };
            if self.end - self.start >= need {
                let frame = self.start..self.start + need;
                self.start += need;
                return Next::Frame(&self.buf[frame]);
            }
            if self.closed {
                return Next::Closed;
            }
            if !block {
                return Next::Pending;
            }
            self.fill(true);
        }
    }

    /// Read once — waiting with `block`, otherwise taking only bytes that
    /// have already arrived — after making room for the pending frame
    /// (the buffer grows only for a frame larger than itself). The
    /// stream's end, a read error or an over-cap prefix closes the reader;
    /// a read timeout on the stream (`WouldBlock` on Unix) does not.
    pub(crate) fn fill(&mut self, block: bool) {
        let Some(need) = self.need() else {
            self.closed = true;
            return;
        };
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        // Room for the whole pending frame, and for one more byte at least.
        let want = need.max(self.end - self.start + 1);
        if self.start + want > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if want > self.buf.len() {
                self.buf.resize(want, 0);
            }
        }
        let room = &mut self.buf[self.end..];
        let got = if block {
            self.stream.read(room)
        } else {
            sys::recv_now(&self.stream, room)
        };
        match got {
            Ok(0) => self.closed = true,
            Ok(n) => self.end += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => self.closed = true,
        }
    }
}

enum ListenSock {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// A listening socket of either family and the address its peers connect
/// to: the router's, or a rank's link listener. A Unix socket's file goes
/// when the listener drops.
pub struct Listener {
    sock: ListenSock,
    addr: String,
    unix_path: Option<PathBuf>,
}

impl Listener {
    /// Bind a fresh Unix-domain socket under the system temp directory
    /// (unique per process and per listener).
    pub fn bind_unix_auto() -> std::io::Result<Listener> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "pts-{}-{}.sock",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        Listener::bind_unix(path)
    }

    /// Bind a Unix-domain socket at `path`, replacing a stale socket file
    /// there.
    pub(crate) fn bind_unix(path: impl Into<PathBuf>) -> std::io::Result<Listener> {
        let path = path.into();
        let _ = std::fs::remove_file(&path);
        let sock = UnixListener::bind(&path)?;
        Ok(Listener {
            sock: ListenSock::Unix(sock),
            addr: format!("unix:{}", path.display()),
            unix_path: Some(path),
        })
    }

    /// Bind an ephemeral TCP loopback port.
    pub fn bind_tcp_loopback() -> std::io::Result<Listener> {
        Listener::bind_tcp("127.0.0.1:0")
    }

    /// Bind TCP at `addr` (`host:port`; port 0 picks a free one).
    pub(crate) fn bind_tcp(addr: &str) -> std::io::Result<Listener> {
        let sock = TcpListener::bind(addr)?;
        Ok(Listener {
            addr: format!("tcp:{}", sock.local_addr()?),
            sock: ListenSock::Tcp(sock),
            unix_path: None,
        })
    }

    /// Bind a fresh listener of the family `addr` (`unix:…` or `tcp:…`)
    /// names: how a rank binds its link listener beside the router's.
    pub fn bind_like(addr: &str) -> std::io::Result<Listener> {
        if addr.starts_with("unix:") {
            Listener::bind_unix_auto()
        } else if addr.starts_with("tcp:") {
            Listener::bind_tcp_loopback()
        } else {
            Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                format!("address {addr:?} has neither unix: nor tcp: scheme"),
            ))
        }
    }

    /// The address peers connect to (`unix:<path>` or `tcp:<addr>`).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Accept one connection. A TCP stream sends small frames at once:
    /// Nagle's algorithm would hold each until the peer's delayed ACK.
    /// Failing to turn it off is slower, not wrong, so it is no error.
    pub(crate) fn accept(&self) -> std::io::Result<Stream> {
        match &self.sock {
            ListenSock::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            ListenSock::Tcp(l) => {
                let (s, _) = l.accept()?;
                let _ = s.set_nodelay(true);
                Ok(Stream::Tcp(s))
            }
        }
    }

    pub(crate) fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match &self.sock {
            ListenSock::Unix(l) => l.set_nonblocking(on),
            ListenSock::Tcp(l) => l.set_nonblocking(on),
        }
    }
}

impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        match &self.sock {
            ListenSock::Unix(l) => l.as_raw_fd(),
            ListenSock::Tcp(l) => l.as_raw_fd(),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Connect to an address string (`unix:<path>` or `tcp:<addr>`); a TCP
/// stream sends small frames at once (`TCP_NODELAY`).
fn connect_once(addr: &str) -> std::io::Result<Stream> {
    if let Some(path) = addr.strip_prefix("unix:") {
        Ok(Stream::Unix(UnixStream::connect(path)?))
    } else if let Some(sock) = addr.strip_prefix("tcp:") {
        let s = TcpStream::connect(sock)?;
        s.set_nodelay(true)?;
        Ok(Stream::Tcp(s))
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

/// A hello announcing `rank` and its link-listener address (empty for
/// none).
fn hello(rank: u32, link_addr: &str) -> std::io::Result<Vec<u8>> {
    let len = u16::try_from(link_addr.len())
        .map_err(|_| invalid(format!("link address of {} bytes", link_addr.len())))?;
    let mut out = Vec::with_capacity(HELLO_BYTES + link_addr.len());
    out.push(wire::WIRE_VERSION);
    out.extend_from_slice(&rank.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(link_addr.as_bytes());
    Ok(out)
}

/// Read a hello: the peer's rank and link-listener address. A hello of
/// another wire version, or an address that is not UTF-8, is
/// `InvalidData`; the address is at most 64 KiB by construction.
fn read_hello(stream: &mut Stream) -> std::io::Result<(u32, String)> {
    let mut fixed = [0u8; HELLO_BYTES];
    stream.read_exact(&mut fixed)?;
    if fixed[0] != wire::WIRE_VERSION {
        return Err(invalid(format!("hello of wire version {}", fixed[0])));
    }
    let rank = u32::from_le_bytes(fixed[1..5].try_into().expect("4 rank bytes"));
    let len = u16::from_le_bytes(fixed[5..7].try_into().expect("2 length bytes"));
    let mut addr = vec![0; len as usize];
    stream.read_exact(&mut addr)?;
    let addr = String::from_utf8(addr).map_err(|_| invalid("hello address not UTF-8".into()))?;
    Ok((rank, addr))
}

/// The link block opening the setup frame the router sends one rank: its
/// uplink's rank (or [`NO_PARENT`]) and listener address, then how many
/// children will link to the rank's own listener.
fn put_link_block(out: &mut Vec<u8>, uplink: Option<(usize, &str)>, children: u32) {
    let (parent, addr) = uplink.map_or((NO_PARENT, ""), |(p, a)| (p as u32, a));
    wire::put_u32(out, parent);
    wire::put_u32(out, addr.len() as u32);
    out.extend_from_slice(addr.as_bytes());
    wire::put_u32(out, children);
}

/// A decoded link block: the uplink to connect, if any, and the number
/// of children to accept.
struct LinkBlock {
    uplink: Option<(usize, String)>,
    children: usize,
}

fn get_link_block(r: &mut WireReader<'_>) -> Result<LinkBlock, WireError> {
    let parent = r.u32()?;
    let len = r.u32()? as usize;
    let addr = std::str::from_utf8(r.bytes(len)?)
        .map_err(|_| WireError::Malformed("link address not UTF-8"))?;
    let children = r.u32()? as usize;
    Ok(LinkBlock {
        uplink: (parent != NO_PARENT).then(|| (parent as usize, addr.to_string())),
        children,
    })
}

/// The head of one rank's setup frame: the length prefix, for a body of
/// its link block and `setup_len` more bytes, then the link block.
fn setup_head(
    uplink: Option<(usize, &str)>,
    children: u32,
    setup_len: usize,
) -> std::io::Result<Vec<u8>> {
    let mut block = Vec::new();
    put_link_block(&mut block, uplink, children);
    let len = u32::try_from(block.len() + setup_len)
        .map_err(|_| invalid(format!("setup frame of {setup_len} bytes")))?;
    let mut head = len.to_le_bytes().to_vec();
    head.extend_from_slice(&block);
    Ok(head)
}

/// Write every rank's setup frame at once, from the calling thread: rank
/// `r`'s is `heads[r]`, then `setup` for every rank but 0, which composed
/// it. Each pass makes non-waiting `send(2)` calls to every rank with
/// bytes left, then one `poll(2)` waits for room at any of them. So a rank
/// that reads late holds up no other, and the setup goes out without a
/// copy. Fails with `TimedOut` at `deadline`, naming the ranks whose
/// frames are not out: a rank that never reads cannot wedge the barrier.
fn send_setups(
    streams: &[Stream],
    heads: &[Vec<u8>],
    setup: &[u8],
    deadline: Instant,
    timeout: Duration,
) -> std::io::Result<()> {
    let body = |rank: usize| if rank == 0 { &[][..] } else { setup };
    let mut sent = vec![0usize; streams.len()];
    loop {
        let (mut waiting, mut polls) = (Vec::new(), Vec::new());
        for (rank, stream) in streams.iter().enumerate() {
            let (head, body) = (&heads[rank][..], body(rank));
            while sent[rank] < head.len() + body.len() {
                let rest = match sent[rank].checked_sub(head.len()) {
                    Some(at) => &body[at..],
                    None => &head[sent[rank]..],
                };
                match sys::send_now(stream, rest) {
                    Ok(n) => sent[rank] += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        waiting.push(rank);
                        polls.push(sys::PollFd::writable(stream));
                        break;
                    }
                    Err(e) => {
                        return Err(std::io::Error::new(
                            e.kind(),
                            format!("sending setup to rank {rank}: {e}"),
                        ))
                    }
                }
            }
        }
        if waiting.is_empty() {
            return Ok(());
        }
        if Instant::now() >= deadline || sys::poll_ready(&mut polls, Some(deadline))? == 0 {
            let ranks: Vec<String> = waiting.iter().map(usize::to_string).collect();
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                format!(
                    "rank barrier timed out after {timeout:?}: setup frames to ranks [{}] not out",
                    ranks.join(", ")
                ),
            ));
        }
    }
}

/// Accept `n` children on `listener`, each identified by its hello, by
/// `deadline`: waits in `poll(2)`, never sleeps. Fails naming how many
/// never linked, or on a rank linking twice.
fn accept_links(
    listener: &Listener,
    n: usize,
    deadline: Instant,
) -> std::io::Result<Vec<(usize, Stream)>> {
    listener.set_nonblocking(true)?;
    let mut links: Vec<(usize, Stream)> = Vec::new();
    while links.len() < n {
        let mut stream = match listener.accept() {
            Ok(stream) => stream,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let mut wait = [sys::PollFd::readable(listener)];
                if sys::poll_ready(&mut wait, Some(deadline))? == 0 {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        format!("{} of {n} link children never connected", n - links.len()),
                    ));
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        // Some systems hand the listener's non-blocking mode on.
        stream.set_nonblocking(false)?;
        let left = deadline.saturating_duration_since(Instant::now());
        stream.set_read_timeout(Some(left.max(Duration::from_millis(1))))?;
        let (child, _) = read_hello(&mut stream)?;
        stream.set_read_timeout(None)?;
        let child = child as usize;
        if links.iter().any(|(r, _)| *r == child) {
            return Err(invalid(format!("rank {child} linked twice")));
        }
        links.push((child, stream));
    }
    Ok(links)
}

/// Per-rank traffic the router collects — the source of `messages_sent`
/// / `bytes_sent` / `messages_received` in the proc engine's
/// [`crate::report::RunReport`]: each rank's final tally frame, as the
/// rank counted its own traffic.
pub struct RouterTraffic(Mutex<Vec<ProcStats>>);

impl RouterTraffic {
    fn new(n: usize) -> RouterTraffic {
        RouterTraffic(Mutex::new(vec![ProcStats::default(); n]))
    }

    /// Per-rank [`ProcStats`] (traffic fields only; time accounting
    /// belongs to each process), zero for a rank whose final frame has
    /// not arrived.
    pub fn to_proc_stats(&self) -> Vec<ProcStats> {
        self.0.lock().expect("traffic lock").clone()
    }
}

/// The never-waiting write half of a link.
struct Outbox {
    state: Mutex<Outgoing>,
    /// Wakes the drain thread when bytes join the backlog or the outbox
    /// closes.
    ready: Condvar,
    /// Name for the drain thread.
    drain_name: String,
}

struct Outgoing {
    /// The peer's socket; `None` once the peer is gone (a failed write)
    /// or the outbox finished.
    stream: Option<Stream>,
    /// Bytes accepted for the peer that its socket had no room for yet,
    /// oldest first.
    backlog: Vec<u8>,
    /// The drain thread is writing bytes it took off `backlog`: later
    /// frames queue behind them even while `backlog` is empty.
    draining: bool,
    /// The outbox is finishing: the drain thread leaves once the backlog
    /// is written out.
    closing: bool,
    /// The drain thread, spawned on the first overflow.
    drain: Option<JoinHandle<()>>,
}

impl Outbox {
    fn new(stream: Stream, drain_name: String) -> Arc<Outbox> {
        Arc::new(Outbox {
            state: Mutex::new(Outgoing {
                stream: Some(stream),
                backlog: Vec::new(),
                draining: false,
                closing: false,
                drain: None,
            }),
            ready: Condvar::new(),
            drain_name,
        })
    }

    /// Hand `frame` (length prefix included) to the peer without waiting:
    /// straight into its socket when nothing is queued ahead of it and
    /// the socket has room, onto the backlog otherwise. `false` when the
    /// peer is gone — the frame is dropped, matching `ThreadTransport`'s
    /// dropped-receiver rule.
    fn deliver(self: &Arc<Outbox>, frame: &[u8]) -> bool {
        let mut out = self.state.lock().expect("outbox lock");
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
            let outbox = Arc::clone(self);
            out.drain = Some(
                std::thread::Builder::new()
                    .name(self.drain_name.clone())
                    .spawn(move || outbox.drain(stream))
                    .expect("spawn drain thread"),
            );
        }
        out.backlog.extend_from_slice(&frame[sent..]);
        self.ready.notify_one();
        true
    }

    /// The drain thread: write the backlog out in order, waiting for the
    /// peer to read, until the outbox finishes or the peer is gone.
    fn drain(&self, mut stream: Stream) {
        let mut batch = Vec::new();
        let mut out = self.state.lock().expect("outbox lock");
        loop {
            if out.stream.is_none() {
                out.backlog.clear();
                out.draining = false;
                return;
            }
            if out.backlog.is_empty() {
                out.draining = false;
                if out.closing {
                    return;
                }
                out = self.ready.wait(out).expect("outbox lock");
                continue;
            }
            std::mem::swap(&mut batch, &mut out.backlog);
            out.draining = true;
            drop(out);
            let written = stream.write_all(&batch);
            batch.clear();
            out = self.state.lock().expect("outbox lock");
            if written.is_err() {
                out.stream = None;
            }
        }
    }

    /// Close the outbox and join its drain thread, which first writes the
    /// backlog out, for no longer than [`FLUSH_LIMIT`].
    fn finish(&self) {
        let drain = match self.state.lock() {
            Ok(mut out) => {
                out.closing = true;
                if let Some(s) = &out.stream {
                    let _ = s.set_write_timeout(Some(FLUSH_LIMIT));
                }
                out.drain.take()
            }
            Err(_) => None,
        };
        self.ready.notify_all();
        if let Some(handle) = drain {
            let _ = handle.join();
        }
        if let Ok(mut out) = self.state.lock() {
            if let Some(s) = out.stream.take() {
                s.shutdown();
            }
        }
    }
}

/// The state the watchers and the supervisor share, sized per rank by
/// the barrier.
struct Hub {
    traffic: Arc<RouterTraffic>,
    /// Per-rank last-frame-seen clock, milliseconds since `epoch`.
    last_seen: Vec<AtomicU64>,
    epoch: Instant,
}

impl Hub {
    fn new(n: usize, epoch: Instant) -> Hub {
        let now_ms = epoch.elapsed().as_millis() as u64;
        Hub {
            traffic: Arc::new(RouterTraffic::new(n)),
            last_seen: (0..n).map(|_| AtomicU64::new(now_ms)).collect(),
            epoch,
        }
    }

    fn idle_ms(&self, rank: usize) -> Option<u64> {
        let seen = self.last_seen.get(rank)?.load(Ordering::Relaxed);
        Some((self.epoch.elapsed().as_millis() as u64).saturating_sub(seen))
    }

    /// Watch rank `origin`'s stream until it ends: every frame refreshes
    /// the rank's last-seen clock, and its final tally becomes its
    /// traffic. A heartbeat is only a sign of life, and any other frame is
    /// a protocol bug, dropped with a warning: every protocol message
    /// travels on a link. The end itself — a clean exit or a killed
    /// process, the socket cannot tell — needs no notice from here: the
    /// rank's link peers read it off their links.
    fn watch(&self, origin: usize, mut reader: FrameReader) {
        while let Next::Frame(frame) = reader.next_frame(true) {
            self.last_seen[origin]
                .store(self.epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
            let body = &frame[FRAME_LEN_BYTES..];
            if let Some(tally) = wire::decode_tally(body) {
                self.traffic.0.lock().expect("traffic lock")[origin] = tally;
            } else if !wire::is_heartbeat(body) {
                crate::transport::protocol_warn(
                    origin,
                    "router dropping a frame that is neither a heartbeat nor a tally",
                );
            }
        }
    }
}

/// The star hub: runs the launch barrier over one connection per rank,
/// then watches every connection until it winds down.
pub struct SocketRouter {
    listener: Option<Listener>,
    addr: String,
    /// Every rank's stream after the barrier, kept to be shut.
    streams: Vec<Stream>,
    watchers: Vec<JoinHandle<()>>,
    hub: Arc<Hub>,
}

impl SocketRouter {
    fn listening(listener: Listener) -> SocketRouter {
        SocketRouter {
            addr: listener.addr().to_string(),
            listener: Some(listener),
            streams: Vec::new(),
            watchers: Vec::new(),
            hub: Arc::new(Hub::new(0, Instant::now())),
        }
    }

    /// Bind a fresh Unix-domain socket under the system temp directory
    /// (unique per process and per router).
    pub fn bind_unix_auto() -> std::io::Result<SocketRouter> {
        Listener::bind_unix_auto().map(SocketRouter::listening)
    }

    /// Bind an ephemeral TCP loopback port.
    pub fn bind_tcp_loopback() -> std::io::Result<SocketRouter> {
        Listener::bind_tcp_loopback().map(SocketRouter::listening)
    }

    /// The address workers connect to (`unix:<path>` or `tcp:<addr>`).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Shared per-rank traffic, filled in as final frames arrive.
    pub fn traffic(&self) -> Arc<RouterTraffic> {
        Arc::clone(&self.hub.traffic)
    }

    /// Milliseconds since the router last saw a frame (heartbeats
    /// included) from `rank`. `None` before the barrier or for an unknown
    /// rank.
    pub fn idle_ms(&self, rank: usize) -> Option<u64> {
        self.hub.idle_ms(rank)
    }

    /// A cloneable handle over the supervision state
    /// ([`SocketRouter::idle_ms`]) for the engine's monitor thread, which
    /// runs while the router itself is parked in the master's call stack.
    /// Take it *after* the barrier — the per-rank state is sized there.
    pub fn supervisor(&self) -> RouterSupervisor {
        RouterSupervisor {
            hub: Arc::clone(&self.hub),
        }
    }

    /// Accept until every rank `0..parents.len()` has connected and said
    /// hello, then send every rank its setup frame at once — its link
    /// block (the uplink to `parents[rank]`, and how many ranks name it
    /// their parent), then `setup`, which rank 0 composed and so does not
    /// get — and start watching. Fails when `timeout` passes first,
    /// naming the ranks that never arrived or whose setup frames are not
    /// out, and when a rank's parent said hello without a link listener.
    pub fn run_barrier(
        &mut self,
        parents: &[Option<usize>],
        setup: &[u8],
        timeout: Duration,
    ) -> std::io::Result<()> {
        let total = parents.len();
        let deadline = Instant::now() + timeout;
        let listener = Arc::new(self.listener.take().expect("barrier runs once"));
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel::<(u32, Stream, String)>();
        let (accept_from, accept_stop) = (Arc::clone(&listener), Arc::clone(&stop));
        let acceptor = std::thread::Builder::new()
            .name("pts-sock-accept".into())
            .spawn(move || accept_loop(&accept_from, &accept_stop, tx))
            .expect("spawn acceptor");
        let gathered = gather(&rx, total, deadline, timeout);
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

        let (streams, addrs): (Vec<Stream>, Vec<String>) = gathered?.into_iter().unzip();
        // Every uplink must lead to a listener, checked before any rank
        // hears of one.
        let mut children = vec![0u32; total];
        for (rank, parent) in parents.iter().enumerate() {
            let Some(p) = *parent else { continue };
            if addrs.get(p).is_none_or(String::is_empty) {
                return Err(invalid(format!(
                    "rank {rank}'s parent {p} has no link listener"
                )));
            }
            children[p] += 1;
        }
        // Hand every rank its setup frame, all at once.
        let mut heads = Vec::with_capacity(total);
        for (rank, stream) in streams.iter().enumerate() {
            stream.set_read_timeout(None)?;
            let uplink = parents[rank].map(|p| (p, addrs[p].as_str()));
            let setup_len = if rank == 0 { 0 } else { setup.len() };
            heads.push(setup_head(uplink, children[rank], setup_len)?);
        }
        send_setups(&streams, &heads, setup, deadline, timeout)?;
        // Then start watching.
        let readers = streams
            .iter()
            .map(|stream| Ok(FrameReader::new(stream.try_clone()?)))
            .collect::<std::io::Result<Vec<_>>>()?;
        self.hub = Arc::new(Hub::new(total, self.hub.epoch));
        for (rank, reader) in readers.into_iter().enumerate() {
            let hub = Arc::clone(&self.hub);
            let handle = std::thread::Builder::new()
                .name(format!("pts-sock-watch{rank}"))
                .spawn(move || hub.watch(rank, reader))
                .expect("spawn watcher");
            self.watchers.push(handle);
        }
        self.streams = streams;
        Ok(())
    }

    /// Close every connection and join the watcher threads. Called after
    /// the run's processes have exited (or to abort a failed run).
    pub fn finish(&mut self) {
        for stream in self.streams.drain(..) {
            stream.shutdown();
        }
        for handle in self.watchers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for SocketRouter {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Detached view of a router's supervision state — see
/// [`SocketRouter::supervisor`].
#[derive(Clone)]
pub struct RouterSupervisor {
    hub: Arc<Hub>,
}

impl RouterSupervisor {
    /// Same as [`SocketRouter::idle_ms`].
    pub fn idle_ms(&self, rank: usize) -> Option<u64> {
        self.hub.idle_ms(rank)
    }
}

/// Collect one identified connection per rank `0..total` from the
/// acceptor, with its link-listener address, or fail: at `deadline`, the
/// barrier's `timeout` after it began (naming the ranks that never
/// arrived), on a rank outside the topology, or on a rank connecting
/// twice.
fn gather(
    rx: &Receiver<(u32, Stream, String)>,
    total: usize,
    deadline: Instant,
    timeout: Duration,
) -> std::io::Result<Vec<(Stream, String)>> {
    let mut conns: Vec<Option<(Stream, String)>> = (0..total).map(|_| None).collect();
    let mut have = 0usize;
    while have < total {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let (rank, stream, addr) = match rx.recv_timeout(remaining) {
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
        let slot = conns
            .get_mut(rank as usize)
            .ok_or_else(|| invalid(format!("rank {rank} outside topology of {total}")))?;
        if slot.is_some() {
            return Err(invalid(format!("rank {rank} connected twice")));
        }
        *slot = Some((stream, addr));
        have += 1;
    }
    Ok(conns.into_iter().flatten().collect())
}

fn accept_loop(listener: &Listener, stop: &AtomicBool, tx: Sender<(u32, Stream, String)>) {
    loop {
        let accepted = listener.accept();
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
        let Ok((rank, addr)) = read_hello(&mut stream) else {
            continue;
        };
        if tx.send((rank, stream, addr)).is_err() {
            return;
        }
    }
}

/// Outcome of [`SocketTransport::handshake`]: the connected streams plus
/// the raw setup frame the router sent (the caller decodes it — its
/// contents are domain-specific).
pub struct Handshake {
    /// The connected, identified router stream.
    pub stream: Stream,
    /// The engine's setup bytes, verbatim; empty for rank 0, which
    /// composed them.
    pub setup: SetupBytes,
    /// One stream per protocol-tree neighbour, with its rank: the uplink
    /// first when the rank has a parent, then every child.
    pub links: Vec<(usize, Stream)>,
}

/// The engine's setup bytes inside the setup frame as it was read: the
/// router's link block stays in front of them, read but not cut off, so
/// a large setup is never moved. Dereferences to the setup bytes alone.
pub struct SetupBytes {
    frame: Vec<u8>,
    at: usize,
}

impl std::ops::Deref for SetupBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.frame[self.at..]
    }
}

/// One link of a transport: a stream to a protocol-tree neighbour.
struct Link {
    peer: usize,
    reader: FrameReader,
    out: Arc<Outbox>,
    /// The link's end has been handed to the protocol (as `Down`, or as
    /// the run's end from rank 0).
    ended: bool,
}

/// Per-rank socket endpoint implementing [`Transport`]: the rank's router
/// stream and one link per protocol-tree neighbour. There is no reader
/// thread: the protocol thread reads its own links through buffered read
/// halves and decodes each frame as it takes it. A receive first takes a
/// frame already buffered from any link and only then waits in `poll(2)`
/// — forever in `recv`, not at all in `try_recv`, and up to the deadline
/// in `recv_deadline` — so [`crate::transport::drive_sync`] drives
/// protocol futures built over this transport. `send` never waits for
/// the receiver to read: a link's backlog takes what the receiver's
/// socket cannot.
pub struct SocketTransport<P: WireProblem> {
    rank: usize,
    start: Instant,
    // Shared with the optional heartbeat thread; the lock serializes
    // whole frames so a beacon never interleaves the final frame.
    writer: Arc<Mutex<Stream>>,
    /// The router stream's read half, watched only for its end.
    router: Stream,
    links: Vec<Link>,
    /// Scratch for `poll(2)`: the router stream, then every open link.
    polls: Vec<sys::PollFd>,
    ctx: P::Ctx,
    /// The heartbeat thread and the sender whose drop stops it.
    heartbeat: Option<(Sender<()>, JoinHandle<()>)>,
    stats: ProcStats,
    eof: bool,
}

impl<P: WireProblem> SocketTransport<P> {
    /// Connect to the router (with retry), say hello as `rank` — with the
    /// address of `listener` when the rank has protocol children — and
    /// read the setup frame. Then link up: connect the uplink its link
    /// block names, and accept as many children on `listener` as it
    /// counts, all within `overall`. Domain-independent first phase — the
    /// caller decodes the setup, recovers the decode context, then
    /// finishes with [`SocketTransport::new`].
    pub fn handshake(
        addr: &str,
        rank: u32,
        listener: Option<&Listener>,
        overall: Duration,
    ) -> std::io::Result<Handshake> {
        let mut stream = connect_retry(addr, overall, rank as u64)?;
        stream.write_all(&hello(rank, listener.map_or("", Listener::addr))?)?;
        let frame = wire::read_frame(&mut stream)?.ok_or_else(|| {
            std::io::Error::new(ErrorKind::UnexpectedEof, "router closed before setup frame")
        })?;
        let (block, at) = {
            let mut r = WireReader::new(&frame);
            let block =
                get_link_block(&mut r).map_err(|e| invalid(format!("setup link block: {e}")))?;
            (block, frame.len() - r.remaining())
        };
        // Every rank gets its setup frame at once, so the children are
        // connecting now: the link deadline starts here, not before the
        // barrier.
        let deadline = Instant::now() + overall;
        let mut links = Vec::new();
        if let Some((parent, parent_addr)) = block.uplink {
            // The parent bound its listener before its hello, and the
            // barrier ended only after every hello: this connect cannot
            // come too early.
            let mut up = connect_once(&parent_addr).map_err(|e| {
                std::io::Error::new(e.kind(), format!("uplink to rank {parent}: {e}"))
            })?;
            up.write_all(&hello(rank, "")?)?;
            links.push((parent, up));
        }
        if block.children > 0 {
            let listener = listener
                .ok_or_else(|| invalid(format!("rank {rank} has link children but no listener")))?;
            links.extend(accept_links(listener, block.children, deadline)?);
        }
        Ok(Handshake {
            stream,
            setup: SetupBytes { frame, at },
            links,
        })
    }

    /// Wrap rank `rank`'s router stream and its `links` (peer rank and
    /// stream, as [`SocketTransport::handshake`] returns them) as its
    /// transport. `ctx` is the domain's decode context (from the setup
    /// frame, or derived locally on the master).
    pub fn new(
        stream: Stream,
        links: Vec<(usize, Stream)>,
        rank: usize,
        ctx: P::Ctx,
    ) -> std::io::Result<SocketTransport<P>> {
        let links = links
            .into_iter()
            .map(|(peer, stream)| {
                Ok(Link {
                    peer,
                    reader: FrameReader::new(stream.try_clone()?),
                    out: Outbox::new(stream, format!("pts-link-drain{peer}")),
                    ended: false,
                })
            })
            .collect::<std::io::Result<Vec<Link>>>()?;
        Ok(SocketTransport {
            rank,
            start: Instant::now(),
            router: stream.try_clone()?,
            writer: Arc::new(Mutex::new(stream)),
            polls: Vec::with_capacity(links.len() + 1),
            links,
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

    /// The next message already buffered on any link; failing that, the
    /// first link end not yet reported. A link's end reads as `Down` of
    /// its peer, once; rank 0's latches `eof` instead, and after the
    /// router stream's end no link end is reported. Heartbeats are skipped
    /// and undecodable frames dropped.
    fn take_buffered(&mut self) -> Option<PtsMsg<P>> {
        for link in &mut self.links {
            while let Next::Frame(frame) = link.reader.next_frame(false) {
                if let Some(msg) = decode_frame::<P>(frame, &self.ctx, self.rank) {
                    self.stats.messages_received += 1;
                    return Some(msg);
                }
            }
        }
        if self.eof {
            return None;
        }
        for link in &mut self.links {
            if link.reader.closed && !link.ended {
                link.ended = true;
                if link.peer == 0 {
                    // The master is gone: the run is over.
                    self.eof = true;
                    return None;
                }
                return Some(PtsMsg::Down { rank: link.peer });
            }
        }
        None
    }

    /// Take the next message, waiting for bytes until `until` (forever
    /// when `None`; an instant already past only looks). `None` when none
    /// arrived in time, or at the end of the run — which also latches
    /// `eof`.
    fn next_msg(&mut self, until: Option<Instant>) -> Option<PtsMsg<P>> {
        loop {
            if let Some(msg) = self.take_buffered() {
                return Some(msg);
            }
            if self.eof {
                return None;
            }
            let open = self.links.iter().filter(|l| !l.reader.closed);
            self.polls.clear();
            self.polls.push(sys::PollFd::readable(&self.router));
            self.polls
                .extend(open.map(|l| sys::PollFd::readable(&l.reader.stream)));
            match sys::poll_ready(&mut self.polls, until) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(_) => {
                    // The streams cannot be waited on: treat it as the end.
                    self.eof = true;
                    return None;
                }
            }
            let mut ready = self.polls.iter().map(sys::PollFd::ready);
            if ready.next() == Some(true) && self.router_ended() {
                // The router is gone: the run is being torn down.
                self.eof = true;
            }
            for link in self.links.iter_mut().filter(|l| !l.reader.closed) {
                if ready.next() == Some(true) {
                    link.reader.fill(false);
                }
            }
        }
    }

    /// Wait for a message until `until` (forever when `None`: then the
    /// result is always `Some`); the end of the run reads as a sticky
    /// `Stop`.
    fn recv_blocking(&mut self, until: Option<Instant>) -> Option<PtsMsg<P>> {
        let blocked = Instant::now();
        let got = loop {
            if let Some(msg) = self.next_msg(until) {
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

    /// Whether the router stream has ended: at its end or in error. The
    /// router sends a rank nothing after its setup frame, so any bytes
    /// are dropped unread.
    fn router_ended(&self) -> bool {
        let mut scratch = [0u8; 64];
        loop {
            match sys::recv_now(&self.router, &mut scratch) {
                Ok(0) => return true,
                Ok(_) => continue,
                Err(e) => return e.kind() != ErrorKind::WouldBlock,
            }
        }
    }

    /// A copy of the locally accounted stats, finished now. Rank 0 feeds
    /// them into the run report; every rank's traffic counts reach the
    /// router in its final frame as it drops.
    pub fn stats(&self) -> ProcStats {
        ProcStats {
            finished_at: self.now(),
            ..self.stats.clone()
        }
    }
}

/// Decode one frame taken off a rank's stream; `None` for a heartbeat,
/// and for an undecodable frame, which is dropped with a warning.
fn decode_frame<P: WireProblem>(frame: &[u8], ctx: &P::Ctx, rank: usize) -> Option<PtsMsg<P>> {
    let body = &frame[FRAME_LEN_BYTES..];
    if wire::is_heartbeat(body) {
        // Beacons are router-facing; never surface them.
        return None;
    }
    match wire::decode_msg::<P>(body, ctx) {
        Ok((_dst, msg)) => Some(msg),
        Err(e) => {
            crate::transport::protocol_warn(rank, &format!("dropping undecodable frame: {e}"));
            None
        }
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
        // Every protocol message travels on a tree edge: a destination
        // without a link is a protocol bug, and the message is dropped
        // uncounted.
        let Some(link) = self.links.iter().find(|l| l.peer == dst) else {
            crate::transport::protocol_warn(
                self.rank,
                &format!("dropping {} to rank {dst}: no link", msg.tag()),
            );
            return;
        };
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += msg.wire_size();
        crate::meter::note_send(&msg);
        // A departed receiver means the run is winding up; like a dropped
        // channel receiver, the frame is silently discarded.
        let frame = wire::frame(&wire::encode_msg(&msg, dst as u32));
        link.out.deliver(&frame);
    }

    fn recv(&mut self) -> impl std::future::Future<Output = PtsMsg<P>> {
        // Blocks inside poll on the sockets — never `Pending`.
        std::future::poll_fn(|_cx| {
            let msg = self.recv_blocking(None);
            std::task::Poll::Ready(msg.expect("a wait without deadline ends in a message"))
        })
    }

    fn try_recv(&mut self) -> Option<PtsMsg<P>> {
        self.next_msg(Some(Instant::now()))
    }

    fn recv_deadline(
        &mut self,
        deadline: f64,
    ) -> impl std::future::Future<Output = Option<PtsMsg<P>>> {
        // Wall clock is controllable enough here: a dead peer is a link's
        // end, but a *hung* peer is silence — bound the wait so the
        // protocol's liveness timeouts work on real sockets, not just
        // virtual time. A deadline past what `Instant` can hold is no
        // deadline.
        let until = Duration::try_from_secs_f64(deadline.max(0.0))
            .ok()
            .and_then(|d| self.start.checked_add(d));
        std::future::poll_fn(move |_cx| std::task::Poll::Ready(self.recv_blocking(until)))
    }
}

impl<P: WireProblem> Drop for SocketTransport<P> {
    fn drop(&mut self) {
        let heartbeat = self.heartbeat.take();
        // Write out what the links still hold, then tell the router what
        // they carried: the final frame.
        for link in &self.links {
            link.out.finish();
        }
        if let Ok(mut w) = self.writer.lock() {
            let tally = wire::encode_tally_frame(self.rank as u32, &self.stats);
            let _ = wire::write_frame(&mut *w, &tally);
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

    /// Bring up one transport per rank of a tree whose rank `r` answers to
    /// `parents[r]`, over `router`: every rank with children binds a link
    /// listener, and every rank handshakes on a thread of its own — the
    /// setup frames only arrive once the barrier completes, so sequential
    /// handshakes would deadlock by construction.
    fn start_tree(
        router: &mut SocketRouter,
        parents: &[Option<usize>],
    ) -> Vec<SocketTransport<Qap>> {
        let joiners: Vec<_> = (0..parents.len())
            .map(|rank| {
                let addr = router.addr().to_string();
                let parent_of_some = parents.contains(&Some(rank));
                std::thread::spawn(move || {
                    let listener = parent_of_some.then(|| Listener::bind_like(&addr).unwrap());
                    let hs = SocketTransport::<Qap>::handshake(
                        &addr,
                        rank as u32,
                        listener.as_ref(),
                        Duration::from_secs(5),
                    )
                    .unwrap();
                    let setup: &[u8] = if rank == 0 { b"" } else { b"setup!" };
                    assert_eq!(&*hs.setup, setup);
                    SocketTransport::new(hs.stream, hs.links, rank, ()).unwrap()
                })
            })
            .collect();
        router
            .run_barrier(parents, b"setup!", Duration::from_secs(5))
            .unwrap();
        joiners.into_iter().map(|j| j.join().unwrap()).collect()
    }

    /// Two ranks joined by a link: rank 1's uplink leads to rank 0.
    fn start_pair(router: &mut SocketRouter) -> (SocketTransport<Qap>, SocketTransport<Qap>) {
        let mut ranks = start_tree(router, &[None, Some(0)]).into_iter();
        (ranks.next().unwrap(), ranks.next().unwrap())
    }

    /// A chain 0 ← 1 ← 2: rank 1's uplink leads to rank 0, rank 2's to
    /// rank 1.
    fn start_chain(router: &mut SocketRouter) -> [SocketTransport<Qap>; 3] {
        let ranks = start_tree(router, &[None, Some(0), Some(1)]);
        ranks.try_into().ok().expect("three ranks")
    }

    #[test]
    fn unix_pair_exchanges_messages() {
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
        drop((a, b));
        router.finish();
        // Each rank's final frame carried its own counts.
        let traffic = router.traffic().to_proc_stats();
        assert_eq!(traffic[0].messages_sent, 1);
        assert_eq!(traffic[1].messages_sent, 1);
    }

    #[test]
    fn tcp_pair_exchanges_messages() {
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
        // The router stream ends while the link to rank 0 stays open.
        router.finish();
        assert!(matches!(drive_sync(b.recv()), PtsMsg::Stop));
        assert!(
            matches!(drive_sync(b.recv()), PtsMsg::Stop),
            "EOF is sticky"
        );
        drop((a, b));
    }

    #[test]
    fn barrier_timeout_names_missing_ranks() {
        let mut router = SocketRouter::bind_unix_auto().unwrap();
        let addr = router.addr().to_string();
        let joiner = std::thread::spawn(move || {
            SocketTransport::<Qap>::handshake(&addr, 1, None, Duration::from_secs(5))
        });
        let err = router
            .run_barrier(&[None; 3], b"", Duration::from_millis(300))
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("missing ranks [0, 2]"), "got: {msg}");
        // The rank that did connect sees EOF once the router is dropped.
        drop(router);
        let _ = joiner.join();
    }

    #[test]
    fn a_hello_of_an_earlier_wire_version_is_refused() {
        // Every rank is this binary, and no decoder reads an earlier
        // version's frames, so the barrier must not admit its hello.
        let mut router = SocketRouter::bind_unix_auto().unwrap();
        let addr = router.addr().to_string();
        let mut old = connect_once(&addr).unwrap();
        let mut bytes = hello(0, "").unwrap();
        bytes[0] = wire::WIRE_VERSION - 1;
        old.write_all(&bytes).unwrap();
        let joiner = std::thread::spawn(move || {
            SocketTransport::<Qap>::handshake(&addr, 1, None, Duration::from_secs(5))
        });
        let err = router
            .run_barrier(&[None, None], b"", Duration::from_millis(500))
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("1/2 connected, missing ranks [0]"),
            "got: {msg}"
        );
        // The refused connection was closed without a setup frame.
        old.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(old.read(&mut [0u8; 1]).ok(), Some(0));
        drop(router);
        let _ = joiner.join();
    }

    #[test]
    fn a_parent_without_a_link_listener_fails_the_barrier() {
        let mut router = SocketRouter::bind_unix_auto().unwrap();
        let joiners: Vec<_> = (0..2u32)
            .map(|rank| {
                let addr = router.addr().to_string();
                std::thread::spawn(move || {
                    SocketTransport::<Qap>::handshake(&addr, rank, None, Duration::from_secs(5))
                })
            })
            .collect();
        let err = router
            .run_barrier(&[None, Some(0)], b"", Duration::from_secs(5))
            .unwrap_err();
        assert!(err.to_string().contains("no link listener"), "got: {err}");
        drop(router);
        for j in joiners {
            assert!(j.join().unwrap().is_err(), "no setup frame, no handshake");
        }
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

    /// Say hello to `router` as `rank`, with `link_addr` as its link
    /// listener's address, over a bare stream that reads nothing yet.
    fn bare_rank(router: &SocketRouter, rank: u32, link_addr: &str) -> Stream {
        let mut stream = connect_once(router.addr()).unwrap();
        stream.write_all(&hello(rank, link_addr).unwrap()).unwrap();
        stream
    }

    /// The length of the next frame on `stream`, prefix excluded.
    fn frame_len(mut stream: Stream) -> usize {
        wire::read_frame(&mut stream)
            .unwrap()
            .expect("a frame")
            .len()
    }

    /// A 4 MiB setup: many times what a socket buffer holds.
    fn big_setup() -> Vec<u8> {
        vec![7; 4 << 20]
    }

    /// The barrier needs only a parent's link address, not a listener.
    const LINK_ADDR: &str = "unix:/nowhere/links.sock";

    #[test]
    fn a_rank_that_never_reads_its_setup_fails_the_barrier_at_its_deadline() {
        within(Duration::from_secs(8), || {
            let mut router = SocketRouter::bind_unix_auto().unwrap();
            let rank0 = bare_rank(&router, 0, LINK_ADDR);
            let _rank1 = bare_rank(&router, 1, "");
            let reader = std::thread::spawn(move || frame_len(rank0));
            let err = router
                .run_barrier(&[None, Some(0)], &big_setup(), Duration::from_secs(2))
                .unwrap_err();
            assert_eq!(err.kind(), ErrorKind::TimedOut, "got: {err}");
            assert!(
                err.to_string()
                    .contains("setup frames to ranks [1] not out"),
                "got: {err}"
            );
            // Rank 0's frame, its link block alone, went out all the same.
            assert_eq!(reader.join().unwrap(), 12);
        });
    }

    #[test]
    fn every_rank_gets_its_setup_frame_at_once() {
        within(Duration::from_secs(8), || {
            let mut router = SocketRouter::bind_unix_auto().unwrap();
            let [rank0, rank1, rank2] = [(0, LINK_ADDR), (1, ""), (2, "")]
                .map(|(rank, addr)| bare_rank(&router, rank, addr));
            // Rank 1 reads only once rank 2 has read its whole frame.
            let (read, rank2_read) = std::sync::mpsc::channel();
            let readers = [
                std::thread::spawn(move || frame_len(rank0)),
                std::thread::spawn(move || {
                    rank2_read.recv().unwrap();
                    frame_len(rank1)
                }),
                std::thread::spawn(move || {
                    let len = frame_len(rank2);
                    read.send(()).unwrap();
                    len
                }),
            ];
            let setup = big_setup();
            router
                .run_barrier(&[None, Some(0), Some(0)], &setup, Duration::from_secs(5))
                .unwrap();
            let lens = readers.map(|r| r.join().unwrap());
            let child = 12 + LINK_ADDR.len() + setup.len();
            assert_eq!(lens, [12, child, child]);
            router.finish();
        });
    }

    /// A 250,000-entry assignment: 2 MB on the wire, several times what a
    /// socket buffer holds.
    fn bulky() -> StdArc<QapAssignment> {
        StdArc::new(QapAssignment::new((0..250_000).collect()))
    }

    fn investigate(seq: u64) -> PtsMsg<Qap> {
        PtsMsg::Investigate { seq, strategy: 0 }
    }

    /// Ranks `x` and `y` each send the other eight bulky frames before
    /// either reads, then each reads all eight. This only completes if no
    /// send waits on a rank that is not reading.
    fn exchange_bulk(x: &mut SocketTransport<Qap>, y: &mut SocketTransport<Qap>) {
        let snap = bulky();
        let (rx, ry) = (x.rank, y.rank);
        for (t, dst) in [(&mut *x, ry), (&mut *y, rx)] {
            for _ in 0..8 {
                let snapshot = StdArc::clone(&snap);
                t.send(dst, PtsMsg::Init { snapshot });
            }
        }
        for t in [x, y] {
            for _ in 0..8 {
                match drive_sync(t.recv()) {
                    PtsMsg::Init { snapshot } => assert!(snapshot == snap),
                    other => panic!("got {}", other.tag()),
                }
            }
        }
    }

    #[test]
    fn link_peers_exchange_past_socket_buffers() {
        within(Duration::from_secs(30), || {
            let mut router = SocketRouter::bind_unix_auto().unwrap();
            let [r0, mut r1, mut r2] = start_chain(&mut router);
            exchange_bulk(&mut r1, &mut r2);
            drop((r0, r1, r2));
            router.finish();
        });
    }

    #[test]
    fn a_send_to_a_rank_without_a_link_reaches_no_one_and_counts_nothing() {
        within(Duration::from_secs(30), || {
            let mut router = SocketRouter::bind_unix_auto().unwrap();
            let [mut r0, mut r1, mut r2] = start_chain(&mut router);
            // Rank 2's one link leads to rank 1, not to rank 0.
            r2.send(0, investigate(5));
            let deadline = r0.now() + 0.1;
            assert!(drive_sync(r0.recv_deadline(deadline)).is_none());
            assert!(r1.try_recv().is_none());
            drop((r0, r1, r2));
            router.finish();
            // Every final frame is in, and none counts a message.
            for (rank, p) in router.traffic().to_proc_stats().iter().enumerate() {
                let counts = (p.messages_sent, p.bytes_sent, p.messages_received);
                assert_eq!(counts, (0, 0, 0), "rank {rank}");
            }
        });
    }

    #[test]
    fn a_link_end_trails_a_backlogged_burst_with_one_down() {
        within(Duration::from_secs(30), || {
            let mut router = SocketRouter::bind_unix_auto().unwrap();
            let [r0, mut r1, mut r2] = start_chain(&mut router);
            let snap = bulky();
            // Rank 1 is not reading, so most of the burst still waits in
            // rank 2's link backlog when rank 2 leaves. Its drop writes the
            // backlog out, which takes rank 1 reading: drop it on a thread.
            for _ in 0..4 {
                let snapshot = StdArc::clone(&snap);
                r2.send(1, PtsMsg::Init { snapshot });
            }
            r2.send(1, investigate(9));
            let leaving = std::thread::spawn(move || drop(r2));
            for _ in 0..4 {
                assert!(matches!(drive_sync(r1.recv()), PtsMsg::Init { .. }));
            }
            assert!(matches!(
                drive_sync(r1.recv()),
                PtsMsg::Investigate { seq: 9, .. }
            ));
            match drive_sync(r1.recv()) {
                PtsMsg::Down { rank: 2 } => {}
                other => panic!("expected Down{{2}} last, got {}", other.tag()),
            }
            leaving.join().unwrap();
            // Exactly one notice: nothing follows it.
            assert!(r1.try_recv().is_none());
            let deadline = r1.now() + 0.1;
            assert!(drive_sync(r1.recv_deadline(deadline)).is_none());
            drop((r0, r1));
            router.finish();
        });
    }

    #[test]
    fn an_uplink_end_from_rank_zero_is_a_sticky_stop() {
        within(Duration::from_secs(30), || {
            let mut router = SocketRouter::bind_unix_auto().unwrap();
            let [mut r0, mut r1, r2] = start_chain(&mut router);
            r0.send(1, investigate(3));
            drop(r0);
            assert!(matches!(
                drive_sync(r1.recv()),
                PtsMsg::Investigate { seq: 3, .. }
            ));
            // The router stream is still open: the end is the link's.
            assert!(matches!(drive_sync(r1.recv()), PtsMsg::Stop));
            assert!(matches!(drive_sync(r1.recv()), PtsMsg::Stop), "sticky");
            assert!(r1.try_recv().is_none());
            drop((r1, r2));
            router.finish();
        });
    }

    /// Run the real protocol over sockets, every rank on a thread of its
    /// own, and check what the router saw.
    fn routed_run(cfg: crate::config::PtsConfig) {
        use crate::domain::PtsDomain;
        let total = cfg.total_procs();
        let parents: Vec<Option<usize>> = (0..total).map(|r| cfg.parent_rank(r)).collect();
        let domain = crate::qap_domain::QapDomain::random(10, 3);
        let initial = domain.initial(cfg.seed);
        let mut router = SocketRouter::bind_unix_auto().unwrap();
        let mut ranks = start_tree(&mut router, &parents).into_iter();
        let mut master = ranks.next().unwrap();
        let workers: Vec<_> = ranks
            .enumerate()
            .map(|(i, mut t)| {
                let (cfg, domain) = (cfg.clone(), domain.clone());
                std::thread::spawn(move || {
                    drive_sync(crate::engine::run_role(&mut t, &cfg, &domain, i + 1));
                    t
                })
            })
            .collect();
        let ctl = crate::control::RunControl::unlimited();
        drive_sync(crate::master::run_master(
            &mut master,
            &cfg,
            &domain,
            initial,
            &ctl,
        ));
        let ranks: Vec<SocketTransport<Qap>> = std::iter::once(master)
            .chain(workers.into_iter().map(|w| w.join().unwrap()))
            .collect();

        // Every rank is done, and no transport has dropped: the router
        // has seen no final frame, and no protocol frame crossed it.
        let routed = router.traffic().to_proc_stats();
        assert!(routed.iter().all(|p| *p == ProcStats::default()));

        // Every message sent was read, so each crossed a link. Once each
        // rank's final frame is in, the router's totals are each rank's
        // own counts.
        let own: Vec<ProcStats> = ranks.iter().map(SocketTransport::stats).collect();
        let sent: u64 = own.iter().map(|p| p.messages_sent).sum();
        assert_eq!(sent, own.iter().map(|p| p.messages_received).sum::<u64>());
        drop(ranks);
        router.finish();
        let totals = router.traffic().to_proc_stats();
        for (rank, (got, want)) in totals.iter().zip(&own).enumerate() {
            assert_eq!(
                (got.messages_sent, got.bytes_sent, got.messages_received),
                (want.messages_sent, want.bytes_sent, want.messages_received),
                "rank {rank}"
            );
        }
    }

    #[test]
    fn a_fault_free_run_sends_no_protocol_frame_over_the_router() {
        within(Duration::from_secs(60), || {
            let cfg = |n_tsw, n_clw, shard_fanout| crate::config::PtsConfig {
                n_tsw,
                n_clw,
                shard_fanout,
                global_iters: 3,
                local_iters: 4,
                ..crate::config::PtsConfig::default()
            };
            routed_run(cfg(2, 2, 0));
            routed_run(cfg(4, 2, 2));
        });
    }

    #[test]
    fn out_of_range_hello_fails_the_barrier_and_closes_the_listener() {
        let mut router = SocketRouter::bind_unix_auto().unwrap();
        let path = router.addr().strip_prefix("unix:").unwrap().to_string();
        let mut rogue = UnixStream::connect(&path).unwrap();
        rogue.write_all(&hello(7, "").unwrap()).unwrap();
        let err = router
            .run_barrier(&[None, None], b"", Duration::from_secs(5))
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
                .run_barrier(&[None], b"", Duration::from_millis(100))
                .unwrap_err();
            assert_eq!(err.kind(), ErrorKind::TimedOut, "got: {err}");
        });
    }

    /// Rank 1's transport whose uplink to rank 0 is one end of a socket
    /// pair; the other end, to write raw frames into; and the router's end
    /// of its quiet router stream, which must stay open.
    fn direct() -> (SocketTransport<Qap>, UnixStream, UnixStream) {
        let (ours, theirs) = UnixStream::pair().unwrap();
        let (router, routers) = UnixStream::pair().unwrap();
        let uplink = vec![(0, Stream::Unix(ours))];
        let t = SocketTransport::new(Stream::Unix(router), uplink, 1, ()).unwrap();
        (t, theirs, routers)
    }

    fn framed(msg: &PtsMsg<Qap>) -> Vec<u8> {
        wire::frame(&wire::encode_msg(msg, 1))
    }

    #[test]
    fn a_frame_written_in_two_halves_arrives_once_whole() {
        let (mut t, mut peer, _router) = direct();
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
        let (mut t, mut peer, _router) = direct();
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
        let (mut t, mut peer, _router) = direct();
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
        let (mut t, mut peer, _router) = direct();
        peer.write_all(&u32::MAX.to_le_bytes()).unwrap();
        // The peer stays connected: the prefix alone ends the stream.
        assert!(matches!(drive_sync(t.recv()), PtsMsg::Stop));
        assert_eq!(
            t.links[0].reader.buf.len(),
            READ_CHUNK,
            "grew for a refused frame"
        );
        assert!(matches!(drive_sync(t.recv()), PtsMsg::Stop), "sticky");
    }

    #[test]
    fn eof_inside_a_frame_is_a_sticky_stop() {
        let (mut t, mut peer, _router) = direct();
        let bytes = framed(&investigate(5));
        peer.write_all(&bytes[..bytes.len() - 3]).unwrap();
        drop(peer);
        assert!(matches!(drive_sync(t.recv()), PtsMsg::Stop));
        assert!(matches!(drive_sync(t.recv()), PtsMsg::Stop), "sticky");
        assert!(t.try_recv().is_none());
    }

    #[test]
    fn try_recv_on_an_empty_socket_returns_none() {
        let (t, _peer, _router) = direct();
        within(Duration::from_secs(10), move || {
            let mut t = t;
            assert!(t.try_recv().is_none());
            assert!(t.try_recv().is_none(), "and again");
        });
    }
}
