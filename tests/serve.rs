//! `pts-serve` job-service behaviour: concurrent jobs under independent
//! budgets, mid-run cancellation that leaves other jobs untouched, the
//! teardown paths that must never leak worker processes — a client that
//! dies mid-job, SIGTERM to the daemon itself, and SIGTERM while a client
//! has stopped reading — and job-level
//! retry: a crashed attempt announced with a `retrying` frame, restarted
//! up to `max_restarts`, and failed with a final error past that.
//!
//! A raw client that announces a frame past the cap is disconnected, and
//! one that sends a frame the server cannot act on (another protocol
//! version, an unknown kind, a cancel without a job id) gets an error
//! reply and stays connected.
//!
//! The first tests drive an in-process [`Server`]; the teardown tests
//! exercise the real `pts-serve` binary, where orphaned worker ranks are
//! identifiable by the daemon's pid embedded in the router socket path
//! (`--sock .../pts-<pid>-<n>.sock`).

use parallel_tabu_search::core::serve::{
    Client, JobDomainSpec, JobRequest, JobResult, ServeEvent, Server,
};
use parallel_tabu_search::core::{Pts, SyncPolicy};
use std::io::BufRead;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn qap_job(n: u32, seed: u64, global: u32, budget_ms: u64) -> JobRequest {
    let cfg = Pts::builder()
        .tsw_workers(2)
        .clw_workers(1)
        .global_iters(global)
        .local_iters(6)
        .sync(SyncPolicy::WaitAll)
        .seed(seed)
        .build()
        .unwrap()
        .config()
        .clone();
    JobRequest {
        cfg,
        spec: JobDomainSpec::QapRandom { n, seed },
        budget_ms,
        max_restarts: 0,
    }
}

/// Drain events until this client's job finishes; count progress frames.
fn wait_result(client: &mut Client) -> (JobResult, u32) {
    let mut progress = 0;
    loop {
        match client.next_event().expect("serve stream intact") {
            Some(ServeEvent::Result(r)) => return (r, progress),
            Some(ServeEvent::Progress { .. }) => progress += 1,
            Some(ServeEvent::Accepted { .. }) => {}
            Some(ServeEvent::Retrying { .. }) => {}
            Some(ServeEvent::Error { job, message }) => {
                panic!("job {job} failed server-side: {message}")
            }
            None => panic!("server closed the stream before the result"),
        }
    }
}

/// In-process daemon on a fresh Unix socket; returns (addr, stop, join).
fn start_server(
    name: &str,
    max_concurrent: usize,
) -> (String, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let path =
        std::env::temp_dir().join(format!("pts-serve-test-{}-{name}.sock", std::process::id()));
    let mut server = Server::bind_unix(&path, max_concurrent, env!("CARGO_BIN_EXE_pts")).unwrap();
    let addr = server.addr().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::spawn(move || server.run(&stop2));
    (addr, stop, handle)
}

#[test]
fn four_concurrent_jobs_run_under_independent_budgets() {
    let (addr, stop, server) = start_server("concurrent", 4);

    // Four clients, four jobs at once: three unlimited, one with a budget
    // so tight it must stop at its first round boundary.
    let handles: Vec<_> = (0..4u64)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let budget_ms = if i == 3 { 1 } else { 0 };
                let mut client = Client::connect(&addr, Duration::from_secs(10)).unwrap();
                client.submit(&qap_job(12, 100 + i, 4, budget_ms)).unwrap();
                wait_result(&mut client)
            })
        })
        .collect();
    let results: Vec<(JobResult, u32)> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    for (r, _) in &results[..3] {
        assert!(!r.cancelled, "unbudgeted job {} reported cancelled", r.job);
        assert_eq!(r.rounds, 4, "unbudgeted job {} stopped early", r.job);
        assert!(r.best_cost <= r.initial_cost);
    }
    let (budgeted, _) = &results[3];
    assert!(budgeted.cancelled, "1ms budget must stop the job early");
    assert!(
        budgeted.rounds < 4,
        "budgeted job completed all rounds anyway"
    );

    stop.store(true, Ordering::Release);
    server.join().unwrap();
}

#[test]
fn a_client_announcing_a_frame_past_the_cap_is_disconnected() {
    // A length prefix past the frame cap is refused before anything is
    // allocated for it, and the server hangs up rather than wait for a
    // body of 4 GiB.
    use std::io::{Read, Write};
    let (addr, stop, server) = start_server("overcap", 1);
    let path = addr.strip_prefix("unix:").expect("a unix address");
    let mut raw = std::os::unix::net::UnixStream::connect(path).unwrap();
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let got = raw.read(&mut [0u8; 1]);
    assert_eq!(got.ok(), Some(0), "the server must end the connection");
    stop.store(true, Ordering::Release);
    server.join().unwrap();
}

#[test]
fn a_frame_the_server_cannot_act_on_gets_an_error_for_job_0() {
    // A frame of another protocol version, as a client of an earlier
    // build sends, of an unknown kind, or a cancel without a job id gets
    // an ERROR naming no job instead of silence, and the connection
    // stays open for the next.
    use parallel_tabu_search::core::serve::{kind, SERVE_VERSION};
    use parallel_tabu_search::core::wire;
    use std::os::unix::net::UnixStream;
    /// Send one frame body; return the reply's kind, job and the rest.
    fn exchange(raw: &mut UnixStream, body: &[u8]) -> (u8, u32, Vec<u8>) {
        wire::write_frame(raw, body).unwrap();
        let reply = wire::read_frame(raw)
            .expect("a reply before the read timeout")
            .expect("the connection stays open");
        assert_eq!(reply[0], SERVE_VERSION);
        let job = u32::from_le_bytes(reply[2..6].try_into().unwrap());
        (reply[1], job, reply[6..].to_vec())
    }
    let (addr, stop, server) = start_server("unreadable", 1);
    let path = addr.strip_prefix("unix:").expect("a unix address");
    let mut raw = UnixStream::connect(path).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let submit = |version: u8, k: u8| {
        let mut body = vec![version, k];
        body.extend_from_slice(&qap_job(8, 1, 1, 0).encode());
        body
    };
    for (body, reason) in [
        (submit(SERVE_VERSION + 1, kind::SUBMIT), "version"),
        (submit(SERVE_VERSION, 0x7f), "kind 0x7f"),
        (vec![SERVE_VERSION, kind::CANCEL], "cancel"),
    ] {
        let (k, job, message) = exchange(&mut raw, &body);
        assert_eq!((k, job), (kind::ERROR, 0));
        let message = String::from_utf8_lossy(&message[4..]);
        assert!(message.contains(reason), "got: {message}");
    }
    let (k, job, _) = exchange(&mut raw, &submit(SERVE_VERSION, kind::SUBMIT));
    assert_eq!(k, kind::ACCEPTED);
    assert!(job > 0);
    drop(raw);
    stop.store(true, Ordering::Release);
    server.join().unwrap();
}

#[test]
fn a_budget_counts_the_time_a_job_waits_in_the_queue() {
    // One runner, held by a long job: a budgeted job queued behind it
    // spends its whole budget waiting. The budget runs from submission,
    // so the job must come back cancelled having run at most one round —
    // not start a fresh budget when it finally launches.
    let (addr, stop, server) = start_server("queued-budget", 1);

    let mut long_client = Client::connect(&addr, Duration::from_secs(10)).unwrap();
    long_client.submit(&qap_job(16, 1, 50_000, 0)).unwrap();
    let long_id = match long_client.next_event().unwrap() {
        Some(ServeEvent::Accepted { job }) => job,
        other => panic!("expected Accepted, got {other:?}"),
    };
    loop {
        match long_client.next_event().unwrap() {
            Some(ServeEvent::Progress { job, .. }) if job == long_id => break,
            Some(_) => {}
            None => panic!("stream closed while waiting for progress"),
        }
    }

    let mut client = Client::connect(&addr, Duration::from_secs(10)).unwrap();
    client.submit(&qap_job(12, 2, 1_000, 200)).unwrap();
    std::thread::sleep(Duration::from_millis(600));
    long_client.cancel(long_id).unwrap();
    let (long_result, _) = wait_result(&mut long_client);
    assert!(
        long_result.cancelled,
        "cancel must mark the long job cancelled"
    );

    let (queued, _) = wait_result(&mut client);
    assert!(
        queued.cancelled,
        "a job whose budget ran out in the queue must come back cancelled"
    );
    assert!(
        queued.rounds <= 1,
        "the queued job ran {} rounds on a spent budget",
        queued.rounds
    );

    stop.store(true, Ordering::Release);
    server.join().unwrap();
}

#[test]
fn cancelling_one_job_leaves_the_others_untouched() {
    let (addr, stop, server) = start_server("cancel", 2);

    // A long job (hundreds of rounds) and a short one, running
    // concurrently on separate connections.
    let mut long_client = Client::connect(&addr, Duration::from_secs(10)).unwrap();
    long_client.submit(&qap_job(16, 1, 500, 0)).unwrap();
    let long_id = match long_client.next_event().unwrap() {
        Some(ServeEvent::Accepted { job }) => job,
        other => panic!("expected Accepted, got {other:?}"),
    };

    let short = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr, Duration::from_secs(10)).unwrap();
            client.submit(&qap_job(10, 2, 3, 0)).unwrap();
            wait_result(&mut client)
        })
    };

    // Cancel the long job only once it is demonstrably mid-run.
    loop {
        match long_client.next_event().unwrap() {
            Some(ServeEvent::Progress { job, .. }) if job == long_id => break,
            Some(_) => {}
            None => panic!("stream closed while waiting for progress"),
        }
    }
    long_client.cancel(long_id).unwrap();
    let (long_result, _) = wait_result(&mut long_client);
    assert!(long_result.cancelled, "cancel must mark the job cancelled");
    assert!(
        long_result.rounds < 500,
        "cancelled job ran all 500 rounds ({} reported)",
        long_result.rounds
    );

    let (short_result, _) = short.join().unwrap();
    assert!(
        !short_result.cancelled,
        "cancelling job {long_id} must not touch job {}",
        short_result.job
    );
    assert_eq!(short_result.rounds, 3);

    stop.store(true, Ordering::Release);
    server.join().unwrap();
}

/// Worker-rank processes spawned (transitively) by daemon `pid`: their
/// cmdline names a router socket `pts-<pid>-<n>.sock`.
fn workers_of(pid: u32) -> Vec<u32> {
    let tag = format!("pts-{pid}-");
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let Ok(cmd) = std::fs::read(format!("/proc/{name}/cmdline")) else {
            continue;
        };
        let cmd = String::from_utf8_lossy(&cmd).replace('\0', " ");
        if cmd.contains("__pts-worker") && cmd.contains(&tag) {
            out.push(name.parse().unwrap());
        }
    }
    out
}

// SIGTERM delivery without a libc dependency — same offline-FFI precedent
// as `pts_util::cputime` and the serve module's signal handler.
extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

/// Spawn the real daemon, return (child, its advertised address).
fn spawn_daemon(name: &str) -> (std::process::Child, String) {
    spawn_daemon_env(name, &[])
}

/// Like [`spawn_daemon`], with extra CLI arguments after the standard
/// ones (e.g. `--heartbeat-ms`).
fn spawn_daemon_args(name: &str, extra_args: &[&str]) -> (std::process::Child, String) {
    spawn_daemon_full(name, extra_args, &[])
}

/// Like [`spawn_daemon`], with extra environment variables set on the
/// daemon (inherited by its worker processes). Chaos knobs go through
/// here so they stay scoped to one daemon — never `set_var` in a test
/// binary whose tests run in parallel.
fn spawn_daemon_env(name: &str, envs: &[(&str, String)]) -> (std::process::Child, String) {
    spawn_daemon_full(name, &[], envs)
}

fn spawn_daemon_full(
    name: &str,
    extra_args: &[&str],
    envs: &[(&str, String)],
) -> (std::process::Child, String) {
    let sock =
        std::env::temp_dir().join(format!("pts-serve-bin-{}-{name}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pts-serve"));
    cmd.args(["serve", "--sock"])
        .arg(&sock)
        .args(["--max-concurrent", "2"])
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("spawn pts-serve");
    let mut addr = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut addr)
        .expect("daemon prints its address");
    (child, addr.trim().to_string())
}

#[test]
fn killed_client_gets_its_jobs_cancelled_and_workers_reaped() {
    let (mut daemon, addr) = spawn_daemon("killclient");
    let pid = daemon.id();

    {
        let mut client = Client::connect(&addr, Duration::from_secs(10)).unwrap();
        client.submit(&qap_job(16, 5, 500, 0)).unwrap();
        // Wait until the job is running (workers spawned), then die
        // without so much as a goodbye: dropping the client closes the
        // socket abruptly, exactly what a killed client process does to
        // the daemon.
        loop {
            match client.next_event().unwrap() {
                Some(ServeEvent::Progress { .. }) => break,
                Some(_) => {}
                None => panic!("stream closed early"),
            }
        }
        assert!(
            !workers_of(pid).is_empty(),
            "job should have live worker processes mid-run"
        );
    }

    // The daemon must cancel the orphaned job and reap its workers while
    // continuing to serve. Allow the round in flight to finish.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !workers_of(pid).is_empty() {
        assert!(
            std::time::Instant::now() < deadline,
            "worker processes still alive 30s after their client vanished: {:?}",
            workers_of(pid)
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // Still serving: a fresh client gets a full run.
    let mut client = Client::connect(&addr, Duration::from_secs(10)).unwrap();
    client.submit(&qap_job(10, 6, 2, 0)).unwrap();
    let (r, _) = wait_result(&mut client);
    assert!(!r.cancelled);

    unsafe { kill(pid as i32, SIGTERM) };
    let status = daemon.wait().unwrap();
    assert!(status.success(), "daemon exited uncleanly: {status:?}");
}

#[test]
fn sigterm_drains_jobs_and_leaves_no_orphans() {
    let (mut daemon, addr) = spawn_daemon("sigterm");
    let pid = daemon.id();

    let mut client = Client::connect(&addr, Duration::from_secs(10)).unwrap();
    client.submit(&qap_job(16, 7, 500, 0)).unwrap();
    loop {
        match client.next_event().unwrap() {
            Some(ServeEvent::Progress { .. }) => break,
            Some(_) => {}
            None => panic!("stream closed early"),
        }
    }

    unsafe { kill(pid as i32, SIGTERM) };
    let status = daemon.wait().unwrap();
    assert!(status.success(), "daemon exited uncleanly: {status:?}");
    assert!(
        workers_of(pid).is_empty(),
        "daemon exited but left worker processes: {:?}",
        workers_of(pid)
    );
}

#[test]
fn a_client_that_stops_reading_cannot_wedge_the_sigterm_drain() {
    // The client submits a long job and never reads again. The wedge
    // shows only once the unread progress frames fill the socket's send
    // buffer, so the buffer must fill before SIGTERM: 50,000 rounds are
    // more frames than any send buffer holds, and the 3 s wait below is
    // thousands of rounds (about 2,000 a second on two cores), far more
    // than a default buffer holds. The runner's blocked write must then
    // time out, count the client as disconnected and cancel its job, so
    // SIGTERM still ends the daemon.
    let (mut daemon, addr) = spawn_daemon("stalled");
    let pid = daemon.id();
    let mut client = Client::connect(&addr, Duration::from_secs(10)).unwrap();
    client.submit(&qap_job(16, 8, 50_000, 0)).unwrap();
    let spawn_deadline = Instant::now() + Duration::from_secs(10);
    while workers_of(pid).is_empty() && Instant::now() < spawn_deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_secs(3));

    unsafe { kill(pid as i32, SIGTERM) };
    let deadline = Instant::now() + Duration::from_secs(15);
    let status = loop {
        if let Some(status) = daemon.try_wait().unwrap() {
            break Some(status);
        }
        if Instant::now() >= deadline {
            break None;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let Some(status) = status else {
        let _ = daemon.kill();
        let _ = daemon.wait();
        for worker in workers_of(pid) {
            unsafe { kill(worker as i32, SIGKILL) };
        }
        panic!("daemon still alive 15 s after SIGTERM: a client that stopped reading wedged it");
    };
    drop(client);
    assert!(status.success(), "daemon exited uncleanly: {status:?}");
    assert!(
        workers_of(pid).is_empty(),
        "daemon exited but left worker processes: {:?}",
        workers_of(pid)
    );
}

#[test]
fn daemon_default_heartbeat_is_armed_and_overridable() {
    // The daemon arms a conservative liveness default for jobs that did
    // not set their own heartbeat (`qap_job` leaves `heartbeat_ms` at the
    // library default of 0, the field the daemon rewrites). A healthy job
    // must complete identically under the armed default, an explicit
    // override, and `--heartbeat-ms 0` (beacons back off, the library
    // behaviour). The crash-retry tests above are what prove liveness
    // detection fires when workers actually die; this pins the daemon's
    // *defaulting* seam end-to-end through the real binary's CLI.
    for (name, args) in [
        ("hb-default", &[][..]),
        ("hb-explicit", &["--heartbeat-ms", "125"][..]),
        ("hb-off", &["--heartbeat-ms", "0"][..]),
    ] {
        let (mut daemon, addr) = spawn_daemon_args(name, args);
        let pid = daemon.id();
        let mut client = Client::connect(&addr, Duration::from_secs(10)).unwrap();
        client.submit(&qap_job(10, 31, 3, 0)).unwrap();
        let (r, _) = wait_result(&mut client);
        assert!(!r.cancelled, "{name}: healthy job reported cancelled");
        assert_eq!(r.rounds, 3, "{name}: healthy job stopped early");
        unsafe { kill(pid as i32, SIGTERM) };
        let status = daemon.wait().unwrap();
        assert!(
            status.success(),
            "{name}: daemon exited uncleanly: {status:?}"
        );
        assert!(
            workers_of(pid).is_empty(),
            "{name}: daemon left worker processes: {:?}",
            workers_of(pid)
        );
    }
}

#[test]
fn crashed_attempt_is_retried_and_other_jobs_are_untouched() {
    // One crash, total: the first worker process to win the token file
    // aborts right after its handshake; every later attempt runs clean.
    let token =
        std::env::temp_dir().join(format!("pts-serve-retry-once-{}.token", std::process::id()));
    let _ = std::fs::remove_file(&token);
    let (mut daemon, addr) = spawn_daemon_env(
        "retryonce",
        &[
            ("PTS_CHAOS_CRASH_RANKS", "1".into()),
            ("PTS_CHAOS_CRASH_ONCE", token.display().to_string()),
        ],
    );
    let pid = daemon.id();

    // Job A: its first attempt loses rank 1 and must be retried.
    let mut a = Client::connect(&addr, Duration::from_secs(10)).unwrap();
    let mut req = qap_job(10, 21, 3, 0);
    req.max_restarts = 2;
    a.submit(&req).unwrap();

    // The client must see the retry announced before any result.
    let restart = loop {
        match a.next_event().unwrap() {
            Some(ServeEvent::Retrying { attempt, .. }) => break attempt,
            Some(ServeEvent::Error { job, message }) => {
                panic!("job {job} failed instead of retrying: {message}")
            }
            Some(ServeEvent::Result(r)) => panic!("result before any retry: {r:?}"),
            Some(_) => {}
            None => panic!("stream closed before the retry"),
        }
    };
    assert_eq!(restart, 1, "first restart should be announced as #1");

    // Job B, submitted after the crash token is spent, must be
    // completely unaffected by A's retry.
    let mut b = Client::connect(&addr, Duration::from_secs(10)).unwrap();
    b.submit(&qap_job(10, 22, 3, 0)).unwrap();
    let (rb, _) = wait_result(&mut b);
    assert!(!rb.cancelled, "job B was disturbed by job A's retry");
    assert_eq!(rb.rounds, 3);

    // A's second attempt runs clean.
    let (ra, _) = wait_result(&mut a);
    assert!(!ra.cancelled, "retried job should finish cleanly");
    assert_eq!(ra.rounds, 3);

    unsafe { kill(pid as i32, SIGTERM) };
    let status = daemon.wait().unwrap();
    assert!(status.success(), "daemon exited uncleanly: {status:?}");
    assert!(
        workers_of(pid).is_empty(),
        "retry path left worker processes: {:?}",
        workers_of(pid)
    );
    let _ = std::fs::remove_file(&token);
}

#[test]
fn restart_budget_exhausts_to_a_final_error() {
    // No token: rank 1 aborts on every attempt, so the restart budget
    // runs dry and the job must fail — loudly, not with a shrug.
    let (mut daemon, addr) =
        spawn_daemon_env("retryexhaust", &[("PTS_CHAOS_CRASH_RANKS", "1".into())]);
    let pid = daemon.id();

    let mut client = Client::connect(&addr, Duration::from_secs(10)).unwrap();
    let mut req = qap_job(10, 23, 2, 0);
    req.max_restarts = 2;
    client.submit(&req).unwrap();

    let mut restarts = Vec::new();
    let error = loop {
        match client.next_event().unwrap() {
            Some(ServeEvent::Retrying { attempt, .. }) => restarts.push(attempt),
            Some(ServeEvent::Error { message, .. }) => break message,
            Some(ServeEvent::Result(r)) => panic!("exhausted job delivered a result: {r:?}"),
            Some(_) => {}
            None => panic!("stream closed before the final error"),
        }
    };
    assert_eq!(restarts, vec![1, 2], "every restart must be announced");
    assert!(
        error.contains("restart budget exhausted"),
        "error should name the exhausted budget, got: {error}"
    );

    unsafe { kill(pid as i32, SIGTERM) };
    let status = daemon.wait().unwrap();
    assert!(status.success(), "daemon exited uncleanly: {status:?}");
    assert!(
        workers_of(pid).is_empty(),
        "exhausted retries left worker processes: {:?}",
        workers_of(pid)
    );
}
