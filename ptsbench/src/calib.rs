//! Host calibration.
//!
//! The host's speed drifts by tens of percent between processes and
//! within one, and user CPU time drifts with it, so the drift is the
//! machine's, not the scheduler's. Every wall-clock sample is therefore
//! preceded by a fixed, bench-owned integer/memory loop, and reported in
//! *calibrated seconds*: raw seconds × ([`REFERENCE_S`] ÷ the loop's time
//! just before the sample). The loop never calls into the program under
//! test, so no change to the program can move it.
//!
//! One pass sorts 1 MiB of keys (branches, integer compares, streaming
//! memory) and then evaluates QAP-style swap deltas over two 256 × 256
//! tables (floating point over a 1 MiB working set). Five seeds × four
//! workloads were timed on a busy two-core host with several candidate
//! loops before each sample. This pair left the smallest spread between
//! runs' calibrated medians: 0.02–0.09 of the median, against 0.05–0.38 raw.
//! A 1 MiB or 16 MiB pointer chase, an allocation loop and a socket
//! ping-pong all did worse. Multi-process workloads are the exception:
//! see [`Calibrator::with_round_trips`].

use std::cell::RefCell;
use std::hint::black_box;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Instant;

/// One pass of the loop on the reference host (an x86-64 container on
/// two shared cores, where these workloads were sized). Calibrated seconds
/// are seconds on that host at that moment's speed.
pub const REFERENCE_S: f64 = 0.004;
/// The same, for a pass that also makes [`ROUND_TRIPS`] cross-thread
/// round trips.
pub const REFERENCE_WITH_ROUND_TRIPS_S: f64 = 0.008;
/// Socket round trips per pass, for workloads whose ranks are processes.
const ROUND_TRIPS: usize = 200;

/// 2^17 eight-byte keys: 1 MiB.
const KEYS: usize = 1 << 17;
/// Side of the two swap-delta tables.
const SIDE: usize = 256;
/// Swap deltas per pass.
const DELTAS: usize = 2500;
/// Shortest calibration, in seconds.
const MIN_CALIBRATION_S: f64 = 0.01;
/// Calibration time as a share of the sample it calibrates: a host whose
/// speed wanders over a sample is only measured well by a loop that runs
/// for a comparable stretch.
const CALIBRATION_SHARE: f64 = 0.1;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The calibration loop's fixed inputs.
pub struct Calibrator {
    /// Keys in random order, copied into `scratch` and sorted each pass.
    keys: Vec<u64>,
    scratch: RefCell<Vec<u64>>,
    /// Two `SIDE × SIDE` tables and a permutation of `0..SIDE`.
    flow: Vec<f64>,
    dist: Vec<f64>,
    loc: Vec<usize>,
    /// The far end of the round trips, when the pass makes them.
    echo: Option<RefCell<Echo>>,
    reference_s: f64,
}

/// A thread that answers every 8 bytes on a Unix socket with the same 8
/// bytes. Multi-process workloads wait on wake-ups between processes, and
/// a host whose second core is busy slows those far more than it slows
/// one thread's arithmetic; the round trips put that into the loop.
struct Echo {
    near: UnixStream,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Echo {
    fn start() -> std::io::Result<Echo> {
        let (near, mut far) = UnixStream::pair()?;
        let thread = std::thread::Builder::new()
            .name("calibration-echo".into())
            .spawn(move || {
                let mut word = [0u8; 8];
                while far.read_exact(&mut word).is_ok() {
                    if far.write_all(&word).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Echo {
            near,
            thread: Some(thread),
        })
    }

    fn round_trips(&mut self, n: usize) {
        let mut word = [7u8; 8];
        for _ in 0..n {
            self.near
                .write_all(&word)
                .and_then(|()| self.near.read_exact(&mut word))
                .expect("the echo thread answers while the calibrator lives");
        }
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        let _ = self.near.shutdown(std::net::Shutdown::Both);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Calibrator {
    /// A calibrator whose pass also makes cross-thread round trips, for
    /// workloads whose ranks are separate processes.
    pub fn with_round_trips() -> std::io::Result<Calibrator> {
        Ok(Calibrator {
            echo: Some(RefCell::new(Echo::start()?)),
            reference_s: REFERENCE_WITH_ROUND_TRIPS_S,
            ..Calibrator::new()
        })
    }

    /// Build the inputs from a fixed seed.
    pub fn new() -> Calibrator {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let keys: Vec<u64> = (0..KEYS).map(|_| xorshift(&mut x)).collect();
        let mut table = || -> Vec<f64> {
            (0..SIDE * SIDE)
                .map(|_| (xorshift(&mut x) % 1000) as f64 * 0.01)
                .collect()
        };
        let (flow, dist) = (table(), table());
        let mut loc: Vec<usize> = (0..SIDE).collect();
        for i in (1..SIDE).rev() {
            let j = (xorshift(&mut x) % i as u64) as usize;
            loc.swap(i, j);
        }
        Calibrator {
            keys,
            scratch: RefCell::new(Vec::with_capacity(KEYS)),
            flow,
            dist,
            loc,
            echo: None,
            reference_s: REFERENCE_S,
        }
    }

    /// Run one pass of the loop and return its raw wall seconds.
    fn pass(&self) -> f64 {
        let mut scratch = self.scratch.borrow_mut();
        let (f, d, l) = (&self.flow, &self.dist, &self.loc);
        let start = Instant::now();
        scratch.clear();
        scratch.extend_from_slice(&self.keys);
        scratch.sort_unstable();
        black_box(&*scratch);
        let mut acc = 0.0;
        for t in 0..DELTAS {
            let a = (t * 37) % SIDE;
            let b = (t * 101 + 7) % SIDE;
            let (la, lb) = (l[a] * SIDE, l[b] * SIDE);
            for k in 0..SIDE {
                acc += (f[a * SIDE + k] - f[b * SIDE + k]) * (d[la + l[k]] - d[lb + l[k]]);
            }
        }
        black_box(acc);
        if let Some(echo) = &self.echo {
            echo.borrow_mut().round_trips(ROUND_TRIPS);
        }
        start.elapsed().as_secs_f64()
    }

    /// Measure the host now, for a sample expected to take about
    /// `sample_s` seconds: passes run for a tenth of that (at least
    /// [`MIN_CALIBRATION_S`]), and their mean time gives the factor that
    /// turns the sample's raw seconds into calibrated seconds.
    pub fn factor(&self, sample_s: f64) -> Calibration {
        let budget = (CALIBRATION_SHARE * sample_s).max(MIN_CALIBRATION_S);
        let (mut spent, mut passes) = (0.0, 0u32);
        while spent < budget {
            spent += self.pass();
            passes += 1;
        }
        let loop_s = spent / passes as f64;
        Calibration {
            loop_s,
            factor: self.reference_s / loop_s,
        }
    }
}

/// One calibration reading.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Mean raw seconds of one pass of the loop.
    pub loop_s: f64,
    /// The reference pass time ÷ `loop_s`.
    pub factor: f64,
}
