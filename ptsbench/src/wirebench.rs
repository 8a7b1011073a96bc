//! Wire codec microbench: `encode_msg` / `decode_msg` on Report and
//! Broadcast messages the bench builds from the workload's own instance,
//! with the snapshot both as a delta against the initial solution and in
//! full.

use crate::calib::Calibrator;
use crate::stats::median;
use pts_core::domain::{DeltaSnapshot, PtsDomain, SnapshotOf};
use pts_core::messages::{PtsMsg, SnapshotPayload, TabuPayload};
use pts_core::wire::{decode_msg, encode_msg, WireProblem};
use pts_tabu::search::SearchStats;
use pts_tabu::{SearchProblem, TracePoint};
use pts_util::Rng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Moves between the initial solution and the messages' solution: about
/// one round of a TSW's accepted compound moves.
const MOVES: usize = 24;
/// Timed passes over the message set; the median is reported.
const PASSES: usize = 7;
/// Minimum encoded kilobytes per timed pass.
const KB_PER_PASS: f64 = 16384.0;

/// Calibrated codec cost.
pub struct CodecCost {
    /// Nanoseconds per encoded kilobyte.
    pub encode_ns_per_kb: f64,
    /// Nanoseconds per decoded kilobyte.
    pub decode_ns_per_kb: f64,
}

fn messages<D: PtsDomain>(frozen: &D, initial: &SnapshotOf<D>, seed: u64) -> Vec<PtsMsg<D::Problem>>
where
    D::Problem: WireProblem,
{
    let mut problem = frozen.instantiate(initial);
    let mut rng = Rng::new(seed);
    let mut tabu = Vec::with_capacity(2 * MOVES);
    for i in 0..MOVES {
        let mv = problem.sample_move(&mut rng, None);
        let (a, b) = problem.attributes(&mv);
        tabu.push((a, 7 + i as u64));
        if let Some(b) = b {
            tabu.push((b, 7 + i as u64));
        }
        problem.apply(&mv);
    }
    let cost = problem.cost();
    let base = initial.clone();
    let best = Arc::new(problem.snapshot());
    let delta = Arc::new(<SnapshotOf<D> as DeltaSnapshot>::diff(&base, &best));
    let tabu = Arc::new(tabu);
    let trace: Vec<TracePoint> = (0..8)
        .map(|i| TracePoint {
            time: 0.01 * i as f64,
            iter: 10 * i as u64,
            best_cost: cost + (8 - i) as f64,
        })
        .collect();
    let payloads = [
        SnapshotPayload::Delta { base_seq: 0, delta },
        SnapshotPayload::Full(best),
    ];
    let mut msgs = Vec::new();
    for snapshot in payloads {
        msgs.push(PtsMsg::Report {
            tsw: 1,
            global: 3,
            cost,
            snapshot: snapshot.clone(),
            tabu: Arc::clone(&tabu),
            trace: trace.clone(),
            stats: SearchStats::default(),
        });
        msgs.push(PtsMsg::Broadcast {
            global: 3,
            snapshot,
            tabu: TabuPayload::Full(Arc::clone(&tabu)),
            strategy: 0,
        });
    }
    msgs
}

/// Time the codec on the message set; `Err` when a decoded message does
/// not re-encode to the same bytes.
pub fn measure<D: PtsDomain>(
    cal: &Calibrator,
    frozen: &D,
    initial: &SnapshotOf<D>,
    seed: u64,
) -> Result<CodecCost, String>
where
    D::Problem: WireProblem,
{
    let msgs = messages(frozen, initial, seed);
    let ctx = <D::Problem as WireProblem>::ctx_of(initial);
    let frames: Vec<Vec<u8>> = msgs.iter().map(|m| encode_msg(m, 2)).collect();
    for frame in &frames {
        let (dst, msg) =
            decode_msg::<D::Problem>(frame, &ctx).map_err(|e| format!("wire decode: {e}"))?;
        if dst != 2 || encode_msg(&msg, dst) != *frame {
            return Err("wire codec: decoded message does not re-encode identically".into());
        }
    }
    let set_kb = frames.iter().map(|f| f.len()).sum::<usize>() as f64 / 1024.0;
    let reps = (KB_PER_PASS / set_kb).ceil() as usize;
    let mut encode = Vec::with_capacity(PASSES);
    let mut decode = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let c = cal.factor(0.0);
        let start = Instant::now();
        for _ in 0..reps {
            for m in &msgs {
                black_box(encode_msg(black_box(m), 2));
            }
        }
        encode.push(start.elapsed().as_secs_f64() * c.factor * 1e9 / (reps as f64 * set_kb));
        let c = cal.factor(0.0);
        let start = Instant::now();
        for _ in 0..reps {
            for f in &frames {
                let decoded = decode_msg::<D::Problem>(black_box(f), &ctx);
                black_box(decoded.is_ok());
            }
        }
        decode.push(start.elapsed().as_secs_f64() * c.factor * 1e9 / (reps as f64 * set_kb));
    }
    Ok(CodecCost {
        encode_ns_per_kb: median(&mut encode),
        decode_ns_per_kb: median(&mut decode),
    })
}
