//! Wire-codec properties: the explicit byte codec in `pts_core::wire` must
//! (a) invert itself on every message variant for both shipped domains,
//! and (b) encode every message at *exactly* the byte count the
//! [`PtsMsg::wire_size`] model charges — `wire_size` is the codec's model,
//! and the virtual-time engines' pinned timelines depend on it. The only
//! bytes a socket carries beyond `wire_size` are the
//! [`wire::FRAME_LEN_BYTES`] length prefix.
//!
//! Identity is checked at the byte level: `encode(decode(encode(m)))`
//! must equal `encode(m)`. Encoding is deterministic and injective per
//! field, so byte identity catches any lossy or misaligned field without
//! requiring `PartialEq` on message payloads (which hold `Arc`s).

use parallel_tabu_search::core::wire::{self, decode_msg, encode_msg, WireError, WireProblem};
use parallel_tabu_search::core::{
    PlacementDelta, PlacementProblem, PtsConfig, PtsMsg, QapDelta, SnapshotPayload, TabuPayload,
};
use parallel_tabu_search::netlist::by_name;
use parallel_tabu_search::place::init::random_placement;
use parallel_tabu_search::tabu::qap::{Qap, QapAssignment};
use parallel_tabu_search::tabu::search::SearchStats;
use parallel_tabu_search::tabu::TracePoint;
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic permutation of `0..n` — QAP snapshots must be
/// assignments, i.e. bijections.
fn perm(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut s = seed | 1;
    for i in (1..n).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        v.swap(i, (s >> 33) as usize % (i + 1));
    }
    v
}

/// Encode → decode → re-encode; assert byte identity, the model-size pin,
/// and the destination the header carries.
fn check_roundtrip<P: WireProblem>(msg: &PtsMsg<P>, dst: u32, ctx: &P::Ctx) {
    let buf = encode_msg(msg, dst);
    // The model pin: encoded body length is exactly wire_size().
    prop_assert_eq!(buf.len() as u64, msg.wire_size());
    // A socket frame only adds the length prefix.
    let mut framed = Vec::new();
    wire::write_frame(&mut framed, &buf).unwrap();
    prop_assert_eq!(framed.len(), buf.len() + wire::FRAME_LEN_BYTES);

    let (got_dst, decoded) = match decode_msg::<P>(&buf, ctx) {
        Ok(pair) => pair,
        Err(e) => panic!("decode {}: {e}", msg.tag()),
    };
    prop_assert_eq!(got_dst, dst);
    prop_assert_eq!(decoded.tag(), msg.tag());
    let again = encode_msg(&decoded, dst);
    prop_assert_eq!(&again, &buf, "{} re-encodes differently", msg.tag());
}

#[allow(clippy::too_many_arguments)]
fn qap_msg(
    variant: u8,
    n: usize,
    seed: u64,
    global: u32,
    seq: u64,
    cost: f64,
    tabu: Vec<((u32, u32), u64)>,
    trace: Vec<(f64, u64, f64)>,
    moves: Vec<(usize, usize)>,
    stats: [u64; 5],
    use_delta: bool,
) -> PtsMsg<Qap> {
    let snapshot = Arc::new(QapAssignment::new(perm(n, seed)));
    let payload = if use_delta {
        SnapshotPayload::Delta {
            base_seq: global,
            delta: Arc::new(QapDelta::new(
                moves.iter().map(|&(a, b)| (a as u32, b as u32)).collect(),
            )),
        }
    } else {
        SnapshotPayload::Full(Arc::clone(&snapshot))
    };
    let tabu = Arc::new(tabu);
    // Broadcast-shaped messages carry the list in a `TabuPayload`.
    let tabu_payload = TabuPayload::Full(Arc::clone(&tabu));
    let trace: Vec<TracePoint> = trace
        .into_iter()
        .map(|(time, iter, best_cost)| TracePoint {
            time,
            iter,
            best_cost,
        })
        .collect();
    let stats = SearchStats {
        iterations: stats[0],
        accepted: stats[1],
        rejected_tabu: stats[2],
        aspirated: stats[3],
        improved_best: stats[4],
    };
    // Strategy ids are ordinary wire fields since v2 — derive them from
    // the generated inputs so the roundtrip exercises non-zero values.
    let strategy = (seed % 251) as u8;
    match variant {
        0 => PtsMsg::Init { snapshot },
        1 => PtsMsg::Broadcast {
            global,
            snapshot: payload,
            tabu: tabu_payload,
            strategy,
        },
        2 => PtsMsg::ForceReport { global },
        3 => PtsMsg::Report {
            tsw: n,
            global,
            cost,
            snapshot: payload,
            tabu,
            trace,
            stats,
        },
        4 => PtsMsg::GroupReport {
            shard: n,
            global,
            cost,
            snapshot: payload,
            tabu,
            trace,
            stats,
            forced: seq,
        },
        6 => PtsMsg::AdoptState {
            seq: global,
            snapshot: payload,
        },
        7 => PtsMsg::Investigate { seq, strategy },
        8 => PtsMsg::CutShort { seq },
        9 => PtsMsg::Proposal {
            clw: n,
            seq,
            moves,
            cost,
        },
        10 => PtsMsg::ApplyMoves { moves },
        11 => PtsMsg::Down { rank: n },
        _ => PtsMsg::Stop,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn qap_codec_is_identity_at_model_size(
        variant in 0u8..13,
        n in 2usize..12,
        seed in any::<u64>(),
        dst in 0u32..1024,
        global in 0u32..100_000,
        seq in any::<u64>(),
        cost in -1.0e9f64..1.0e9,
        tabu in proptest::collection::vec(((0u32..64, 0u32..64), 0u64..1_000_000), 0..6),
        trace in proptest::collection::vec(
            (0.0f64..1.0e4, 0u64..1_000_000, -1.0e6f64..1.0e6), 0..5),
        moves in proptest::collection::vec((0usize..64, 0usize..64), 0..5),
        stats_seed in 0u64..1_000_000,
        use_delta in any::<bool>(),
    ) {
        let stats = [stats_seed, stats_seed / 2, stats_seed / 3, stats_seed / 5, stats_seed / 7];
        let msg = qap_msg(
            variant, n, seed, global, seq, cost, tabu, trace, moves, stats, use_delta,
        );
        check_roundtrip::<Qap>(&msg, dst, &());
    }

    #[test]
    fn placement_codec_is_identity_at_model_size(
        variant in 0u8..13,
        seed in any::<u64>(),
        dst in 0u32..1024,
        global in 0u32..100_000,
        seq in any::<u64>(),
        cost in 0.0f64..10.0,
        tabu in proptest::collection::vec(((0u32..64, 0u32..64), 0u64..1_000_000), 0..6),
        trace in proptest::collection::vec(
            (0.0f64..1.0e4, 0u64..1_000_000, 0.0f64..10.0), 0..5),
        moves in proptest::collection::vec((0u32..56, 0u32..56), 0..5),
        use_delta in any::<bool>(),
    ) {
        // A placement snapshot must be a bijection of cells onto slots —
        // generate real placements of the paper's smallest benchmark.
        let netlist = by_name("highway").unwrap();
        let placement = random_placement(&netlist, seed);
        let ctx = <PlacementProblem as WireProblem>::ctx_of(&placement);
        let snapshot = Arc::new(placement);
        let payload = if use_delta {
            SnapshotPayload::Delta {
                base_seq: global,
                delta: Arc::new(PlacementDelta::new(
                    moves
                        .iter()
                        .map(|&(c, s)| (
                            parallel_tabu_search::netlist::CellId(c),
                            parallel_tabu_search::place::SlotId(s),
                        ))
                        .collect(),
                )),
            }
        } else {
            SnapshotPayload::Full(Arc::clone(&snapshot))
        };
        let tabu = Arc::new(tabu);
        let tabu_payload = TabuPayload::Full(Arc::clone(&tabu));
        let trace_points: Vec<TracePoint> = trace
            .iter()
            .map(|&(time, iter, best_cost)| TracePoint { time, iter, best_cost })
            .collect();
        let stats = SearchStats { iterations: seq % 1000, ..SearchStats::default() };
        let swap_moves: Vec<(parallel_tabu_search::netlist::CellId, parallel_tabu_search::netlist::CellId)> =
            moves
                .iter()
                .map(|&(a, b)| (
                    parallel_tabu_search::netlist::CellId(a),
                    parallel_tabu_search::netlist::CellId(b),
                ))
                .collect();
        let strategy = (seed % 251) as u8;
        let msg: PtsMsg<PlacementProblem> = match variant {
            0 => PtsMsg::Init { snapshot },
            1 => PtsMsg::Broadcast { global, snapshot: payload, tabu: tabu_payload, strategy },
            2 => PtsMsg::ForceReport { global },
            3 => PtsMsg::Report {
                tsw: 3, global, cost, snapshot: payload, tabu,
                trace: trace_points, stats,
            },
            4 => PtsMsg::GroupReport {
                shard: 2, global, cost, snapshot: payload, tabu,
                trace: trace_points, stats, forced: seq,
            },
            6 => PtsMsg::AdoptState { seq: global, snapshot: payload },
            7 => PtsMsg::Investigate { seq, strategy },
            8 => PtsMsg::CutShort { seq },
            9 => PtsMsg::Proposal { clw: 1, seq, moves: swap_moves, cost },
            10 => PtsMsg::ApplyMoves { moves: swap_moves },
            11 => PtsMsg::Down { rank: 7 },
            _ => PtsMsg::Stop,
        };
        check_roundtrip::<PlacementProblem>(&msg, dst, &ctx);
    }

    #[test]
    fn any_wrong_version_byte_is_a_typed_mismatch(
        variant in 0u8..13,
        n in 2usize..12,
        seed in any::<u64>(),
        dst in 0u32..1024,
    ) {
        // A frame stamped with any version but this codec's must fail
        // decoding with the typed error — never a garbage decode, never a
        // panic. Every other version byte is tried.
        let msg = qap_msg(
            variant, n, seed, 1, 2, 0.5, vec![], vec![], vec![], [0; 5], false,
        );
        let buf = encode_msg(&msg, dst);
        for got in (0..=u8::MAX).filter(|&v| v != wire::WIRE_VERSION) {
            let mut buf = buf.clone();
            buf[0] = got;
            let want = WireError::VersionMismatch { got, want: wire::WIRE_VERSION };
            prop_assert_eq!(decode_msg::<Qap>(&buf, &()).err(), Some(want));
        }
    }

    #[test]
    fn saturating_narrowings_are_stable(
        tenure in any::<u64>(),
        iter in any::<u64>(),
    ) {
        // Fields wider in memory than on the wire (tenure, trace iter)
        // narrow saturating — and the narrowed message must re-encode to
        // the same bytes (the codec is idempotent past the first hop).
        let msg: PtsMsg<Qap> = PtsMsg::Report {
            tsw: usize::MAX,
            global: 1,
            cost: 0.5,
            snapshot: SnapshotPayload::Full(Arc::new(QapAssignment::new(perm(4, 9)))),
            tabu: Arc::new(vec![((1, 2), tenure)]),
            trace: Vec::from([TracePoint { time: 1.0, iter, best_cost: 0.5 }]),
            stats: SearchStats::default(),
        };
        check_roundtrip::<Qap>(&msg, 0, &());
    }
}

/// FNV-1a over a byte string: a stable fingerprint for pinning frames.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn broadcast_frames_and_the_default_config_block_match_pinned_bytes() {
    // Broadcasts carry the full tabu list: these frames must stay byte
    // for byte what the codec writes, and the config block its one slot
    // per field. One Broadcast per snapshot payload kind, then
    // `put_config` of the default config. The message layout has not
    // moved since version 3: with that version byte, each broadcast
    // frame is the one version 3 wrote.
    let v3_pins = [0x55a8_a671_3a2e_31e6, 0xe3c8_fc67_acc8_d16e];
    let snapshot = Arc::new(QapAssignment::new(perm(8, 5)));
    let delta = Arc::new(QapDelta::new(vec![(1, 4), (4, 1)]));
    let tabu = Arc::new(vec![((0, 1), 5), ((2, 7), 3), ((4, 6), 11)]);
    let mut hashes = Vec::new();
    for payload in [
        SnapshotPayload::Full(Arc::clone(&snapshot)),
        SnapshotPayload::Delta {
            base_seq: 3,
            delta: Arc::clone(&delta),
        },
    ] {
        let broadcast: PtsMsg<Qap> = PtsMsg::Broadcast {
            global: 3,
            snapshot: payload,
            tabu: TabuPayload::Full(Arc::clone(&tabu)),
            strategy: 0,
        };
        let mut frame = encode_msg(&broadcast, 5);
        hashes.push(fnv1a(&frame));
        frame[0] = 3;
        assert_eq!(fnv1a(&frame), v3_pins[hashes.len() - 1]);
    }
    let mut config = Vec::new();
    wire::put_config(&PtsConfig::default(), &mut config);
    hashes.push(fnv1a(&config));
    assert_eq!(
        hashes,
        [
            0xf971_a98b_7d2f_cb4c,
            0x0807_5aa6_5b7c_4194,
            0xe6ff_8b3f_d3b4_98e4,
        ]
    );
}

#[test]
fn a_broadcast_marked_as_a_delta_tabu_list_is_a_typed_error() {
    // Header byte 3 of a broadcast once marked a delta-encoded tabu
    // list, and a GroupReport's once held a strategy id. Every variant
    // writes it 0, and a frame with anything else there must fail with a
    // typed error rather than decode or panic.
    for variant in [1, 4, 5] {
        let msg = qap_msg(
            variant,
            6,
            3,
            2,
            0,
            0.0,
            vec![((0, 1), 4), ((2, 3), 1)],
            vec![],
            vec![],
            [0; 5],
            false,
        );
        let mut buf = encode_msg(&msg, 1);
        assert_eq!(buf[3], 0, "{} writes byte 3 as 0", msg.tag());
        buf[3] = 1;
        assert_eq!(
            decode_msg::<Qap>(&buf, &()).err(),
            Some(WireError::Tag(1)),
            "{} with byte 3 set",
            msg.tag()
        );
    }
}

#[test]
fn a_portfolio_peers_group_report_strategy_and_rate_are_ignored() {
    // A portfolio peer once wrote a strategy id into a GroupReport's
    // header byte 3 and a quality rate into the last tail slot. A report
    // carries neither: the encoder writes both 0, and the decoder never
    // reads the tail slot, so a rate left there decodes to the same
    // report, which re-encodes to this codec's zeroed frame. Byte 3,
    // unlike the tail slot, must be 0 on decode:
    // `a_broadcast_marked_as_a_delta_tabu_list_is_a_typed_error` checks
    // that a set one is a typed error.
    let msg = qap_msg(
        4,
        6,
        3,
        2,
        5,
        7.5,
        vec![((0, 1), 4)],
        vec![(0.5, 1, 9.0), (1.5, 2, 7.5)],
        vec![],
        [3, 2, 1, 0, 1],
        false,
    );
    let buf = encode_msg(&msg, 1);
    let n = buf.len();
    assert_eq!(buf[3], 0);
    assert_eq!(buf[n - 8..], [0; 8]);
    let mut peer = buf.clone();
    peer[n - 8..].copy_from_slice(&0.25f64.to_le_bytes());
    let (dst, decoded) = decode_msg::<Qap>(&peer, &()).expect("a frame with a rate decodes");
    assert_eq!(dst, 1);
    match &decoded {
        PtsMsg::GroupReport {
            shard,
            global,
            cost,
            trace,
            forced,
            ..
        } => {
            assert_eq!((*shard, *global, *cost, *forced), (6, 2, 7.5, 5));
            let points: Vec<(f64, u64, f64)> = trace
                .iter()
                .map(|p| (p.time, p.iter, p.best_cost))
                .collect();
            assert_eq!(points, [(0.5, 1, 9.0), (1.5, 2, 7.5)]);
        }
        other => panic!("decoded {}", other.tag()),
    }
    assert_eq!(encode_msg(&decoded, 1), buf);
}

#[test]
fn a_frame_of_no_message_tag_is_a_typed_error() {
    // Tag 5 once carried a sub-master's broadcast; 13 and 14 are the
    // socket layer's heartbeat and tally, which never decode as messages.
    let msg = qap_msg(
        1,
        6,
        3,
        2,
        0,
        0.0,
        vec![((0, 1), 4)],
        vec![],
        vec![],
        [0; 5],
        false,
    );
    let buf = encode_msg(&msg, 1);
    for t in std::iter::once(5).chain(13..=u8::MAX) {
        let mut bad = buf.clone();
        bad[1] = t;
        assert_eq!(
            decode_msg::<Qap>(&bad, &()).err(),
            Some(WireError::Tag(t)),
            "tag {t}"
        );
    }
}

/// An encoded QAP-8 `Init` frame. `Qap::restore` indexes the distance
/// matrix by every entry of its assignment, so a decoded snapshot must be
/// a permutation of `0..n`; the first entry sits right after the 32-byte
/// header.
fn qap_init_frame() -> Vec<u8> {
    let qap = Qap::random(8, 3);
    let init: PtsMsg<Qap> = PtsMsg::Init {
        snapshot: Arc::new(parallel_tabu_search::tabu::SearchProblem::snapshot(&qap)),
    };
    let buf = encode_msg(&init, 0);
    assert!(decode_msg::<Qap>(&buf, &()).is_ok());
    buf
}

#[test]
fn a_qap_snapshot_entry_out_of_range_is_malformed() {
    let mut buf = qap_init_frame();
    buf[32] ^= 1 << 4;
    assert!(matches!(
        decode_msg::<Qap>(&buf, &()),
        Err(WireError::Malformed(_))
    ));
}

#[test]
fn a_qap_snapshot_with_a_repeated_entry_is_malformed() {
    let mut buf = qap_init_frame();
    buf.copy_within(40..48, 32);
    assert!(matches!(
        decode_msg::<Qap>(&buf, &()),
        Err(WireError::Malformed(_))
    ));
}

#[test]
fn non_finite_trace_times_are_malformed() {
    // The collector orders merged trace points by time, so a report whose
    // trace holds a NaN or infinite time must fail decoding rather than
    // reach the merge. Report and GroupReport share the trace decoder.
    for time in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for trace in [vec![(time, 1, 9.0)], vec![(0.5, 1, 10.0), (time, 2, 9.0)]] {
            for variant in [3, 4] {
                let msg = qap_msg(
                    variant,
                    4,
                    7,
                    1,
                    2,
                    9.0,
                    vec![],
                    trace.clone(),
                    vec![],
                    [0; 5],
                    false,
                );
                let buf = encode_msg(&msg, 0);
                assert!(
                    matches!(decode_msg::<Qap>(&buf, &()), Err(WireError::Malformed(_))),
                    "{} with trace time {time} must be malformed",
                    msg.tag()
                );
            }
        }
    }
}
