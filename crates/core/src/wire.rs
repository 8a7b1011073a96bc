//! Explicit wire codec for [`PtsMsg`]: hand-rolled, versioned, and
//! byte-exact against the [`PtsMsg::wire_size`] model.
//!
//! Every transport before this one moved messages by Rust value (channel
//! sends, simulated mailboxes); `wire_size()` was purely an *accounting*
//! model feeding the virtual cluster's bandwidth charges. The socket
//! transport ([`crate::socket`]) finally puts messages on a real byte
//! stream, and this module is its codec — with one deliberate design
//! constraint: **an encoded message occupies exactly `wire_size()`
//! bytes**. The model is the format, not an estimate. (The golden virtual
//! timelines pinned in `tests/determinism.rs` depend on `wire_size()`, so
//! the codec was shaped to the model rather than the model to the codec.)
//! The only bytes on a socket *not* counted by `wire_size()` are the
//! 4-byte length prefix framing each message — see [`FRAME_LEN_BYTES`].
//!
//! # Message layout
//!
//! Every message starts with a 32-byte header (all integers little-endian):
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 1    | codec version: [`WIRE_VERSION`], any other is a [`WireError::VersionMismatch`] |
//! | 1      | 1    | variant tag ([`tag` constants](self)) |
//! | 2      | 1    | snapshot-payload kind: 0 none, 1 full, 2 delta |
//! | 3      | 1    | reserved: written 0, any other value is a [`WireError::Tag`] |
//! | 4      | 4    | destination rank, which nothing routes on (a sentinel on heartbeats and tallies) |
//! | 8      | 4    | origin index (`tsw` / `shard` / `clw` field; strategy id on broadcasts) |
//! | 12     | 4    | aux count (tabu entries or moves; strategy id on `Investigate`) |
//! | 16     | 8    | sequence (`global`, `seq`) |
//! | 24     | 8    | cost (`f64` bits) |
//!
//! The variant-specific body follows, sized so header + body equals
//! `wire_size()` exactly; where the model charges legacy headroom (the
//! `Init` +64 run-constant charge, `Proposal`'s +16, the `Report` /
//! `GroupReport` stat tails) the encoder emits explicit tail blocks of
//! exactly those widths. Three numeric narrowings are inherent to the
//! model's byte widths and are saturating on encode: tabu tenures
//! (`u64 → u32`), trace-point iterations (`u64 → u32`), and move/index
//! fields (`usize → u32`). All are far below the narrow limit in any real
//! run (tenures are tens, iterations bounded by `global × local` iters,
//! indices by the domain size).
//!
//! # Decode context
//!
//! Snapshots are encoded at their `wire_bytes()` density, which for some
//! domains drops run-constant structure — a [`Placement`] travels as 4
//! bytes per cell and its [`Layout`] is *not* on the wire. The
//! [`WireProblem::Ctx`] associated type carries that structure; it is
//! shipped once per connection in the rank-setup frame
//! ([`crate::proc`]), never per message.
//!
//! [`Placement`]: pts_place::placement::Placement
//! [`Layout`]: pts_place::layout::Layout

use crate::domain::{DeltaOf, PtsProblem};
use crate::messages::{
    PtsMsg, SnapshotPayload, TabuEntries, TabuPayload, DELTA_HDR_BYTES, HDR_BYTES, MOVE_BYTES,
    TABU_ENTRY_BYTES, TRACE_POINT_BYTES,
};
use pts_tabu::search::SearchStats;
use pts_tabu::trace::TracePoint;
use pts_vcluster::ProcStats;
use std::cmp::Ordering;
use std::sync::Arc;

/// Codec version stamped into every message, heartbeat, tally and setup
/// frame and every hello. A frame of any other version fails with
/// [`WireError::VersionMismatch`], and the launch barrier refuses a hello
/// of any other version: every rank of a run is the same binary.
///
/// Version history:
/// * 4 — one layout per frame: the config block ([`put_config`]) holds
///   one slot per [`crate::config::PtsConfig`] field. Earlier versions
///   are not decoded.
/// * 5 — the setup frame ends with the domain specification, after the
///   decode context and the initial solution, and the QAP specification
///   is `n` and the upper triangle of each matrix, diagonal included:
///   `8 + 8·n·(n+1)` bytes instead of `8 + 16·n²` (see `crate::proc`).
///   Message, heartbeat and tally frames keep version 4's layout.
pub const WIRE_VERSION: u8 = 5;

/// Is `v` this codec's version?
pub(crate) fn version_ok(v: u8) -> bool {
    v == WIRE_VERSION
}

/// Bytes of length prefix framing each message on a stream — the only
/// per-message wire overhead not counted by [`PtsMsg::wire_size`].
pub const FRAME_LEN_BYTES: usize = 4;

/// Largest frame body [`read_frame`] accepts, and so the largest
/// allocation a decoded frame may ask for.
const MAX_FRAME: usize = 256 << 20;

/// Variant tags (header offset 1).
mod tag {
    pub const INIT: u8 = 0;
    pub const BROADCAST: u8 = 1;
    pub const FORCE_REPORT: u8 = 2;
    pub const REPORT: u8 = 3;
    pub const GROUP_REPORT: u8 = 4;
    pub const ADOPT_STATE: u8 = 6;
    pub const INVESTIGATE: u8 = 7;
    pub const CUT_SHORT: u8 = 8;
    pub const PROPOSAL: u8 = 9;
    pub const APPLY_MOVES: u8 = 10;
    pub const STOP: u8 = 11;
    pub const DOWN: u8 = 12;
    /// Socket-layer liveness beacon. Never surfaces as a [`PtsMsg`]: the
    /// router consumes it to refresh the sender's last-seen clock, and
    /// transports drop it on read. Kept out of the protocol enum so the
    /// `wire_size` model and the virtual engines are untouched.
    pub const HEARTBEAT: u8 = 13;
    /// A rank's final frame to the router: its traffic counts
    /// ([`super::encode_tally_frame`]). Like a heartbeat it is consumed
    /// by the router.
    pub const TALLY: u8 = 14;
}

/// Why a buffer failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The frame's version byte is not the decoder's version.
    VersionMismatch {
        /// Version byte found in the frame header.
        got: u8,
        /// The version the decoder speaks: [`WIRE_VERSION`], or
        /// [`crate::serve::SERVE_VERSION`] for a client frame.
        want: u8,
    },
    /// Unknown variant tag or payload kind.
    Tag(u8),
    /// The buffer ended before the structure it claims to hold.
    Truncated,
    /// Counts/sizes in the frame are mutually inconsistent, or a field
    /// holds a value no valid message has.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::VersionMismatch { got, want } => {
                write!(f, "wire version {got} (this codec speaks {want})")
            }
            WireError::Tag(t) => write!(f, "unknown wire tag {t}"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Cursor over a received byte buffer with bounds-checked primitive reads.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consume one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Consume a little-endian `f64` (bit pattern).
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

/// Append a `u32` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its little-endian bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Saturating `usize → u32` narrowing for index fields whose model width
/// is 4 bytes.
fn narrow(v: usize) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// A problem whose protocol payloads (snapshots, deltas, moves, tabu
/// attributes) have an explicit byte encoding at exactly the densities the
/// [`PtsMsg::wire_size`] model charges.
///
/// Contract (checked by the `tests/wire_codec.rs` properties):
///
/// * `put_snapshot` emits exactly `snapshot.wire_bytes()` bytes;
/// * `put_delta` emits exactly `delta.wire_bytes()` bytes;
/// * `put_move` emits exactly 8 bytes; `put_attr` exactly 8 bytes;
/// * every `get_*` inverts its `put_*`.
pub trait WireProblem: PtsProblem {
    /// Run-constant decode context a snapshot encoding does not carry
    /// (e.g. the placement [`Layout`](pts_place::layout::Layout));
    /// shipped once per connection in the rank-setup frame, `()` when
    /// snapshots are self-describing.
    type Ctx: Clone + Send + Sync + 'static;

    /// Derive the decode context from a solution snapshot.
    fn ctx_of(snapshot: &Self::Snapshot) -> Self::Ctx;

    /// Encode the context (setup frame only; not part of any message's
    /// `wire_size` budget).
    fn put_ctx(ctx: &Self::Ctx, out: &mut Vec<u8>);

    /// Decode a context written by [`WireProblem::put_ctx`].
    fn get_ctx(r: &mut WireReader<'_>) -> Result<Self::Ctx, WireError>;

    /// Encode a snapshot at exactly `snapshot.wire_bytes()` bytes.
    fn put_snapshot(snapshot: &Self::Snapshot, out: &mut Vec<u8>);

    /// Decode a snapshot occupying exactly `nbytes` bytes.
    fn get_snapshot(
        r: &mut WireReader<'_>,
        nbytes: usize,
        ctx: &Self::Ctx,
    ) -> Result<Self::Snapshot, WireError>;

    /// Encode a delta at exactly `delta.wire_bytes()` bytes.
    fn put_delta(delta: &DeltaOf<Self>, out: &mut Vec<u8>);

    /// Decode a delta occupying exactly `nbytes` bytes.
    fn get_delta(r: &mut WireReader<'_>, nbytes: usize) -> Result<DeltaOf<Self>, WireError>;

    /// Encode one elementary move in exactly 8 bytes.
    fn put_move(mv: &Self::Move, out: &mut Vec<u8>);

    /// Decode one elementary move.
    fn get_move(r: &mut WireReader<'_>) -> Result<Self::Move, WireError>;

    /// Encode one tabu attribute in exactly 8 bytes.
    fn put_attr(attr: &Self::Attribute, out: &mut Vec<u8>);

    /// Decode one tabu attribute.
    fn get_attr(r: &mut WireReader<'_>) -> Result<Self::Attribute, WireError>;
}

impl WireProblem for pts_tabu::qap::Qap {
    /// QAP assignments are self-describing (length = bytes / 8).
    type Ctx = ();

    fn ctx_of(_snapshot: &Self::Snapshot) {}

    fn put_ctx(_ctx: &(), _out: &mut Vec<u8>) {}

    fn get_ctx(_r: &mut WireReader<'_>) -> Result<(), WireError> {
        Ok(())
    }

    fn put_snapshot(snapshot: &Self::Snapshot, out: &mut Vec<u8>) {
        for &loc in snapshot.as_slice() {
            put_u64(out, loc as u64);
        }
    }

    fn get_snapshot(
        r: &mut WireReader<'_>,
        nbytes: usize,
        _ctx: &(),
    ) -> Result<Self::Snapshot, WireError> {
        if !nbytes.is_multiple_of(8) {
            return Err(WireError::Malformed("QAP snapshot bytes not entry-aligned"));
        }
        if nbytes > r.remaining() {
            return Err(WireError::Truncated);
        }
        // An assignment must be a permutation of `0..n`: anything else
        // indexes past the distance matrix or double-books a location.
        let n = nbytes / 8;
        let mut loc_of = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        for _ in 0..n {
            let loc = usize::try_from(r.u64()?)
                .ok()
                .filter(|&l| l < n && !seen[l])
                .ok_or(WireError::Malformed("QAP snapshot is not a permutation"))?;
            seen[loc] = true;
            loc_of.push(loc);
        }
        Ok(pts_tabu::qap::QapAssignment::new(loc_of))
    }

    fn put_delta(delta: &DeltaOf<Self>, out: &mut Vec<u8>) {
        for &(facility, location) in delta.changes() {
            put_u32(out, facility);
            put_u32(out, location);
        }
    }

    fn get_delta(r: &mut WireReader<'_>, nbytes: usize) -> Result<DeltaOf<Self>, WireError> {
        if !nbytes.is_multiple_of(8) {
            return Err(WireError::Malformed("QAP delta bytes not entry-aligned"));
        }
        if nbytes > r.remaining() {
            return Err(WireError::Truncated);
        }
        let n = nbytes / 8;
        let mut changes = Vec::with_capacity(n);
        for _ in 0..n {
            changes.push((r.u32()?, r.u32()?));
        }
        Ok(crate::qap_domain::QapDelta::new(changes))
    }

    fn put_move(mv: &Self::Move, out: &mut Vec<u8>) {
        put_u32(out, narrow(mv.0));
        put_u32(out, narrow(mv.1));
    }

    fn get_move(r: &mut WireReader<'_>) -> Result<Self::Move, WireError> {
        Ok((r.u32()? as usize, r.u32()? as usize))
    }

    fn put_attr(attr: &Self::Attribute, out: &mut Vec<u8>) {
        put_u32(out, attr.0);
        put_u32(out, attr.1);
    }

    fn get_attr(r: &mut WireReader<'_>) -> Result<Self::Attribute, WireError> {
        Ok((r.u32()?, r.u32()?))
    }
}

impl WireProblem for crate::placement_problem::PlacementProblem {
    /// A placement travels as 4 bytes per cell; the grid it lives on does
    /// not fit that density, so the [`pts_place::layout::Layout`] rides
    /// the setup frame instead.
    type Ctx = pts_place::layout::Layout;

    fn ctx_of(snapshot: &Self::Snapshot) -> Self::Ctx {
        snapshot.layout().clone()
    }

    fn put_ctx(ctx: &Self::Ctx, out: &mut Vec<u8>) {
        put_u64(out, ctx.num_rows() as u64);
        put_u64(out, ctx.num_cols() as u64);
        put_f64(out, ctx.row_height());
        put_f64(out, ctx.site_pitch());
    }

    fn get_ctx(r: &mut WireReader<'_>) -> Result<Self::Ctx, WireError> {
        let rows = r.u64()? as usize;
        let cols = r.u64()? as usize;
        let row_height = r.f64()?;
        let site_pitch = r.f64()?;
        if rows == 0
            || cols == 0
            || row_height.partial_cmp(&0.0) != Some(Ordering::Greater)
            || site_pitch.partial_cmp(&0.0) != Some(Ordering::Greater)
        {
            return Err(WireError::Malformed("degenerate layout"));
        }
        // Decoding a snapshot allocates a table entry per slot, so a grid
        // must fit `u32` slot ids and a table within the frame cap.
        let slot_bytes = std::mem::size_of::<Option<pts_netlist::CellId>>();
        let fits = rows.checked_mul(cols).is_some_and(|slots| {
            u32::try_from(slots - 1).is_ok() && slots.saturating_mul(slot_bytes) <= MAX_FRAME
        });
        if !fits {
            return Err(WireError::Malformed("layout too large"));
        }
        Ok(pts_place::layout::Layout::new(
            rows, cols, row_height, site_pitch,
        ))
    }

    fn put_snapshot(snapshot: &Self::Snapshot, out: &mut Vec<u8>) {
        for c in 0..snapshot.num_cells() {
            put_u32(out, snapshot.slot_of(pts_netlist::CellId(c as u32)).0);
        }
    }

    fn get_snapshot(
        r: &mut WireReader<'_>,
        nbytes: usize,
        ctx: &Self::Ctx,
    ) -> Result<Self::Snapshot, WireError> {
        if !nbytes.is_multiple_of(4) {
            return Err(WireError::Malformed("placement bytes not slot-aligned"));
        }
        // The length is the sender's claim: check it against the bytes
        // present before reserving a slot for it.
        if nbytes > r.remaining() {
            return Err(WireError::Truncated);
        }
        let n = nbytes / 4;
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            slots.push(pts_place::layout::SlotId(r.u32()?));
        }
        pts_place::placement::Placement::from_slot_assignment(ctx.clone(), slots)
            .map_err(|_| WireError::Malformed("placement is not a bijection"))
    }

    fn put_delta(delta: &DeltaOf<Self>, out: &mut Vec<u8>) {
        for &(cell, slot) in delta.moves() {
            put_u32(out, cell.0);
            put_u32(out, slot.0);
        }
    }

    fn get_delta(r: &mut WireReader<'_>, nbytes: usize) -> Result<DeltaOf<Self>, WireError> {
        if !nbytes.is_multiple_of(8) {
            return Err(WireError::Malformed(
                "placement delta bytes not entry-aligned",
            ));
        }
        if nbytes > r.remaining() {
            return Err(WireError::Truncated);
        }
        let n = nbytes / 8;
        let mut moves = Vec::with_capacity(n);
        for _ in 0..n {
            moves.push((
                pts_netlist::CellId(r.u32()?),
                pts_place::layout::SlotId(r.u32()?),
            ));
        }
        Ok(crate::placement_problem::PlacementDelta::new(moves))
    }

    fn put_move(mv: &Self::Move, out: &mut Vec<u8>) {
        put_u32(out, mv.0 .0);
        put_u32(out, mv.1 .0);
    }

    fn get_move(r: &mut WireReader<'_>) -> Result<Self::Move, WireError> {
        Ok((pts_netlist::CellId(r.u32()?), pts_netlist::CellId(r.u32()?)))
    }

    fn put_attr(attr: &Self::Attribute, out: &mut Vec<u8>) {
        put_u32(out, attr.0);
        put_u32(out, attr.1);
    }

    fn get_attr(r: &mut WireReader<'_>) -> Result<Self::Attribute, WireError> {
        Ok((r.u32()?, r.u32()?))
    }
}

/// What the header says about the snapshot payload body.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PayloadKind {
    None,
    Full,
    Delta,
}

impl PayloadKind {
    fn of<P: PtsProblem>(p: &SnapshotPayload<P>) -> PayloadKind {
        if p.is_delta() {
            PayloadKind::Delta
        } else {
            PayloadKind::Full
        }
    }

    fn byte(self) -> u8 {
        match self {
            PayloadKind::None => 0,
            PayloadKind::Full => 1,
            PayloadKind::Delta => 2,
        }
    }

    fn from_byte(b: u8) -> Result<PayloadKind, WireError> {
        match b {
            0 => Ok(PayloadKind::None),
            1 => Ok(PayloadKind::Full),
            2 => Ok(PayloadKind::Delta),
            other => Err(WireError::Tag(other)),
        }
    }
}

#[allow(clippy::too_many_arguments)] // one parameter per fixed header field
fn put_header(
    out: &mut Vec<u8>,
    variant: u8,
    payload: PayloadKind,
    dst: u32,
    origin: u32,
    aux: u32,
    seq: u64,
    cost: f64,
) {
    out.push(WIRE_VERSION);
    out.push(variant);
    out.push(payload.byte());
    out.push(0);
    put_u32(out, dst);
    put_u32(out, origin);
    put_u32(out, aux);
    put_u64(out, seq);
    put_f64(out, cost);
}

fn put_payload<P: WireProblem>(payload: &SnapshotPayload<P>, out: &mut Vec<u8>) {
    match payload {
        SnapshotPayload::Full(s) => P::put_snapshot(s, out),
        SnapshotPayload::Delta { base_seq, delta } => {
            put_u32(out, *base_seq);
            put_u32(out, 0);
            P::put_delta(delta, out);
        }
    }
}

fn get_payload<P: WireProblem>(
    r: &mut WireReader<'_>,
    kind: PayloadKind,
    nbytes: usize,
    ctx: &P::Ctx,
) -> Result<SnapshotPayload<P>, WireError> {
    match kind {
        PayloadKind::None => Err(WireError::Malformed("snapshot-bearing message kind 0")),
        PayloadKind::Full => Ok(SnapshotPayload::Full(Arc::new(P::get_snapshot(
            r, nbytes, ctx,
        )?))),
        PayloadKind::Delta => {
            if nbytes < DELTA_HDR_BYTES as usize {
                return Err(WireError::Truncated);
            }
            let base_seq = r.u32()?;
            let _reserved = r.u32()?;
            Ok(SnapshotPayload::Delta {
                base_seq,
                delta: Arc::new(P::get_delta(r, nbytes - DELTA_HDR_BYTES as usize)?),
            })
        }
    }
}

fn put_tabu<P: WireProblem>(tabu: &TabuEntries<P>, out: &mut Vec<u8>) {
    for (attr, tenure) in tabu {
        P::put_attr(attr, out);
        put_u32(out, u32::try_from(*tenure).unwrap_or(u32::MAX));
    }
}

fn get_tabu<P: WireProblem>(r: &mut WireReader<'_>, n: usize) -> Result<TabuEntries<P>, WireError> {
    let mut tabu = Vec::with_capacity(n);
    for _ in 0..n {
        let attr = P::get_attr(r)?;
        let tenure = r.u32()? as u64;
        tabu.push((attr, tenure));
    }
    Ok(tabu)
}

fn put_trace(trace: &[TracePoint], out: &mut Vec<u8>) {
    for p in trace {
        put_f64(out, p.time);
        put_u32(out, u32::try_from(p.iter).unwrap_or(u32::MAX));
        put_f64(out, p.best_cost);
    }
}

/// Decode `n` trace points. A time that is not finite is malformed: the
/// collector orders every point by time when it merges traces.
fn get_trace(r: &mut WireReader<'_>, n: usize) -> Result<Vec<TracePoint>, WireError> {
    let mut trace = Vec::with_capacity(n);
    for _ in 0..n {
        let time = r.f64()?;
        if !time.is_finite() {
            return Err(WireError::Malformed("trace time is not finite"));
        }
        trace.push(TracePoint {
            time,
            iter: r.u32()? as u64,
            best_cost: r.f64()?,
        });
    }
    Ok(trace)
}

fn put_stats(stats: &SearchStats, out: &mut Vec<u8>) {
    put_u64(out, stats.iterations);
    put_u64(out, stats.accepted);
    put_u64(out, stats.rejected_tabu);
    put_u64(out, stats.aspirated);
    put_u64(out, stats.improved_best);
}

fn get_stats(r: &mut WireReader<'_>) -> Result<SearchStats, WireError> {
    Ok(SearchStats {
        iterations: r.u64()?,
        accepted: r.u64()?,
        rejected_tabu: r.u64()?,
        aspirated: r.u64()?,
        improved_best: r.u64()?,
    })
}

/// Encode `msg` addressed to rank `dst`. The returned buffer is exactly
/// `msg.wire_size()` bytes — the property `tests/wire_codec.rs` pins.
pub fn encode_msg<P: WireProblem>(msg: &PtsMsg<P>, dst: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(msg.wire_size() as usize);
    match msg {
        PtsMsg::Init { snapshot } => {
            put_header(&mut out, tag::INIT, PayloadKind::Full, dst, 0, 0, 0, 0.0);
            P::put_snapshot(snapshot, &mut out);
            // The model's legacy +64 charge for run-constant data that
            // historically travelled with Init; emitted as reserved bytes
            // so encoded length equals wire_size().
            out.extend_from_slice(&[0u8; 64]);
        }
        PtsMsg::Broadcast {
            global,
            snapshot,
            tabu: TabuPayload::Full(tabu),
            strategy,
        } => {
            put_header(
                &mut out,
                tag::BROADCAST,
                PayloadKind::of(snapshot),
                dst,
                *strategy as u32,
                narrow(tabu.len()),
                *global as u64,
                0.0,
            );
            put_payload(snapshot, &mut out);
            put_tabu::<P>(tabu, &mut out);
        }
        PtsMsg::ForceReport { global } => {
            put_header(
                &mut out,
                tag::FORCE_REPORT,
                PayloadKind::None,
                dst,
                0,
                0,
                *global as u64,
                0.0,
            );
        }
        PtsMsg::Report {
            tsw,
            global,
            cost,
            snapshot,
            tabu,
            trace,
            stats,
        } => {
            put_header(
                &mut out,
                tag::REPORT,
                PayloadKind::of(snapshot),
                dst,
                narrow(*tsw),
                narrow(tabu.len()),
                *global as u64,
                *cost,
            );
            put_payload(snapshot, &mut out);
            put_tabu::<P>(tabu, &mut out);
            put_trace(trace, &mut out);
            // 48-byte tail: stats (40) + tabu count + trace count.
            put_stats(stats, &mut out);
            put_u32(&mut out, narrow(tabu.len()));
            put_u32(&mut out, narrow(trace.len()));
        }
        PtsMsg::GroupReport {
            shard,
            global,
            cost,
            snapshot,
            tabu,
            trace,
            stats,
            forced,
        } => {
            put_header(
                &mut out,
                tag::GROUP_REPORT,
                PayloadKind::of(snapshot),
                dst,
                narrow(*shard),
                narrow(tabu.len()),
                *global as u64,
                *cost,
            );
            put_payload(snapshot, &mut out);
            put_tabu::<P>(tabu, &mut out);
            put_trace(trace, &mut out);
            // 64-byte tail: stats (40) + counts (8) + forced (8) +
            // reserved (8, written 0).
            put_stats(stats, &mut out);
            put_u32(&mut out, narrow(tabu.len()));
            put_u32(&mut out, narrow(trace.len()));
            put_u64(&mut out, *forced);
            put_u64(&mut out, 0);
        }
        PtsMsg::AdoptState { seq, snapshot } => {
            put_header(
                &mut out,
                tag::ADOPT_STATE,
                PayloadKind::of(snapshot),
                dst,
                0,
                0,
                *seq as u64,
                0.0,
            );
            put_payload(snapshot, &mut out);
        }
        PtsMsg::Investigate { seq, strategy } => {
            put_header(
                &mut out,
                tag::INVESTIGATE,
                PayloadKind::None,
                dst,
                0,
                *strategy as u32,
                *seq,
                0.0,
            );
        }
        PtsMsg::CutShort { seq } => {
            put_header(
                &mut out,
                tag::CUT_SHORT,
                PayloadKind::None,
                dst,
                0,
                0,
                *seq,
                0.0,
            );
        }
        PtsMsg::Proposal {
            clw,
            seq,
            moves,
            cost,
        } => {
            put_header(
                &mut out,
                tag::PROPOSAL,
                PayloadKind::None,
                dst,
                narrow(*clw),
                narrow(moves.len()),
                *seq,
                *cost,
            );
            for mv in moves {
                P::put_move(mv, &mut out);
            }
            // The model's +16 Proposal tail; reserved.
            out.extend_from_slice(&[0u8; 16]);
        }
        PtsMsg::ApplyMoves { moves } => {
            put_header(
                &mut out,
                tag::APPLY_MOVES,
                PayloadKind::None,
                dst,
                0,
                narrow(moves.len()),
                0,
                0.0,
            );
            for mv in moves {
                P::put_move(mv, &mut out);
            }
        }
        PtsMsg::Down { rank } => {
            put_header(
                &mut out,
                tag::DOWN,
                PayloadKind::None,
                dst,
                narrow(*rank),
                0,
                0,
                0.0,
            );
        }
        PtsMsg::Stop => {
            put_header(&mut out, tag::STOP, PayloadKind::None, dst, 0, 0, 0, 0.0);
        }
    }
    debug_assert_eq!(
        out.len() as u64,
        msg.wire_size(),
        "encoded {} diverges from its wire_size model",
        msg.tag()
    );
    out
}

/// Is this frame a socket-layer heartbeat? Heartbeats never decode to a
/// [`PtsMsg`]; the router and transports must drop them after noting the
/// sender is alive.
pub fn is_heartbeat(buf: &[u8]) -> bool {
    buf.len() >= 2 && version_ok(buf[0]) && buf[1] == tag::HEARTBEAT
}

/// Encode a header-only heartbeat frame from `origin`. The destination
/// field is a sentinel: the router consumes heartbeats.
pub fn encode_heartbeat_frame(origin: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(HDR_BYTES as usize);
    put_header(
        &mut out,
        tag::HEARTBEAT,
        PayloadKind::None,
        u32::MAX,
        origin,
        0,
        0,
        0.0,
    );
    out
}

/// Bytes of a tally frame after its header: three `u64` counts.
const TALLY_BODY: usize = 24;

/// Encode `origin`'s final tally frame: a header whose destination is a
/// sentinel (the router consumes it), then the rank's traffic as it
/// counted it — messages sent, their [`PtsMsg::wire_size`] bytes, and
/// messages received.
pub fn encode_tally_frame(origin: u32, stats: &ProcStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(HDR_BYTES as usize + TALLY_BODY);
    put_header(
        &mut out,
        tag::TALLY,
        PayloadKind::None,
        u32::MAX,
        origin,
        0,
        0,
        0.0,
    );
    put_u64(&mut out, stats.messages_sent);
    put_u64(&mut out, stats.bytes_sent);
    put_u64(&mut out, stats.messages_received);
    out
}

/// The traffic counts of a tally frame, every other field zero; `None`
/// for any other frame, and for a tally frame of the wrong length.
pub fn decode_tally(buf: &[u8]) -> Option<ProcStats> {
    if buf.len() != HDR_BYTES as usize + TALLY_BODY || !version_ok(buf[0]) || buf[1] != tag::TALLY {
        return None;
    }
    let mut r = WireReader::new(&buf[HDR_BYTES as usize..]);
    Some(ProcStats {
        messages_sent: r.u64().ok()?,
        bytes_sent: r.u64().ok()?,
        messages_received: r.u64().ok()?,
        ..ProcStats::default()
    })
}

/// Decode a message encoded by [`encode_msg`]. Returns the destination
/// rank from the header along with the message.
pub fn decode_msg<P: WireProblem>(buf: &[u8], ctx: &P::Ctx) -> Result<(u32, PtsMsg<P>), WireError> {
    if buf.len() < HDR_BYTES as usize {
        return Err(WireError::Truncated);
    }
    let mut h = WireReader::new(&buf[..HDR_BYTES as usize]);
    let version = h.u8()?;
    if !version_ok(version) {
        return Err(WireError::VersionMismatch {
            got: version,
            want: WIRE_VERSION,
        });
    }
    let variant = h.u8()?;
    let kind = PayloadKind::from_byte(h.u8()?)?;
    let reserved = h.u8()?;
    if reserved != 0 {
        return Err(WireError::Tag(reserved));
    }
    let dst = h.u32()?;
    let origin = h.u32()?;
    let aux = h.u32()? as usize;
    let seq = h.u64()?;
    let cost = h.f64()?;
    let body = &buf[HDR_BYTES as usize..];

    let msg = match variant {
        tag::INIT => {
            let snap_bytes = body.len().checked_sub(64).ok_or(WireError::Truncated)?;
            let mut r = WireReader::new(body);
            let snapshot = P::get_snapshot(&mut r, snap_bytes, ctx)?;
            PtsMsg::Init {
                snapshot: Arc::new(snapshot),
            }
        }
        tag::BROADCAST => {
            // The tabu list, `aux` entries, is everything after the
            // snapshot payload.
            let snap_bytes = body
                .len()
                .checked_sub(TABU_ENTRY_BYTES as usize * aux)
                .ok_or(WireError::Truncated)?;
            let mut r = WireReader::new(body);
            let snapshot = get_payload::<P>(&mut r, kind, snap_bytes, ctx)?;
            let tabu = TabuPayload::Full(Arc::new(get_tabu::<P>(&mut r, aux)?));
            PtsMsg::Broadcast {
                global: seq as u32,
                snapshot,
                tabu,
                strategy: origin as u8,
            }
        }
        tag::FORCE_REPORT => PtsMsg::ForceReport { global: seq as u32 },
        tag::REPORT | tag::GROUP_REPORT => {
            let tail_len = if variant == tag::REPORT { 48 } else { 64 };
            let split = body
                .len()
                .checked_sub(tail_len)
                .ok_or(WireError::Truncated)?;
            let mut tail = WireReader::new(&body[split..]);
            let stats = get_stats(&mut tail)?;
            let n_tabu = tail.u32()? as usize;
            let n_trace = tail.u32()? as usize;
            if n_tabu != aux {
                return Err(WireError::Malformed("tabu counts disagree"));
            }
            let snap_bytes = split
                .checked_sub(
                    TABU_ENTRY_BYTES as usize * n_tabu + TRACE_POINT_BYTES as usize * n_trace,
                )
                .ok_or(WireError::Truncated)?;
            let mut r = WireReader::new(&body[..split]);
            let snapshot = get_payload::<P>(&mut r, kind, snap_bytes, ctx)?;
            let tabu = Arc::new(get_tabu::<P>(&mut r, n_tabu)?);
            let trace = get_trace(&mut r, n_trace)?;
            if variant == tag::REPORT {
                PtsMsg::Report {
                    tsw: origin as usize,
                    global: seq as u32,
                    cost,
                    snapshot,
                    tabu,
                    trace,
                    stats,
                }
            } else {
                PtsMsg::GroupReport {
                    shard: origin as usize,
                    global: seq as u32,
                    cost,
                    snapshot,
                    tabu,
                    trace,
                    stats,
                    forced: tail.u64()?,
                }
            }
        }
        tag::ADOPT_STATE => {
            let mut r = WireReader::new(body);
            let snapshot = get_payload::<P>(&mut r, kind, body.len(), ctx)?;
            PtsMsg::AdoptState {
                seq: seq as u32,
                snapshot,
            }
        }
        tag::INVESTIGATE => PtsMsg::Investigate {
            seq,
            strategy: aux as u8,
        },
        tag::CUT_SHORT => PtsMsg::CutShort { seq },
        tag::PROPOSAL | tag::APPLY_MOVES => {
            let expect = MOVE_BYTES as usize * aux + if variant == tag::PROPOSAL { 16 } else { 0 };
            if body.len() < expect {
                return Err(WireError::Truncated);
            }
            let mut r = WireReader::new(body);
            let mut moves = Vec::with_capacity(aux);
            for _ in 0..aux {
                moves.push(P::get_move(&mut r)?);
            }
            if variant == tag::PROPOSAL {
                PtsMsg::Proposal {
                    clw: origin as usize,
                    seq,
                    moves,
                    cost,
                }
            } else {
                PtsMsg::ApplyMoves { moves }
            }
        }
        tag::DOWN => PtsMsg::Down {
            rank: origin as usize,
        },
        tag::STOP => PtsMsg::Stop,
        other => return Err(WireError::Tag(other)),
    };
    Ok((dst, msg))
}

/// One length-prefixed frame (`u32` length + body) as stream bytes.
pub(crate) fn frame(body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_LEN_BYTES + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    frame
}

/// Write one length-prefixed frame (`u32` length + body).
pub fn write_frame<W: std::io::Write>(w: &mut W, body: &[u8]) -> std::io::Result<()> {
    w.write_all(&frame(body))
}

/// Body length a frame's length prefix announces — checked against the
/// frame cap before anything is allocated for the body.
pub(crate) fn frame_body_len(prefix: [u8; FRAME_LEN_BYTES]) -> std::io::Result<usize> {
    let n = u32::from_le_bytes(prefix) as usize;
    if n > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {n} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    Ok(n)
}

/// Read one length-prefixed frame. Returns `None` on clean EOF at a frame
/// boundary (the peer closed the connection).
pub fn read_frame<R: std::io::Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; FRAME_LEN_BYTES];
    let mut filled = 0;
    while filled < len.len() {
        match r.read(&mut len[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame length",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let mut body = vec![0u8; frame_body_len(len)?];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Encode a [`crate::config::PtsConfig`] for setup and job-submission
/// frames (not part of any message's `wire_size`): one slot per field, in
/// declaration order. A search strategy, the uniform one and each
/// portfolio entry alike, is its six fields in declaration order, and
/// the portfolio's length precedes its entries.
pub fn put_config(cfg: &crate::config::PtsConfig, out: &mut Vec<u8>) {
    use crate::config::{CostKind, SnapshotMode, SyncPolicy};
    put_u64(out, cfg.n_tsw as u64);
    put_u64(out, cfg.n_clw as u64);
    put_u32(out, cfg.global_iters);
    put_u32(out, cfg.local_iters);
    put_strategy(&cfg.search, out);
    put_u64(out, cfg.portfolio.len() as u64);
    for s in &cfg.portfolio {
        put_strategy(s, out);
    }
    out.push(cfg.diversify as u8);
    out.push(match cfg.sync {
        SyncPolicy::WaitAll => 0,
        SyncPolicy::HalfReport => 1,
    });
    put_f64(out, cfg.report_fraction);
    out.push(match cfg.cost {
        CostKind::Fuzzy => 0,
        CostKind::WeightedSum => 1,
    });
    put_u64(out, cfg.seed);
    put_u64(out, cfg.shard_fanout as u64);
    out.push(match cfg.snapshot_mode {
        SnapshotMode::Delta => 0,
        SnapshotMode::Full => 1,
    });
    out.push(cfg.differentiate_streams as u8);
    put_f64(out, cfg.work.per_trial);
    put_f64(out, cfg.work.per_commit);
    put_f64(out, cfg.work.per_tabu_check);
    put_f64(out, cfg.work.per_diversify_step);
    put_f64(out, cfg.work.per_report);
    put_f64(out, cfg.liveness_timeout);
    put_u64(out, cfg.heartbeat_ms);
    put_u64(out, cfg.reap_grace_ms);
}

/// Decode a [`crate::config::PtsConfig`] written by [`put_config`]. An
/// unknown policy, cost, mode or aspiration byte is a [`WireError::Tag`],
/// and a portfolio of more than 255 entries is [`WireError::Malformed`].
pub fn get_config(r: &mut WireReader<'_>) -> Result<crate::config::PtsConfig, WireError> {
    use crate::config::{CostKind, PtsConfig, SnapshotMode, SyncPolicy, WorkModel};
    // Fields are read in the order they are written here.
    Ok(PtsConfig {
        n_tsw: r.u64()? as usize,
        n_clw: r.u64()? as usize,
        global_iters: r.u32()?,
        local_iters: r.u32()?,
        search: get_strategy(r)?,
        portfolio: {
            let n = r.u64()?;
            if n > 255 {
                return Err(WireError::Malformed("portfolio longer than 255 entries"));
            }
            (0..n).map(|_| get_strategy(r)).collect::<Result<_, _>>()?
        },
        diversify: r.u8()? != 0,
        sync: match r.u8()? {
            0 => SyncPolicy::WaitAll,
            1 => SyncPolicy::HalfReport,
            other => return Err(WireError::Tag(other)),
        },
        report_fraction: r.f64()?,
        cost: match r.u8()? {
            0 => CostKind::Fuzzy,
            1 => CostKind::WeightedSum,
            other => return Err(WireError::Tag(other)),
        },
        seed: r.u64()?,
        shard_fanout: r.u64()? as usize,
        snapshot_mode: match r.u8()? {
            0 => SnapshotMode::Delta,
            1 => SnapshotMode::Full,
            other => return Err(WireError::Tag(other)),
        },
        differentiate_streams: r.u8()? != 0,
        work: WorkModel {
            per_trial: r.f64()?,
            per_commit: r.f64()?,
            per_tabu_check: r.f64()?,
            per_diversify_step: r.f64()?,
            per_report: r.f64()?,
        },
        liveness_timeout: r.f64()?,
        heartbeat_ms: r.u64()?,
        reap_grace_ms: r.u64()?,
    })
}

/// One search strategy of the config block.
fn put_strategy(s: &crate::config::SearchStrategy, out: &mut Vec<u8>) {
    use pts_tabu::aspiration::Aspiration;
    put_u64(out, s.candidates as u64);
    put_u64(out, s.depth as u64);
    put_u64(out, s.tenure);
    put_u64(out, s.diversify_depth as u64);
    put_u64(out, s.diversify_width as u64);
    out.push(match s.aspiration {
        Aspiration::None => 0,
        Aspiration::BestCost => 1,
    });
}

fn get_strategy(r: &mut WireReader<'_>) -> Result<crate::config::SearchStrategy, WireError> {
    use pts_tabu::aspiration::Aspiration;
    Ok(crate::config::SearchStrategy {
        candidates: r.u64()? as usize,
        depth: r.u64()? as usize,
        tenure: r.u64()?,
        diversify_depth: r.u64()? as usize,
        diversify_width: r.u64()? as usize,
        aspiration: match r.u8()? {
            0 => Aspiration::None,
            1 => Aspiration::BestCost,
            other => return Err(WireError::Tag(other)),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pts_tabu::qap::{Qap, QapAssignment};

    fn roundtrip(msg: &PtsMsg<Qap>, dst: u32) -> PtsMsg<Qap> {
        let buf = encode_msg(msg, dst);
        assert_eq!(buf.len() as u64, msg.wire_size());
        let (got_dst, decoded) = decode_msg::<Qap>(&buf, &()).unwrap();
        assert_eq!(got_dst, dst);
        decoded
    }

    #[test]
    fn init_roundtrips_at_model_size() {
        let msg: PtsMsg<Qap> = PtsMsg::Init {
            snapshot: Arc::new(QapAssignment::new(vec![2, 0, 1, 3])),
        };
        match roundtrip(&msg, 7) {
            PtsMsg::Init { snapshot } => assert_eq!(snapshot.as_slice(), &[2, 0, 1, 3]),
            other => panic!("decoded {}", other.tag()),
        }
    }

    #[test]
    fn control_messages_roundtrip() {
        for (msg, expect) in [
            (PtsMsg::<Qap>::Stop, "Stop"),
            (
                PtsMsg::<Qap>::Investigate {
                    seq: 99,
                    strategy: 2,
                },
                "Investigate",
            ),
            (PtsMsg::<Qap>::CutShort { seq: 3 }, "CutShort"),
            (PtsMsg::<Qap>::ForceReport { global: 5 }, "ForceReport"),
        ] {
            assert_eq!(roundtrip(&msg, 2).tag(), expect);
        }
    }

    #[test]
    fn bad_version_is_rejected() {
        let msg: PtsMsg<Qap> = PtsMsg::Stop;
        for got in [WIRE_VERSION - 1, WIRE_VERSION + 1] {
            let mut buf = encode_msg(&msg, 0);
            buf[0] = got;
            let want = WireError::VersionMismatch {
                got,
                want: WIRE_VERSION,
            };
            assert_eq!(decode_msg::<Qap>(&buf, &()).err(), Some(want));
        }
    }

    #[test]
    fn tally_frames_roundtrip_and_never_decode_as_messages() {
        let tally = ProcStats {
            messages_sent: 9,
            bytes_sent: 2_283,
            messages_received: 7,
            ..ProcStats::default()
        };
        let frame = encode_tally_frame(4, &tally);
        assert_eq!(decode_tally(&frame), Some(tally));
        assert!(decode_msg::<Qap>(&frame, &()).is_err());
        assert!(!is_heartbeat(&frame));
        // Anything else, or a tally cut short or stamped with another
        // version, is no tally.
        assert_eq!(decode_tally(&encode_msg(&PtsMsg::<Qap>::Stop, 0)), None);
        assert_eq!(decode_tally(&encode_heartbeat_frame(4)), None);
        assert_eq!(decode_tally(&frame[..frame.len() - 1]), None);
        let mut bad = frame.clone();
        bad[0] = 9;
        assert_eq!(decode_tally(&bad), None);
    }

    #[test]
    fn heartbeats_are_recognized_and_never_decode() {
        let hb = encode_heartbeat_frame(3);
        assert!(is_heartbeat(&hb));
        assert!(
            decode_msg::<Qap>(&hb, &()).is_err(),
            "heartbeats are socket-layer only"
        );
        // Every protocol message is *not* a heartbeat, and a wrong-version
        // beacon is not one either (it must fall through to the version check).
        assert!(!is_heartbeat(&encode_msg(&PtsMsg::<Qap>::Stop, 0)));
        let mut bad = encode_heartbeat_frame(3);
        bad[0] = 9;
        assert!(!is_heartbeat(&bad));
    }

    #[test]
    fn truncated_frame_is_rejected() {
        let msg: PtsMsg<Qap> = PtsMsg::Init {
            snapshot: Arc::new(QapAssignment::new(vec![0, 1])),
        };
        let buf = encode_msg(&msg, 0);
        assert!(decode_msg::<Qap>(&buf[..buf.len() - 1], &()).is_err());
        assert!(decode_msg::<Qap>(&buf[..10], &()).is_err());
    }

    #[test]
    fn broadcast_tabu_payloads_roundtrip_at_model_size() {
        let msg: PtsMsg<Qap> = PtsMsg::Broadcast {
            global: 4,
            snapshot: SnapshotPayload::Full(Arc::new(QapAssignment::new(vec![1, 0, 3, 2]))),
            tabu: TabuPayload::Full(Arc::new(vec![((0, 1), 5), ((2, 3), 9)])),
            strategy: 3,
        };
        match roundtrip(&msg, 3) {
            PtsMsg::Broadcast {
                global,
                tabu: TabuPayload::Full(tabu),
                strategy,
                ..
            } => {
                assert_eq!(global, 4);
                assert_eq!(strategy, 3);
                assert_eq!(*tabu, vec![((0, 1), 5), ((2, 3), 9)]);
            }
            other => panic!("decoded {}", other.tag()),
        }
    }

    #[test]
    fn config_roundtrips() {
        let cfg = crate::config::PtsConfig {
            n_tsw: 9,
            n_clw: 3,
            shard_fanout: 3,
            sync: crate::config::SyncPolicy::WaitAll,
            snapshot_mode: crate::config::SnapshotMode::Full,
            cost: crate::config::CostKind::WeightedSum,
            differentiate_streams: true,
            seed: 0xDEADBEEF,
            liveness_timeout: 2.5,
            heartbeat_ms: 250,
            reap_grace_ms: 7000,
            portfolio: vec![
                crate::config::SearchStrategy {
                    candidates: 12,
                    depth: 2,
                    tenure: 5,
                    diversify_depth: 4,
                    diversify_width: 2,
                    aspiration: pts_tabu::aspiration::Aspiration::None,
                },
                crate::config::SearchStrategy::default(),
            ],
            ..crate::config::PtsConfig::default()
        };
        let mut buf = Vec::new();
        put_config(&cfg, &mut buf);
        let decoded = get_config(&mut WireReader::new(&buf)).unwrap();
        assert_eq!(decoded, cfg);
    }

    #[test]
    fn config_block_cut_short_is_truncated() {
        let cfg = crate::config::PtsConfig {
            portfolio: vec![crate::config::SearchStrategy::default(); 2],
            ..crate::config::PtsConfig::default()
        };
        let mut buf = Vec::new();
        put_config(&cfg, &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(
                get_config(&mut WireReader::new(&buf[..cut])).err(),
                Some(WireError::Truncated),
                "block cut at {cut} of {}",
                buf.len()
            );
        }
        let mut r = WireReader::new(&buf);
        assert_eq!(get_config(&mut r).unwrap(), cfg);
        assert_eq!(r.remaining(), 0, "the block is read to its end");
    }

    #[test]
    fn oversized_placement_layouts_are_typed_errors() {
        use crate::placement_problem::PlacementProblem;
        use pts_place::layout::Layout;
        let ctx = |rows: u64, cols: u64| {
            let mut buf = Vec::new();
            put_u64(&mut buf, rows);
            put_u64(&mut buf, cols);
            put_f64(&mut buf, 2.0);
            put_f64(&mut buf, 1.0);
            buf
        };
        let decode = |buf: &[u8]| PlacementProblem::get_ctx(&mut WireReader::new(buf));
        // 2^20 x 2^20 slots, then a 4-byte snapshot: without the bound,
        // decoding the snapshot aborts on an 8 TiB slot table.
        let mut hostile = ctx(1 << 20, 1 << 20);
        put_u32(&mut hostile, 0);
        assert!(matches!(decode(&hostile), Err(WireError::Malformed(_))));
        // A product that overflows `usize`.
        assert!(matches!(
            decode(&ctx(1 << 33, 1 << 33)),
            Err(WireError::Malformed(_))
        ));
        // The cap is exact: a 256 MiB table decodes, one more row does not.
        assert!(decode(&ctx(1 << 12, 1 << 13)).is_ok());
        assert!(matches!(
            decode(&ctx((1 << 12) + 1, 1 << 13)),
            Err(WireError::Malformed(_))
        ));
        // A real layout round-trips, and a placement on it decodes.
        let layout = Layout::for_cells(2243);
        let mut buf = Vec::new();
        PlacementProblem::put_ctx(&layout, &mut buf);
        assert_eq!(buf.len(), 32);
        let got = decode(&buf).unwrap();
        assert_eq!(got, layout);
        let placement = pts_place::placement::Placement::sequential(layout, 2243);
        let mut snap = Vec::new();
        PlacementProblem::put_snapshot(&placement, &mut snap);
        let decoded =
            PlacementProblem::get_snapshot(&mut WireReader::new(&snap), snap.len(), &got).unwrap();
        assert_eq!(decoded, placement);
    }

    /// Records the largest allocation the calling thread asks for, so a
    /// decoder test can show that a hostile length claim reserves nothing.
    mod alloc_probe {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local!(static LARGEST: Cell<usize> = const { Cell::new(0) });

        struct Probe;

        // SAFETY: every call forwards to `System` unchanged; the probe
        // only records sizes in a const-initialized thread-local, which
        // never allocates.
        unsafe impl GlobalAlloc for Probe {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
                System.alloc(layout)
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                System.dealloc(ptr, layout)
            }
        }

        #[global_allocator]
        static PROBE: Probe = Probe;

        /// `f`'s value and the largest allocation it made on this thread.
        pub fn largest_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
            LARGEST.with(|l| l.set(0));
            let out = f();
            (out, LARGEST.with(Cell::get))
        }
    }

    #[test]
    fn claimed_lengths_past_the_frame_are_truncated_before_allocating() {
        use crate::placement_problem::PlacementProblem;
        use alloc_probe::largest_alloc;
        let layout = pts_place::layout::Layout::for_cells(4);
        let (four, eight) = ([0u8; 4], [0u8; 8]);
        // The proc worker hands the setup frame's raw `u32` snapshot
        // length to the decoder: 0xFFFF_FFFC bytes claimed, 4 present.
        let (got, largest) = largest_alloc(|| {
            PlacementProblem::get_snapshot(&mut WireReader::new(&four), 0xFFFF_FFFC, &layout)
        });
        assert_eq!(got.err(), Some(WireError::Truncated));
        assert_eq!(largest, 0, "the snapshot claim reserved {largest} bytes");
        let (got, largest) = largest_alloc(|| {
            PlacementProblem::get_delta(&mut WireReader::new(&eight), 0xFFFF_FFF8)
        });
        assert_eq!(got.err(), Some(WireError::Truncated));
        assert_eq!(
            largest, 0,
            "the placement delta claim reserved {largest} bytes"
        );
        let (got, largest) =
            largest_alloc(|| Qap::get_delta(&mut WireReader::new(&eight), 0xFFFF_FFF8));
        assert_eq!(got.err(), Some(WireError::Truncated));
        assert_eq!(largest, 0, "the QAP delta claim reserved {largest} bytes");
    }

    #[test]
    fn frames_roundtrip_over_a_stream() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"alpha").unwrap();
        write_frame(&mut stream, b"").unwrap();
        write_frame(&mut stream, b"omega").unwrap();
        let mut r = &stream[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"alpha");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"omega");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }
}
