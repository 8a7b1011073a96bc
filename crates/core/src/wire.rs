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
//! | 0      | 1    | codec version ([`WIRE_VERSION`]) |
//! | 1      | 1    | variant tag ([`tag` constants](self)) |
//! | 2      | 1    | snapshot-payload kind: 0 none, 1 full, 2 delta |
//! | 3      | 1    | tabu-payload kind: 0 full list, 1 delta (broadcasts); strategy id (`GroupReport`); 0 elsewhere |
//! | 4      | 4    | destination rank (router addressing) |
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
use crate::messages::{PtsMsg, SnapshotPayload, TabuEntries, TabuPayload};
use pts_tabu::search::SearchStats;
use pts_tabu::trace::TracePoint;
use std::cmp::Ordering;
use std::sync::Arc;

/// Codec version stamped into every frame header. The decoder also
/// accepts frames back to [`MIN_WIRE_VERSION`] (older fields default);
/// anything outside that window fails with
/// [`WireError::VersionMismatch`].
///
/// Version history:
/// * 1 — initial socket codec.
/// * 2 — portfolio search: strategy ids ride previously-zero header
///   bytes (`Broadcast`/`GroupBroadcast` origin, `Investigate` aux,
///   `GroupReport` header byte 3), `GroupReport` carries
///   quality-per-virtual-second in its formerly reserved tail `u64`, and
///   the config block grows an aspiration + portfolio tail. No frame
///   changes size, so v1 frames decode as v2 with all-default strategy
///   fields.
/// * 3 — direct links between protocol-tree neighbours: a rank's hello
///   carries its link-listener address, the router opens each rank's
///   setup frame with a link block naming the rank's uplink, and a
///   worker's final [`LinkTally`] frame reports the traffic its links
///   carried past the router. Message frames do not change, so v1 and
///   v2 message frames still decode.
pub const WIRE_VERSION: u8 = 3;

/// Oldest frame version this codec still decodes.
pub const MIN_WIRE_VERSION: u8 = 1;

/// Is `v` a version this codec decodes?
fn version_ok(v: u8) -> bool {
    (MIN_WIRE_VERSION..=WIRE_VERSION).contains(&v)
}

/// Bytes of length prefix framing each message on a stream — the only
/// per-message wire overhead not counted by [`PtsMsg::wire_size`].
pub const FRAME_LEN_BYTES: usize = 4;

/// Largest frame body [`read_frame`] accepts, and so the largest
/// allocation a decoded frame may ask for.
const MAX_FRAME: usize = 256 << 20;

/// Fixed message-header bytes (mirrors the model's `HDR` charge).
const HDR: usize = 32;
/// Model bytes per tabu entry: 8-byte attribute + `u32` tenure.
const TABU_ENTRY: usize = 12;
/// Model bytes per trace point: `f64` time + `u32` iter + `f64` cost.
const TRACE_POINT: usize = 20;
/// Model bytes per elementary move: two `u32` indices.
const MOVE: usize = 8;
/// Delta-payload header: `u32` base sequence + 4 reserved bytes.
const DELTA_HDR: usize = 8;
/// Tabu-delta tail: `u32` base sequence + `u32` removed count + `u64`
/// uniform aging decrement. Written *after* the removed attributes so the
/// decoder can size the variable sections from the end of the body.
const TABU_DELTA_TAIL: usize = 16;
/// Model bytes per bare tabu attribute (a removed-entry marker).
const TABU_ATTR: usize = 8;

/// Variant tags (header offset 1).
mod tag {
    pub const INIT: u8 = 0;
    pub const BROADCAST: u8 = 1;
    pub const FORCE_REPORT: u8 = 2;
    pub const REPORT: u8 = 3;
    pub const GROUP_REPORT: u8 = 4;
    pub const GROUP_BROADCAST: u8 = 5;
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
    /// A worker's final frame to the router: its [`super::LinkTally`].
    /// Like a heartbeat it is consumed by the router, never forwarded.
    pub const TALLY: u8 = 14;
}

/// Why a buffer failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The frame's version byte is outside the
    /// [`MIN_WIRE_VERSION`]`..=`[`WIRE_VERSION`] window this codec decodes.
    VersionMismatch {
        /// Version byte found in the frame header.
        got: u8,
        /// Newest version this codec speaks (always [`WIRE_VERSION`]).
        want: u8,
    },
    /// Unknown variant tag or payload kind.
    Tag(u8),
    /// The buffer ended before the structure it claims to hold.
    Truncated,
    /// Counts/sizes in the frame are mutually inconsistent.
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
        let n = nbytes / 8;
        let mut loc_of = Vec::with_capacity(n);
        for _ in 0..n {
            loc_of.push(r.u64()? as usize);
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
            if nbytes < DELTA_HDR {
                return Err(WireError::Truncated);
            }
            let base_seq = r.u32()?;
            let _reserved = r.u32()?;
            Ok(SnapshotPayload::Delta {
                base_seq,
                delta: Arc::new(P::get_delta(r, nbytes - DELTA_HDR)?),
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

/// Header aux count of a broadcast tabu payload: full entries, or delta
/// `added` entries (the removed count rides the delta tail instead).
fn tabu_aux<P: PtsProblem>(tabu: &TabuPayload<P>) -> u32 {
    match tabu {
        TabuPayload::Full(t) => narrow(t.len()),
        TabuPayload::Delta { added, .. } => narrow(added.len()),
    }
}

/// Encode a broadcast tabu payload body. Full lists emit exactly the
/// bytes the pre-delta codec did; deltas emit `added` entries, `removed`
/// attributes, then the [`TABU_DELTA_TAIL`] — tail-last so the decoder
/// can size the sections from the body end. Emits exactly
/// `tabu.wire_bytes()` bytes either way.
fn put_tabu_payload<P: WireProblem>(tabu: &TabuPayload<P>, out: &mut Vec<u8>) {
    match tabu {
        TabuPayload::Full(t) => put_tabu::<P>(t, out),
        TabuPayload::Delta {
            base_seq,
            aged,
            added,
            removed,
        } => {
            put_tabu::<P>(added, out);
            for attr in removed.iter() {
                P::put_attr(attr, out);
            }
            put_u32(out, *base_seq);
            put_u32(out, narrow(removed.len()));
            put_u64(out, *aged);
        }
    }
}

/// Decode a broadcast tabu payload occupying exactly `nbytes` bytes with
/// `aux` entries (full list) or `aux` added entries (delta).
fn get_tabu_payload<P: WireProblem>(
    r: &mut WireReader<'_>,
    delta: bool,
    aux: usize,
    nbytes: usize,
) -> Result<TabuPayload<P>, WireError> {
    if !delta {
        return Ok(TabuPayload::Full(Arc::new(get_tabu::<P>(r, aux)?)));
    }
    let n_removed = nbytes
        .checked_sub(TABU_DELTA_TAIL + TABU_ENTRY * aux)
        .filter(|rest| rest.is_multiple_of(TABU_ATTR))
        .map(|rest| rest / TABU_ATTR)
        .ok_or(WireError::Malformed("tabu delta sections disagree"))?;
    let added = get_tabu::<P>(r, aux)?;
    let mut removed = Vec::with_capacity(n_removed);
    for _ in 0..n_removed {
        removed.push(P::get_attr(r)?);
    }
    let base_seq = r.u32()?;
    if r.u32()? as usize != n_removed {
        return Err(WireError::Malformed("tabu removed counts disagree"));
    }
    let aged = r.u64()?;
    Ok(TabuPayload::Delta {
        base_seq,
        aged,
        added: Arc::new(added),
        removed: Arc::new(removed),
    })
}

fn put_trace(trace: &[TracePoint], out: &mut Vec<u8>) {
    for p in trace {
        put_f64(out, p.time);
        put_u32(out, u32::try_from(p.iter).unwrap_or(u32::MAX));
        put_f64(out, p.best_cost);
    }
}

fn get_trace(r: &mut WireReader<'_>, n: usize) -> Result<Vec<TracePoint>, WireError> {
    let mut trace = Vec::with_capacity(n);
    for _ in 0..n {
        trace.push(TracePoint {
            time: r.f64()?,
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
            tabu,
            strategy,
        } => {
            put_header(
                &mut out,
                tag::BROADCAST,
                PayloadKind::of(snapshot),
                dst,
                *strategy as u32,
                tabu_aux(tabu),
                *global as u64,
                0.0,
            );
            // Header byte 3 is the tabu-payload kind (0 full, 1 delta).
            out[3] = tabu.is_delta() as u8;
            put_payload(snapshot, &mut out);
            put_tabu_payload::<P>(tabu, &mut out);
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
            strategy,
            qps,
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
            // Reports never carry tabu deltas, so header byte 3 is free:
            // it carries the group's current strategy id.
            out[3] = *strategy;
            put_payload(snapshot, &mut out);
            put_tabu::<P>(tabu, &mut out);
            put_trace(trace, &mut out);
            // 64-byte tail: stats (40) + counts (8) + forced (8) +
            // qps (8, formerly reserved).
            put_stats(stats, &mut out);
            put_u32(&mut out, narrow(tabu.len()));
            put_u32(&mut out, narrow(trace.len()));
            put_u64(&mut out, *forced);
            put_f64(&mut out, *qps);
        }
        PtsMsg::GroupBroadcast {
            global,
            snapshot,
            tabu,
            strategy,
        } => {
            put_header(
                &mut out,
                tag::GROUP_BROADCAST,
                PayloadKind::of(snapshot),
                dst,
                *strategy as u32,
                tabu_aux(tabu),
                *global as u64,
                0.0,
            );
            out[3] = tabu.is_delta() as u8;
            put_payload(snapshot, &mut out);
            put_tabu_payload::<P>(tabu, &mut out);
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

/// Destination rank of an encoded message, readable without a full decode
/// — the router forwards raw frames on this field alone.
pub fn peek_dst(buf: &[u8]) -> Result<u32, WireError> {
    if buf.len() < HDR {
        return Err(WireError::Truncated);
    }
    if !version_ok(buf[0]) {
        return Err(WireError::VersionMismatch {
            got: buf[0],
            want: WIRE_VERSION,
        });
    }
    Ok(u32::from_le_bytes(buf[4..8].try_into().unwrap()))
}

/// Is this frame a socket-layer heartbeat? Heartbeats never decode to a
/// [`PtsMsg`]; the router and transports must drop them after noting the
/// sender is alive.
pub fn is_heartbeat(buf: &[u8]) -> bool {
    buf.len() >= 2 && version_ok(buf[0]) && buf[1] == tag::HEARTBEAT
}

/// Encode a header-only heartbeat frame from `origin`. The destination
/// field is a sentinel: the router consumes heartbeats instead of
/// forwarding them.
pub fn encode_heartbeat_frame(origin: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(HDR);
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

/// The traffic a worker's links carried, which the router never saw:
/// what the worker sent over them (messages and [`PtsMsg::wire_size`]
/// bytes) and the messages it read from them. A worker reports it in
/// its final frame ([`encode_tally_frame`]) and the router adds it to
/// the rank's totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkTally {
    /// Messages sent over links.
    pub sent: u64,
    /// Wire bytes of those messages.
    pub bytes: u64,
    /// Messages read from links.
    pub received: u64,
}

/// Bytes of a tally frame after its header: three `u64` counts.
const TALLY_BODY: usize = 24;

/// Encode `origin`'s final tally frame: a header whose destination is a
/// sentinel (the router consumes it), then the three counts.
pub fn encode_tally_frame(origin: u32, tally: &LinkTally) -> Vec<u8> {
    let mut out = Vec::with_capacity(HDR + TALLY_BODY);
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
    put_u64(&mut out, tally.sent);
    put_u64(&mut out, tally.bytes);
    put_u64(&mut out, tally.received);
    out
}

/// The counts of a tally frame; `None` for any other frame, and for a
/// tally frame of the wrong length.
pub fn decode_tally(buf: &[u8]) -> Option<LinkTally> {
    if buf.len() != HDR + TALLY_BODY || !version_ok(buf[0]) || buf[1] != tag::TALLY {
        return None;
    }
    let mut r = WireReader::new(&buf[HDR..]);
    Some(LinkTally {
        sent: r.u64().ok()?,
        bytes: r.u64().ok()?,
        received: r.u64().ok()?,
    })
}

/// Decode a message encoded by [`encode_msg`]. Returns the destination
/// rank from the header along with the message.
pub fn decode_msg<P: WireProblem>(buf: &[u8], ctx: &P::Ctx) -> Result<(u32, PtsMsg<P>), WireError> {
    if buf.len() < HDR {
        return Err(WireError::Truncated);
    }
    let mut h = WireReader::new(&buf[..HDR]);
    let version = h.u8()?;
    if !version_ok(version) {
        return Err(WireError::VersionMismatch {
            got: version,
            want: WIRE_VERSION,
        });
    }
    let variant = h.u8()?;
    let kind = PayloadKind::from_byte(h.u8()?)?;
    // Header byte 3 is per-variant: the tabu-payload kind on broadcasts,
    // the strategy id on GroupReport (any value; v1 frames hold 0), and
    // reserved-zero everywhere else.
    let byte3 = h.u8()?;
    let tabu_delta = if variant == tag::GROUP_REPORT {
        false
    } else {
        match byte3 {
            0 => false,
            1 => true,
            other => return Err(WireError::Tag(other)),
        }
    };
    let dst = h.u32()?;
    let origin = h.u32()?;
    let aux = h.u32()? as usize;
    let seq = h.u64()?;
    let cost = h.f64()?;
    let body = &buf[HDR..];

    let msg = match variant {
        tag::INIT => {
            let snap_bytes = body.len().checked_sub(64).ok_or(WireError::Truncated)?;
            let mut r = WireReader::new(body);
            let snapshot = P::get_snapshot(&mut r, snap_bytes, ctx)?;
            PtsMsg::Init {
                snapshot: Arc::new(snapshot),
            }
        }
        tag::BROADCAST | tag::GROUP_BROADCAST => {
            // Full tabu body: `aux` entries. Delta body: `aux` added
            // entries + the removed attributes + the fixed tail; either
            // way, everything after the snapshot payload.
            let tabu_bytes = if tabu_delta {
                let min = TABU_DELTA_TAIL + TABU_ENTRY * aux;
                if body.len() < min {
                    return Err(WireError::Truncated);
                }
                // The removed count in the tail sizes the middle section;
                // get_tabu_payload cross-checks it against the arithmetic.
                let tail = &body[body.len() - TABU_DELTA_TAIL..];
                let n_removed = u32::from_le_bytes(tail[4..8].try_into().unwrap()) as usize;
                min + TABU_ATTR * n_removed
            } else {
                TABU_ENTRY * aux
            };
            let snap_bytes = body
                .len()
                .checked_sub(tabu_bytes)
                .ok_or(WireError::Truncated)?;
            let mut r = WireReader::new(body);
            let snapshot = get_payload::<P>(&mut r, kind, snap_bytes, ctx)?;
            let tabu = get_tabu_payload::<P>(&mut r, tabu_delta, aux, tabu_bytes)?;
            let global = seq as u32;
            // The strategy id rides the otherwise-unused origin field
            // (v1 frames always carry 0 there).
            let strategy = origin as u8;
            if variant == tag::BROADCAST {
                PtsMsg::Broadcast {
                    global,
                    snapshot,
                    tabu,
                    strategy,
                }
            } else {
                PtsMsg::GroupBroadcast {
                    global,
                    snapshot,
                    tabu,
                    strategy,
                }
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
                .checked_sub(TABU_ENTRY * n_tabu + TRACE_POINT * n_trace)
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
                let forced = tail.u64()?;
                let qps = tail.f64()?;
                PtsMsg::GroupReport {
                    shard: origin as usize,
                    global: seq as u32,
                    cost,
                    snapshot,
                    tabu,
                    trace,
                    stats,
                    forced,
                    strategy: byte3,
                    qps,
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
            let expect = MOVE * aux + if variant == tag::PROPOSAL { 16 } else { 0 };
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

/// Aspiration policy byte for the config block.
fn asp_byte(a: pts_tabu::aspiration::Aspiration) -> u8 {
    match a {
        pts_tabu::aspiration::Aspiration::None => 0,
        pts_tabu::aspiration::Aspiration::BestCost => 1,
    }
}

fn asp_of(b: u8) -> Result<pts_tabu::aspiration::Aspiration, WireError> {
    match b {
        0 => Ok(pts_tabu::aspiration::Aspiration::None),
        1 => Ok(pts_tabu::aspiration::Aspiration::BestCost),
        other => Err(WireError::Tag(other)),
    }
}

/// Encode a [`crate::config::PtsConfig`] (setup and job-submission
/// frames; fixed field order, not part of any message's `wire_size`).
/// Always emits the current ([`WIRE_VERSION`]) layout: the v1 field
/// order followed by the v2 aspiration + portfolio tail.
pub fn put_config(cfg: &crate::config::PtsConfig, out: &mut Vec<u8>) {
    use crate::config::{CostKind, SnapshotMode, SyncPolicy};
    let sync_byte = |s: SyncPolicy| match s {
        SyncPolicy::WaitAll => 0u8,
        SyncPolicy::HalfReport => 1,
    };
    put_u64(out, cfg.n_tsw as u64);
    put_u64(out, cfg.n_clw as u64);
    put_u32(out, cfg.global_iters);
    put_u32(out, cfg.local_iters);
    put_u64(out, cfg.search.candidates as u64);
    put_u64(out, cfg.search.depth as u64);
    put_u64(out, cfg.search.tenure);
    out.push(cfg.diversify as u8);
    put_u64(out, cfg.search.diversify_depth as u64);
    put_u64(out, cfg.search.diversify_width as u64);
    out.push(sync_byte(cfg.tsw_sync));
    out.push(sync_byte(cfg.clw_sync));
    put_f64(out, cfg.report_fraction);
    put_f64(out, cfg.alpha);
    out.push(match cfg.cost {
        CostKind::Fuzzy => 0,
        CostKind::WeightedSum => 1,
    });
    put_f64(out, cfg.beta);
    put_f64(out, cfg.goal_target_frac);
    put_f64(out, cfg.goal_zero_frac);
    for w in cfg.weights {
        put_f64(out, w);
    }
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
    out.push(cfg.tabu_delta as u8);
    put_u64(out, cfg.heartbeat_ms);
    put_u64(out, cfg.reap_grace_ms);
    // v2 tail: the uniform strategy's aspiration, then the portfolio.
    out.push(asp_byte(cfg.search.aspiration));
    put_u64(out, cfg.portfolio.len() as u64);
    for s in &cfg.portfolio {
        put_u64(out, s.tenure);
        put_u64(out, s.candidates as u64);
        put_u64(out, s.depth as u64);
        put_u64(out, s.diversify_depth as u64);
        put_u64(out, s.diversify_width as u64);
        out.push(asp_byte(s.aspiration));
    }
}

/// Decode a [`crate::config::PtsConfig`] written by [`put_config`] at the
/// current [`WIRE_VERSION`]. For frames that declared an older version,
/// use [`get_config_versioned`] — the config block is *not* the last
/// thing in setup and job frames, so the decoder cannot infer the layout
/// from the bytes remaining and must be told the carrier's version.
pub fn get_config(r: &mut WireReader<'_>) -> Result<crate::config::PtsConfig, WireError> {
    get_config_versioned(r, WIRE_VERSION)
}

/// Decode a config block from a frame whose header declared `version`.
/// Version-1 blocks stop at `reap_grace_ms`; the aspiration and portfolio
/// take their defaults (best-cost aspiration, empty portfolio — exactly
/// the semantics a v1 peer ran with). Unknown versions are rejected with
/// [`WireError::VersionMismatch`], never a panic.
pub fn get_config_versioned(
    r: &mut WireReader<'_>,
    version: u8,
) -> Result<crate::config::PtsConfig, WireError> {
    use crate::config::{CostKind, PtsConfig, SearchStrategy, SnapshotMode, SyncPolicy, WorkModel};
    if !version_ok(version) {
        return Err(WireError::VersionMismatch {
            got: version,
            want: WIRE_VERSION,
        });
    }
    let sync = |b: u8| match b {
        0 => Ok(SyncPolicy::WaitAll),
        1 => Ok(SyncPolicy::HalfReport),
        other => Err(WireError::Tag(other)),
    };
    let n_tsw = r.u64()? as usize;
    let n_clw = r.u64()? as usize;
    let global_iters = r.u32()?;
    let local_iters = r.u32()?;
    let candidates = r.u64()? as usize;
    let depth = r.u64()? as usize;
    let tenure = r.u64()?;
    let diversify = r.u8()? != 0;
    let diversify_depth = r.u64()? as usize;
    let diversify_width = r.u64()? as usize;
    let mut cfg = PtsConfig {
        n_tsw,
        n_clw,
        global_iters,
        local_iters,
        search: SearchStrategy {
            candidates,
            depth,
            tenure,
            diversify_depth,
            diversify_width,
            ..SearchStrategy::default()
        },
        portfolio: Vec::new(),
        diversify,
        tsw_sync: sync(r.u8()?)?,
        clw_sync: sync(r.u8()?)?,
        report_fraction: r.f64()?,
        alpha: r.f64()?,
        cost: match r.u8()? {
            0 => CostKind::Fuzzy,
            1 => CostKind::WeightedSum,
            other => return Err(WireError::Tag(other)),
        },
        beta: r.f64()?,
        goal_target_frac: r.f64()?,
        goal_zero_frac: r.f64()?,
        weights: [r.f64()?, r.f64()?, r.f64()?],
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
        tabu_delta: r.u8()? != 0,
        heartbeat_ms: r.u64()?,
        reap_grace_ms: r.u64()?,
    };
    if version >= 2 {
        cfg.search.aspiration = asp_of(r.u8()?)?;
        let n = r.u64()? as usize;
        if n > 255 {
            return Err(WireError::Malformed("portfolio longer than 255 entries"));
        }
        let mut portfolio = Vec::with_capacity(n);
        for _ in 0..n {
            let tenure = r.u64()?;
            let candidates = r.u64()? as usize;
            let depth = r.u64()? as usize;
            let diversify_depth = r.u64()? as usize;
            let diversify_width = r.u64()? as usize;
            let aspiration = asp_of(r.u8()?)?;
            portfolio.push(SearchStrategy {
                candidates,
                depth,
                tenure,
                diversify_depth,
                diversify_width,
                aspiration,
            });
        }
        cfg.portfolio = portfolio;
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pts_tabu::qap::{Qap, QapAssignment};

    fn roundtrip(msg: &PtsMsg<Qap>, dst: u32) -> PtsMsg<Qap> {
        let buf = encode_msg(msg, dst);
        assert_eq!(buf.len() as u64, msg.wire_size());
        assert_eq!(peek_dst(&buf).unwrap(), dst);
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
        let mut buf = encode_msg(&msg, 0);
        buf[0] = 9;
        let want = WireError::VersionMismatch {
            got: 9,
            want: WIRE_VERSION,
        };
        assert_eq!(decode_msg::<Qap>(&buf, &()).err(), Some(want.clone()));
        assert_eq!(peek_dst(&buf), Err(want));
    }

    #[test]
    fn tally_frames_roundtrip_and_never_decode_as_messages() {
        let tally = LinkTally {
            sent: 9,
            bytes: 2_283,
            received: 7,
        };
        let frame = encode_tally_frame(4, &tally);
        assert_eq!(decode_tally(&frame), Some(tally));
        assert!(decode_msg::<Qap>(&frame, &()).is_err());
        assert!(!is_heartbeat(&frame));
        // Anything else, or a tally cut short or stamped outside the
        // version window, is no tally.
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
        let snapshot = SnapshotPayload::Full(Arc::new(QapAssignment::new(vec![1, 0, 3, 2])));
        // Full list: the pre-delta encoding, byte-identical sizes.
        let full: PtsMsg<Qap> = PtsMsg::Broadcast {
            global: 4,
            snapshot: snapshot.clone(),
            tabu: TabuPayload::Full(Arc::new(vec![((0, 1), 5), ((2, 3), 9)])),
            strategy: 3,
        };
        match roundtrip(&full, 3) {
            PtsMsg::Broadcast {
                global,
                tabu,
                strategy,
                ..
            } => {
                assert_eq!(global, 4);
                assert_eq!(strategy, 3);
                assert!(!tabu.is_delta());
                match tabu {
                    TabuPayload::Full(t) => assert_eq!(*t, vec![((0, 1), 5), ((2, 3), 9)]),
                    TabuPayload::Delta { .. } => unreachable!(),
                }
            }
            other => panic!("decoded {}", other.tag()),
        }

        // Delta: added + removed + aged must survive the tail-last layout,
        // including the empty-sections corners.
        for (added, removed, aged) in [
            (vec![((7, 8), 6u64)], vec![(1u32, 2u32), (3, 4)], 3u64),
            (vec![], vec![], 0),
            (vec![((1, 2), 1), ((3, 4), 2)], vec![], u64::MAX),
        ] {
            let msg: PtsMsg<Qap> = PtsMsg::GroupBroadcast {
                global: 2,
                snapshot: snapshot.clone(),
                tabu: TabuPayload::Delta {
                    base_seq: 9,
                    aged,
                    added: Arc::new(added.clone()),
                    removed: Arc::new(removed.clone()),
                },
                strategy: 1,
            };
            match roundtrip(&msg, 1) {
                PtsMsg::GroupBroadcast { tabu, .. } => match tabu {
                    TabuPayload::Delta {
                        base_seq,
                        aged: got_aged,
                        added: got_added,
                        removed: got_removed,
                    } => {
                        assert_eq!(base_seq, 9);
                        assert_eq!(got_aged, aged);
                        assert_eq!(*got_added, added);
                        assert_eq!(*got_removed, removed);
                    }
                    TabuPayload::Full(_) => panic!("delta decoded as full"),
                },
                other => panic!("decoded {}", other.tag()),
            }
        }
    }

    #[test]
    fn config_roundtrips() {
        let cfg = crate::config::PtsConfig {
            n_tsw: 9,
            n_clw: 3,
            shard_fanout: 3,
            tsw_sync: crate::config::SyncPolicy::WaitAll,
            snapshot_mode: crate::config::SnapshotMode::Full,
            tabu_delta: true,
            seed: 0xDEADBEEF,
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
    fn v1_config_decodes_with_portfolio_defaults() {
        // A v1 config block is the v2 encoding truncated before the
        // aspiration + portfolio tail (41 bytes per entry + 9 fixed).
        let cfg = crate::config::PtsConfig {
            n_tsw: 4,
            seed: 77,
            ..crate::config::PtsConfig::default()
        };
        let mut buf = Vec::new();
        put_config(&cfg, &mut buf);
        let v1 = &buf[..buf.len() - 9];
        let decoded = get_config_versioned(&mut WireReader::new(v1), 1).unwrap();
        assert_eq!(decoded, cfg, "v1 defaults: empty portfolio, best-cost");
        // A v1-declared reader must NOT consume the tail bytes.
        let mut r = WireReader::new(&buf);
        let _ = get_config_versioned(&mut r, 1).unwrap();
        assert_eq!(r.remaining(), 9);
        // Unknown versions are a typed error, not a panic.
        assert_eq!(
            get_config_versioned(&mut WireReader::new(&buf), 9).err(),
            Some(WireError::VersionMismatch {
                got: 9,
                want: WIRE_VERSION
            })
        );
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
