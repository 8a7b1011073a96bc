//! Per-layer attribution from outside the program.
//!
//! [`TracedDomain`] wraps a domain so that every worker-local problem is a
//! [`Traced`] delegate: it implements `SearchProblem` and
//! `DiversifiableProblem` by forwarding every call to the real problem
//! (same `Snapshot`, `Move` and `Attribute` types, so the pipeline's
//! trajectory is unchanged) and records a span around each forwarded call.
//! The async and vt engines poll every rank on the calling thread, so the
//! recorder is thread-local and needs no locking.
//!
//! Spans stay in memory; [`write_chrome_trace`] writes the kept ones as
//! Chrome trace-event JSON when the traced run ends.

use pts_core::domain::{PtsDomain, SnapshotOf};
use pts_tabu::problem::{AttrPair, SearchProblem};
use pts_tabu::{DiversifiableProblem, FrequencyMemory};
use pts_util::Rng;
use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// The program layers the wrapper can see.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `trial_cost` / `trial_costs`: the candidate kernel.
    Kernel,
    /// `sample_move` / `sample_moves`.
    Sample,
    /// `apply` / `undo` / `attributes` / `target_attributes`: the tabu step.
    Tabu,
    /// `snapshot` / `restore`.
    Snapshot,
    /// `diversify`.
    Diversify,
}

impl Layer {
    /// Span name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Kernel => "kernel",
            Layer::Sample => "sample",
            Layer::Tabu => "tabu",
            Layer::Snapshot => "snapshot",
            Layer::Diversify => "diversify",
        }
    }
}

/// Work and busy time of one layer over one sample.
#[derive(Clone, Copy, Debug, Default)]
pub struct Busy {
    /// Forwarded calls.
    pub calls: u64,
    /// Items those calls covered (moves trial-costed or sampled; 1 per
    /// call elsewhere).
    pub items: u64,
    /// Nanoseconds inside the forwarded calls.
    pub ns: u64,
}

/// Everything the wrapper recorded over one sample.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Per layer, indexed by the [`Layer`] discriminant.
    pub busy: [Busy; 5],
    /// `apply` + `undo` calls.
    pub apply_calls: u64,
    /// `attributes` + `target_attributes` calls.
    pub attr_calls: u64,
}

impl Totals {
    /// The record of one layer.
    pub fn of(&self, layer: Layer) -> Busy {
        self.busy[layer as usize]
    }

    /// Nanoseconds inside any wrapped call.
    pub fn wrapped_ns(&self) -> u64 {
        self.busy.iter().map(|b| b.ns).sum()
    }
}

/// One kept span, in nanoseconds since the recorder's epoch.
struct Span {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    sample: u32,
    items: u64,
}

/// Spans kept for the trace file. The totals cover every call; the file
/// keeps only the first calls so it stays a few megabytes.
const KEPT_SPANS: usize = 20_000;

struct Recorder {
    epoch: Instant,
    totals: Totals,
    spans: Vec<Span>,
    sample: u32,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        totals: Totals::default(),
        spans: Vec::new(),
        sample: 0,
    });
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Time `f` as one call of `layer` covering `items` items.
#[inline]
fn span<R>(layer: Layer, items: u64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let dur_ns = end.duration_since(start).as_nanos() as u64;
        let b = &mut r.totals.busy[layer as usize];
        b.calls += 1;
        b.items += items;
        b.ns += dur_ns;
        if r.spans.len() < KEPT_SPANS {
            let start_ns = ns_since(r.epoch, start);
            let sample = r.sample;
            r.spans.push(Span {
                name: layer.name(),
                start_ns,
                dur_ns,
                sample,
                items,
            });
        }
    });
    out
}

/// Start recording sample `id`: clears the per-sample totals.
pub fn begin_sample(id: u32) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.totals = Totals::default();
        r.sample = id;
    });
}

/// The totals recorded since [`begin_sample`].
pub fn sample_totals() -> Totals {
    RECORDER.with(|r| r.borrow().totals)
}

/// Keep a bench-side span (a whole sample, say) for the trace file. It is
/// kept even past the per-call cap.
pub fn keep_span(name: &'static str, start: Instant, end: Instant, sample: u32) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let start_ns = ns_since(r.epoch, start);
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        r.spans.push(Span {
            name,
            start_ns,
            dur_ns,
            sample,
            items: 0,
        });
    });
}

fn bump(f: impl FnOnce(&mut Totals)) {
    RECORDER.with(|r| f(&mut r.borrow_mut().totals));
}

/// Write every kept span as Chrome trace-event JSON (complete `X` events,
/// microsecond timestamps; `args.sample` names the sample a span belongs
/// to). Loads in Perfetto and `chrome://tracing`.
pub fn write_chrome_trace(path: &std::path::Path, workload: &str) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    write!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    RECORDER.with(|r| -> std::io::Result<()> {
        let r = r.borrow();
        for (i, s) in r.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let cat = if s.name == "run" { "sample" } else { "layer" };
            write!(
                w,
                "{sep}\n{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"workload\":\"{workload}\",\
                 \"sample\":{},\"items\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.sample,
                s.items
            )?;
        }
        Ok(())
    })?;
    writeln!(w, "\n]}}")?;
    w.flush()
}

/// A problem whose every call is forwarded to `P` and timed.
pub struct Traced<P>(P);

impl<P: SearchProblem> SearchProblem for Traced<P> {
    type Move = P::Move;
    type Attribute = P::Attribute;
    type Snapshot = P::Snapshot;

    fn cost(&self) -> f64 {
        self.0.cost()
    }

    fn domain_size(&self) -> usize {
        self.0.domain_size()
    }

    fn sample_move(&mut self, rng: &mut Rng, range: Option<(usize, usize)>) -> Self::Move {
        span(Layer::Sample, 1, || self.0.sample_move(rng, range))
    }

    fn trial_cost(&mut self, mv: &Self::Move) -> f64 {
        span(Layer::Kernel, 1, || self.0.trial_cost(mv))
    }

    fn apply(&mut self, mv: &Self::Move) {
        bump(|t| t.apply_calls += 1);
        span(Layer::Tabu, 1, || self.0.apply(mv))
    }

    fn undo(&mut self, mv: &Self::Move) {
        bump(|t| t.apply_calls += 1);
        span(Layer::Tabu, 1, || self.0.undo(mv))
    }

    fn attributes(&self, mv: &Self::Move) -> AttrPair<Self::Attribute> {
        bump(|t| t.attr_calls += 1);
        span(Layer::Tabu, 1, || self.0.attributes(mv))
    }

    fn target_attributes(&self, mv: &Self::Move) -> AttrPair<Self::Attribute> {
        bump(|t| t.attr_calls += 1);
        span(Layer::Tabu, 1, || self.0.target_attributes(mv))
    }

    fn snapshot(&self) -> Self::Snapshot {
        span(Layer::Snapshot, 1, || self.0.snapshot())
    }

    fn restore(&mut self, snapshot: &Self::Snapshot) {
        span(Layer::Snapshot, 1, || self.0.restore(snapshot))
    }

    fn sample_moves(
        &mut self,
        rng: &mut Rng,
        range: Option<(usize, usize)>,
        count: usize,
        out: &mut Vec<Self::Move>,
    ) {
        span(Layer::Sample, count as u64, || {
            self.0.sample_moves(rng, range, count, out)
        })
    }

    fn trial_costs(&mut self, moves: &[Self::Move], out: &mut Vec<f64>) {
        span(Layer::Kernel, moves.len() as u64, || {
            self.0.trial_costs(moves, out)
        })
    }
}

impl<P: DiversifiableProblem> DiversifiableProblem for Traced<P> {
    fn diversify(
        &mut self,
        rng: &mut Rng,
        range: (usize, usize),
        depth: usize,
        width: usize,
        memory: Option<&FrequencyMemory<Self::Attribute>>,
    ) -> Vec<Self::Move> {
        span(Layer::Diversify, 1, || {
            self.0.diversify(rng, range, depth, width, memory)
        })
    }
}

/// A domain minting [`Traced`] problems; everything else is forwarded.
#[derive(Clone)]
pub struct TracedDomain<D>(pub D);

impl<D: PtsDomain> PtsDomain for TracedDomain<D> {
    type Problem = Traced<D::Problem>;

    fn name(&self) -> &str {
        self.0.name()
    }

    fn domain_size(&self) -> usize {
        self.0.domain_size()
    }

    fn initial(&self, seed: u64) -> SnapshotOf<D> {
        self.0.initial(seed)
    }

    fn freeze(&self, initial: &SnapshotOf<D>) -> Self {
        TracedDomain(self.0.freeze(initial))
    }

    fn instantiate(&self, snapshot: &SnapshotOf<D>) -> Traced<D::Problem> {
        Traced(self.0.instantiate(snapshot))
    }

    fn cost_of(&self, snapshot: &SnapshotOf<D>) -> f64 {
        self.0.cost_of(snapshot)
    }
}
