//! The contract the benchmark's traced runs rest on.
//!
//! `ptsbench/src/layers.rs` times every problem call through a wrapper
//! domain (`TracedDomain`, minting `Traced` problems) that forwards the
//! `PtsDomain`, `SearchProblem` and `DiversifiableProblem` methods it knows
//! and nothing else, and it checks that a traced run ends on the untraced
//! run's best bit for bit. A pipeline path through a trait method the
//! wrapper does not forward would, under the wrapper, run that method's
//! default body instead, and the traced run would part ways with the
//! untraced one. [`Counted`] forwards exactly what `Traced` forwards and
//! counts calls, so these tests hold every path to that contract.
//!
//! Neither wrapper forwards `SearchProblem::apply_all`. A wrapped CLW
//! commits its syncs and mirrored moves through the default per-move loop,
//! while a bare QAP CLW prices them two per walk, so the QAP runs below
//! also prove that the two end on the same bits.

mod common;

use common::RunPin;
use parallel_tabu_search::core::{EngineOutput, SnapshotOf};
use parallel_tabu_search::prelude::*;
use parallel_tabu_search::tabu::problem::AttrPair;
use parallel_tabu_search::tabu::FrequencyMemory;
use std::sync::{Arc, Mutex};

/// What one problem instance was asked to do.
#[derive(Clone, Copy, Debug, Default)]
struct Calls {
    restores: u64,
    /// `sample_moves` batches: only a CLW samples through the problem.
    sample_batches: u64,
}

type Log = Arc<Mutex<Vec<Calls>>>;

/// A problem whose every call is forwarded to `P`: the methods
/// ptsbench's `Traced` forwards, and only those.
struct Counted<P> {
    inner: P,
    id: usize,
    log: Log,
}

impl<P> Counted<P> {
    fn count(&self, f: impl FnOnce(&mut Calls)) {
        f(&mut self.log.lock().expect("call log")[self.id]);
    }
}

impl<P: SearchProblem> SearchProblem for Counted<P> {
    type Move = P::Move;
    type Attribute = P::Attribute;
    type Snapshot = P::Snapshot;

    fn cost(&self) -> f64 {
        self.inner.cost()
    }

    fn domain_size(&self) -> usize {
        self.inner.domain_size()
    }

    fn sample_move(&mut self, rng: &mut Rng, range: Option<(usize, usize)>) -> Self::Move {
        self.inner.sample_move(rng, range)
    }

    fn trial_cost(&mut self, mv: &Self::Move) -> f64 {
        self.inner.trial_cost(mv)
    }

    fn apply(&mut self, mv: &Self::Move) {
        self.inner.apply(mv)
    }

    fn undo(&mut self, mv: &Self::Move) {
        self.inner.undo(mv)
    }

    fn attributes(&self, mv: &Self::Move) -> AttrPair<Self::Attribute> {
        self.inner.attributes(mv)
    }

    fn target_attributes(&self, mv: &Self::Move) -> AttrPair<Self::Attribute> {
        self.inner.target_attributes(mv)
    }

    fn snapshot(&self) -> Self::Snapshot {
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: &Self::Snapshot) {
        self.count(|c| c.restores += 1);
        self.inner.restore(snapshot)
    }

    fn sample_moves(
        &mut self,
        rng: &mut Rng,
        range: Option<(usize, usize)>,
        count: usize,
        out: &mut Vec<Self::Move>,
    ) {
        self.count(|c| c.sample_batches += 1);
        self.inner.sample_moves(rng, range, count, out)
    }

    fn trial_costs(&mut self, moves: &[Self::Move], out: &mut Vec<f64>) {
        self.inner.trial_costs(moves, out)
    }
}

impl<P: DiversifiableProblem> DiversifiableProblem for Counted<P> {
    fn diversify(
        &mut self,
        rng: &mut Rng,
        range: (usize, usize),
        depth: usize,
        width: usize,
        memory: Option<&FrequencyMemory<Self::Attribute>>,
    ) -> Vec<Self::Move> {
        self.inner.diversify(rng, range, depth, width, memory)
    }
}

/// A domain minting [`Counted`] problems: what ptsbench's `TracedDomain`
/// forwards, and only that.
#[derive(Clone)]
struct CountedDomain<D> {
    inner: D,
    log: Log,
}

impl<D> CountedDomain<D> {
    fn new(inner: D) -> CountedDomain<D> {
        CountedDomain {
            inner,
            log: Log::default(),
        }
    }

    /// The calls of every instance whose problem sampled moves: the CLWs.
    fn clw_calls(&self) -> Vec<Calls> {
        let log = self.log.lock().expect("call log");
        log.iter()
            .copied()
            .filter(|c| c.sample_batches > 0)
            .collect()
    }
}

impl<D: PtsDomain> PtsDomain for CountedDomain<D> {
    type Problem = Counted<D::Problem>;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn domain_size(&self) -> usize {
        self.inner.domain_size()
    }

    fn initial(&self, seed: u64) -> SnapshotOf<D> {
        self.inner.initial(seed)
    }

    fn freeze(&self, initial: &SnapshotOf<D>) -> Self {
        CountedDomain {
            inner: self.inner.freeze(initial),
            log: Arc::clone(&self.log),
        }
    }

    fn instantiate(&self, snapshot: &SnapshotOf<D>) -> Counted<D::Problem> {
        let mut log = self.log.lock().expect("call log");
        log.push(Calls::default());
        Counted {
            inner: self.inner.instantiate(snapshot),
            id: log.len() - 1,
            log: Arc::clone(&self.log),
        }
    }

    fn cost_of(&self, snapshot: &SnapshotOf<D>) -> f64 {
        self.inner.cost_of(snapshot)
    }
}

/// Run `run` on the paper cluster over `domain` bare and wrapped, require
/// the two to end bit for bit alike, and return the wrapped domain.
fn wrapped_matches_bare<D: PtsDomain>(run: &PtsRun, domain: D) -> CountedDomain<D>
where
    SnapshotOf<D>: PartialEq + std::fmt::Debug,
{
    let bare: EngineOutput<D> = run.execute(&domain, &VirtualEngine::paper());
    let counted = CountedDomain::new(domain);
    let wrapped = run.execute(&counted, &VirtualEngine::paper());
    assert_eq!(RunPin::engine(&wrapped), RunPin::engine(&bare));
    assert_eq!(wrapped.outcome.best, bare.outcome.best);
    let trace = |o: &[parallel_tabu_search::tabu::trace::TracePoint]| -> Vec<(u64, u64)> {
        o.iter().map(|p| (p.iter, p.best_cost.to_bits())).collect()
    };
    assert_eq!(
        trace(wrapped.outcome.trace.points()),
        trace(bare.outcome.trace.points())
    );
    counted
}

#[test]
fn a_wrapped_qap_run_with_two_clws_per_tsw_ends_as_the_bare_one() {
    // The qap-kernel shape, smaller: 4 TSW x 2 CLW, 32 candidates x
    // depth 3. Its long local phases move a TSW far between syncs, so
    // some CLW syncs follow the swap path and some restore.
    let run = Pts::builder()
        .seed(3)
        .tsw_workers(4)
        .clw_workers(2)
        .candidates(32)
        .depth(3)
        .global_iters(3)
        .local_iters(30)
        .sync(SyncPolicy::WaitAll)
        .build()
        .expect("valid configuration");
    let counted = wrapped_matches_bare(&run, QapDomain::random(96, 21));
    let clws = counted.clw_calls();
    assert_eq!(clws.len(), 8);
    let restores: u64 = clws.iter().map(|c| c.restores).sum();
    assert!(
        0 < restores && restores < 8 * 3,
        "{restores} of the 24 CLW syncs restored"
    );
}

#[test]
fn a_wrapped_placement_run_ends_as_the_bare_one() {
    let run = Pts::builder()
        .seed(5)
        .tsw_workers(2)
        .clw_workers(2)
        .candidates(8)
        .depth(3)
        .global_iters(3)
        .local_iters(8)
        .sync(SyncPolicy::HalfReport)
        .build()
        .expect("valid configuration");
    let domain = PlacementDomain::new(
        Arc::new(parallel_tabu_search::netlist::highway()),
        run.config(),
    );
    wrapped_matches_bare(&run, domain);
}

#[test]
fn a_wrapped_clw_follows_every_short_sync_without_a_restore() {
    // The qap-swarm shape, smaller: one CLW per TSW and short rounds, so
    // every sync's swap path stays within n/4 and no CLW restores. A sync
    // reached through a method the wrapper does not forward would restore
    // here.
    let run = Pts::builder()
        .seed(7)
        .tsw_workers(8)
        .clw_workers(1)
        .candidates(5)
        .depth(2)
        .global_iters(5)
        .local_iters(3)
        .differentiate_streams(true)
        .sync(SyncPolicy::WaitAll)
        .build()
        .expect("valid configuration");
    let counted = wrapped_matches_bare(&run, QapDomain::random(128, 13));
    let clws = counted.clw_calls();
    assert_eq!(clws.len(), 8);
    assert!(clws.iter().all(|c| c.restores == 0), "{clws:?}");
}
