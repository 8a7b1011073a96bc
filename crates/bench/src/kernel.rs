//! Candidate-evaluation kernel microbenchmark.
//!
//! Measures the cost of one trial evaluation through the two paths the
//! engine can take on the QAP domain: the scalar path (`trial_cost` per
//! move, one bounds-checked matrix walk each) and the batched path
//! (`trial_costs` over a whole candidate list, which hoists each move's
//! flow/distance rows out of the inner loop and walks two candidates per
//! pass over the facilities). Both paths are bit-identical by contract —
//! this module measures *time only* and is what `BENCH_time.json` gates
//! on: the batched kernel must stay ≥ 1.5× faster than scalar at QAP-256,
//! measured in the same process run.
//!
//! Methodology: the two paths are interleaved round by round (scalar
//! pass, then batched pass, over the same freshly sampled candidate
//! list) so frequency scaling or a noisy neighbour hits both sides
//! equally, and every result feeds [`std::hint::black_box`] so the
//! optimizer cannot dead-code either loop. Reported figures are
//! aggregate ns per trial across all rounds after one untimed warm-up.

use pts_tabu::problem::SearchProblem;
use pts_tabu::qap::Qap;
use pts_util::Rng;
use std::hint::black_box;
use std::time::Instant;

/// One same-run scalar-vs-batched kernel measurement.
#[derive(Clone, Copy, Debug)]
pub struct KernelBench {
    /// Problem size (facilities).
    pub n: usize,
    /// Candidate-list length per evaluation batch.
    pub batch: usize,
    /// Timed rounds aggregated into the figures below.
    pub rounds: usize,
    /// Scalar path: ns per `trial_cost` call.
    pub scalar_ns_per_trial: f64,
    /// Batched path: ns per trial inside `trial_costs`.
    pub batched_ns_per_trial: f64,
}

impl KernelBench {
    /// Scalar-over-batched time ratio (> 1 means batching wins).
    pub fn speedup(&self) -> f64 {
        self.scalar_ns_per_trial / self.batched_ns_per_trial
    }
}

/// Run the QAP kernel benchmark: `rounds` interleaved scalar/batched
/// passes over `batch`-move candidate lists on a random `n`-facility
/// instance. Deterministic in `seed` (the timings are not, the sampled
/// workload is).
pub fn bench_qap_kernel(n: usize, batch: usize, rounds: usize, seed: u64) -> KernelBench {
    assert!(rounds >= 1 && batch >= 1);
    let mut q = Qap::random(n, seed);
    let mut rng = Rng::new(seed ^ 0x5EED);
    let mut moves = Vec::with_capacity(batch);
    let mut costs = Vec::with_capacity(batch);

    let mut scalar_ns = 0u128;
    let mut batched_ns = 0u128;
    // Round 0 is the warm-up: run both paths untimed so cold caches and
    // the first page faults are off the books for both sides equally.
    for round in 0..=rounds {
        q.sample_moves(&mut rng, None, batch, &mut moves);

        let t = Instant::now();
        let mut acc = 0.0;
        for mv in &moves {
            acc += q.trial_cost(black_box(mv));
        }
        black_box(acc);
        let scalar = t.elapsed();

        let t = Instant::now();
        q.trial_costs(black_box(&moves), &mut costs);
        black_box(&costs);
        let batched = t.elapsed();

        if round > 0 {
            scalar_ns += scalar.as_nanos();
            batched_ns += batched.as_nanos();
        }
        // Walk the state between rounds so successive batches are
        // evaluated from different assignments, like the real search.
        let mv = q.sample_move(&mut rng, None);
        q.apply(&mv);
    }

    let trials = (rounds * batch) as f64;
    KernelBench {
        n,
        batch,
        rounds,
        scalar_ns_per_trial: scalar_ns as f64 / trials,
        batched_ns_per_trial: batched_ns as f64 / trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_bench_reports_positive_timings() {
        // Tiny workload: correctness of the harness, not the speedup
        // claim (that is the release-mode gate in BENCH_time.json).
        let b = bench_qap_kernel(16, 8, 3, 42);
        assert_eq!((b.n, b.batch, b.rounds), (16, 8, 3));
        assert!(b.scalar_ns_per_trial > 0.0);
        assert!(b.batched_ns_per_trial > 0.0);
        assert!(b.speedup().is_finite() && b.speedup() > 0.0);
    }
}
