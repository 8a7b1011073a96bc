//! Speedup computation per the paper's definition.
//!
//! For non-deterministic search, speedup is `t(1,x) / t(n,x)`: the time the
//! 1-worker configuration needs to first reach an x-quality solution over
//! the time the n-worker configuration needs for the same quality. The
//! quality target x must be reachable by *every* configuration in a sweep.
//! The paper-figure experiments (`pts_bench::figures`) take x from
//! [`fractional_quality_target`] at 0.8: a mid-course cost, 80% of the way
//! from the initial cost to the sweep's worst final cost. `pts sweep` and
//! the parallelization tests take the end-of-run target,
//! [`common_quality_target`]: the worst final cost, with a small slack.

use pts_tabu::trace::Trace;

/// One point of a speedup sweep.
#[derive(Clone, Debug)]
pub struct SpeedupPoint {
    /// Degree of parallelism (number of CLWs or TSWs).
    pub n: usize,
    /// Final best cost of this configuration.
    pub best_cost: f64,
    /// Time to first reach the shared quality target.
    pub time_to_quality: Option<f64>,
    /// `t(1,x)/t(n,x)`; `None` when either time is undefined.
    pub speedup: Option<f64>,
}

/// Pick the common quality target for a sweep: the worst final best cost,
/// relaxed by `slack` (e.g. 0.002 = 0.2%) so float noise cannot make the
/// worst run miss its own target.
pub fn common_quality_target(traces: &[(usize, Trace)], slack: f64) -> f64 {
    assert!(!traces.is_empty());
    let worst = traces
        .iter()
        .map(|(_, t)| t.best_cost().expect("non-empty trace"))
        .fold(f64::NEG_INFINITY, f64::max);
    worst * (1.0 + slack) + 1e-12
}

/// A mid-course quality target: the cost `frac` of the way from the shared
/// initial cost down to the worst final best across the sweep.
///
/// End-of-run targets (`frac = 1`) sit on the flat tail of every trace,
/// where crossing times are dominated by luck; the paper's `x` values are
/// mid-course qualities ("reaching a solution of cost less than x"), which
/// every configuration crosses while still improving steadily.
pub fn fractional_quality_target(traces: &[(usize, Trace)], frac: f64) -> f64 {
    assert!(!traces.is_empty());
    assert!((0.0..=1.0).contains(&frac));
    let start = traces
        .iter()
        .map(|(_, t)| t.points().first().expect("non-empty trace").best_cost)
        .fold(f64::NEG_INFINITY, f64::max);
    let worst_final = traces
        .iter()
        .map(|(_, t)| t.best_cost().expect("non-empty trace"))
        .fold(f64::NEG_INFINITY, f64::max);
    start - frac * (start - worst_final) + 1e-12
}

/// Compute the sweep's speedup points. `traces` holds `(n, trace)` pairs;
/// the entry with the smallest `n` is the baseline.
pub fn speedup_sweep(traces: &[(usize, Trace)], quality: f64) -> Vec<SpeedupPoint> {
    assert!(!traces.is_empty());
    let baseline = traces
        .iter()
        .min_by_key(|(n, _)| *n)
        .expect("non-empty sweep");
    let t1 = baseline.1.time_to_reach(quality);
    traces
        .iter()
        .map(|(n, trace)| {
            let tn = trace.time_to_reach(quality);
            let speedup = match (t1, tn) {
                (Some(t1), Some(tn)) if tn > 0.0 => Some(t1 / tn),
                (Some(_), Some(_)) => Some(f64::INFINITY),
                _ => None,
            };
            SpeedupPoint {
                n: *n,
                best_cost: trace.best_cost().expect("non-empty trace"),
                time_to_quality: tn,
                speedup,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(points: &[(f64, f64)]) -> Trace {
        let mut t = Trace::new();
        for (i, &(time, cost)) in points.iter().enumerate() {
            t.record(time, i as u64, cost);
        }
        t
    }

    #[test]
    fn target_is_worst_final_cost_with_slack() {
        let traces = vec![
            (1, trace(&[(1.0, 10.0), (5.0, 4.0)])),
            (2, trace(&[(1.0, 10.0), (3.0, 6.0)])),
        ];
        let x = common_quality_target(&traces, 0.0);
        assert!((x - 6.0).abs() < 1e-9);
        // Every trace reaches it.
        for (_, t) in &traces {
            assert!(t.time_to_reach(x).is_some());
        }
    }

    #[test]
    fn sweep_computes_ratios_against_smallest_n() {
        let traces = vec![
            (1, trace(&[(0.0, 10.0), (8.0, 5.0)])),
            (2, trace(&[(0.0, 10.0), (4.0, 5.0)])),
            (4, trace(&[(0.0, 10.0), (2.0, 5.0)])),
        ];
        let pts = speedup_sweep(&traces, 5.0);
        assert_eq!(pts.len(), 3);
        assert!((pts[0].speedup.unwrap() - 1.0).abs() < 1e-9);
        assert!((pts[1].speedup.unwrap() - 2.0).abs() < 1e-9);
        assert!((pts[2].speedup.unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fractional_target_interpolates() {
        let traces = vec![
            (1, trace(&[(0.0, 10.0), (8.0, 4.0)])),
            (2, trace(&[(0.0, 10.0), (4.0, 2.0)])),
        ];
        // start 10, worst final 4 ⇒ frac 0.5 target ≈ 7.
        let x = fractional_quality_target(&traces, 0.5);
        assert!((x - 7.0).abs() < 1e-9);
        // frac 1.0 reduces to the worst final.
        let x = fractional_quality_target(&traces, 1.0);
        assert!((x - 4.0).abs() < 1e-9);
        // Every configuration reaches any frac <= 1 target.
        for (_, t) in &traces {
            assert!(t.time_to_reach(x).is_some());
        }
    }

    #[test]
    fn unreachable_quality_yields_none() {
        let traces = vec![
            (1, trace(&[(0.0, 10.0)])),
            (2, trace(&[(0.0, 10.0), (1.0, 3.0)])),
        ];
        let pts = speedup_sweep(&traces, 5.0);
        assert!(pts[0].speedup.is_none());
        // Baseline never reached quality ⇒ no ratio for anyone.
        assert!(pts[1].speedup.is_none());
        assert!(pts[1].time_to_quality.is_some());
    }
}
