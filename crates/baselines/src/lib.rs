//! # udao-baselines — comparison methods for the UDAO evaluation
//!
//! Every MOO method UDAO is compared against in §VI, implemented from
//! scratch over the same [`MooProblem`](udao_core::MooProblem) interface so
//! that all methods are scored with identical metrics:
//!
//! * [`ws`] — Weighted Sum \[19\]: a weight sweep, each solved by multi-start
//!   gradient descent. Known to cover convex frontiers poorly.
//! * [`nc`] — Normalized (Normal) Constraints \[21\]: evenly spaced points on
//!   the utopia plane with normal-constraint sub-problems.
//! * [`evo`] — NSGA-II \[6\]: full fast-non-dominated-sort with crowding
//!   distance, binary tournament selection, SBX crossover, and polynomial
//!   mutation. Randomized, hence *inconsistent* across probe budgets
//!   (Fig. 4(e)).
//! * [`mobo`] — multi-objective Bayesian optimization: an EHVI acquisition
//!   (qEHVI-style \[5\]) and a predictive-entropy-search approximation
//!   (PESM-style \[10\]) over from-scratch GP surrogates.
//! * [`ottertune`] — an OtterTune-style single-objective tuner \[35\]: GP
//!   surrogate with Expected-Improvement search and workload mapping.
//!
//! Each method returns a [`BaselineRun`] carrying the final frontier and
//! timestamped checkpoints, so the experiment harness computes uncertain
//! space / hypervolume with the *same* `udao-core` routines used for the
//! Progressive Frontier algorithms.

#![warn(missing_docs)]

pub mod evo;
pub mod mobo;
pub mod nc;
pub mod ottertune;
pub mod ws;

use udao_core::pareto::ParetoPoint;

/// Result of one baseline MOO run.
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// Final frontier (dominance-filtered).
    pub frontier: Vec<ParetoPoint>,
    /// `(elapsed seconds, frontier so far)` checkpoints, recorded whenever
    /// the method produces a usable Pareto set.
    pub checkpoints: Vec<(f64, Vec<ParetoPoint>)>,
    /// Model/objective evaluations consumed.
    pub evals: usize,
}

impl BaselineRun {
    /// Elapsed time at which the method first produced a non-empty set.
    pub fn first_set_time(&self) -> Option<f64> {
        self.checkpoints.iter().find(|(_, f)| !f.is_empty()).map(|(t, _)| *t)
    }
}

/// Evenly spread weight vectors on the k-simplex: `n` vectors for `k = 2`,
/// a triangular lattice of about `n` vectors for `k = 3`.
pub(crate) fn simplex_weights(k: usize, n: usize) -> Vec<Vec<f64>> {
    assert!(k == 2 || k == 3, "simplex_weights supports k in {{2,3}}");
    if k == 2 {
        let n = n.max(2);
        (0..n)
            .map(|i| {
                let w = i as f64 / (n - 1) as f64;
                vec![w, 1.0 - w]
            })
            .collect()
    } else {
        // Smallest lattice resolution m with (m+1)(m+2)/2 >= n.
        let mut m = 1usize;
        while (m + 1) * (m + 2) / 2 < n {
            m += 1;
        }
        let mut out = Vec::new();
        for i in 0..=m {
            for j in 0..=(m - i) {
                let l = m - i - j;
                out.push(vec![i as f64 / m as f64, j as f64 / m as f64, l as f64 / m as f64]);
            }
        }
        out
    }
}

/// Minimize `f` (with gradient callback) over `[0,1]^dim` by Adam with
/// multi-start — the shared inner optimizer of the WS and NC baselines.
pub(crate) fn adam_minimize(
    dim: usize,
    starts: usize,
    iters: usize,
    lr: f64,
    seed: u64,
    f: &dyn Fn(&[f64], &mut [f64]) -> f64,
) -> (Vec<f64>, f64) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best_x = vec![0.5; dim];
    let mut best_v = f64::INFINITY;
    for s in 0..starts.max(1) {
        let mut x: Vec<f64> = if s == 0 {
            vec![0.5; dim]
        } else {
            (0..dim).map(|_| rng.gen::<f64>()).collect()
        };
        let mut m = vec![0.0; dim];
        let mut v = vec![0.0; dim];
        let mut g = vec![0.0; dim];
        for t in 1..=iters {
            let val = f(&x, &mut g);
            if val < best_v {
                best_v = val;
                best_x = x.clone();
            }
            let (b1, b2, eps) = (0.9f64, 0.999f64, 1e-8);
            for d in 0..dim {
                m[d] = b1 * m[d] + (1.0 - b1) * g[d];
                v[d] = b2 * v[d] + (1.0 - b2) * g[d] * g[d];
                let mh = m[d] / (1.0 - b1.powi(t as i32));
                let vh = v[d] / (1.0 - b2.powi(t as i32));
                x[d] = (x[d] - lr * mh / (vh.sqrt() + eps)).clamp(0.0, 1.0);
            }
        }
        let val = f(&x, &mut g);
        if val < best_v {
            best_v = val;
            best_x = x;
        }
    }
    (best_x, best_v)
}

/// Compute the shared Utopia/Nadir reference box of a problem — used by
/// the experiment harness so every method's uncertain-space metric is
/// evaluated against the same box.
pub fn reference_box(problem: &udao_core::MooProblem, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let (_, utopia, nadir) = anchors(problem, seed);
    (utopia, nadir)
}

/// Compute the per-objective anchor points of a problem with plain
/// multi-start Adam; returns `(anchors, utopia, nadir)`.
pub(crate) fn anchors(
    problem: &udao_core::MooProblem,
    seed: u64,
) -> (Vec<ParetoPoint>, Vec<f64>, Vec<f64>) {
    let k = problem.num_objectives();
    let mut pts = Vec::with_capacity(k);
    for i in 0..k {
        let obj = problem.objectives[i].clone();
        let (x, _) = adam_minimize(problem.dim, 6, 100, 0.08, seed ^ (i as u64) << 8, &|x, g| {
            obj.gradient(x, g);
            obj.predict(x)
        });
        let f = problem.evaluate(&x).expect("anchor evaluates");
        pts.push(ParetoPoint::new(x, f));
    }
    let mut utopia = pts[0].f.clone();
    let mut nadir = pts[0].f.clone();
    for p in &pts[1..] {
        for d in 0..k {
            utopia[d] = utopia[d].min(p.f[d]);
            nadir[d] = nadir[d].max(p.f[d]);
        }
    }
    (pts, utopia, nadir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simplex_weights_2d_cover_the_segment() {
        let w = simplex_weights(2, 5);
        assert_eq!(w.len(), 5);
        assert_eq!(w[0], vec![0.0, 1.0]);
        assert_eq!(w[4], vec![1.0, 0.0]);
        for wi in &w {
            assert!((wi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn simplex_weights_3d_sum_to_one() {
        let w = simplex_weights(3, 10);
        assert!(w.len() >= 10);
        for wi in &w {
            assert!((wi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(wi.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn adam_minimizes_a_bowl() {
        let (x, v) = adam_minimize(2, 4, 200, 0.05, 1, &|x, g| {
            g[0] = 2.0 * (x[0] - 0.7);
            g[1] = 2.0 * (x[1] - 0.2);
            (x[0] - 0.7).powi(2) + (x[1] - 0.2).powi(2)
        });
        assert!(v < 1e-4, "v = {v}");
        assert!((x[0] - 0.7).abs() < 0.02 && (x[1] - 0.2).abs() < 0.02);
    }

    #[test]
    fn first_set_time_skips_empty_checkpoints() {
        let run = BaselineRun {
            frontier: vec![],
            checkpoints: vec![
                (0.1, vec![]),
                (0.5, vec![ParetoPoint::new(vec![0.0], vec![1.0, 2.0])]),
            ],
            evals: 0,
        };
        assert_eq!(run.first_set_time(), Some(0.5));
    }
}
