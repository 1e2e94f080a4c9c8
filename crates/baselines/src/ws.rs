//! Weighted Sum \[19\]: scalarize the objectives with a sweep of weight
//! vectors and solve each scalarized problem from scratch.
//!
//! The method's two well-known weaknesses — both reproduced in Fig. 4(b) —
//! are that (a) on non-convex regions no weight reaches some Pareto points,
//! and (b) on near-linear frontiers many weights collapse to the same
//! anchor, so far fewer distinct points come back than were requested.
//! It is also not incremental: no usable Pareto set exists until the whole
//! sweep finishes.

use crate::{adam_minimize, anchors, simplex_weights, BaselineRun};
use std::time::Instant;
use udao_core::pareto::{pareto_filter, ParetoPoint};
use udao_core::MooProblem;

/// Weighted-Sum driver configuration.
#[derive(Debug, Clone)]
pub struct WsConfig {
    /// Multi-start restarts per weight vector.
    pub starts: usize,
    /// Adam iterations per start.
    pub iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WsConfig {
    fn default() -> Self {
        Self { starts: 12, iters: 220, seed: 0x55AA }
    }
}

/// Run Weighted Sum, requesting `n_points` Pareto points.
pub fn weighted_sum(problem: &MooProblem, n_points: usize, cfg: &WsConfig) -> BaselineRun {
    let start = Instant::now();
    let k = problem.num_objectives();
    let (anchor_pts, utopia, nadir) = anchors(problem, cfg.seed);
    let width: Vec<f64> = utopia.iter().zip(&nadir).map(|(u, n)| (n - u).max(1e-9)).collect();

    let mut raw: Vec<ParetoPoint> = anchor_pts;
    let mut evals = 0usize;
    for (wi, w) in simplex_weights(k, n_points).into_iter().enumerate() {
        let objectives = problem.objectives.clone();
        let u = utopia.clone();
        let wd = width.clone();
        let scalarized = move |x: &[f64], g: &mut [f64]| -> f64 {
            let mut val = 0.0;
            let mut gj = vec![0.0; x.len()];
            for gg in g.iter_mut() {
                *gg = 0.0;
            }
            for (j, m) in objectives.iter().enumerate() {
                let fj = (m.predict(x) - u[j]) / wd[j];
                val += w[j] * fj;
                m.gradient(x, &mut gj);
                for (go, gi) in g.iter_mut().zip(&gj) {
                    *go += w[j] * gi / wd[j];
                }
            }
            val
        };
        let (x, _) = adam_minimize(
            problem.dim,
            cfg.starts,
            cfg.iters,
            0.08,
            cfg.seed ^ (wi as u64) << 4,
            &scalarized,
        );
        evals += cfg.starts * cfg.iters * k;
        if let Ok(f) = problem.evaluate(&x) {
            if problem.feasible(&f, 1e-3) {
                raw.push(ParetoPoint::new(x, f));
            }
        }
    }
    // WS yields nothing until the entire sweep completes.
    let frontier = pareto_filter(raw);
    let elapsed = start.elapsed().as_secs_f64();
    BaselineRun { checkpoints: vec![(elapsed, frontier.clone())], frontier, evals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use udao_core::objective::{FnModel, ObjectiveModel};
    use udao_core::pareto::dominates;

    fn problem() -> MooProblem {
        let lat: Arc<dyn ObjectiveModel> =
            Arc::new(FnModel::new(2, |x| 100.0 + 200.0 * (1.0 - x[0]) + 30.0 * x[1]));
        let cost: Arc<dyn ObjectiveModel> =
            Arc::new(FnModel::new(2, |x| 8.0 + 16.0 * x[0] + 8.0 * x[1]));
        MooProblem::new(2, vec![lat, cost])
    }

    #[test]
    fn ws_finds_nondominated_points() {
        let run = weighted_sum(&problem(), 10, &WsConfig::default());
        assert!(!run.frontier.is_empty());
        for a in &run.frontier {
            for b in &run.frontier {
                assert!(!dominates(&a.f, &b.f) || a.f == b.f);
            }
        }
    }

    #[test]
    fn ws_collapses_on_linear_frontiers() {
        // On an affine frontier every interior weight lands on an anchor —
        // the poor-coverage phenomenon of Fig. 4(b).
        let run = weighted_sum(&problem(), 10, &WsConfig::default());
        assert!(
            run.frontier.len() <= 4,
            "expected heavy collapse, got {} points",
            run.frontier.len()
        );
    }

    #[test]
    fn ws_covers_convex_frontiers_better() {
        // Strictly convex frontier: distinct weights map to distinct points.
        let f1: Arc<dyn ObjectiveModel> = Arc::new(FnModel::new(1, |x| x[0] * x[0]));
        let f2: Arc<dyn ObjectiveModel> = Arc::new(FnModel::new(1, |x| (1.0 - x[0]) * (1.0 - x[0])));
        let p = MooProblem::new(1, vec![f1, f2]);
        let run = weighted_sum(&p, 8, &WsConfig::default());
        assert!(run.frontier.len() >= 5, "got {}", run.frontier.len());
    }

    #[test]
    fn single_checkpoint_at_the_end() {
        let run = weighted_sum(&problem(), 6, &WsConfig::default());
        assert_eq!(run.checkpoints.len(), 1, "WS is not incremental");
        assert!(run.evals > 0);
    }
}
