//! Normalized (Normal) Constraints \[21\]: anchor the objectives, lay evenly
//! spaced points on the (normalized) utopia plane, and solve one
//! constrained problem per point, cutting the feasible region with normal
//! hyperplanes.
//!
//! Reproduced weaknesses (§III, Fig. 4(a)/(b)): the method asks for `n`
//! points but returns fewer (infeasible or collapsing sub-problems), is not
//! incremental (nothing usable until the sweep completes), and growing the
//! point budget restarts the computation from scratch.

use crate::{adam_minimize, anchors, simplex_weights, BaselineRun};
use std::time::Instant;
use udao_core::pareto::{pareto_filter, ParetoPoint};
use udao_core::MooProblem;

/// Normal-Constraints driver configuration.
#[derive(Debug, Clone)]
pub struct NcConfig {
    /// Multi-start restarts per utopia-plane point.
    pub starts: usize,
    /// Adam iterations per start.
    pub iters: usize,
    /// Penalty weight for violated normal constraints.
    pub penalty: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NcConfig {
    fn default() -> Self {
        Self { starts: 12, iters: 220, penalty: 50.0, seed: 0x4E43 }
    }
}

/// Run Normalized Constraints, requesting `n_points` Pareto points.
pub fn normal_constraints(problem: &MooProblem, n_points: usize, cfg: &NcConfig) -> BaselineRun {
    let start = Instant::now();
    let k = problem.num_objectives();
    let (anchor_pts, utopia, nadir) = anchors(problem, cfg.seed);
    let width: Vec<f64> = utopia.iter().zip(&nadir).map(|(u, n)| (n - u).max(1e-9)).collect();
    // Normalized anchor images μ̄_i.
    let mu: Vec<Vec<f64>> = anchor_pts
        .iter()
        .map(|p| p.f.iter().enumerate().map(|(d, v)| (v - utopia[d]) / width[d]).collect())
        .collect();
    // Utopia-plane directions: μ̄_k − μ̄_i for i < k−1 … plus the last axis
    // as optimization target (standard NNC uses F̄_k as the target).
    let dirs: Vec<Vec<f64>> = (0..k - 1)
        .map(|i| (0..k).map(|d| mu[k - 1][d] - mu[i][d]).collect())
        .collect();

    let mut raw: Vec<ParetoPoint> = anchor_pts.clone();
    let mut evals = 0usize;
    for (pi, lambda) in simplex_weights(k, n_points).into_iter().enumerate() {
        // Utopia-plane grid point X̄_pj = Σ λ_i μ̄_i.
        let xp: Vec<f64> =
            (0..k).map(|d| (0..k).map(|i| lambda[i] * mu[i][d]).sum()).collect();
        let objectives = problem.objectives.clone();
        let u = utopia.clone();
        let wd = width.clone();
        let dirs_c = dirs.clone();
        let xp_c = xp.clone();
        let penalty = cfg.penalty;
        let loss = move |x: &[f64], g: &mut [f64]| -> f64 {
            // Normalized objective vector and its per-objective gradients.
            let mut fbar = vec![0.0; k];
            let mut grads: Vec<Vec<f64>> = Vec::with_capacity(k);
            for (j, m) in objectives.iter().enumerate() {
                fbar[j] = (m.predict(x) - u[j]) / wd[j];
                let mut gj = vec![0.0; x.len()];
                m.gradient(x, &mut gj);
                for gi in gj.iter_mut() {
                    *gi /= wd[j];
                }
                grads.push(gj);
            }
            for gg in g.iter_mut() {
                *gg = 0.0;
            }
            // Target: minimize the last normalized objective.
            let mut val = fbar[k - 1];
            for (go, gi) in g.iter_mut().zip(&grads[k - 1]) {
                *go += gi;
            }
            // Normal constraints: dir · (F̄ − X̄_p) ≤ 0.
            for dir in &dirs_c {
                let viol: f64 =
                    dir.iter().enumerate().map(|(d, dd)| dd * (fbar[d] - xp_c[d])).sum();
                if viol > 0.0 {
                    val += penalty * viol * viol;
                    for d in 0..k {
                        let c = 2.0 * penalty * viol * dir[d];
                        for (go, gi) in g.iter_mut().zip(&grads[d]) {
                            *go += c * gi;
                        }
                    }
                }
            }
            val
        };
        let (x, _) = adam_minimize(
            problem.dim,
            cfg.starts,
            cfg.iters,
            0.08,
            cfg.seed ^ (pi as u64) << 4,
            &loss,
        );
        evals += cfg.starts * cfg.iters * k;
        if let Ok(f) = problem.evaluate(&x) {
            // Accept only solutions actually satisfying the normal cuts.
            let fbar: Vec<f64> =
                f.iter().enumerate().map(|(d, v)| (v - utopia[d]) / width[d]).collect();
            let ok = dirs.iter().all(|dir| {
                dir.iter().enumerate().map(|(d, dd)| dd * (fbar[d] - xp[d])).sum::<f64>() < 0.02
            });
            if ok && problem.feasible(&f, 1e-3) {
                raw.push(ParetoPoint::new(x, f));
            }
        }
    }
    let frontier = pareto_filter(raw);
    let elapsed = start.elapsed().as_secs_f64();
    BaselineRun { checkpoints: vec![(elapsed, frontier.clone())], frontier, evals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use udao_core::objective::{FnModel, ObjectiveModel};
    use udao_core::pareto::{dominates, uncertain_space};

    fn problem() -> MooProblem {
        let lat: Arc<dyn ObjectiveModel> =
            Arc::new(FnModel::new(2, |x| 100.0 + 200.0 * (1.0 - x[0]) + 30.0 * x[1]));
        let cost: Arc<dyn ObjectiveModel> =
            Arc::new(FnModel::new(2, |x| 8.0 + 16.0 * x[0] + 8.0 * x[1]));
        MooProblem::new(2, vec![lat, cost])
    }

    #[test]
    fn nc_finds_spread_points_on_linear_frontier() {
        let run = normal_constraints(&problem(), 10, &NcConfig::default());
        // NC handles linear frontiers better than WS but may return fewer
        // points than requested.
        assert!(run.frontier.len() >= 4, "got {}", run.frontier.len());
        let fs: Vec<Vec<f64>> = run.frontier.iter().map(|p| p.f.clone()).collect();
        let u = uncertain_space(&fs, &[100.0, 8.0], &[300.0, 24.0]);
        assert!(u < 0.5, "uncertainty {u}");
        for a in &run.frontier {
            for b in &run.frontier {
                assert!(!dominates(&a.f, &b.f) || a.f == b.f);
            }
        }
    }

    #[test]
    fn nc_point_count_is_bounded_by_request_plus_anchors() {
        let run = normal_constraints(&problem(), 12, &NcConfig::default());
        // 12 utopia-plane sub-problems plus the 2 anchor points; collapses
        // and infeasible cuts typically return fewer.
        assert!(run.frontier.len() <= 14, "got {}", run.frontier.len());
    }

    #[test]
    fn nc_is_not_incremental() {
        let run = normal_constraints(&problem(), 8, &NcConfig::default());
        assert_eq!(run.checkpoints.len(), 1);
    }

    #[test]
    fn nc_three_objectives() {
        let f1: Arc<dyn ObjectiveModel> = Arc::new(FnModel::new(2, |x| 1.0 - x[0]));
        let f2: Arc<dyn ObjectiveModel> = Arc::new(FnModel::new(2, |x| 1.0 - x[1]));
        let f3: Arc<dyn ObjectiveModel> = Arc::new(FnModel::new(2, |x| x[0] + x[1]));
        let p = MooProblem::new(2, vec![f1, f2, f3]);
        let run = normal_constraints(&p, 10, &NcConfig::default());
        assert!(run.frontier.len() >= 3, "got {}", run.frontier.len());
    }
}
