//! An OtterTune-style performance tuner \[35\] — the end-to-end comparator
//! of §VI-B.
//!
//! OtterTune is a *single-objective* tuner: it builds a GP model of the
//! target metric for the query being tuned (mapping the new workload onto
//! the most similar past workload to borrow its observations), then runs
//! Gaussian-Process exploration — Expected Improvement over a candidate
//! pool — to recommend the next configuration. Multi-objective requests
//! must be collapsed into a fixed weighted sum before tuning, which is why
//! its recommendations barely move when the application's preference vector
//! changes (Expt 3/4).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use udao_model::dataset::Dataset;
use udao_model::gp::{Gp, GpConfig};
use udao_core::ObjectiveModel as _;

/// OtterTune loop configuration.
#[derive(Debug, Clone)]
pub struct OtterTuneConfig {
    /// Random initial observations before GP-driven search.
    pub init: usize,
    /// GP-exploration iterations.
    pub iters: usize,
    /// Candidate pool size per iteration.
    pub candidates: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OtterTuneConfig {
    fn default() -> Self {
        Self { init: 10, iters: 30, candidates: 512, seed: 0x07 }
    }
}

/// The result of a tuning session.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The recommended configuration (normalized space).
    pub x: Vec<f64>,
    /// Objective value at the recommendation.
    pub value: f64,
    /// Number of objective evaluations used.
    pub evals: usize,
}

/// Tune a single (possibly weighted-sum) objective with GP + Expected
/// Improvement. `objective` maps a normalized configuration to the scalar
/// to minimize.
pub fn tune(
    dim: usize,
    objective: &dyn Fn(&[f64]) -> f64,
    cfg: &OtterTuneConfig,
) -> TuneResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    let mut evals = 0usize;
    let observe = |x: Vec<f64>, xs: &mut Vec<Vec<f64>>, ys: &mut Vec<f64>, evals: &mut usize| {
        let y = objective(&x);
        *evals += 1;
        if y.is_finite() {
            xs.push(x);
            ys.push(y);
        }
    };
    for _ in 0..cfg.init {
        let x: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>()).collect();
        observe(x, &mut xs, &mut ys, &mut evals);
    }
    let gp_cfg = GpConfig {
        length_scales: vec![0.2, 0.5, 1.0],
        noise_levels: vec![0.05, 0.15],
        ..Default::default()
    };
    for _ in 0..cfg.iters {
        let Some(gp) = Gp::fit(&Dataset::new(xs.clone(), ys.clone()), &gp_cfg) else { break };
        let best = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let mut next: Option<Vec<f64>> = None;
        let mut next_ei = f64::NEG_INFINITY;
        for _ in 0..cfg.candidates {
            let cand: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>()).collect();
            let m = gp.predict(&cand);
            let s = gp.predict_std(&cand).max(1e-9);
            let z = (best - m) / s;
            let ei = s * (z * phi(z) + pdf(z));
            if ei > next_ei {
                next_ei = ei;
                next = Some(cand);
            }
        }
        match next {
            Some(x) => observe(x, &mut xs, &mut ys, &mut evals),
            None => break,
        }
    }
    let (bi, bv) = ys
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, v)| (i, *v))
        .expect("at least one observation");
    TuneResult { x: xs[bi].clone(), value: bv, evals }
}

/// Standard normal CDF (Abramowitz–Stegun erf approximation).
fn phi(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal PDF.
fn pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Workload mapping: pick the past workload whose observed objective values
/// at shared configurations are closest (Euclidean) to the target's, and
/// return its dataset merged under the target's observations — OtterTune's
/// mechanism for bootstrapping models of new queries from history.
pub fn map_workload(
    target: &Dataset,
    history: &[(String, Dataset)],
) -> Option<(String, Dataset)> {
    if target.is_empty() || history.is_empty() {
        return None;
    }
    let mut best: Option<(f64, &String, &Dataset)> = None;
    for (name, past) in history {
        if past.is_empty() || past.dim() != target.dim() {
            continue;
        }
        // Distance: for each target observation, the objective difference at
        // the nearest past configuration (normalized by target scale).
        let scale = target.y.iter().map(|v| v.abs()).fold(1e-9, f64::max);
        let mut dist = 0.0;
        for (tx, ty) in target.x.iter().zip(&target.y) {
            let (nearest, _) = past
                .x
                .iter()
                .zip(&past.y)
                .map(|(px, py)| {
                    let dx: f64 =
                        tx.iter().zip(px).map(|(a, b)| (a - b) * (a - b)).sum::<f64>();
                    (py, dx)
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .unwrap();
            dist += ((ty - nearest) / scale).powi(2);
        }
        if best.map(|(d, _, _)| dist < d).unwrap_or(true) {
            best = Some((dist, name, past));
        }
    }
    let (_, name, past) = best?;
    // Merge: past observations first, target observations override.
    let mut merged = past.clone();
    merged.extend(target);
    Some((name.clone(), merged))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_finds_the_minimum_of_a_smooth_bowl() {
        let obj = |x: &[f64]| (x[0] - 0.65).powi(2) + (x[1] - 0.3).powi(2);
        let r = tune(2, &obj, &OtterTuneConfig::default());
        assert!(r.value < 0.02, "value {}", r.value);
        assert!((r.x[0] - 0.65).abs() < 0.2, "x0 {}", r.x[0]);
        assert!(r.evals <= 10 + 30);
    }

    #[test]
    fn tune_beats_random_search_at_equal_budget() {
        let obj = |x: &[f64]| {
            100.0 + 200.0 * (1.0 - x[0]) + 30.0 * x[1] + 50.0 * (x[2] - 0.5).powi(2)
        };
        let r = tune(3, &obj, &OtterTuneConfig::default());
        // Random baseline at the same 40-eval budget.
        let mut rng = StdRng::seed_from_u64(999);
        let rand_best = (0..40)
            .map(|_| obj(&(0..3).map(|_| rng.gen::<f64>()).collect::<Vec<_>>()))
            .fold(f64::INFINITY, f64::min);
        assert!(r.value <= rand_best, "{} vs random {}", r.value, rand_best);
    }

    #[test]
    fn gaussian_helpers_are_sane() {
        assert!((phi(0.0) - 0.5).abs() < 1e-6);
        assert!(phi(3.0) > 0.99);
        assert!(phi(-3.0) < 0.01);
        assert!((pdf(0.0) - 0.3989).abs() < 1e-3);
    }

    #[test]
    fn workload_mapping_picks_the_similar_history() {
        let grid: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let target = Dataset::new(grid.clone(), grid.iter().map(|x| 10.0 * x[0]).collect());
        let similar = Dataset::new(grid.clone(), grid.iter().map(|x| 10.5 * x[0]).collect());
        let different = Dataset::new(grid.clone(), grid.iter().map(|x| -9.0 * x[0] + 4.0).collect());
        let history = vec![("diff".to_string(), different), ("sim".to_string(), similar)];
        let (name, merged) = map_workload(&target, &history).unwrap();
        assert_eq!(name, "sim");
        assert_eq!(merged.len(), 20);
    }

    #[test]
    fn mapping_edge_cases() {
        let d = Dataset::new(vec![vec![0.0]], vec![1.0]);
        assert!(map_workload(&Dataset::default(), &[("a".into(), d.clone())]).is_none());
        assert!(map_workload(&d, &[]).is_none());
        // Dimension mismatch is skipped.
        let d2 = Dataset::new(vec![vec![0.0, 0.0]], vec![1.0]);
        assert!(map_workload(&d, &[("a".into(), d2)]).is_none());
    }
}
