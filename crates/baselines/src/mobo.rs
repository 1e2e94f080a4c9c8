//! Multi-objective Bayesian optimization baselines.
//!
//! Both methods treat the objective models as expensive black boxes: they
//! fit from-scratch GP surrogates (`udao-model`) to the points evaluated so
//! far and choose the next probe by an acquisition function.
//!
//! * [`ehvi`] — qEHVI-style \[5\]: Monte-Carlo Expected HyperVolume
//!   Improvement over a random candidate pool. The faster MOBO.
//! * [`pesm`] — PESM-style \[10\]: predictive entropy search for
//!   multi-objective optimization, approximated by Thompson-sampled Pareto
//!   membership frequency (candidates that are Pareto-optimal under many
//!   posterior draws carry the most information about the frontier). This
//!   substitution keeps PESM's experimental role — a sample-efficient but
//!   *slow* MOBO (it re-samples many posterior frontiers per step).
//!
//! Both are deliberately honest about their cost profile: each iteration
//! refits `k` GPs (`O(n³)`) and scores a large candidate pool, which is why
//! they need tens of seconds to produce a first usable Pareto set in the
//! Fig. 4/5 experiments while PF-AP needs under a second.

use crate::BaselineRun;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use udao_core::pareto::{dominates, pareto_filter, ParetoPoint};
use udao_core::MooProblem;
use udao_model::dataset::Dataset;
use udao_model::gp::{Gp, GpConfig};
use udao_core::ObjectiveModel as _;

/// Shared MOBO configuration.
#[derive(Debug, Clone)]
pub struct MoboConfig {
    /// Random initial design size.
    pub init: usize,
    /// Candidate pool size per iteration.
    pub candidates: usize,
    /// Monte-Carlo samples per acquisition evaluation.
    pub mc_samples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MoboConfig {
    fn default() -> Self {
        Self { init: 8, candidates: 256, mc_samples: 16, seed: 0xB0 }
    }
}

/// PESM runs far more posterior sampling per step than EHVI.
pub fn pesm_config() -> MoboConfig {
    MoboConfig { candidates: 1024, mc_samples: 96, ..Default::default() }
}

enum Acquisition {
    Ehvi,
    Pesm,
}

fn run_mobo(
    problem: &MooProblem,
    probes: usize,
    cfg: &MoboConfig,
    acq: Acquisition,
) -> BaselineRun {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let k = problem.num_objectives();
    let d = problem.dim;
    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut fs: Vec<Vec<f64>> = Vec::new();
    let mut evals = 0usize;

    let observe = |x: Vec<f64>, xs: &mut Vec<Vec<f64>>, fs: &mut Vec<Vec<f64>>, evals: &mut usize| {
        if let Ok(f) = problem.evaluate(&x) {
            *evals += 1;
            if problem.feasible(&f, 1e-3) {
                xs.push(x);
                fs.push(f);
            }
        }
    };

    for _ in 0..cfg.init.min(probes) {
        let x: Vec<f64> = (0..d).map(|_| rng.gen::<f64>()).collect();
        observe(x, &mut xs, &mut fs, &mut evals);
    }

    let mut checkpoints: Vec<(f64, Vec<ParetoPoint>)> = Vec::new();
    let snapshot = |xs: &[Vec<f64>], fs: &[Vec<f64>]| -> Vec<ParetoPoint> {
        pareto_filter(
            xs.iter().zip(fs).map(|(x, f)| ParetoPoint::new(x.clone(), f.clone())).collect(),
        )
    };

    let gp_cfg = GpConfig {
        length_scales: vec![0.2, 0.5, 1.0],
        noise_levels: vec![0.05, 0.15],
        ..Default::default()
    };

    while evals < probes && !xs.is_empty() {
        // Refit one GP surrogate per objective.
        let gps: Vec<Gp> = (0..k)
            .filter_map(|j| {
                let ys: Vec<f64> = fs.iter().map(|f| f[j]).collect();
                Gp::fit(&Dataset::new(xs.clone(), ys), &gp_cfg)
            })
            .collect();
        if gps.len() != k {
            break;
        }
        // Current frontier and reference (nadir-ish) point.
        let front = snapshot(&xs, &fs);
        let front_f: Vec<Vec<f64>> = front.iter().map(|p| p.f.clone()).collect();
        let mut reference = vec![f64::NEG_INFINITY; k];
        for f in &fs {
            for j in 0..k {
                reference[j] = reference[j].max(f[j]);
            }
        }
        for r in reference.iter_mut() {
            *r *= 1.1;
        }

        // Candidate pool.
        let pool: Vec<Vec<f64>> =
            (0..cfg.candidates).map(|_| (0..d).map(|_| rng.gen::<f64>()).collect()).collect();
        let mut best_x: Option<Vec<f64>> = None;
        let mut best_score = f64::NEG_INFINITY;

        match acq {
            Acquisition::Ehvi => {
                // MC-EHVI: average hypervolume improvement of posterior draws.
                for cand in &pool {
                    let mut score = 0.0;
                    for s in 0..cfg.mc_samples {
                        let draw: Vec<f64> = gps
                            .iter()
                            .map(|gp| {
                                let m = gp.predict(cand);
                                let sd = gp.predict_std(cand);
                                m + sd * gauss(&mut rng, s as u64)
                            })
                            .collect();
                        score += hv_improvement(&draw, &front_f, &reference);
                    }
                    score /= cfg.mc_samples as f64;
                    if score > best_score {
                        best_score = score;
                        best_x = Some(cand.clone());
                    }
                }
            }
            Acquisition::Pesm => {
                // Thompson-sampled Pareto-membership frequency: draw joint
                // posterior samples over the whole pool, count how often
                // each candidate is non-dominated among the draws.
                let mut hits = vec![0usize; pool.len()];
                for _ in 0..cfg.mc_samples {
                    let draws: Vec<Vec<f64>> = pool
                        .iter()
                        .map(|cand| {
                            gps.iter()
                                .map(|gp| gp.predict(cand) + gp.predict_std(cand) * gauss(&mut rng, 0))
                                .collect()
                        })
                        .collect();
                    for (i, fi) in draws.iter().enumerate() {
                        let nd = !draws.iter().enumerate().any(|(j, fj)| j != i && dominates(fj, fi))
                            && !front_f.iter().any(|f| dominates(f, fi));
                        if nd {
                            hits[i] += 1;
                        }
                    }
                }
                // Information proxy: frequent frontier membership, broken by
                // posterior variance (explore where the surrogate is unsure).
                for (i, cand) in pool.iter().enumerate() {
                    let var: f64 = gps.iter().map(|gp| gp.predict_std(cand)).sum();
                    let score = hits[i] as f64 + 0.01 * var;
                    if score > best_score {
                        best_score = score;
                        best_x = Some(cand.clone());
                    }
                }
            }
        }

        match best_x {
            Some(x) => observe(x, &mut xs, &mut fs, &mut evals),
            None => break,
        }
        checkpoints.push((start.elapsed().as_secs_f64(), snapshot(&xs, &fs)));
    }

    let frontier = snapshot(&xs, &fs);
    if checkpoints.is_empty() {
        checkpoints.push((start.elapsed().as_secs_f64(), frontier.clone()));
    }
    BaselineRun { frontier, checkpoints, evals }
}

/// Standard-normal draw (Box–Muller; `salt` decorrelates call sites).
fn gauss(rng: &mut StdRng, salt: u64) -> f64 {
    let _ = salt;
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Hypervolume improvement of adding `cand` to `front` w.r.t. `reference`
/// (2-D exact; k ≥ 3 via inclusion bound on the dominated-box estimate).
fn hv_improvement(cand: &[f64], front: &[Vec<f64>], reference: &[f64]) -> f64 {
    if front.iter().any(|f| dominates(f, cand) || f == cand) {
        return 0.0;
    }
    // Exclusive contribution approximation: volume of [cand, reference]
    // minus overlaps with each frontier point's dominated box (union bound,
    // exact in 2-D after the domination check above for staircase fronts).
    let own: f64 = cand.iter().zip(reference).map(|(c, r)| (r - c).max(0.0)).product();
    let mut overlap: f64 = 0.0;
    for f in front {
        let inter: f64 = cand
            .iter()
            .zip(f)
            .zip(reference)
            .map(|((c, fv), r)| (r - c.max(*fv)).max(0.0))
            .product();
        overlap = overlap.max(inter);
    }
    (own - overlap).max(0.0)
}

/// qEHVI-style MOBO run.
pub mod ehvi {
    use super::*;

    /// Run EHVI-MOBO with a budget of `probes` true evaluations.
    pub fn run(problem: &MooProblem, probes: usize, cfg: &MoboConfig) -> BaselineRun {
        run_mobo(problem, probes, cfg, Acquisition::Ehvi)
    }
}

/// PESM-style MOBO run.
pub mod pesm {
    use super::*;

    /// Run PESM-MOBO with a budget of `probes` true evaluations.
    pub fn run(problem: &MooProblem, probes: usize, cfg: &MoboConfig) -> BaselineRun {
        run_mobo(problem, probes, cfg, Acquisition::Pesm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use udao_core::objective::{FnModel, ObjectiveModel};
    use udao_core::pareto::uncertain_space;

    fn problem() -> MooProblem {
        let lat: Arc<dyn ObjectiveModel> =
            Arc::new(FnModel::new(2, |x| 100.0 + 200.0 * (1.0 - x[0]) + 30.0 * x[1]));
        let cost: Arc<dyn ObjectiveModel> =
            Arc::new(FnModel::new(2, |x| 8.0 + 16.0 * x[0] + 8.0 * x[1]));
        MooProblem::new(2, vec![lat, cost])
    }

    #[test]
    fn ehvi_reduces_uncertainty_with_budget() {
        let run = ehvi::run(&problem(), 30, &MoboConfig::default());
        assert!(run.frontier.len() >= 5, "got {}", run.frontier.len());
        let fs: Vec<Vec<f64>> = run.frontier.iter().map(|p| p.f.clone()).collect();
        let u = uncertain_space(&fs, &[100.0, 8.0], &[300.0, 24.0]);
        assert!(u < 0.6, "uncertainty {u}");
    }

    #[test]
    fn pesm_finds_a_frontier_but_is_slower_per_probe() {
        let t0 = std::time::Instant::now();
        let ehvi_run = ehvi::run(&problem(), 16, &MoboConfig::default());
        let t_ehvi = t0.elapsed();
        let t0 = std::time::Instant::now();
        let pesm_run = pesm::run(&problem(), 16, &pesm_config());
        let t_pesm = t0.elapsed();
        assert!(!pesm_run.frontier.is_empty());
        assert!(!ehvi_run.frontier.is_empty());
        assert!(
            t_pesm > t_ehvi,
            "PESM should cost more wall-clock: {t_pesm:?} vs {t_ehvi:?}"
        );
    }

    #[test]
    fn hv_improvement_is_zero_for_dominated_candidates() {
        let front = vec![vec![1.0, 1.0]];
        let r = vec![10.0, 10.0];
        assert_eq!(hv_improvement(&[2.0, 2.0], &front, &r), 0.0);
        assert!(hv_improvement(&[0.5, 0.5], &front, &r) > 0.0);
        // Non-dominated trade-off point contributes its exclusive box.
        let hvi = hv_improvement(&[0.5, 2.0], &front, &r);
        assert!(hvi > 0.0);
    }

    #[test]
    fn budget_is_respected() {
        let run = ehvi::run(&problem(), 12, &MoboConfig::default());
        assert!(run.evals <= 12);
        assert!(!run.checkpoints.is_empty());
    }
}
