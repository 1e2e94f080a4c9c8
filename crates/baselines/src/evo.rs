//! NSGA-II \[6\] — the evolutionary baseline ("Evo" in §VI).
//!
//! A complete real-coded NSGA-II: fast non-dominated sorting, crowding
//! distance, binary tournament selection, simulated-binary crossover, and
//! polynomial mutation. Being a randomized population method it converges
//! well, but its frontiers are *inconsistent across probe budgets*: running
//! with 30, 40, and 50 probes yields mutually contradicting trade-off
//! curves (Fig. 4(e)) — the property that disqualifies it for a cloud
//! optimizer making repeated recommendations.

use crate::BaselineRun;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use udao_core::pareto::{dominates, pareto_filter, ParetoPoint};
use udao_core::MooProblem;

/// NSGA-II configuration.
#[derive(Debug, Clone)]
pub struct EvoConfig {
    /// Population size.
    pub population: usize,
    /// SBX distribution index η_c.
    pub eta_crossover: f64,
    /// Polynomial-mutation distribution index η_m.
    pub eta_mutation: f64,
    /// Crossover probability.
    pub p_crossover: f64,
    /// RNG seed. **Note:** the run, and hence the frontier, depends on both
    /// the seed and the probe budget — the source of inconsistency.
    pub seed: u64,
}

impl Default for EvoConfig {
    fn default() -> Self {
        Self { population: 40, eta_crossover: 15.0, eta_mutation: 20.0, p_crossover: 0.9, seed: 0xE0 }
    }
}

#[derive(Clone)]
struct Individual {
    x: Vec<f64>,
    f: Vec<f64>,
    rank: usize,
    crowding: f64,
}

/// Fast non-dominated sort; returns front index per individual.
fn non_dominated_sort(pop: &mut [Individual]) {
    let n = pop.len();
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut counts = vec![0usize; n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                if dominates(&pop[i].f, &pop[j].f) {
                    dominated_by[i].push(j);
                } else if dominates(&pop[j].f, &pop[i].f) {
                    counts[i] += 1;
                }
            }
        }
    }
    let mut front: Vec<usize> = (0..n).filter(|&i| counts[i] == 0).collect();
    let mut rank = 0;
    while !front.is_empty() {
        let mut next = Vec::new();
        for &i in &front {
            pop[i].rank = rank;
            for &j in &dominated_by[i] {
                counts[j] -= 1;
                if counts[j] == 0 {
                    next.push(j);
                }
            }
        }
        front = next;
        rank += 1;
    }
}

/// Crowding distance within each front.
fn crowding_distance(pop: &mut [Individual]) {
    let k = pop.first().map(|p| p.f.len()).unwrap_or(0);
    for p in pop.iter_mut() {
        p.crowding = 0.0;
    }
    let max_rank = pop.iter().map(|p| p.rank).max().unwrap_or(0);
    for r in 0..=max_rank {
        let mut idx: Vec<usize> = (0..pop.len()).filter(|&i| pop[i].rank == r).collect();
        for d in 0..k {
            idx.sort_by(|&a, &b| {
                pop[a].f[d].partial_cmp(&pop[b].f[d]).unwrap_or(std::cmp::Ordering::Equal)
            });
            let lo = pop[idx[0]].f[d];
            let hi = pop[idx[idx.len() - 1]].f[d];
            let width = (hi - lo).max(1e-12);
            pop[idx[0]].crowding = f64::INFINITY;
            pop[idx[idx.len() - 1]].crowding = f64::INFINITY;
            for w in 1..idx.len().saturating_sub(1) {
                let gain = (pop[idx[w + 1]].f[d] - pop[idx[w - 1]].f[d]) / width;
                pop[idx[w]].crowding += gain;
            }
        }
    }
}

fn tournament<'a>(pop: &'a [Individual], rng: &mut StdRng) -> &'a Individual {
    let a = &pop[rng.gen_range(0..pop.len())];
    let b = &pop[rng.gen_range(0..pop.len())];
    if (a.rank, std::cmp::Reverse(ordered(a.crowding))) < (b.rank, std::cmp::Reverse(ordered(b.crowding))) {
        a
    } else {
        b
    }
}

fn ordered(v: f64) -> u64 {
    // Monotone map of non-negative floats (incl. inf) to ordered integers.
    v.to_bits()
}

/// Simulated binary crossover of two parents.
fn sbx(a: &[f64], b: &[f64], eta: f64, rng: &mut StdRng) -> (Vec<f64>, Vec<f64>) {
    let mut c1 = a.to_vec();
    let mut c2 = b.to_vec();
    for d in 0..a.len() {
        if rng.gen_bool(0.5) {
            let u: f64 = rng.gen();
            let beta = if u <= 0.5 {
                (2.0 * u).powf(1.0 / (eta + 1.0))
            } else {
                (1.0 / (2.0 * (1.0 - u))).powf(1.0 / (eta + 1.0))
            };
            c1[d] = (0.5 * ((1.0 + beta) * a[d] + (1.0 - beta) * b[d])).clamp(0.0, 1.0);
            c2[d] = (0.5 * ((1.0 - beta) * a[d] + (1.0 + beta) * b[d])).clamp(0.0, 1.0);
        }
    }
    (c1, c2)
}

/// Polynomial mutation in place.
fn mutate(x: &mut [f64], eta: f64, rng: &mut StdRng) {
    let pm = 1.0 / x.len() as f64;
    for v in x.iter_mut() {
        if rng.gen_bool(pm) {
            let u: f64 = rng.gen();
            let delta = if u < 0.5 {
                (2.0 * u).powf(1.0 / (eta + 1.0)) - 1.0
            } else {
                1.0 - (2.0 * (1.0 - u)).powf(1.0 / (eta + 1.0))
            };
            *v = (*v + delta).clamp(0.0, 1.0);
        }
    }
}

/// Run NSGA-II with a total budget of `probes` objective-vector
/// evaluations (the "probe" currency of the Fig. 4 experiments).
pub fn nsga2(problem: &MooProblem, probes: usize, cfg: &EvoConfig) -> BaselineRun {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ probes as u64);
    let pop_size = cfg.population.min(probes.max(4));
    let mut evals = 0usize;
    let eval = |x: Vec<f64>, evals: &mut usize| -> Option<Individual> {
        let f = problem.evaluate(&x).ok()?;
        *evals += 1;
        if problem.feasible(&f, 1e-3) {
            Some(Individual { x, f, rank: 0, crowding: 0.0 })
        } else {
            None
        }
    };

    // Initial population.
    let mut pop: Vec<Individual> = Vec::with_capacity(pop_size);
    while pop.len() < pop_size && evals < probes * 4 {
        let x: Vec<f64> = (0..problem.dim).map(|_| rng.gen::<f64>()).collect();
        if let Some(ind) = eval(x, &mut evals) {
            pop.push(ind);
        }
    }
    if pop.is_empty() {
        return BaselineRun { frontier: Vec::new(), checkpoints: Vec::new(), evals };
    }
    non_dominated_sort(&mut pop);
    crowding_distance(&mut pop);

    let mut checkpoints = Vec::new();
    let snapshot = |pop: &[Individual]| -> Vec<ParetoPoint> {
        pareto_filter(
            pop.iter()
                .filter(|p| p.rank == 0)
                .map(|p| ParetoPoint::new(p.x.clone(), p.f.clone()))
                .collect(),
        )
    };

    while evals < probes {
        // Offspring generation.
        let mut offspring: Vec<Individual> = Vec::with_capacity(pop_size);
        while offspring.len() < pop_size && evals < probes {
            let p1 = tournament(&pop, &mut rng).x.clone();
            let p2 = tournament(&pop, &mut rng).x.clone();
            let (mut c1, mut c2) = if rng.gen_bool(cfg.p_crossover) {
                sbx(&p1, &p2, cfg.eta_crossover, &mut rng)
            } else {
                (p1, p2)
            };
            mutate(&mut c1, cfg.eta_mutation, &mut rng);
            mutate(&mut c2, cfg.eta_mutation, &mut rng);
            for c in [c1, c2] {
                if offspring.len() < pop_size && evals < probes {
                    if let Some(ind) = eval(c, &mut evals) {
                        offspring.push(ind);
                    }
                }
            }
        }
        // Environmental selection over the union.
        pop.extend(offspring);
        non_dominated_sort(&mut pop);
        crowding_distance(&mut pop);
        pop.sort_by(|a, b| {
            (a.rank, std::cmp::Reverse(ordered(a.crowding)))
                .cmp(&(b.rank, std::cmp::Reverse(ordered(b.crowding))))
        });
        pop.truncate(pop_size);
        checkpoints.push((start.elapsed().as_secs_f64(), snapshot(&pop)));
    }

    let frontier = snapshot(&pop);
    if checkpoints.is_empty() {
        checkpoints.push((start.elapsed().as_secs_f64(), frontier.clone()));
    }
    BaselineRun { frontier, checkpoints, evals }
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
    fn nsga2_converges_to_the_frontier() {
        let run = nsga2(&problem(), 2000, &EvoConfig::default());
        assert!(run.frontier.len() >= 10, "got {}", run.frontier.len());
        let fs: Vec<Vec<f64>> = run.frontier.iter().map(|p| p.f.clone()).collect();
        let u = uncertain_space(&fs, &[100.0, 8.0], &[300.0, 24.0]);
        assert!(u < 0.30, "uncertainty {u}");
        // Frontier points lie near the true frontier (x1 ≈ 0 line).
        for p in &run.frontier {
            assert!(p.x[1] < 0.25, "x1 = {} should be near 0", p.x[1]);
        }
    }

    #[test]
    fn nsga2_is_inconsistent_across_probe_budgets() {
        // The Fig. 4(e) phenomenon: the same question asked with different
        // budgets returns contradicting frontiers.
        let cfg = EvoConfig::default();
        let a = nsga2(&problem(), 300, &cfg);
        let b = nsga2(&problem(), 400, &cfg);
        let same = a.frontier.iter().all(|p| b.frontier.iter().any(|q| q.f == p.f));
        assert!(!same, "budgets 300 and 400 should disagree somewhere");
    }

    #[test]
    fn nsga2_respects_eval_budget() {
        let run = nsga2(&problem(), 120, &EvoConfig::default());
        assert!(run.evals <= 120 + 4, "evals {}", run.evals);
        assert!(!run.checkpoints.is_empty());
    }

    #[test]
    fn nsga2_handles_infeasible_problems_gracefully() {
        use udao_core::solver::Bound;
        let p = problem().with_constraints(vec![Bound::new(0.0, 1.0), Bound::FREE]);
        let run = nsga2(&p, 100, &EvoConfig::default());
        assert!(run.frontier.is_empty());
    }

    #[test]
    fn sort_and_crowding_basics() {
        let mut pop = vec![
            Individual { x: vec![], f: vec![1.0, 5.0], rank: 9, crowding: 0.0 },
            Individual { x: vec![], f: vec![2.0, 2.0], rank: 9, crowding: 0.0 },
            Individual { x: vec![], f: vec![3.0, 3.0], rank: 9, crowding: 0.0 }, // dominated
            Individual { x: vec![], f: vec![5.0, 1.0], rank: 9, crowding: 0.0 },
        ];
        non_dominated_sort(&mut pop);
        assert_eq!(pop[0].rank, 0);
        assert_eq!(pop[1].rank, 0);
        assert_eq!(pop[2].rank, 1);
        assert_eq!(pop[3].rank, 0);
        crowding_distance(&mut pop);
        assert!(pop[0].crowding.is_infinite(), "boundary points get infinite crowding");
    }
}
