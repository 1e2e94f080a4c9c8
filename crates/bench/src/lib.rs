//! # udao-bench — the experiment harness
//!
//! Shared machinery for the figure-regeneration binaries (`fig1c`,
//! `fig2_probe`, `fig3_loss`, `fig4`, `fig5`, `fig6`, `fig8`, `fig9`,
//! `summary`): problem construction from learned models, a uniform runner
//! over all seven MOO methods, the method-agnostic uncertain-space series,
//! and CSV output under `target/experiments/`.

#![warn(missing_docs)]

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use udao::{BatchRequest, ModelFamily, StreamRequest, Udao};
use udao_baselines::evo::{nsga2, EvoConfig};
use udao_baselines::mobo::{ehvi, pesm, pesm_config, MoboConfig};
use udao_baselines::nc::{normal_constraints, NcConfig};
use udao_baselines::ws::{weighted_sum, WsConfig};
use udao_core::pareto::{uncertain_space, ParetoPoint};
use udao_core::pf::{PfOptions, PfVariant, ProgressiveFrontier};
use udao_core::MooProblem;
use udao_sparksim::objectives::{BatchObjective, StreamObjective};
use udao_sparksim::{ClusterSpec, Workload};

/// Directory experiment CSVs are written to.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Write a CSV file under [`out_dir`] and echo the path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = out_dir().join(name);
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").unwrap();
    for r in rows {
        writeln!(f, "{r}").unwrap();
    }
    println!("[csv] wrote {}", path.display());
}

/// A UDAO instance with experiment-friendly PF settings.
pub fn experiment_udao() -> Udao {
    Udao::new(ClusterSpec::paper_cluster())
}

/// Build a learned-model batch MOO problem for `workload`: train the given
/// family on `n_traces` simulator traces, return the problem over the
/// requested objectives (CostCores stays analytic).
pub fn batch_moo_problem(
    udao: &Udao,
    workload: &Workload,
    family: ModelFamily,
    n_traces: usize,
    objectives: &[BatchObjective],
) -> MooProblem {
    udao.train_batch(workload, n_traces, family, objectives);
    let mut req = BatchRequest::new(workload.id.clone());
    for o in objectives {
        req = req.objective(*o);
    }
    udao.problem(&req).expect("models trained")
}

/// Build a learned-model streaming MOO problem.
pub fn stream_moo_problem(
    udao: &Udao,
    workload: &Workload,
    family: ModelFamily,
    n_traces: usize,
    objectives: &[StreamObjective],
) -> MooProblem {
    udao.train_streaming(workload, n_traces, family, objectives);
    let mut req = StreamRequest::new(workload.id.clone());
    for o in objectives {
        req = req.objective(*o);
    }
    udao.problem(&req).expect("models trained")
}

/// The MOO methods of the §VI comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Progressive Frontier, approximate parallel.
    PfAp,
    /// Progressive Frontier, approximate sequential.
    PfAs,
    /// Weighted Sum.
    Ws,
    /// Normalized Constraints.
    Nc,
    /// NSGA-II.
    Evo,
    /// EHVI-style MOBO.
    Qehvi,
    /// PESM-style MOBO.
    Pesm,
}

impl Method {
    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            Method::PfAp => "PF-AP",
            Method::PfAs => "PF-AS",
            Method::Ws => "WS",
            Method::Nc => "NC",
            Method::Evo => "Evo",
            Method::Qehvi => "qEHVI",
            Method::Pesm => "PESM",
        }
    }
}

/// Result of one method run, normalized for cross-method comparison.
pub struct MethodRun {
    /// `(elapsed seconds, uncertain space %)` series.
    pub series: Vec<(f64, f64)>,
    /// Final frontier.
    pub frontier: Vec<ParetoPoint>,
    /// Seconds until the method first produced a usable Pareto set: for PF
    /// the first batch of points of its incremental run; for every other
    /// method the completion time of its *smallest-budget* run, since WS,
    /// NC, Evo, and the MOBOs return nothing usable mid-run.
    pub first_set_time: f64,
}

/// Experiment budgets: the increasing point requests of the Fig. 4/5
/// protocol ("we request increasingly more Pareto points as more computing
/// time is invested"), plus the per-point evaluation multiplier for
/// NSGA-II (its per-run budget is `points × evo_evals_per_point`).
pub struct Budgets {
    /// Increasing Pareto-point requests.
    pub sizes: Vec<usize>,
    /// NSGA-II objective evaluations per requested point (a 40-strong
    /// population needs tens of generations before its front stabilizes).
    pub evo_evals_per_point: usize,
    /// MOBO true-model evaluations per requested frontier point (each
    /// costs a GP refit plus an acquisition sweep).
    pub mobo_evals_per_point: usize,
}

impl Default for Budgets {
    fn default() -> Self {
        Self { sizes: vec![10, 20, 30], evo_evals_per_point: 100, mobo_evals_per_point: 5 }
    }
}

impl Budgets {
    /// Single-request budget (used by the frontier figures).
    pub fn single(points: usize) -> Self {
        Self { sizes: vec![points], ..Default::default() }
    }

    /// The largest request.
    pub fn max_points(&self) -> usize {
        self.sizes.last().copied().unwrap_or(10)
    }
}

/// Run `method` on `problem` under the paper's protocol and score its
/// uncertain-space series against the shared `(utopia, nadir)` box.
///
/// PF runs once, incrementally, to the largest request; non-incremental
/// methods restart from scratch at every request size, with elapsed time
/// accumulated — exactly how a cloud optimizer would have to use them.
pub fn run_method(
    method: Method,
    problem: &MooProblem,
    budgets: &Budgets,
    utopia: &[f64],
    nadir: &[f64],
) -> MethodRun {
    let score = |fs: &[ParetoPoint]| -> f64 {
        let v: Vec<Vec<f64>> = fs.iter().map(|p| p.f.clone()).collect();
        uncertain_space(&v, utopia, nadir) * 100.0
    };
    match method {
        Method::PfAp | Method::PfAs => {
            let variant = if method == Method::PfAp {
                PfVariant::ApproxParallel
            } else {
                PfVariant::ApproxSequential
            };
            let mut opts = PfOptions::default();
            opts.mogd.alpha = 1.0;
            let run = ProgressiveFrontier::new(variant, opts)
                .solve(problem, budgets.max_points())
                .expect("pf run");
            let series = run
                .history
                .iter()
                .map(|s| (s.elapsed, s.uncertain_frac * 100.0))
                .collect::<Vec<_>>();
            let first_batch = budgets.sizes.first().copied().unwrap_or(2).min(5);
            let first = run
                .history
                .iter()
                .find(|s| s.frontier_len >= first_batch)
                .map(|s| s.elapsed)
                .unwrap_or(f64::NAN);
            MethodRun { series, frontier: run.frontier, first_set_time: first }
        }
        _ => {
            let mut elapsed = 0.0;
            let mut series = Vec::new();
            let mut frontier = Vec::new();
            for &size in &budgets.sizes {
                let t0 = std::time::Instant::now();
                let run = match method {
                    Method::Ws => weighted_sum(problem, size, &WsConfig::default()),
                    Method::Nc => normal_constraints(problem, size, &NcConfig::default()),
                    Method::Evo => nsga2(
                        problem,
                        size * budgets.evo_evals_per_point,
                        &EvoConfig::default(),
                    ),
                    Method::Qehvi => {
                        ehvi::run(problem, size * budgets.mobo_evals_per_point, &MoboConfig::default())
                    }
                    Method::Pesm => {
                        pesm::run(problem, size * budgets.mobo_evals_per_point, &pesm_config())
                    }
                    Method::PfAp | Method::PfAs => unreachable!(),
                };
                elapsed += t0.elapsed().as_secs_f64();
                series.push((elapsed, score(&run.frontier)));
                frontier = run.frontier;
            }
            let first = series
                .iter()
                .find(|(_, u)| *u < 100.0)
                .map(|(t, _)| *t)
                .unwrap_or(f64::NAN);
            MethodRun { series, frontier, first_set_time: first }
        }
    }
}

/// Uncertain-space % of a series at wall-clock `threshold` seconds (100%
/// before the first checkpoint).
pub fn uncertainty_at(series: &[(f64, f64)], threshold: f64) -> f64 {
    let mut best = f64::NAN;
    for (t, u) in series {
        if *t <= threshold && (best.is_nan() || *u < best) {
            best = *u;
        }
    }
    if best.is_nan() {
        100.0
    } else {
        best.clamp(0.0, 100.0)
    }
}

/// Median of a mutable slice (NaNs sorted last); 100 for empty input.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 100.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    values[values.len() / 2]
}

/// Format a frontier as `f1,f2[,f3]` CSV rows (sorted by the first
/// objective).
pub fn frontier_rows(frontier: &[ParetoPoint]) -> Vec<String> {
    let mut fs: Vec<&Vec<f64>> = frontier.iter().map(|p| &p.f).collect();
    fs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    fs.iter()
        .map(|f| f.iter().map(|v| format!("{v:.4}")).collect::<Vec<_>>().join(","))
        .collect()
}

/// The expert "manual" configuration of Expt 5: a sensible hand-tuned
/// setup practitioners would reach for on this cluster.
pub fn expert_manual_conf() -> udao_sparksim::BatchConf {
    udao_sparksim::BatchConf {
        default_parallelism: 96,
        executor_instances: 12,
        executor_cores: 4,
        executor_memory_gb: 16,
        reducer_max_size_in_flight_mb: 48,
        shuffle_sort_bypass_merge_threshold: 200,
        shuffle_compress: true,
        memory_fraction: 0.6,
        columnar_batch_size: 10_000,
        max_partition_mb: 128,
        broadcast_threshold_mb: 10,
        shuffle_partitions: 96,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use udao_core::objective::{FnModel, ObjectiveModel};

    fn toy() -> MooProblem {
        let lat: Arc<dyn ObjectiveModel> =
            Arc::new(FnModel::new(2, |x| 100.0 + 200.0 * (1.0 - x[0]) + 30.0 * x[1]));
        let cost: Arc<dyn ObjectiveModel> =
            Arc::new(FnModel::new(2, |x| 8.0 + 16.0 * x[0] + 8.0 * x[1]));
        MooProblem::new(2, vec![lat, cost])
    }

    #[test]
    fn run_method_produces_series_for_every_method() {
        let p = toy();
        let (u, n) = udao_baselines::reference_box(&p, 1);
        let budgets = Budgets { sizes: vec![8], ..Default::default() };
        for m in [Method::PfAp, Method::PfAs, Method::Ws, Method::Nc, Method::Evo, Method::Qehvi] {
            let run = run_method(m, &p, &budgets, &u, &n);
            assert!(!run.frontier.is_empty(), "{} found nothing", m.label());
            assert!(!run.series.is_empty(), "{} has no series", m.label());
        }
    }

    #[test]
    fn uncertainty_at_respects_thresholds() {
        let series = vec![(0.5, 80.0), (1.0, 40.0), (2.0, 10.0)];
        assert_eq!(uncertainty_at(&series, 0.1), 100.0, "before first checkpoint");
        assert_eq!(uncertainty_at(&series, 0.5), 80.0);
        assert_eq!(uncertainty_at(&series, 1.5), 40.0);
        assert_eq!(uncertainty_at(&series, 10.0), 10.0);
    }

    #[test]
    fn median_handles_edges() {
        assert_eq!(median(&mut []), 100.0);
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn frontier_rows_are_sorted_csv() {
        let pts = vec![
            ParetoPoint::new(vec![0.0], vec![2.0, 1.0]),
            ParetoPoint::new(vec![0.0], vec![1.0, 2.0]),
        ];
        let rows = frontier_rows(&pts);
        assert_eq!(rows[0], "1.0000,2.0000");
    }
}
