//! Per-stage fine-grained tuning over a stage DAG ([`Udao::recommend_stages`]).
//!
//! The paper tunes one configuration per workload; "A Spark Optimizer for
//! Adaptive, Fine-Grained Parameter Tuning" (Lyu et al.) shows the same
//! MOO machinery can tune each *stage* of the dataflow DAG separately,
//! with shared cluster-level knobs pinned global. This module solves that
//! composed problem two ways:
//!
//! * **Joint** ([`StageMode::Joint`]) — one multi-objective solve (MOGD
//!   under the configured Progressive Frontier variant) over the flat
//!   concatenated space `[global | stage 0 | stage 1 | ...]`. Exactly the
//!   workload-level path, on a wider problem.
//! * **Decomposed** ([`StageMode::Descent`]) — a DAG-ordered coordinate
//!   descent (Lyu et al.'s decomposition): per scalarization weight, the
//!   global block and then each stage's block are optimized in the DAG's
//!   canonical topological order with all other blocks fixed, repeating
//!   until a round changes nothing. Block subproblems are low-dimensional,
//!   so each uses the exact lattice solver (falling back to MOGD for wide
//!   blocks) — the decomposition trades one hard high-dimensional solve
//!   for many trivial ones.
//!
//! Requests are [`StageRequest`]s: a [`StageDag`], a [`StageSpace`], and
//! one [`StageObjectiveSpec`] per objective naming its DAG fold
//! ([`Fold::CriticalPath`] for latency-like, [`Fold::Sum`] for cost-like)
//! and either carrying per-stage analytic models or resolving learned
//! per-stage models from the model server under
//! `{workload}::stage{i}` keys. Solves flow through the same serving
//! machinery as workload-level requests: budgets, the resilience ladder,
//! and the frontier cache — whose keys are extended with a stage-shape
//! fingerprint so a cached frontier can never serve a differently-shaped
//! DAG.
//!
//! Telemetry: `stage.tuned` (stages tuned per solve), `stage.descent_rounds`
//! (coordinate-descent rounds across the weight sweep), and
//! `stage.solve_seconds` (whole-solve wall-clock histogram). The returned
//! [`Recommendation::report`] additionally carries per-stage attribution
//! (`report.stage_attribution`): block wall-clock, block solves, and the
//! per-stage predicted objective values at the recommendation.

use crate::optimizer::{guard, BuiltProblem, Job, MooSelection, Recommendation, Udao};
use crate::report::StageAttribution;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};
use udao_core::budget::Budget;
use udao_core::mogd::Mogd;
use udao_core::objective::{FnModel, ObjectiveModel};
use udao_core::pareto::{pareto_filter, utopia_nadir, ParetoPoint};
use udao_core::pf::PfSeed;
use udao_core::priority::Priority;
use udao_core::solver::{Bound, CoProblem, CoSolver, ExactGridSolver};
use udao_core::stage::{ComposedObjective, Fold, StageDag, StageSpace};
use udao_core::{fnv_fold, Error, MooProblem, Result, FNV_OFFSET};
use udao_model::server::ModelKey;
use udao_telemetry::names;

/// How a [`StageRequest`] is solved; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageMode {
    /// One joint MOGD/PF solve over the flat concatenated space.
    Joint,
    /// DAG-ordered coordinate descent over per-block subproblems.
    Descent,
}

impl StageMode {
    /// Stable tag folded into the cache shape fingerprint: joint and
    /// decomposed solves of the same request never share a cached frontier
    /// (their frontiers differ by construction).
    fn tag(self) -> u64 {
        match self {
            StageMode::Joint => 1,
            StageMode::Descent => 2,
        }
    }
}

/// One objective of a per-stage request: its name, the DAG fold that
/// composes per-stage values into the workload-level value, and where the
/// per-stage models come from.
#[derive(Clone)]
pub struct StageObjectiveSpec {
    /// Canonical objective name (model-server key component, cache key
    /// component, report label).
    pub name: String,
    /// How per-stage values compose along the DAG.
    pub fold: Fold,
    /// Per-stage models carried by the request (`models[i]` for stage `i`,
    /// each of dim `global_dim + stage_dim`). `None` resolves learned
    /// models from the model server under `{workload}::stage{i}` keys.
    pub models: Option<Vec<Arc<dyn ObjectiveModel>>>,
}

impl std::fmt::Debug for StageObjectiveSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageObjectiveSpec")
            .field("name", &self.name)
            .field("fold", &self.fold)
            .field("models", &self.models.as_ref().map(Vec::len))
            .finish()
    }
}

impl StageObjectiveSpec {
    /// An objective with per-stage analytic models carried by the request.
    pub fn analytic(
        name: impl Into<String>,
        fold: Fold,
        models: Vec<Arc<dyn ObjectiveModel>>,
    ) -> Self {
        Self { name: name.into(), fold, models: Some(models) }
    }

    /// An objective whose per-stage models are resolved from the model
    /// server: stage `i` of workload `w` looks up the key
    /// `({w}::stage{i}, name)`.
    pub fn learned(name: impl Into<String>, fold: Fold) -> Self {
        Self { name: name.into(), fold, models: None }
    }
}

/// A per-stage tuning request: the stage DAG, the partitioned knob space,
/// and one [`StageObjectiveSpec`] per objective. Mirrors
/// [`Request`](crate::Request) (constraints, weights, points, budget,
/// scheduling class) so stage solves flow through the serving engine
/// unchanged.
#[derive(Debug, Clone)]
pub struct StageRequest {
    /// Workload identifier (model-server key prefix, cache key component).
    pub workload_id: String,
    /// The stage DAG costs fold along.
    pub dag: StageDag,
    /// The partitioned knob space (shared global block + per-stage blocks).
    pub space: StageSpace,
    /// Objectives to optimize, in order.
    pub objectives: Vec<StageObjectiveSpec>,
    /// Optional per-objective value constraints, aligned with `objectives`.
    pub constraints: Vec<Option<(f64, f64)>>,
    /// Optional preference weights for the final selection.
    pub weights: Option<Vec<f64>>,
    /// Pareto point budget (the decomposed solver's scalarization sweep
    /// size; the joint solver's PF point budget).
    pub points: usize,
    /// How to solve; defaults to [`StageMode::Descent`].
    pub mode: StageMode,
    /// Optional per-request wall-clock budget.
    pub budget: Option<Duration>,
    /// Scheduling class under a serving engine.
    pub priority: Priority,
    /// Optional SLO deadline for EDF ordering under a serving engine.
    pub deadline: Option<Duration>,
}

impl StageRequest {
    /// Start a per-stage request for `workload_id` over `dag` and `space`.
    pub fn new(workload_id: impl Into<String>, dag: StageDag, space: StageSpace) -> Self {
        Self {
            workload_id: workload_id.into(),
            dag,
            space,
            objectives: Vec::new(),
            constraints: Vec::new(),
            weights: None,
            points: 12,
            mode: StageMode::Descent,
            budget: None,
            priority: Priority::Standard,
            deadline: None,
        }
    }

    /// Add an unconstrained objective.
    pub fn objective(mut self, spec: StageObjectiveSpec) -> Self {
        self.objectives.push(spec);
        self.constraints.push(None);
        self
    }

    /// Add an objective with a value constraint (minimization space).
    pub fn objective_bounded(mut self, spec: StageObjectiveSpec, lo: f64, hi: f64) -> Self {
        self.objectives.push(spec);
        self.constraints.push(Some((lo, hi)));
        self
    }

    /// Set preference weights for the final selection.
    pub fn weights(mut self, w: Vec<f64>) -> Self {
        self.weights = Some(w);
        self
    }

    /// Set the Pareto point budget.
    pub fn points(mut self, n: usize) -> Self {
        self.points = n;
        self
    }

    /// Set the solve mode.
    pub fn mode(mut self, mode: StageMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set a per-request wall-clock budget.
    pub fn budget(mut self, limit: Duration) -> Self {
        self.budget = Some(limit);
        self
    }

    /// Set the scheduling class.
    pub fn priority(mut self, class: Priority) -> Self {
        self.priority = class;
        self
    }

    /// Set the SLO deadline used for EDF ordering within the class.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The structural shape fingerprint of this request: DAG shape, block
    /// dimensions, solve mode, and per-objective folds. Extended into
    /// [`FrontierKey`](crate::FrontierKey)s so a cached frontier can never
    /// serve a differently-shaped DAG (plain workload-level requests use
    /// shape 0).
    pub fn shape_fingerprint(&self) -> u64 {
        let mut h = fnv_fold(FNV_OFFSET, self.dag.fingerprint());
        h = fnv_fold(h, self.space.fingerprint());
        h = fnv_fold(h, self.mode.tag());
        for spec in &self.objectives {
            h = fnv_fold(h, spec.fold.tag());
        }
        // Shape 0 is reserved for plain requests.
        h.max(1)
    }
}

/// Coordinate-descent rounds per scalarization weight: each round solves
/// every block once; descent stops early the first round that improves
/// nothing, and on these block-separable problems two to three rounds
/// reach the fixed point.
const MAX_DESCENT_ROUNDS: usize = 6;

/// Lexicographic weight used by the anchor solves: minimizing
/// `LEX·f[j] + Σ f[m≠j]` finds the minimizer of objective `j` and, among
/// its ties (e.g. off-critical-path stage knobs under a critical-path
/// fold), the one best for the remaining objectives — so the anchors land
/// on the true utopia/nadir corners instead of arbitrary tie points.
const LEX_WEIGHT: f64 = 1e6;

/// Scalarization of an objective vector, shared across block subproblems.
type Scalarization = Arc<dyn Fn(&[f64]) -> f64 + Send + Sync>;

/// Per-solve descent accounting, folded into telemetry and the report's
/// [`StageAttribution`].
struct DescentWork {
    /// Block wall-clock seconds per stage.
    seconds: Vec<f64>,
    /// Block solves per stage.
    solves: Vec<u64>,
    /// Descent rounds across the whole weight sweep.
    rounds: u64,
    /// Total block solves (stages + global), reported as `probes`.
    probes: usize,
}

impl DescentWork {
    fn new(n_stages: usize) -> Self {
        Self { seconds: vec![0.0; n_stages], solves: vec![0; n_stages], rounds: 0, probes: 0 }
    }
}

/// A per-stage request's state between the request path's steps: the
/// composed objectives (read by the per-stage attribution) and the
/// descent accounting.
struct StageState {
    composed: Vec<Arc<ComposedObjective>>,
    work: DescentWork,
}

impl Udao {
    /// Handle a per-stage request end-to-end; the stage-space analogue of
    /// [`Udao::recommend`]. See [`crate::stage`] for the request model and
    /// solve modes.
    pub fn recommend_stages(&self, request: &StageRequest) -> Result<Recommendation> {
        let limit = request.budget.or(self.resilience.budget);
        let budget = limit.map(Budget::new).unwrap_or_default();
        self.recommend_stages_within(request, budget)
    }

    /// Like [`Udao::recommend_stages`], under an externally started
    /// [`Budget`] (serving engines start it at admission). Runs through the
    /// same request path as plain requests; only the problem, the MOO
    /// step, and the per-stage attribution differ.
    pub fn recommend_stages_within(
        &self,
        request: &StageRequest,
        budget: Budget,
    ) -> Result<Recommendation> {
        validate(request)?;
        let started = Instant::now();
        let n_stages = request.dag.len();
        let job = Job {
            workload_id: &request.workload_id,
            objectives: request.objectives.iter().map(|s| s.name.as_str()).collect(),
            constraints: &request.constraints,
            points: request.points,
            space: request.space.flat(),
            weights: &request.weights,
            shape: request.shape_fingerprint(),
            // The decomposed solver restarts every block from the midpoint
            // by design (its determinism guarantee), so only joint solves
            // warm-start from a near entry.
            warm_near: request.mode == StageMode::Joint,
            default_x: None,
        };
        self.run_request(
            job,
            budget,
            |budget| self.build_stage_problem(request, budget),
            |problem, state, seed| {
                udao_telemetry::counter(names::STAGE_TUNED).add(n_stages as u64);
                match request.mode {
                    StageMode::Joint => self.run_moo_and_select(
                        problem,
                        request.points,
                        &request.weights,
                        &budget,
                        seed,
                    ),
                    StageMode::Descent => {
                        let sel = self.descent_select(problem, request, &budget, &mut state.work);
                        let rounds = state.work.rounds;
                        if rounds > 0 {
                            udao_telemetry::counter(names::STAGE_DESCENT_ROUNDS).add(rounds);
                        }
                        sel
                    }
                }
            },
            |state, snapped| {
                let attribution =
                    stage_attribution(&state.composed, snapped, n_stages, &state.work);
                let seconds = started.elapsed().as_secs_f64();
                udao_telemetry::histogram(names::STAGE_SOLVE_SECONDS).record(seconds);
                attribution
            },
        )
    }

    /// Build the composed MOO problem for a request: per-stage models
    /// (carried analytic or resolved learned, version-pinned for the whole
    /// solve) composed over the DAG per objective.
    fn build_stage_problem(
        &self,
        request: &StageRequest,
        budget: &Budget,
    ) -> Result<BuiltProblem<StageState>> {
        let mut composed: Vec<Arc<ComposedObjective>> = Vec::new();
        let mut versions: Vec<(String, u64)> = Vec::new();
        // FNV-1a fold of pinned versions, exactly like the workload-level
        // problem builder: any hot-swap between builds changes the stamp.
        let mut generation = FNV_OFFSET;
        for spec in &request.objectives {
            let models: Vec<Arc<dyn ObjectiveModel>> = match &spec.models {
                Some(models) => models.clone(),
                None => {
                    let mut models = Vec::with_capacity(request.dag.len());
                    for i in 0..request.dag.len() {
                        let key = ModelKey::new(
                            format!("{}::stage{i}", request.workload_id),
                            spec.name.clone(),
                        );
                        match self.resolve_model(&key, budget)? {
                            Some(lease) => {
                                versions.push((format!("stage{i}/{}", spec.name), lease.version));
                                generation = fnv_fold(generation, lease.version);
                                models.push(lease.model);
                            }
                            // Stage models have no workload-agnostic
                            // heuristic prior: a missing stage model is a
                            // semantic error, not a degradation rung.
                            None => {
                                return Err(Error::ModelUnavailable(format!(
                                    "stage {i} of workload {} objective {}",
                                    request.workload_id, spec.name
                                )))
                            }
                        }
                    }
                    models
                }
            };
            composed.push(Arc::new(ComposedObjective::new(
                models,
                request.space.clone(),
                request.dag.clone(),
                spec.fold,
            )?));
        }
        let constraints = request
            .constraints
            .iter()
            .map(|c| c.map(|(lo, hi)| Bound::new(lo, hi)).unwrap_or(Bound::FREE))
            .collect();
        let objectives: Vec<Arc<dyn ObjectiveModel>> = composed
            .iter()
            .map(|c| Arc::clone(c) as Arc<dyn ObjectiveModel>)
            .collect();
        let problem = MooProblem::new(request.space.encoded_dim(), objectives)
            .with_constraints(constraints)
            .with_generation(generation);
        let work = DescentWork::new(request.dag.len());
        let state = StageState { composed, work };
        Ok(BuiltProblem { problem, degraded: false, versions, state })
    }

    /// The decomposed solver: anchors → scalarization sweep → selection.
    ///
    /// Anchors block-descend each objective alone (lexicographically, so
    /// tie knobs settle at the other objectives' optima) to the
    /// utopia/nadir corners; each sweep weight `λ = t/(points-1)` then
    /// block-descends the normalized weighted sum from the snapped
    /// midpoint. The non-dominated candidates form the frontier.
    fn descent_select(
        &self,
        problem: &MooProblem,
        request: &StageRequest,
        budget: &Budget,
        work: &mut DescentWork,
    ) -> Result<MooSelection> {
        let (space, points) = (&request.space, request.points);
        let start_t = Instant::now();
        let k = problem.num_objectives();
        let order = request.dag.canonical_order();
        let mid = space.flat().snap(&vec![0.5; space.encoded_dim()])?;
        // Anchors: per objective, its lexicographic minimizer.
        let mut anchors: Vec<(Vec<f64>, Vec<f64>)> = Vec::with_capacity(k);
        for j in 0..k {
            let scal: Scalarization = Arc::new(move |f: &[f64]| {
                let rest: f64 = f.iter().enumerate().filter(|(m, _)| *m != j).map(|(_, v)| v).sum();
                LEX_WEIGHT * f[j] + rest
            });
            let x = self.block_descent(problem, space, &order, &scal, mid.clone(), budget, work)?;
            let f = guard(|| problem.evaluate(&x))?;
            anchors.push((x, f));
        }
        let mut utopia: Vec<f64> = (0..k)
            .map(|j| anchors.iter().map(|(_, f)| f[j]).fold(f64::INFINITY, f64::min))
            .collect();
        let mut nadir: Vec<f64> = (0..k)
            .map(|j| anchors.iter().map(|(_, f)| f[j]).fold(f64::NEG_INFINITY, f64::max))
            .collect();
        for j in 0..k {
            let degenerate = !nadir[j].is_finite() || nadir[j] <= utopia[j];
            if degenerate || !utopia[j].is_finite() {
                utopia[j] = if utopia[j].is_finite() { utopia[j] } else { 0.0 };
                nadir[j] = utopia[j] + 1.0;
            }
        }
        // Scalarization sweep (2-objective): λ on objective 0, 1-λ on 1,
        // both normalized by the anchor box.
        let mut candidates: Vec<ParetoPoint> =
            anchors.iter().map(|(x, f)| ParetoPoint::new(x.clone(), f.clone())).collect();
        let sweep = points.max(2);
        let mut truncated = false;
        for t in 0..sweep {
            if budget.expired() {
                truncated = true;
                break;
            }
            let lambda = t as f64 / (sweep - 1) as f64;
            let (u, n) = (utopia.clone(), nadir.clone());
            let scal: Scalarization = Arc::new(move |f: &[f64]| {
                lambda * (f[0] - u[0]) / (n[0] - u[0])
                    + (1.0 - lambda) * (f[1] - u[1]) / (n[1] - u[1])
            });
            let x = self.block_descent(problem, space, &order, &scal, mid.clone(), budget, work)?;
            let f = guard(|| problem.evaluate(&x))?;
            candidates.push(ParetoPoint::new(x, f));
        }
        // Constraint filter, then non-dominated filter.
        let feasible: Vec<ParetoPoint> = candidates
            .into_iter()
            .filter(|pt| problem.feasible(&pt.f, 1e-6))
            .collect();
        if feasible.is_empty() {
            return Err(Error::Infeasible(
                "no per-stage candidate satisfies the objective constraints".into(),
            ));
        }
        let frontier = pareto_filter(feasible);
        let fs: Vec<Vec<f64>> = frontier.iter().map(|pt| pt.f.clone()).collect();
        let (front_utopia, front_nadir) = utopia_nadir(&fs)
            .ok_or_else(|| Error::Infeasible("empty per-stage frontier".into()))?;
        let seed = PfSeed {
            frontier: frontier.clone(),
            utopia: front_utopia.clone(),
            nadir: front_nadir.clone(),
            uncertain: Vec::new(),
            initial_volume: 0.0,
        };
        let sel = MooSelection::choose(frontier, front_utopia, front_nadir, &request.weights)?;
        Ok(MooSelection {
            probes: work.probes,
            moo_seconds: start_t.elapsed().as_secs_f64(),
            degraded: truncated,
            seed: Some(seed),
            ..sel
        })
    }

    /// One full block-coordinate descent of `scal` from `start`: rounds of
    /// (global block, then each stage block in canonical DAG order), each
    /// block solved to its conditional optimum with the others fixed,
    /// accepting strict improvements only, until a round changes nothing.
    #[allow(clippy::too_many_arguments)]
    fn block_descent(
        &self,
        problem: &MooProblem,
        space: &StageSpace,
        order: &[usize],
        scal: &Scalarization,
        start: Vec<f64>,
        budget: &Budget,
        work: &mut DescentWork,
    ) -> Result<Vec<f64>> {
        let mut x = start;
        let mut current = {
            let f = guard(|| problem.evaluate(&x))?;
            scal(&f)
        };
        for _ in 0..MAX_DESCENT_ROUNDS {
            work.rounds += 1;
            let mut changed = false;
            if space.global_dim() > 0 {
                let range = 0..space.global_dim();
                work.probes += 1;
                if let Some((sub, value)) =
                    self.solve_block(problem, &x, range.clone(), scal, budget)?
                {
                    if value.is_finite() && value < current {
                        x[range].copy_from_slice(&sub);
                        current = value;
                        changed = true;
                    }
                }
            }
            for &i in order {
                let block_start = Instant::now();
                let lo = space.global_dim() + i * space.stage_dim();
                let range = lo..lo + space.stage_dim();
                let solved = self.solve_block(problem, &x, range.clone(), scal, budget)?;
                work.seconds[i] += block_start.elapsed().as_secs_f64();
                work.solves[i] += 1;
                work.probes += 1;
                if let Some((sub, value)) = solved {
                    if value.is_finite() && value < current {
                        x[range].copy_from_slice(&sub);
                        current = value;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        Ok(x)
    }

    /// Solve one block subproblem: minimize `scal(F(x with block = sub))`
    /// over the block's dimensions with every other coordinate fixed.
    /// Narrow blocks (≤ 3 dims) use the exact lattice solver at the PF-S
    /// resolution — on dyadic surfaces the conditional optimum is recovered
    /// bitwise; wider blocks fall back to MOGD.
    fn solve_block(
        &self,
        problem: &MooProblem,
        x: &[f64],
        range: Range<usize>,
        scal: &Scalarization,
        budget: &Budget,
    ) -> Result<Option<(Vec<f64>, f64)>> {
        let dim = range.len();
        if dim == 0 {
            return Ok(None);
        }
        let base = x.to_vec();
        let models: Vec<Arc<dyn ObjectiveModel>> = problem.objectives.clone();
        let scal = Arc::clone(scal);
        let r = range.clone();
        let objective = FnModel::new(dim, move |sub: &[f64]| {
            let mut full = base.clone();
            full[r.clone()].copy_from_slice(sub);
            let f: Vec<f64> = models.iter().map(|m| m.predict(&full)).collect();
            scal(&f)
        });
        let sub_problem =
            MooProblem::new(dim, vec![Arc::new(objective)]).with_generation(problem.generation);
        let co = CoProblem::unconstrained(0, 1);
        let solution = guard(|| {
            if dim <= 3 {
                ExactGridSolver::new(self.pf_options.exact_resolution)
                    .solve_within(&sub_problem, &co, budget)
            } else {
                Mogd::new(self.pf_options.mogd.clone()).solve_within(&sub_problem, &co, budget)
            }
        })?;
        Ok(solution.map(|s| {
            let value = s.f.first().copied().unwrap_or(f64::NAN);
            (s.x, value)
        }))
    }
}

/// Per-stage attribution at the final recommendation: descent accounting
/// (block seconds/solves — zero for joint/cached solves) plus each stage's
/// predicted per-objective values.
fn stage_attribution(
    composed: &[Arc<ComposedObjective>],
    snapped: &[f64],
    n_stages: usize,
    work: &DescentWork,
) -> Vec<StageAttribution> {
    let per_objective: Vec<Vec<f64>> = composed
        .iter()
        .map(|obj| {
            obj.stage_values(snapped)
                .unwrap_or_else(|_| vec![f64::NAN; n_stages])
        })
        .collect();
    (0..n_stages)
        .map(|i| StageAttribution {
            stage: i,
            seconds: work.seconds.get(i).copied().unwrap_or(0.0),
            solves: work.solves.get(i).copied().unwrap_or(0),
            predicted: per_objective.iter().map(|vals| vals[i]).collect(),
        })
        .collect()
}

/// Reject malformed per-stage requests before any model resolution (the
/// shared request path rejects requests without objectives).
fn validate(request: &StageRequest) -> Result<()> {
    if request.dag.is_empty() {
        return Err(Error::InvalidConfig("per-stage request has an empty stage DAG".into()));
    }
    if request.space.n_stages() != request.dag.len() {
        return Err(Error::DimensionMismatch {
            expected: request.dag.len(),
            got: request.space.n_stages(),
        });
    }
    if request.constraints.len() != request.objectives.len() {
        return Err(Error::DimensionMismatch {
            expected: request.objectives.len(),
            got: request.constraints.len(),
        });
    }
    if let Some(w) = &request.weights {
        if w.len() != request.objectives.len() {
            return Err(Error::DimensionMismatch {
                expected: request.objectives.len(),
                got: w.len(),
            });
        }
    }
    if request.mode == StageMode::Descent && request.objectives.len() != 2 {
        return Err(Error::InvalidConfig(format!(
            "the decomposed (coordinate-descent) solver sweeps a 2-objective scalarization; \
             got {} objectives — use StageMode::Joint",
            request.objectives.len()
        )));
    }
    for spec in &request.objectives {
        if let Some(models) = &spec.models {
            if models.len() != request.dag.len() {
                return Err(Error::DimensionMismatch {
                    expected: request.dag.len(),
                    got: models.len(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use udao_core::pf::{PfOptions, PfVariant};
    use udao_sparksim::{ClusterSpec, StageFixture};

    /// 33 lattice levels → a dyadic grid (`j/32`) containing the fixtures'
    /// per-stage optima, so block solves recover them bitwise (same
    /// reasoning as `tests/frontier_truth.rs`).
    fn exact_udao() -> Udao {
        Udao::builder(ClusterSpec::paper_cluster())
            .pf(
                PfVariant::ApproxSequential,
                PfOptions { exact_resolution: 33, ..Default::default() },
            )
            .build()
            .expect("stage test options are valid")
    }

    fn fixture_request(fx: &StageFixture, mode: StageMode) -> StageRequest {
        StageRequest::new("stage-fx", fx.dag.clone(), fx.space())
            .objective(StageObjectiveSpec::analytic(
                "latency",
                Fold::CriticalPath,
                fx.latency_models(),
            ))
            .objective(StageObjectiveSpec::analytic("cost", Fold::Sum, fx.cost_models()))
            .points(5)
            .mode(mode)
    }

    #[test]
    fn descent_recovers_the_exact_composed_optimum() {
        let udao = exact_udao();
        let fx = StageFixture::diamond();
        let rec = udao
            .recommend_stages(&fixture_request(&fx, StageMode::Descent))
            .expect("descent solve");
        // Utopia-nearest over λ ∈ {0, ¼, ½, ¾, 1} picks λ = ½; every stage
        // knob sits at its analytic optimum, bitwise.
        let want = fx.front_config(0.5);
        assert_eq!(rec.x, want, "recommended configuration");
        assert_eq!(rec.predicted, vec![fx.ideal_latency(0.5), fx.ideal_cost(0.5)]);
        assert!(!rec.degraded);
        assert_eq!(rec.report.stages_tuned, fx.len() as u64);
        assert!(rec.report.stage_descent_rounds > 0);
        assert_eq!(rec.report.stage_attribution.len(), fx.len());
        for (i, a) in rec.report.stage_attribution.iter().enumerate() {
            assert_eq!(a.stage, i);
            assert!(a.solves > 0, "stage {i} solved at least once");
            assert_eq!(a.predicted.len(), 2);
        }
    }

    #[test]
    fn requests_are_validated() {
        let udao = Udao::new(ClusterSpec::paper_cluster());
        let fx = StageFixture::chain2();
        // No objectives.
        let empty = StageRequest::new("w", fx.dag.clone(), fx.space());
        assert!(udao.recommend_stages(&empty).is_err());
        // Descent needs exactly two objectives.
        let one = StageRequest::new("w", fx.dag.clone(), fx.space()).objective(
            StageObjectiveSpec::analytic("latency", Fold::CriticalPath, fx.latency_models()),
        );
        assert!(udao.recommend_stages(&one).is_err());
        // Mismatched model count.
        let short = StageRequest::new("w", fx.dag.clone(), fx.space())
            .objective(StageObjectiveSpec::analytic(
                "latency",
                Fold::CriticalPath,
                fx.latency_models()[..1].to_vec(),
            ))
            .objective(StageObjectiveSpec::analytic("cost", Fold::Sum, fx.cost_models()));
        assert!(udao.recommend_stages(&short).is_err());
        // Learned models that were never trained are a clear error.
        let learned = StageRequest::new("w", fx.dag.clone(), fx.space())
            .objective(StageObjectiveSpec::learned("latency", Fold::CriticalPath))
            .objective(StageObjectiveSpec::learned("cost", Fold::Sum));
        let err = udao.recommend_stages(&learned).unwrap_err();
        assert!(matches!(err, Error::ModelUnavailable(_)), "{err}");
    }

    #[test]
    fn shape_fingerprints_differ_by_dag_mode_and_fold() {
        let diamond = StageFixture::diamond();
        let fanin = StageFixture::fanin_join();
        let a = fixture_request(&diamond, StageMode::Descent).shape_fingerprint();
        let b = fixture_request(&fanin, StageMode::Descent).shape_fingerprint();
        let c = fixture_request(&diamond, StageMode::Joint).shape_fingerprint();
        assert_ne!(a, b, "different DAG shapes");
        assert_ne!(a, c, "different solve modes");
        assert_ne!(a, 0, "shape 0 is reserved for plain requests");
    }
}
