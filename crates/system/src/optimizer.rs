//! The UDAO optimizer façade: model retrieval → Progressive Frontier →
//! configuration recommendation (Fig. 1(a), modules 1–3).
//!
//! The serving path runs under the resilience policy of
//! [`crate::resilience`]: model lookups are retried with backoff, every
//! solve honors the request [`Budget`], each fallback stage runs under
//! `catch_unwind`, and a request only fails outright on *semantic* errors
//! (malformed request, infeasible constraints) — runtime faults walk down
//! the degradation ladder instead.
//!
//! Batch and streaming requests are served by one generic path
//! ([`Udao::recommend`] over [`Objective`]); every solve is instrumented
//! through `udao-telemetry` and returns its own [`SolveReport`].

use crate::frontier_cache::{CacheLookup, CachedFrontier, FrontierCache, FrontierKey};
use crate::report::{SolveReport, StageAttribution};
use crate::request::{Objective, Request};
use crate::resilience::{absorbable, FallbackStage, ModelProvider, ResilienceOptions};
use crate::serve::ServingOptions;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;
use udao_core::budget::Budget;
use udao_core::mogd::Mogd;
use udao_core::objective::ObjectiveModel;
use udao_core::pareto::ParetoPoint;
use udao_core::pf::{PfOptions, PfSeed, PfVariant, ProgressiveFrontier};
use udao_core::recommend::{recommend, Strategy};
use udao_core::solver::{Bound, CoProblem, CoSolver};
use udao_core::space::{Configuration, ParamSpace};
use udao_core::{fnv_fold, Error, MooProblem, Result, FNV_OFFSET};
use udao_model::dataset::Dataset;
use udao_model::server::{ModelKey, ModelKind, ModelLease, ModelServer};
use udao_model::{GpConfig, MlpConfig};
use udao_sparksim::objectives::{BatchObjective, StreamObjective};
use udao_sparksim::trace::{
    batch_training_data, collect_batch_traces, collect_stream_traces, stream_training_data,
    SamplingStrategy,
};
use udao_sparksim::{
    simulate_batch, simulate_streaming, BatchConf, ClusterSpec, JobMetrics, StreamConf,
    StreamMetrics, Workload,
};
use udao_telemetry::names;

/// Which learned model family the model server trains (§V): GPs (the
/// OtterTune family) or deep ensembles (the UDAO DNN family \[38\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelFamily {
    /// Gaussian Processes.
    Gp,
    /// Deep (MLP) ensembles.
    Dnn,
}

impl ModelFamily {
    fn kind(self) -> ModelKind {
        match self {
            ModelFamily::Gp => ModelKind::Gp(GpConfig::default()),
            ModelFamily::Dnn => ModelKind::Dnn {
                config: MlpConfig { hidden: vec![48, 48], epochs: 220, ..Default::default() },
                members: 3,
            },
        }
    }
}

/// A recommended configuration with its provenance.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// Normalized (snapped) configuration point.
    pub x: Vec<f64>,
    /// Raw decoded configuration.
    pub configuration: Configuration,
    /// Typed batch configuration, for batch requests.
    pub batch_conf: Option<BatchConf>,
    /// Typed streaming configuration, for streaming requests.
    pub stream_conf: Option<StreamConf>,
    /// Model-predicted objective vector at the recommendation
    /// (minimization space).
    pub predicted: Vec<f64>,
    /// The full Pareto frontier the choice was made from.
    pub frontier: Vec<ParetoPoint>,
    /// Utopia point of the frontier computation.
    pub utopia: Vec<f64>,
    /// Nadir point of the frontier computation.
    pub nadir: Vec<f64>,
    /// CO probes the Progressive Frontier spent.
    pub probes: usize,
    /// Wall-clock seconds of the MOO phase.
    pub moo_seconds: f64,
    /// Whether any resilience mechanism weakened this answer: an expired
    /// budget, skipped (panicked) probes, heuristic cold-start models, or a
    /// fallback stage below the primary solver.
    pub degraded: bool,
    /// Which rung of the degradation ladder produced the answer.
    pub stage: FallbackStage,
    /// What the solve cost: per-stage wall-clock and optimizer/model
    /// counters observed while serving this request.
    pub report: SolveReport,
}

/// The MOO phase output, produced by every MOO step the request path
/// ([`Udao::run_request`]) runs: a Progressive Frontier ladder, the per-stage
/// coordinate descent, a cache hit, or the default configuration.
pub(crate) struct MooSelection {
    /// The selected configuration point.
    pub(crate) x: Vec<f64>,
    /// Model-predicted objectives at the selected point.
    pub(crate) f: Vec<f64>,
    /// The frontier the choice was made from.
    pub(crate) frontier: Vec<ParetoPoint>,
    pub(crate) utopia: Vec<f64>,
    pub(crate) nadir: Vec<f64>,
    pub(crate) probes: usize,
    pub(crate) moo_seconds: f64,
    pub(crate) stage: FallbackStage,
    pub(crate) degraded: bool,
    /// The PF run's exported resume state (frontier + uncertain
    /// rectangles), present only when a full Progressive Frontier run
    /// produced the selection — what the frontier cache stores.
    pub(crate) seed: Option<PfSeed>,
}

impl MooSelection {
    /// Choose from `frontier` by Weighted Utopia-Nearest under preference
    /// `weights`, plain Utopia-Nearest without: a clean primary selection
    /// with no probes, time, or resume state yet.
    pub(crate) fn choose(
        frontier: Vec<ParetoPoint>,
        utopia: Vec<f64>,
        nadir: Vec<f64>,
        weights: &Option<Vec<f64>>,
    ) -> Result<Self> {
        let strategy = match weights {
            Some(w) => Strategy::WeightedUtopiaNearest(w.clone()),
            None => Strategy::UtopiaNearest,
        };
        let idx = recommend(&frontier, &utopia, &nadir, &strategy)?;
        Ok(Self {
            x: frontier[idx].x.clone(),
            f: frontier[idx].f.clone(),
            frontier,
            utopia,
            nadir,
            probes: 0,
            moo_seconds: 0.0,
            stage: FallbackStage::Primary,
            degraded: false,
            seed: None,
        })
    }

    /// A degraded one-point answer from a lower ladder rung.
    fn point(
        x: Vec<f64>,
        f: Vec<f64>,
        probes: usize,
        stage: FallbackStage,
        start: &Instant,
    ) -> Self {
        Self {
            frontier: vec![ParetoPoint::new(x.clone(), f.clone())],
            x,
            utopia: f.clone(),
            nadir: f.clone(),
            f,
            probes,
            moo_seconds: start.elapsed().as_secs_f64(),
            stage,
            degraded: true,
            seed: None,
        }
    }
}

/// A request kind's built problem (every model version pinned for the
/// whole solve) plus its state for the MOO and post steps.
pub(crate) struct BuiltProblem<T = ()> {
    pub(crate) problem: MooProblem,
    /// Whether any objective degraded to its heuristic prior.
    pub(crate) degraded: bool,
    /// `(objective name, pinned version)` per learned objective (0 =
    /// heuristic/unversioned).
    pub(crate) versions: Vec<(String, u64)>,
    pub(crate) state: T,
}

/// One request as [`Udao::run_request`] sees it: only what differs
/// between plain and per-stage requests.
pub(crate) struct Job<'a> {
    pub(crate) workload_id: &'a str,
    pub(crate) objectives: Vec<&'a str>,
    pub(crate) constraints: &'a [Option<(f64, f64)>],
    pub(crate) points: usize,
    /// The flat knob space the answer snaps onto and decodes from.
    pub(crate) space: &'a ParamSpace,
    pub(crate) weights: &'a Option<Vec<f64>>,
    /// Frontier-cache shape: 0 for plain requests.
    pub(crate) shape: u64,
    /// Whether a near cache hit may warm-start the MOO step.
    pub(crate) warm_near: bool,
    /// The point the default-configuration rung tries first.
    pub(crate) default_x: Option<Vec<f64>>,
}

/// Run `f` isolating panics into [`Error::WorkerPanicked`], so a poisoned
/// model cannot unwind through the serving path.
pub(crate) fn guard<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    std::panic::catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|payload| Err(Error::WorkerPanicked(panic_message(payload.as_ref()))))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Builds a [`Udao`] instance, validating option combinations once at
/// construction time instead of failing deep inside a solve.
///
/// ```no_run
/// use udao::{Udao, UdaoBuilder};
/// use udao_sparksim::ClusterSpec;
///
/// let udao = Udao::builder(ClusterSpec::paper_cluster())
///     .build()
///     .expect("default options are valid");
/// ```
pub struct UdaoBuilder {
    cluster: ClusterSpec,
    server: Arc<ModelServer>,
    provider: Option<Arc<dyn ModelProvider>>,
    resilience: ResilienceOptions,
    pf_options: PfOptions,
    pf_variant: PfVariant,
    seed: u64,
    serving: ServingOptions,
    frontier_cache: Option<usize>,
}

impl UdaoBuilder {
    /// Set the Progressive Frontier variant and solver options.
    pub fn pf(mut self, variant: PfVariant, options: PfOptions) -> Self {
        self.pf_variant = variant;
        self.pf_options = options;
        self
    }

    /// Set the resilience policy (request budget, retry, cold-start
    /// degradation).
    pub fn resilience(mut self, resilience: ResilienceOptions) -> Self {
        self.resilience = resilience;
        self
    }

    /// Route model lookups through `provider` instead of the in-process
    /// model server — the seam for remote servers and fault injection.
    /// Training still writes to the in-process server; wrap
    /// [`UdaoBuilder::shared_model_server`] to intercept its reads.
    pub fn model_provider(mut self, provider: Arc<dyn ModelProvider>) -> Self {
        self.provider = Some(provider);
        self
    }

    /// Set the base sampling seed used for trace collection.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the serving-engine policy (worker pool size, queue depth,
    /// admission control) used by [`crate::serve::ServingEngine`] instances
    /// started from the built optimizer.
    pub fn serving(mut self, serving: ServingOptions) -> Self {
        self.serving = serving;
        self
    }

    /// Enable the cross-request frontier cache, holding up to `capacity`
    /// solved frontiers (see [`crate::frontier_cache`]). Exact repeats of
    /// a request are answered from the cache without a MOO run; nearby
    /// requests warm-start MOGD and PF probing from the cached entry. The
    /// cache is strictly opt-in: without this call every solve runs cold,
    /// exactly as before.
    pub fn frontier_cache(mut self, capacity: usize) -> Self {
        self.frontier_cache = Some(capacity);
        self
    }

    /// A shareable handle to the model server the built optimizer will
    /// train into — available *before* `build`, so fault-injecting or
    /// caching [`ModelProvider`]s can wrap it.
    pub fn shared_model_server(&self) -> Arc<ModelServer> {
        self.server.clone()
    }

    /// Validate the assembled options and construct the optimizer.
    ///
    /// Rejected combinations (all [`Error::InvalidConfig`]): zero MOGD
    /// iterations or multistarts, a non-finite/non-positive learning rate,
    /// negative penalty/alpha/tolerance, zero retry attempts, a PF-S
    /// lattice finer than 2, and a PF-AP grid of zero subdivisions. A zero
    /// time budget is *allowed* — it means "serve the fastest degraded
    /// answer", which the resilience tests rely on.
    pub fn build(self) -> Result<Udao> {
        validate_options(self.pf_variant, &self.pf_options, &self.resilience)?;
        self.serving.validate()?;
        if self.frontier_cache == Some(0) {
            return Err(Error::InvalidConfig("frontier_cache capacity must be >= 1".into()));
        }
        let provider = self
            .provider
            .unwrap_or_else(|| self.server.clone() as Arc<dyn ModelProvider>);
        Ok(Udao {
            cluster: self.cluster,
            server: self.server,
            provider,
            resilience: self.resilience,
            pf_options: self.pf_options,
            pf_variant: self.pf_variant,
            seed: self.seed,
            serving: self.serving,
            frontier_cache: self.frontier_cache.map(|cap| Arc::new(FrontierCache::new(cap))),
            history: Default::default(),
        })
    }
}

/// Validate a (variant, options, resilience) combination before
/// [`UdaoBuilder::build`] assembles the optimizer, so no construction path
/// can smuggle in rejected options.
fn validate_options(
    pf_variant: PfVariant,
    pf_options: &PfOptions,
    resilience: &ResilienceOptions,
) -> Result<()> {
    let mogd = &pf_options.mogd;
    if mogd.max_iters == 0 {
        return Err(Error::InvalidConfig("mogd.max_iters must be >= 1".into()));
    }
    if mogd.multistarts == 0 {
        return Err(Error::InvalidConfig("mogd.multistarts must be >= 1".into()));
    }
    if !(mogd.learning_rate.is_finite() && mogd.learning_rate > 0.0) {
        return Err(Error::InvalidConfig(format!(
            "mogd.learning_rate must be finite and positive, got {}",
            mogd.learning_rate
        )));
    }
    if mogd.penalty < 0.0 || !mogd.penalty.is_finite() {
        return Err(Error::InvalidConfig("mogd.penalty must be non-negative".into()));
    }
    if mogd.alpha < 0.0 || !mogd.alpha.is_finite() {
        return Err(Error::InvalidConfig("mogd.alpha must be non-negative".into()));
    }
    if mogd.tol < 0.0 || !mogd.tol.is_finite() {
        return Err(Error::InvalidConfig("mogd.tol must be non-negative".into()));
    }
    if resilience.retry.attempts == 0 {
        return Err(Error::InvalidConfig("retry.attempts must be >= 1".into()));
    }
    if pf_variant == PfVariant::Sequential && pf_options.exact_resolution < 2 {
        return Err(Error::InvalidConfig("PF-S needs exact_resolution >= 2".into()));
    }
    if pf_variant == PfVariant::ApproxParallel && pf_options.grid_l == 0 {
        return Err(Error::InvalidConfig("PF-AP needs grid_l >= 1".into()));
    }
    Ok(())
}

/// The UDAO system: a cluster, a model server, and the MOO engine.
pub struct Udao {
    cluster: ClusterSpec,
    server: Arc<ModelServer>,
    provider: Arc<dyn ModelProvider>,
    pub(crate) resilience: ResilienceOptions,
    pub(crate) pf_options: PfOptions,
    pf_variant: PfVariant,
    seed: u64,
    serving: ServingOptions,
    /// Opt-in cross-request frontier cache; `None` (the default) keeps
    /// every solve cold and bitwise-identical to a cacheless optimizer.
    pub(crate) frontier_cache: Option<Arc<FrontierCache>>,
    /// Raw trace archive per objective name: `(workload id, dataset)` pairs
    /// used for OtterTune-style workload mapping of data-poor online
    /// workloads (§V.1).
    history: parking_lot::RwLock<std::collections::HashMap<String, Vec<(String, Dataset)>>>,
}

impl Udao {
    /// Create an optimizer for `cluster` with default (PF-AP) settings.
    ///
    /// MOGD runs with uncertainty handling enabled (`α = 1`): learned
    /// models are optimized through the conservative estimate
    /// `E[F] + α·std[F]` so that the solver cannot exploit hallucinated
    /// minima far from the training data (§IV-B.3).
    pub fn new(cluster: ClusterSpec) -> Self {
        Self::builder(cluster)
            .build()
            .expect("default builder options always validate")
    }

    /// Start building an optimizer for `cluster`; see [`UdaoBuilder`].
    /// Defaults match [`Udao::new`]: PF-AP, `α = 1`, default resilience.
    pub fn builder(cluster: ClusterSpec) -> UdaoBuilder {
        let mut pf_options = PfOptions::default();
        pf_options.mogd.alpha = 1.0;
        UdaoBuilder {
            cluster,
            server: Arc::new(ModelServer::new()),
            provider: None,
            resilience: ResilienceOptions::default(),
            pf_options,
            pf_variant: PfVariant::ApproxParallel,
            seed: 0xDA0,
            serving: ServingOptions::default(),
            frontier_cache: None,
        }
    }

    /// The underlying model server.
    pub fn model_server(&self) -> &ModelServer {
        &self.server
    }

    /// A shareable handle to the model server, for building custom
    /// [`ModelProvider`]s over it.
    pub fn shared_model_server(&self) -> Arc<ModelServer> {
        self.server.clone()
    }

    /// The cluster this optimizer targets.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The serving-engine policy configured at build time.
    pub fn serving_options(&self) -> &ServingOptions {
        &self.serving
    }

    /// The resilience policy configured at build time.
    pub fn resilience_options(&self) -> &ResilienceOptions {
        &self.resilience
    }

    /// The cross-request frontier cache, when enabled via
    /// [`UdaoBuilder::frontier_cache`].
    pub fn frontier_cache(&self) -> Option<&Arc<FrontierCache>> {
        self.frontier_cache.as_ref()
    }

    /// Reclaim idle serving-path state: frontier-cache entries whose
    /// pinned model versions fell behind the registry. Serving-engine
    /// workers call this from their idle path so reclamation does not
    /// depend on a lifecycle manager running; it is safe (and cheap) to
    /// call at any time.
    pub fn prune_idle(&self) -> usize {
        let Some(cache) = &self.frontier_cache else {
            return 0;
        };
        cache.prune_stale(|workload, objective| {
            // Per-stage entries pin versions under `stage{i}/{objective}`
            // names against the `{workload}::stage{i}` model keys (see
            // `crate::stage`); plain entries use the objective name
            // against the workload key directly.
            match objective.split_once('/') {
                Some((stage_part, name)) => self.server.current_version(&ModelKey::new(
                    format!("{workload}::{stage_part}"),
                    name,
                )),
                None => self.server.current_version(&ModelKey::new(workload, objective)),
            }
        })
    }

    /// Collect traces for a batch workload and train per-objective models.
    /// Offline workloads use latency-seeking sampling; online workloads use
    /// the heuristic sampler (§V.1). `CostCores` is analytic and skipped.
    pub fn train_batch(
        &self,
        workload: &Workload,
        n_traces: usize,
        family: ModelFamily,
        objectives: &[BatchObjective],
    ) {
        // Mixed sampling (best-practice + uniform exploration +
        // latency-seeking) for both regimes: pure best-practice samples
        // correlate knobs and poison the learned models off-manifold.
        let strategy = SamplingStrategy::Mixed;
        let _ = workload.offline;
        let traces = collect_batch_traces(workload, &self.cluster, n_traces, strategy, self.seed);
        for obj in objectives {
            if matches!(obj, BatchObjective::CostCores) {
                continue;
            }
            let key = ModelKey::new(workload.id.clone(), obj.name());
            let (x, y) = batch_training_data(&traces, *obj);
            // Strictly positive heavy-tailed objectives learn in log space.
            if udao_model::transform::log_transformable(&y) {
                self.server.register_log(key.clone(), family.kind());
            } else {
                self.server.register(key.clone(), family.kind());
            }
            let data = Dataset::new(x, y);
            self.archive(obj.name(), &workload.id, &data);
            self.server.ingest(&key, &data);
        }
    }

    /// Record raw traces in the mapping archive.
    fn archive(&self, objective: &str, workload_id: &str, data: &Dataset) {
        let mut h = self.history.write();
        let entry = h.entry(objective.to_string()).or_default();
        match entry.iter_mut().find(|(id, _)| id == workload_id) {
            Some((_, d)) => d.extend(data),
            None => entry.push((workload_id.to_string(), data.clone())),
        }
    }

    /// Train models for a *data-poor online* workload with OtterTune-style
    /// workload mapping (§V.1): collect only `n_traces` (6–30 in the
    /// paper) runs of the target, find the most similar previously-profiled
    /// workload per objective, and train on the merged dataset — the
    /// target's own observations taking precedence.
    ///
    /// Falls back to plain training when the archive has no usable match.
    pub fn train_batch_mapped(
        &self,
        workload: &Workload,
        n_traces: usize,
        family: ModelFamily,
        objectives: &[BatchObjective],
    ) {
        let traces = collect_batch_traces(
            workload,
            &self.cluster,
            n_traces,
            SamplingStrategy::Mixed,
            self.seed,
        );
        for obj in objectives {
            if matches!(obj, BatchObjective::CostCores) {
                continue;
            }
            let key = ModelKey::new(workload.id.clone(), obj.name());
            let (x, y) = batch_training_data(&traces, *obj);
            let target = Dataset::new(x, y);
            let mapped = {
                let h = self.history.read();
                h.get(obj.name()).and_then(|hist| {
                    let others: Vec<(String, Dataset)> = hist
                        .iter()
                        .filter(|(id, _)| id != &workload.id)
                        .cloned()
                        .collect();
                    udao_baselines::ottertune::map_workload(&target, &others)
                })
            };
            let data = match mapped {
                Some((_, merged)) => merged,
                None => target.clone(),
            };
            if udao_model::transform::log_transformable(&data.y) {
                self.server.register_log(key.clone(), family.kind());
            } else {
                self.server.register(key.clone(), family.kind());
            }
            self.archive(obj.name(), &workload.id, &target);
            self.server.ingest(&key, &data);
        }
    }

    /// Collect traces for a streaming workload and train models.
    pub fn train_streaming(
        &self,
        workload: &Workload,
        n_traces: usize,
        family: ModelFamily,
        objectives: &[StreamObjective],
    ) {
        let traces = collect_stream_traces(workload, &self.cluster, n_traces, self.seed);
        for obj in objectives {
            if matches!(obj, StreamObjective::CostCores) {
                continue;
            }
            let key = ModelKey::new(workload.id.clone(), obj.name());
            let (x, y) = stream_training_data(&traces, *obj);
            if udao_model::transform::log_transformable(&y) {
                self.server.register_log(key.clone(), family.kind());
            } else {
                self.server.register(key.clone(), family.kind());
            }
            self.server.ingest(&key, &Dataset::new(x, y));
        }
    }

    /// Fetch a trained model as a version-pinned lease, with bounded retry
    /// and exponential backoff on transient provider failures. Backoff
    /// sleeps never outlive `budget`.
    fn fetch_model(&self, key: &ModelKey, budget: &Budget) -> Result<Option<ModelLease>> {
        let retry = &self.resilience.retry;
        let mut last: Option<Error> = None;
        for attempt in 0..retry.attempts.max(1) {
            if attempt > 0 {
                if budget.expired() {
                    break;
                }
                udao_telemetry::counter(names::MODEL_FETCH_RETRIES).inc();
                let mut pause = retry.backoff(attempt - 1);
                if let Some(remaining) = budget.remaining() {
                    pause = pause.min(remaining);
                }
                std::thread::sleep(pause);
            }
            match self.provider.lease(key) {
                Ok(found) => return Ok(found),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| budget.timeout_error()))
    }

    /// Resolve the model for one learned objective: retried lookup, then —
    /// when cold-start degradation is enabled — the analytic heuristic
    /// prior. `Ok(None)` means "degrade to the heuristic".
    pub(crate) fn resolve_model(&self, key: &ModelKey, budget: &Budget) -> Result<Option<ModelLease>> {
        match self.fetch_model(key, budget) {
            Ok(Some(model)) => Ok(Some(model)),
            Ok(None) if self.resilience.cold_start_analytic => Ok(None),
            Ok(None) => Err(Error::ModelUnavailable(format!(
                "workload {} objective {}",
                key.workload, key.objective
            ))),
            // Retries exhausted: with cold-start degradation on, a dead
            // provider is handled like a cold start; otherwise surface it.
            Err(_) if self.resilience.cold_start_analytic => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Build the MOO problem for a request from the model server's current
    /// models (analytic objectives are served exactly, without lookup).
    /// Each learned objective's model version is **pinned here, once, for
    /// the whole solve** — the lease's `Arc` keeps those exact weights
    /// alive through any number of concurrent hot-swaps, and the problem's
    /// generation stamp (folded from the pinned versions) keys the MOGD
    /// memo cache to them.
    fn build_problem<O: Objective>(
        &self,
        request: &Request<O>,
        budget: &Budget,
    ) -> Result<BuiltProblem> {
        let space = O::space();
        let mut models: Vec<Arc<dyn ObjectiveModel>> = Vec::new();
        let mut degraded = false;
        let mut versions: Vec<(String, u64)> = Vec::new();
        // FNV-1a fold of the pinned versions: any swap between two builds
        // changes the stamp, so memoized evaluations never cross versions
        // even if the allocator reuses a retired model's address.
        let mut generation = FNV_OFFSET;
        for obj in &request.objectives {
            if let Some(analytic) = obj.analytic_model() {
                models.push(analytic);
                continue;
            }
            let key = ModelKey::new(request.workload_id.clone(), Objective::name(obj));
            let version = match self.resolve_model(&key, budget)? {
                Some(lease) => {
                    models.push(lease.model);
                    lease.version
                }
                None => {
                    degraded = true;
                    models.push(obj.heuristic_model());
                    0
                }
            };
            versions.push((Objective::name(obj).to_string(), version));
            generation = fnv_fold(generation, version);
        }
        let constraints = request
            .constraints
            .iter()
            .map(|c| c.map(|(lo, hi)| Bound::new(lo, hi)).unwrap_or(Bound::FREE))
            .collect();
        let problem = MooProblem::new(space.encoded_dim(), models)
            .with_constraints(constraints)
            .with_generation(generation);
        Ok(BuiltProblem { problem, degraded, versions, state: () })
    }

    /// Build the MOO problem for a request (unlimited budget).
    pub fn problem<O: Objective>(&self, request: &Request<O>) -> Result<MooProblem> {
        self.build_problem(request, &Budget::unlimited()).map(|built| built.problem)
    }

    /// Run one Progressive Frontier `rung` — its solver variant paired with
    /// the ladder stage it represents — to a selection. With a cached
    /// `seed`, MOGD multistarts are warm-started from the cached Pareto
    /// configurations and PF probing resumes from the cached uncertain
    /// rectangles instead of the full objective-space box.
    fn pf_stage(
        &self,
        rung: (PfVariant, FallbackStage),
        problem: &MooProblem,
        points: usize,
        weights: &Option<Vec<f64>>,
        budget: &Budget,
        seed: Option<&PfSeed>,
    ) -> Result<MooSelection> {
        let (variant, stage) = rung;
        udao_telemetry::counter(&names::fallback_stage(&stage)).inc();
        let mut options = self.pf_options.clone();
        if let Some(seed) = seed {
            options.mogd.warm_starts = seed.pareto_configs();
        }
        let run = guard(|| {
            ProgressiveFrontier::new(variant, options)
                .solve_seeded_within(problem, points, budget, seed)
        })?;
        let exported = run.seed();
        let sel = MooSelection::choose(run.frontier, run.utopia, run.nadir, weights)?;
        // `moo_seconds` is stamped by `run_moo_and_select` once a rung succeeds.
        Ok(MooSelection {
            probes: run.probes,
            stage,
            degraded: run.degraded || stage != FallbackStage::Primary,
            seed: Some(exported),
            ..sel
        })
    }

    /// Synthesize the MOO selection for an exact frontier-cache hit: the
    /// cached frontier answers the request directly, with only the (cheap)
    /// weighted Utopia-nearest selection re-run — so differing preference
    /// weights still share one cached entry. Reports zero probes: no CO
    /// solve ran for this request.
    fn select_from_cache(
        entry: &CachedFrontier,
        weights: &Option<Vec<f64>>,
        started: &Instant,
    ) -> Result<MooSelection> {
        let seed = &entry.seed;
        let (frontier, utopia, nadir) =
            (seed.frontier.clone(), seed.utopia.clone(), seed.nadir.clone());
        let sel = MooSelection::choose(frontier, utopia, nadir, weights)?;
        Ok(MooSelection { moo_seconds: started.elapsed().as_secs_f64(), ..sel })
    }

    /// The MOO phase under the degradation ladder: the configured PF
    /// variant, then PF-AS, then a single-objective MOGD solve of the
    /// primary objective. Only absorbable (runtime) faults move the request
    /// down a rung; semantic errors fail fast. An `Err` from this function
    /// is either semantic or means every rung failed — the caller then
    /// falls back to the default configuration.
    pub(crate) fn run_moo_and_select(
        &self,
        problem: &MooProblem,
        points: usize,
        weights: &Option<Vec<f64>>,
        budget: &Budget,
        seed: Option<&PfSeed>,
    ) -> Result<MooSelection> {
        let start = Instant::now();
        let stamp = |mut sel: MooSelection| {
            sel.moo_seconds = start.elapsed().as_secs_f64();
            sel
        };
        let primary = self.pf_stage(
            (self.pf_variant, FallbackStage::Primary),
            problem,
            points,
            weights,
            budget,
            seed,
        );
        let mut last_err = match primary {
            Ok(sel) => return Ok(stamp(sel)),
            Err(e) if absorbable(&e) => e,
            Err(e) => return Err(e),
        };
        if self.pf_variant != PfVariant::ApproxSequential {
            eprintln!(
                "udao: {} failed ({last_err}); falling back to PF-AS",
                self.pf_variant_name()
            );
            udao_telemetry::counter(names::FALLBACK_TRANSITIONS).inc();
            match self.pf_stage(
                (PfVariant::ApproxSequential, FallbackStage::SequentialPf),
                problem,
                points,
                weights,
                budget,
                seed,
            ) {
                Ok(sel) => return Ok(stamp(sel)),
                Err(e) if absorbable(&e) => last_err = e,
                Err(e) => return Err(e),
            }
        }
        eprintln!(
            "udao: sequential PF failed ({last_err}); falling back to single-objective MOGD"
        );
        udao_telemetry::counter(names::FALLBACK_TRANSITIONS).inc();
        udao_telemetry::counter(&names::fallback_stage(&FallbackStage::SingleObjective)).inc();
        // Single-objective rung: optimize the heaviest-weighted (or first)
        // objective alone — one configuration instead of a frontier.
        let primary_idx = weights
            .as_ref()
            .and_then(|w| {
                w.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
            })
            .unwrap_or(0)
            .min(problem.num_objectives() - 1);
        let solo = guard(|| {
            let solver = Mogd::new(self.pf_options.mogd.clone());
            solver.solve_within(
                problem,
                &CoProblem::unconstrained(primary_idx, problem.num_objectives()),
                budget,
            )
        });
        match solo? {
            Some(sol) => {
                Ok(MooSelection::point(sol.x, sol.f, 1, FallbackStage::SingleObjective, &start))
            }
            None => Err(last_err),
        }
    }

    fn pf_variant_name(&self) -> &'static str {
        match self.pf_variant {
            PfVariant::Sequential => "PF-S",
            PfVariant::ApproxSequential => "PF-AS",
            PfVariant::ApproxParallel => "PF-AP",
        }
    }

    /// Snap the chosen point onto the decodable knob grid, re-checking the
    /// request's value constraints: integer rounding can push a boundary
    /// point out of its constraint region (e.g. 11.8 × 4.9 cores rounding
    /// to 12 × 5 = 60 > 58), in which case the nearest frontier point whose
    /// snapped configuration stays feasible is used instead.
    fn snap_feasible(
        problem: &MooProblem,
        space: &ParamSpace,
        chosen_x: &[f64],
        frontier: &[ParetoPoint],
    ) -> Result<(Vec<f64>, Vec<f64>)> {
        let snapped = space.snap(chosen_x)?;
        let predicted = problem.evaluate(&snapped)?;
        if problem.feasible(&predicted, 1e-3) {
            return Ok((snapped, predicted));
        }
        // Try frontier points closest to the chosen one first.
        let chosen_f = problem.evaluate(chosen_x)?;
        let mut order: Vec<usize> = (0..frontier.len()).collect();
        order.sort_by(|&a, &b| {
            let da: f64 =
                frontier[a].f.iter().zip(&chosen_f).map(|(v, c)| (v - c) * (v - c)).sum();
            let db: f64 =
                frontier[b].f.iter().zip(&chosen_f).map(|(v, c)| (v - c) * (v - c)).sum();
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
        });
        for i in order {
            let s = space.snap(&frontier[i].x)?;
            let p = problem.evaluate(&s)?;
            if problem.feasible(&p, 1e-3) {
                return Ok((s, p));
            }
        }
        // No snapped frontier point is feasible; report the original.
        Ok((snapped, predicted))
    }

    /// Snap the selection onto the knob grid. The feasibility re-check
    /// evaluates models, which under fault injection may panic or return
    /// poison; retry a few times (each evaluation re-rolls the fault
    /// sequence), then degrade to the raw snap with the selection's own
    /// (finite, solver-vetted) predictions.
    fn snap_resilient(
        problem: &MooProblem,
        space: &ParamSpace,
        sel: &MooSelection,
        degraded: &mut bool,
    ) -> Result<(Vec<f64>, Vec<f64>)> {
        for _ in 0..3 {
            match guard(|| Self::snap_feasible(problem, space, &sel.x, &sel.frontier)) {
                Ok((snapped, predicted)) if predicted.iter().all(|v| v.is_finite()) => {
                    return Ok((snapped, predicted));
                }
                Ok(_) => continue,
                Err(e) if absorbable(&e) => continue,
                Err(e) => return Err(e),
            }
        }
        *degraded = true;
        Ok((space.snap(&sel.x)?, sel.f.clone()))
    }

    /// Last rung of the ladder: recommend a snapped default/midpoint
    /// configuration with best-effort predictions. Never consults a solver.
    /// Panicking or poisoned evaluations are retried (each call re-rolls
    /// injected faults); candidate points that stay unusable are skipped.
    fn default_recommendation(
        problem: &MooProblem,
        space: &ParamSpace,
        default_x: Option<Vec<f64>>,
        started: &Instant,
    ) -> Result<MooSelection> {
        udao_telemetry::counter(&names::fallback_stage(&FallbackStage::DefaultConfig)).inc();
        let dim = space.encoded_dim();
        let mut candidates: Vec<Vec<f64>> = Vec::new();
        if let Some(x) = default_x {
            candidates.push(x);
        }
        candidates.push(vec![0.5; dim]);
        // Deterministic jitter around the midpoint widens the net when a
        // model is poisoned exactly at the defaults.
        for s in 0..6u64 {
            candidates.push(
                (0..dim)
                    .map(|d| {
                        let mut h = (s * 131 + d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        h ^= h >> 29;
                        0.25 + 0.5 * ((h >> 11) as f64 / (1u64 << 53) as f64)
                    })
                    .collect(),
            );
        }
        for x in candidates {
            let snapped = space.snap(&x)?;
            // Each evaluation re-rolls injected faults; retry per point.
            for _ in 0..4 {
                match guard(|| problem.evaluate(&snapped)) {
                    Ok(f) if f.iter().all(|v| v.is_finite()) => {
                        let stage = FallbackStage::DefaultConfig;
                        return Ok(MooSelection::point(snapped, f, 0, stage, started));
                    }
                    Ok(_) | Err(_) => continue,
                }
            }
        }
        Err(Error::ModelUnavailable(
            "every model is unusable; cannot evaluate even the default configuration".into(),
        ))
    }

    /// Handle a request end-to-end: models → Pareto frontier →
    /// recommendation, snapped onto a real configuration. Runs under the
    /// resilience policy (see [`crate::resilience`]) and instruments the
    /// whole solve: the returned [`Recommendation::report`] carries stage
    /// wall-clock and optimizer/model counters for *this* request.
    pub fn recommend<O: Objective>(&self, request: &Request<O>) -> Result<Recommendation> {
        let limit = request.budget.or(self.resilience.budget);
        let budget = limit.map(Budget::new).unwrap_or_default();
        self.recommend_within(request, budget)
    }

    /// Like [`Udao::recommend`], but solving under an externally started
    /// [`Budget`]. Serving engines use this so a request's deadline starts
    /// at *admission* — time spent queued counts against it.
    pub fn recommend_within<O: Objective>(
        &self,
        request: &Request<O>,
        budget: Budget,
    ) -> Result<Recommendation> {
        let space = O::space();
        // Workload-aware WUN: compose the class's internal expert weights
        // with the external application weights (2-objective case, §V).
        let weights = match (&request.workload_class, &request.weights) {
            (Some(class), external) if request.objectives.len() == 2 => {
                let internal = class.internal_weights();
                let external = external.clone().unwrap_or_else(|| vec![0.5, 0.5]);
                Some(udao_core::recommend::compose_weights(&internal, &external))
            }
            _ => request.weights.clone(),
        };
        let job = Job {
            workload_id: &request.workload_id,
            objectives: request.objectives.iter().map(Objective::name).collect(),
            constraints: &request.constraints,
            points: request.points,
            space: &space,
            weights: &weights,
            shape: 0,
            warm_near: true,
            default_x: space.encode(&O::default_configuration()).ok(),
        };
        let mut rec = self.run_request(
            job,
            budget,
            |budget| self.build_problem(request, budget),
            |problem, _, seed| {
                self.run_moo_and_select(problem, request.points, &weights, &budget, seed)
            },
            |_, _| Vec::new(),
        )?;
        (rec.batch_conf, rec.stream_conf) = O::typed_confs(&rec.configuration);
        Ok(rec)
    }

    /// The one request path behind plain and per-stage solves: models →
    /// (cached | MOO step | default configuration) → snap → report. A
    /// request kind supplies its [`Job`] and three steps: `build` (the
    /// version-pinned problem), `moo` (a selection, warm-started by a near
    /// hit's seed when the job allows it), and `post` (run after the snap
    /// on the kind's state and the snapped point). Caching, fallback,
    /// snapping, telemetry and report assembly are written once, here.
    pub(crate) fn run_request<T>(
        &self,
        job: Job<'_>,
        budget: Budget,
        build: impl FnOnce(&Budget) -> Result<BuiltProblem<T>>,
        moo: impl FnOnce(&MooProblem, &mut T, Option<&PfSeed>) -> Result<MooSelection>,
        post: impl FnOnce(T, &[f64]) -> Vec<StageAttribution>,
    ) -> Result<Recommendation> {
        if job.objectives.is_empty() {
            return Err(Error::InvalidConfig("request has no objectives".into()));
        }
        // Per-request accounting: every global-registry increment made
        // while this scope is active (including on PF-AP worker threads,
        // which re-enter it) is mirrored into the private registry, so the
        // report stays exact with other requests in flight. Every span
        // closes before the snapshot, so it sees complete histograms.
        let scope = Arc::new(udao_telemetry::MetricsRegistry::new());
        let started = Instant::now();
        let scope_guard = udao_telemetry::enter_scope(scope.clone());
        let request_span = udao_telemetry::span("recommend");
        let BuiltProblem { problem, mut degraded, versions, mut state } = {
            let _models_span = udao_telemetry::span("models");
            build(&budget)?
        };
        // Frontier-cache lookup (opt-in): the key pins the exact model
        // versions the problem was built against and the request's shape,
        // so an entry solved under retired weights, or for a differently
        // shaped request, can never match.
        let cache_slot = self.frontier_cache.as_ref().map(|cache| {
            let (key, fingerprint) = FrontierKey::for_request_shaped(
                job.workload_id,
                &job.objectives,
                job.constraints,
                job.points,
                &versions,
                job.shape,
            );
            (cache, key, fingerprint)
        });
        let mut cached_sel: Option<MooSelection> = None;
        let mut warm_seed: Option<Arc<CachedFrontier>> = None;
        if let Some((cache, key, fingerprint)) = &cache_slot {
            let k = problem.num_objectives();
            let tol = self.pf_options.accept_tol(self.pf_variant);
            match cache.lookup(key, fingerprint) {
                CacheLookup::Exact(entry) if entry.seed.usable_for(k) => {
                    match Self::select_from_cache(&entry, job.weights, &started) {
                        Ok(sel) => {
                            udao_telemetry::counter(names::CACHE_SERVED).inc();
                            cached_sel = Some(sel);
                        }
                        // An unselectable entry (empty frontier) degrades
                        // to a cold solve rather than failing the request.
                        Err(_) => udao_telemetry::counter(names::CACHE_MISSES).inc(),
                    }
                }
                // A near entry warm-starts only when the job allows it and
                // some cached point survives this request's own bounds.
                CacheLookup::Near(entry)
                    if job.warm_near
                        && entry.seed.usable_for(k)
                        && entry.seed.fits(&problem, tol) =>
                {
                    udao_telemetry::counter(names::CACHE_WARM_STARTS).inc();
                    warm_seed = Some(entry);
                }
                _ => udao_telemetry::counter(names::CACHE_MISSES).inc(),
            }
        }
        let from_cache = cached_sel.is_some();
        let mut sel = {
            let _moo_span = udao_telemetry::span("moo");
            match cached_sel {
                Some(sel) => sel,
                None => match moo(&problem, &mut state, warm_seed.as_ref().map(|e| &e.seed)) {
                    Ok(sel) => sel,
                    Err(e) if absorbable(&e) => {
                        eprintln!("udao: solve failed ({e}); serving default configuration");
                        udao_telemetry::counter(names::FALLBACK_TRANSITIONS).inc();
                        Self::default_recommendation(&problem, job.space, job.default_x, &started)?
                    }
                    Err(e) => return Err(e),
                },
            }
        };
        // Insert-on-success: only clean primary solves are worth reusing.
        // Near hits re-insert, refreshing the entry's fingerprint (and its
        // frontier) to the latest solved request.
        if let Some((cache, key, fingerprint)) = cache_slot {
            if !from_cache && sel.stage == FallbackStage::Primary && !sel.degraded {
                if let Some(seed) = sel.seed.take() {
                    cache.insert(key, fingerprint, CachedFrontier { seed });
                }
            }
        }
        degraded |= sel.degraded;
        let (snapped, predicted) = {
            let _snap_span = udao_telemetry::span("snap");
            Self::snap_resilient(&problem, job.space, &sel, &mut degraded)?
        };
        let configuration = job.space.decode(&snapped)?;
        let attribution = post(state, &snapped);
        drop(request_span);
        if degraded {
            udao_telemetry::counter(names::DEGRADED_RESULTS).inc();
        }
        let total_seconds = started.elapsed().as_secs_f64();
        drop(scope_guard);
        let mut report = SolveReport::from_delta(
            job.workload_id,
            sel.stage,
            degraded,
            total_seconds,
            scope.snapshot(),
        );
        report.model_versions = versions;
        report.stage_attribution = attribution;
        Ok(Recommendation {
            batch_conf: None,
            stream_conf: None,
            x: snapped,
            configuration,
            predicted,
            frontier: sel.frontier,
            utopia: sel.utopia,
            nadir: sel.nadir,
            probes: sel.probes,
            moo_seconds: sel.moo_seconds,
            degraded,
            stage: sel.stage,
            report,
        })
    }

    /// Execute a batch workload under `conf` on the (simulated) cluster —
    /// the "measured" side of the Expt 4/5 comparisons.
    pub fn measure_batch(
        &self,
        workload: &Workload,
        conf: &BatchConf,
        run: u64,
    ) -> Result<JobMetrics> {
        let program = workload.batch_program().ok_or_else(|| {
            Error::InvalidConfig(format!("workload {} is not a batch workload", workload.id))
        })?;
        Ok(simulate_batch(program, conf, &self.cluster, workload.seed ^ run << 32))
    }

    /// Execute a streaming workload under `conf` on the simulated cluster.
    pub fn measure_streaming(
        &self,
        workload: &Workload,
        conf: &StreamConf,
        run: u64,
    ) -> Result<StreamMetrics> {
        let query = workload.stream_query().ok_or_else(|| {
            Error::InvalidConfig(format!("workload {} is not a streaming workload", workload.id))
        })?;
        Ok(simulate_streaming(query, conf, &self.cluster, workload.seed ^ run << 32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{BatchRequest, StreamRequest};
    use udao_sparksim::{batch_workloads, streaming_workloads};

    fn quick_pf() -> (PfVariant, PfOptions) {
        (
            PfVariant::ApproxSequential,
            PfOptions {
                mogd: udao_core::mogd::MogdConfig {
                    multistarts: 4,
                    max_iters: 60,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
    }

    fn quick_udao() -> Udao {
        let (v, o) = quick_pf();
        Udao::builder(ClusterSpec::paper_cluster())
            .pf(v, o)
            .build()
            .expect("quick_pf options are valid")
    }

    #[test]
    fn end_to_end_batch_recommendation() {
        let udao = quick_udao();
        let workloads = batch_workloads();
        let q2 = workloads.iter().find(|w| w.id == "q2-v0").unwrap();
        udao.train_batch(q2, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
        let req = BatchRequest::new("q2-v0")
            .objective(BatchObjective::Latency)
            .objective(BatchObjective::CostCores)
            .weights(vec![0.5, 0.5])
            .points(8);
        let rec = udao.recommend(&req).unwrap();
        let conf = rec.batch_conf.as_ref().unwrap();
        assert!(conf.total_cores() >= 2);
        assert!(rec.frontier.len() >= 2, "frontier {}", rec.frontier.len());
        assert_eq!(rec.predicted.len(), 2);
        // The solve reports its own work.
        assert!(rec.report.mogd_iterations > 0, "report: {:?}", rec.report);
        assert!(rec.report.model_inferences > 0);
        assert!(rec.report.total_seconds > 0.0);
        // Measured run executes without issue.
        let m = udao.measure_batch(q2, conf, 1).expect("simulatable workload");
        assert!(m.latency_s > 0.0);
    }

    #[test]
    fn missing_model_is_a_clear_error() {
        let udao = Udao::new(ClusterSpec::paper_cluster());
        let req = BatchRequest::new("q1-v0").objective(BatchObjective::Latency);
        let err = udao.recommend(&req).unwrap_err();
        assert!(err.to_string().contains("no trained model"), "{err}");
    }

    #[test]
    fn empty_request_is_rejected() {
        let udao = Udao::new(ClusterSpec::paper_cluster());
        assert!(udao.recommend(&BatchRequest::new("q1-v0")).is_err());
    }

    #[test]
    fn builder_rejects_invalid_options() {
        let bad_iters = {
            let (v, mut o) = quick_pf();
            o.mogd.max_iters = 0;
            Udao::builder(ClusterSpec::paper_cluster()).pf(v, o).build()
        };
        assert!(bad_iters.is_err());
        let bad_lr = {
            let (v, mut o) = quick_pf();
            o.mogd.learning_rate = f64::NAN;
            Udao::builder(ClusterSpec::paper_cluster()).pf(v, o).build()
        };
        assert!(bad_lr.is_err());
        let bad_grid = {
            let mut o = PfOptions::default();
            o.grid_l = 0;
            Udao::builder(ClusterSpec::paper_cluster())
                .pf(PfVariant::ApproxParallel, o)
                .build()
        };
        assert!(bad_grid.is_err());
        let bad_retry = {
            let mut r = ResilienceOptions::default();
            r.retry.attempts = 0;
            Udao::builder(ClusterSpec::paper_cluster()).resilience(r).build()
        };
        assert!(bad_retry.is_err());
        // grid_l = 0 is fine when PF-AP is not selected.
        let seq = {
            let mut o = PfOptions::default();
            o.grid_l = 0;
            Udao::builder(ClusterSpec::paper_cluster())
                .pf(PfVariant::ApproxSequential, o)
                .build()
        };
        assert!(seq.is_ok());
    }

    #[test]
    fn builder_configures_the_optimizer() {
        let (v, o) = quick_pf();
        let udao = Udao::builder(ClusterSpec::paper_cluster()).pf(v, o).build().unwrap();
        assert_eq!(udao.pf_variant, PfVariant::ApproxSequential);
        assert_eq!(udao.pf_options.mogd.multistarts, 4);
    }

    #[test]
    fn builder_runs_validation() {
        let (v, mut o) = quick_pf();
        o.mogd.max_iters = 0;
        assert!(Udao::builder(ClusterSpec::paper_cluster()).pf(v, o).build().is_err());

        let (v, mut o) = quick_pf();
        o.mogd.learning_rate = f64::NAN;
        assert!(Udao::builder(ClusterSpec::paper_cluster()).pf(v, o).build().is_err());

        let mut r = ResilienceOptions::default();
        r.retry.attempts = 0;
        assert!(Udao::builder(ClusterSpec::paper_cluster()).resilience(r).build().is_err());
    }

    #[test]
    fn concurrent_requests_produce_disjoint_exact_reports() {
        let udao = quick_udao();
        let workloads = batch_workloads();
        let q2 = workloads.iter().find(|w| w.id == "q2-v0").unwrap();
        udao.train_batch(q2, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
        let req = BatchRequest::new("q2-v0")
            .objective(BatchObjective::Latency)
            .objective(BatchObjective::CostCores)
            .points(5);
        // Solo run: the deterministic per-request baseline (unlimited
        // budget, seeded solver).
        let solo = udao.recommend(&req).unwrap().report;
        assert!(solo.mogd_iterations > 0);
        assert!(solo.model_inferences > 0);
        assert!(solo.model_batch_calls > 0);
        // Two simultaneous requests: with per-request telemetry scopes each
        // report must equal the solo baseline exactly — neither absorbs the
        // other's counters (the old global-delta extraction attributed both
        // requests' work to both reports).
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| udao.recommend(&req).unwrap().report);
            let b = s.spawn(|| udao.recommend(&req).unwrap().report);
            (a.join().unwrap(), b.join().unwrap())
        });
        for r in [&a, &b] {
            assert_eq!(r.mogd_iterations, solo.mogd_iterations);
            assert_eq!(r.mogd_restarts, solo.mogd_restarts);
            assert_eq!(r.pf_probes, solo.pf_probes);
            assert_eq!(r.model_inferences, solo.model_inferences);
            assert_eq!(r.model_batch_calls, solo.model_batch_calls);
            assert_eq!(r.model_cache_hits, solo.model_cache_hits);
            assert_eq!(r.model_cache_misses, solo.model_cache_misses);
        }
    }

    #[test]
    fn weights_shift_the_batch_recommendation() {
        let udao = quick_udao();
        let workloads = batch_workloads();
        let q9 = workloads.iter().find(|w| w.id == "q9-v0").unwrap();
        udao.train_batch(q9, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
        let base = BatchRequest::new("q9-v0")
            .objective(BatchObjective::Latency)
            .objective(BatchObjective::CostCores)
            .points(10);
        let lat_pref = udao
            .recommend(&base.clone().weights(vec![0.9, 0.1]))
            .unwrap();
        let cost_pref = udao
            .recommend(&base.weights(vec![0.1, 0.9]))
            .unwrap();
        // Favoring latency should never pick a higher-latency point than
        // favoring cost.
        assert!(
            lat_pref.predicted[0] <= cost_pref.predicted[0] + 1e-6,
            "latency preference: {} vs {}",
            lat_pref.predicted[0],
            cost_pref.predicted[0]
        );
        assert!(
            lat_pref.predicted[1] >= cost_pref.predicted[1] - 1e-6,
            "cost moves the other way"
        );
    }

    #[test]
    fn workload_aware_wun_biases_long_jobs_toward_latency() {
        use udao_core::recommend::WorkloadClass;
        let udao = quick_udao();
        let workloads = batch_workloads();
        let w = workloads.iter().find(|w| w.id == "q9-v0").unwrap();
        udao.train_batch(w, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
        let base = BatchRequest::new("q9-v0")
            .objective(BatchObjective::Latency)
            .objective(BatchObjective::CostCores)
            .weights(vec![0.5, 0.5])
            .points(10);
        let long = udao
            .recommend(&base.clone().workload_aware(WorkloadClass::High))
            .unwrap();
        let short = udao
            .recommend(&base.workload_aware(WorkloadClass::Low))
            .unwrap();
        // Snap-time feasibility fallback can swap adjacent frontier points,
        // so allow a small relative tolerance on the ordering.
        assert!(
            long.predicted[0] <= short.predicted[0] * 1.05,
            "High class favors latency: {} vs {}",
            long.predicted[0],
            short.predicted[0]
        );
    }

    #[test]
    fn workload_mapping_bootstraps_data_poor_workloads() {
        use udao_model::dataset::wmape;
        use udao_sparksim::trace::{batch_training_data, collect_batch_traces, SamplingStrategy};
        let udao = quick_udao();
        let workloads = batch_workloads();
        // Offline sibling variant of the same template, profiled richly.
        let offline = workloads.iter().find(|w| w.id == "q7-v0").unwrap();
        let online = workloads.iter().find(|w| w.id == "q7-v1").unwrap();
        udao.train_batch(offline, 120, ModelFamily::Gp, &[BatchObjective::Latency]);
        // Online workload sees only 10 of its own runs, plus the mapping.
        udao.train_batch_mapped(online, 10, ModelFamily::Gp, &[BatchObjective::Latency]);
        let mapped_model = udao
            .model_server()
            .get(&udao_model::ModelKey::new("q7-v1", "latency"))
            .expect("mapped model trained");
        // Plain 10-trace training for comparison.
        let udao_plain = quick_udao();
        udao_plain.train_batch(online, 10, ModelFamily::Gp, &[BatchObjective::Latency]);
        let plain_model = udao_plain
            .model_server()
            .get(&udao_model::ModelKey::new("q7-v1", "latency"))
            .expect("plain model trained");
        // Held-out accuracy: mapping must not hurt, and usually helps.
        let test = collect_batch_traces(
            online,
            &ClusterSpec::paper_cluster(),
            60,
            SamplingStrategy::Random,
            4242,
        );
        let (xs, ys) = batch_training_data(&test, BatchObjective::Latency);
        let err = |m: &std::sync::Arc<dyn udao_core::ObjectiveModel>| {
            wmape(&ys, &xs.iter().map(|x| m.predict(x)).collect::<Vec<_>>())
        };
        let e_mapped = err(&mapped_model);
        let e_plain = err(&plain_model);
        assert!(
            e_mapped < e_plain * 1.1,
            "mapping should not degrade accuracy: {e_mapped} vs {e_plain}"
        );
    }

    #[test]
    fn end_to_end_streaming_recommendation() {
        let udao = quick_udao();
        let workloads = streaming_workloads();
        let s1 = &workloads[0];
        udao.train_streaming(
            s1,
            40,
            ModelFamily::Gp,
            &[StreamObjective::Latency, StreamObjective::Throughput],
        );
        let req = StreamRequest::new(s1.id.clone())
            .objective(StreamObjective::Latency)
            .objective(StreamObjective::Throughput)
            .points(8);
        let rec = udao.recommend(&req).unwrap();
        let conf = rec.stream_conf.as_ref().unwrap();
        assert!(rec.report.mogd_iterations > 0);
        let m = udao.measure_streaming(s1, conf, 1).expect("simulatable workload");
        assert!(m.throughput > 0.0);
    }
}
