//! Set-up and the timed phases: building and training optimizers, then
//! sending the plan's rounds through `Udao::recommend` (cold-mix) or a
//! `ServingEngine` (serve workloads) and keeping one [`Outcome`] per request.

use crate::plan::{self, Call, Item, Plan, Round, Target, WorkloadKind};
use crate::tracing::{tracer, Layer, TracedProvider, SAMPLE_EVERY};
use std::sync::Arc;
use std::time::Instant;
use udao::{ServingEngine, ServingOptions, SolveReport, Udao};
use udao_core::mogd::MogdConfig;
use udao_core::pf::{PfOptions, PfVariant};
use udao_core::Error;
use udao_model::dataset::Dataset;
use udao_model::server::{ModelKey, ModelServer};
use udao_sparksim::objectives::{BatchObjective, StreamObjective};
use udao_sparksim::trace::{batch_training_data, collect_batch_traces, SamplingStrategy};
use udao_sparksim::{BatchConf, ClusterSpec, StreamConf};

/// One optimizer, trained and ready.
pub struct Instance {
    pub udao: Arc<Udao>,
    pub server: Arc<ModelServer>,
}

/// Set-up timings of one build: the whole build-and-train, and the
/// benchmark's own sparksim trace collection for the same targets.
pub struct SetupTimes {
    pub total_s: f64,
    pub traces_s: f64,
}

/// The serve workloads' reduced PF-AS budget (α = 1 as in the defaults).
fn serve_pf() -> PfOptions {
    let mut options = PfOptions {
        mogd: MogdConfig {
            multistarts: 4,
            max_iters: 60,
            ..Default::default()
        },
        max_probes: 16,
        ..Default::default()
    };
    options.mogd.alpha = 1.0;
    options
}

/// Build an optimizer for `kind` and train every target's latency model.
/// With `traced`, model reads go through a [`TracedProvider`] (which stays
/// a pass-through until tracing is switched on).
pub fn build(
    kind: WorkloadKind,
    traced: bool,
    workers: usize,
    cluster: &ClusterSpec,
) -> Result<(Instance, Vec<Target>, SetupTimes), String> {
    let started = Instant::now();
    let mut builder = Udao::builder(*cluster);
    if kind.serves() {
        builder = builder
            .pf(PfVariant::ApproxSequential, serve_pf())
            .frontier_cache(plan::CACHE_CAPACITY)
            .serving(ServingOptions::default().with_workers(workers));
    }
    let server = builder.shared_model_server();
    if traced {
        builder = builder.model_provider(Arc::new(TracedProvider::new(server.clone())));
    }
    let udao = builder.build().map_err(|e| format!("build: {e}"))?;
    let trace_start = Instant::now();
    let targets = plan::collect_targets(cluster)?;
    let traces_s = trace_start.elapsed().as_secs_f64();
    for target in &targets {
        if target.streaming() {
            udao.train_streaming(
                &target.workload,
                plan::TRAIN_TRACES,
                target.family,
                &[StreamObjective::Latency],
            );
        } else {
            udao.train_batch(
                &target.workload,
                plan::TRAIN_TRACES,
                target.family,
                &[BatchObjective::Latency],
            );
        }
        let key = ModelKey::new(target.id(), "latency");
        if server.current_version(&key) == 0 {
            return Err(format!("no latency model published for {}", target.id()));
        }
    }
    let total_s = started.elapsed().as_secs_f64();
    Ok((
        Instance {
            udao: Arc::new(udao),
            server,
        },
        targets,
        SetupTimes { total_s, traces_s },
    ))
}

/// Fresh sparksim traces for the swap-serve generator, per swapped target.
/// They are one fixed sample, not drawn from the run's seed: the model
/// versions a run swaps in then match across seeds, and the seed varies
/// only the requests.
pub fn swap_traces(targets: &[Target], cluster: &ClusterSpec) -> Vec<Dataset> {
    plan::SWAP_TARGETS
        .iter()
        .map(|&t| {
            let traces = collect_batch_traces(
                &targets[t].workload,
                cluster,
                plan::SWAP_FRESH_TRACES,
                SamplingStrategy::Random,
                plan::UDAO_TRACE_SEED ^ 0x5EED_5A4B,
            );
            let (x, y) = batch_training_data(&traces, BatchObjective::Latency);
            Dataset::new(x, y)
        })
        .collect()
}

/// Why a request failed without an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fail {
    Infeasible,
    Shed,
    Timeout,
    Other(String),
}

impl Fail {
    fn of(e: &Error) -> Self {
        match e {
            Error::Infeasible(_) => Fail::Infeasible,
            Error::Shed { .. } => Fail::Shed,
            Error::Timeout { .. } => Fail::Timeout,
            other => Fail::Other(other.to_string()),
        }
    }
}

/// The parts of a `Recommendation` the checks and metrics read.
pub struct Answer {
    pub frontier: Vec<Vec<f64>>,
    /// FNV-1a over the bit patterns of every frontier point's `x` and `f`.
    pub frontier_hash: u64,
    pub utopia: Vec<f64>,
    pub predicted: Vec<f64>,
    pub batch_conf: Option<BatchConf>,
    pub stream_conf: Option<StreamConf>,
    pub degraded: bool,
    pub report: SolveReport,
}

/// One request's result as the client saw it.
pub struct Outcome {
    pub id: usize,
    /// Submission to response, seconds.
    pub latency_s: f64,
    /// Submission and response on the trace clock, nanoseconds.
    pub start_ns: u64,
    pub end_ns: u64,
    pub result: Result<Answer, Fail>,
}

fn answer(rec: udao::Recommendation) -> Answer {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in &rec.frontier {
        for v in p.x.iter().chain(p.f.iter()) {
            h = (h ^ v.to_bits()).wrapping_mul(0x100_0000_01b3);
        }
    }
    Answer {
        frontier: rec.frontier.iter().map(|p| p.f.clone()).collect(),
        frontier_hash: h,
        utopia: rec.utopia,
        predicted: rec.predicted,
        batch_conf: rec.batch_conf,
        stream_conf: rec.stream_conf,
        degraded: rec.degraded,
        report: rec.report,
    }
}

/// The requests and model swaps of one timed phase.
pub struct Phase {
    pub outcomes: Vec<Outcome>,
    /// Wall-clock of the timed rounds, seconds.
    pub wall_s: f64,
    pub rounds: usize,
    /// Durations of the generator's `ingest` / `retrain_now` calls, seconds.
    pub swap_s: Vec<f64>,
    /// Global telemetry over the phase (swaps and cache invalidations happen
    /// outside any request's scope).
    pub global: udao_telemetry::MetricsSnapshot,
}

/// How long a phase runs: until `seconds` have passed at a round (cold-mix:
/// cycle) boundary, or for exactly `rounds` rounds.
#[derive(Clone, Copy)]
pub enum Length {
    Seconds(f64),
    Rounds(usize),
}

impl Length {
    fn done(self, rounds: usize, step: usize, elapsed: f64) -> bool {
        match self {
            Length::Seconds(s) => rounds.is_multiple_of(step) && elapsed >= s,
            Length::Rounds(n) => rounds >= n,
        }
    }
}

/// Switch tracing on for a traced phase, after its warm-up: totals and
/// spans then cover the timed requests only.
fn start_tracing(traced: bool) {
    let t = tracer();
    if traced {
        t.reset_totals();
        t.take_spans();
    }
    t.set_on(traced);
}

fn recommend(udao: &Udao, item: &Item) -> Result<Answer, Fail> {
    let result = match &item.call {
        Call::Batch(r) => udao.recommend(r),
        Call::Stream(r) => udao.recommend(r),
        Call::Stage(r) => udao.recommend_stages(r),
    };
    result.map(answer).map_err(|e| Fail::of(&e))
}

/// cold-mix: one client, serial `Udao::recommend`, whole cycles.
pub fn run_cold(
    inst: &Instance,
    plan: &mut Plan,
    length: Length,
    traced: bool,
) -> Result<Phase, String> {
    for item in &plan.warmup.items {
        recommend(&inst.udao, item).map_err(|f| format!("warm-up request failed: {f:?}"))?;
    }
    let t = tracer();
    start_tracing(traced);
    let before = udao_telemetry::global().snapshot();
    let started = Instant::now();
    let mut outcomes = Vec::new();
    let mut rounds = 0;
    while !length.done(rounds, plan::COLD_CYCLE, started.elapsed().as_secs_f64()) {
        for item in &plan.round(rounds).items {
            let span = t.new_id();
            t.enter(span, (item.id as u64).is_multiple_of(SAMPLE_EVERY));
            let start_ns = t.now();
            let sent = Instant::now();
            let result = recommend(&inst.udao, item);
            let latency_s = sent.elapsed().as_secs_f64();
            let end_ns = t.now();
            if t.sampled() {
                t.record(span, 0, Layer::Request, start_ns, end_ns);
            }
            outcomes.push(Outcome {
                id: item.id,
                latency_s,
                start_ns,
                end_ns,
                result,
            });
        }
        rounds += 1;
    }
    let wall_s = started.elapsed().as_secs_f64();
    t.set_on(false);
    let global = udao_telemetry::global().snapshot().delta_since(&before);
    Ok(Phase {
        outcomes,
        wall_s,
        rounds,
        swap_s: Vec::new(),
        global,
    })
}

/// Perform one swap-serve model swap; returns its duration in seconds.
fn swap(
    inst: &Instance,
    targets: &[Target],
    fresh: &[Dataset],
    s: &plan::Swap,
) -> Result<f64, String> {
    let slot = plan::SWAP_TARGETS
        .iter()
        .position(|&t| t == s.target)
        .ok_or("swap on a target without fresh traces")?;
    let key = ModelKey::new(targets[s.target].id(), "latency");
    let batch = match s.fresh {
        Some(i) => Dataset::new(vec![fresh[slot].x[i].clone()], vec![fresh[slot].y[i]]),
        None => Dataset::default(),
    };
    let started = Instant::now();
    if s.full {
        inst.server.retrain_now(&key, &batch);
    } else {
        inst.server.ingest(&key, &batch);
    }
    Ok(started.elapsed().as_secs_f64())
}

/// Submit one burst, run its swaps, and collect every response.
fn burst(
    engine: &ServingEngine<BatchObjective>,
    round: &Round,
    swaps: impl FnOnce() -> Result<Vec<f64>, String>,
) -> Result<(Vec<Outcome>, Vec<f64>), String> {
    let t = tracer();
    let mut sent = Vec::with_capacity(round.items.len());
    for item in &round.items {
        let start_ns = t.now();
        let at = Instant::now();
        let handle = match &item.call {
            Call::Batch(r) => engine.submit(r.clone()),
            Call::Stage(r) => engine.submit_stages(r.clone()),
            Call::Stream(_) => {
                return Err("streaming requests are not served by the batch engine".into())
            }
        };
        sent.push((item.id, at, start_ns, handle));
    }
    std::thread::scope(|scope| {
        let waiters: Vec<_> = sent
            .into_iter()
            .map(|(id, at, start_ns, handle)| {
                scope.spawn(move || {
                    let result = handle.and_then(|h| h.wait());
                    let latency_s = at.elapsed().as_secs_f64();
                    let end_ns = t.now();
                    let result = result.map(answer).map_err(|e| Fail::of(&e));
                    Outcome {
                        id,
                        latency_s,
                        start_ns,
                        end_ns,
                        result,
                    }
                })
            })
            .collect();
        let swap_s = swaps();
        let outcomes = waiters
            .into_iter()
            .map(|w| w.join().map_err(|_| "response waiter panicked".to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((outcomes, swap_s?))
    })
}

/// burst-serve / swap-serve: one burst per round through a serving engine
/// with `nproc` workers, whole cycles; swap-serve swaps models while each
/// burst is served.
pub fn run_serve(
    inst: &Instance,
    plan: &mut Plan,
    targets: &[Target],
    fresh: &[Dataset],
    length: Length,
    traced: bool,
) -> Result<Phase, String> {
    let mut engine = ServingEngine::<BatchObjective>::start(inst.udao.clone());
    burst(&engine, &plan.warmup, || Ok(Vec::new()))?;
    let t = tracer();
    start_tracing(traced);
    let before = udao_telemetry::global().snapshot();
    let started = Instant::now();
    let mut outcomes = Vec::new();
    let mut swap_s = Vec::new();
    let mut rounds = 0;
    while !length.done(rounds, plan::SERVE_CYCLE, started.elapsed().as_secs_f64()) {
        let round = plan.round(rounds);
        let round_id = t.new_id();
        t.enter(round_id, (rounds as u64).is_multiple_of(SAMPLE_EVERY));
        let round_start = t.now();
        let (mut got, swapped) = burst(&engine, round, || {
            round
                .swaps
                .iter()
                .map(|s| {
                    let start = t.now();
                    let d = swap(inst, targets, fresh, s)?;
                    if t.sampled() {
                        t.record(t.new_id(), round_id, Layer::Ingest, start, t.now());
                    }
                    Ok(d)
                })
                .collect()
        })?;
        if t.sampled() {
            for o in &got {
                t.record(t.new_id(), round_id, Layer::Request, o.start_ns, o.end_ns);
            }
            t.record(round_id, 0, Layer::Round, round_start, t.now());
        }
        outcomes.append(&mut got);
        swap_s.extend(swapped);
        rounds += 1;
    }
    let wall_s = started.elapsed().as_secs_f64();
    t.set_on(false);
    engine.shutdown();
    let global = udao_telemetry::global().snapshot().delta_since(&before);
    Ok(Phase {
        outcomes,
        wall_s,
        rounds,
        swap_s,
        global,
    })
}
