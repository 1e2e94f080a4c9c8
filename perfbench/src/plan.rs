//! Seeded inputs: the trained targets and the request list of each workload.
//!
//! Everything a run sends to UDAO is generated here from `--seed`, before
//! any timing starts, so two commits measured with one seed receive the
//! same requests. The composition of a round (how many requests of each
//! kind, which template, bound quantile and point budget) is fixed by the
//! workload, so every run carries the same shares; the seed draws weights,
//! order, jitter and offsets.

use std::time::Duration;
use udao::{
    BatchRequest, Fold, ModelFamily, Priority, StageMode, StageObjectiveSpec, StageRequest,
    StreamRequest,
};
use udao_sparksim::objectives::{BatchObjective, StreamObjective};
use udao_sparksim::trace::{collect_batch_traces, collect_stream_traces, SamplingStrategy};
use udao_sparksim::{batch_workloads, streaming_workloads, ClusterSpec, StageFixture, Workload};

/// Training traces per learned model.
pub const TRAIN_TRACES: usize = 60;
/// The optimizer's default trace-sampling seed (`UdaoBuilder::seed` is left
/// at its default), so the traces collected here are the ones UDAO trains on.
pub const UDAO_TRACE_SEED: u64 = 0xDA0;
/// Latency-bound quantiles of cold-mix, one per round of a cycle.
const COLD_QUANTILES: [f64; 5] = [0.2, 0.3, 0.4, 0.5, 0.6];
/// Rounds in one cold-mix cycle: every bounded target sees every quantile once.
pub const COLD_CYCLE: usize = COLD_QUANTILES.len();
/// Frontier-cache capacity of the serve workloads.
pub const CACHE_CAPACITY: usize = 256;
/// swap-serve's bound factor. A power of two keeps each bound's mantissa,
/// so bounds fall into as many distinct frontier-cache cells as unscaled
/// ones do, and near repeats still tighten inside a cell. At 2^10 times a
/// training quantile no configuration comes near a bound: no request can be
/// infeasible or break its bounds, and the workload never fails on the
/// constraint-handling defects that cold-mix and burst-serve show.
pub const LOOSE_BOUND_SCALE: f64 = 1024.0;
/// Fresh traces ingested per swapped key before swaps fall back to
/// re-publishing the current archive (keeps refit cost from growing).
pub const SWAP_FRESH_TRACES: usize = 24;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    ColdMix,
    BurstServe,
    SwapServe,
}

impl WorkloadKind {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "cold-mix" => Some(Self::ColdMix),
            "burst-serve" => Some(Self::BurstServe),
            "swap-serve" => Some(Self::SwapServe),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::ColdMix => "cold-mix",
            Self::BurstServe => "burst-serve",
            Self::SwapServe => "swap-serve",
        }
    }

    pub fn serves(self) -> bool {
        self != Self::ColdMix
    }

    /// Factor on the serve workloads' bound quantiles. swap-serve's bounds
    /// sit [`LOOSE_BOUND_SCALE`] times above them, so they never bind.
    fn bound_scale(self) -> f64 {
        if self == Self::SwapServe {
            LOOSE_BOUND_SCALE
        } else {
            1.0
        }
    }
}

/// splitmix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A learned-model workload: what UDAO trains for it, and the training
/// traces' objective values, which fix the quality box and the bounds.
pub struct Target {
    pub workload: Workload,
    pub family: ModelFamily,
    /// Sorted training-trace latencies (seconds).
    pub latencies: Vec<f64>,
    /// Sorted training-trace costs (allocated cores).
    pub costs: Vec<f64>,
}

impl Target {
    pub fn id(&self) -> &str {
        &self.workload.id
    }

    pub fn streaming(&self) -> bool {
        self.workload.stream_query().is_some()
    }

    /// The quality box: from the best training trace to the median one, per
    /// objective (latency, cost). A frontier earns hypervolume only where it
    /// beats the typical sampled configuration.
    pub fn quality_box(&self) -> [(f64, f64); 2] {
        [
            (self.latencies[0], quantile(&self.latencies, 0.5)),
            (self.costs[0], quantile(&self.costs, 0.5)),
        ]
    }
}

/// Linear-interpolated quantile of a sorted slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Batch templates with the family their latency model uses, then the
/// streaming template. Every workload trains all of them.
const TARGETS: [(&str, ModelFamily); 5] = [
    ("q2-v0", ModelFamily::Gp),
    ("q16-v0", ModelFamily::Gp),
    ("q5-v0", ModelFamily::Dnn),
    ("q27-v0", ModelFamily::Dnn),
    ("s1-v0", ModelFamily::Gp),
];

/// Index of the streaming target in [`TARGETS`].
const STREAM_TARGET: usize = 4;
/// Batch targets whose latency model is a GP: the ones swap-serve swaps.
pub const SWAP_TARGETS: [usize; 2] = [0, 1];

/// Collect every target's training traces through sparksim, with the
/// sampling UDAO's own training uses.
pub fn collect_targets(cluster: &ClusterSpec) -> Result<Vec<Target>, String> {
    let batch = batch_workloads();
    let stream = streaming_workloads();
    TARGETS
        .iter()
        .map(|(id, family)| {
            let workload = batch
                .iter()
                .chain(stream.iter())
                .find(|w| w.id == *id)
                .cloned()
                .ok_or_else(|| format!("workload {id} missing from sparksim"))?;
            let (latencies, costs) = if workload.stream_query().is_some() {
                let traces =
                    collect_stream_traces(&workload, cluster, TRAIN_TRACES, UDAO_TRACE_SEED);
                traces
                    .iter()
                    .map(|t| (t.metrics.latency_s, t.metrics.cores))
                    .unzip()
            } else {
                let traces = collect_batch_traces(
                    &workload,
                    cluster,
                    TRAIN_TRACES,
                    SamplingStrategy::Mixed,
                    UDAO_TRACE_SEED,
                );
                traces
                    .iter()
                    .map(|t| (t.metrics.latency_s, t.metrics.cores))
                    .unzip()
            };
            Ok(Target {
                workload,
                family: *family,
                latencies: sorted(latencies),
                costs: sorted(costs),
            })
        })
        .collect()
}

/// What a serve request is relative to the frontier cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    Fresh,
    Exact,
    Near,
    Stage,
}

/// One request of the list.
#[derive(Clone)]
pub enum Call {
    Batch(BatchRequest),
    Stream(StreamRequest),
    Stage(StageRequest),
}

/// A generated request with what the benchmark needs to check and score it.
#[derive(Clone)]
pub struct Item {
    pub id: usize,
    pub call: Call,
    pub origin: Origin,
    /// Index into the target list (`None` for per-stage requests).
    pub target: Option<usize>,
}

impl Item {
    pub fn priority(&self) -> Priority {
        match &self.call {
            Call::Batch(r) => r.priority,
            Call::Stream(r) => r.priority,
            Call::Stage(r) => r.priority,
        }
    }

    pub fn constraints(&self) -> &[Option<(f64, f64)>] {
        match &self.call {
            Call::Batch(r) => &r.constraints,
            Call::Stream(r) => &r.constraints,
            Call::Stage(r) => &r.constraints,
        }
    }

    pub fn weights(&self) -> Option<&[f64]> {
        match &self.call {
            Call::Batch(r) => r.weights.as_deref(),
            Call::Stream(r) => r.weights.as_deref(),
            Call::Stage(r) => r.weights.as_deref(),
        }
    }

    /// A canonical text form: everything that reaches the program, with
    /// floats as bit patterns. The input digest hashes these lines.
    pub fn canonical(&self) -> String {
        let bits = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{:x}", x.to_bits()))
                .collect::<Vec<_>>()
        };
        let bounds = |c: &[Option<(f64, f64)>]| {
            c.iter()
                .map(|b| match b {
                    Some((lo, hi)) => format!("{:x}..{:x}", lo.to_bits(), hi.to_bits()),
                    None => "-".into(),
                })
                .collect::<Vec<_>>()
        };
        match &self.call {
            Call::Batch(r) => format!(
                "batch {} {:?} {:?} {:?} {} {:?} {:?}",
                r.workload_id,
                r.objectives,
                bounds(&r.constraints),
                r.weights.as_deref().map(bits),
                r.points,
                r.priority,
                r.deadline
            ),
            Call::Stream(r) => format!(
                "stream {} {:?} {:?} {:?} {} {:?} {:?}",
                r.workload_id,
                r.objectives,
                bounds(&r.constraints),
                r.weights.as_deref().map(bits),
                r.points,
                r.priority,
                r.deadline
            ),
            Call::Stage(r) => format!(
                "stage {} {:x} {:?} {:?} {:?} {} {:?} {:?}",
                r.workload_id,
                r.shape_fingerprint(),
                r.mode,
                bounds(&r.constraints),
                r.weights.as_deref().map(bits),
                r.points,
                r.priority,
                r.deadline
            ),
        }
    }
}

/// A model swap the swap-serve generator performs while a burst is served.
#[derive(Clone)]
pub struct Swap {
    pub target: usize,
    /// `true`: `ModelServer::retrain_now` (full refit); `false`: `ingest`.
    pub full: bool,
    /// Index of the fresh trace to ingest, if any remain for this key.
    pub fresh: Option<usize>,
}

/// One round: a cold-mix block of serial requests, or one serve burst.
#[derive(Clone)]
pub struct Round {
    pub items: Vec<Item>,
    pub swaps: Vec<Swap>,
}

/// The generated input of a run. Timed rounds are generated on first use,
/// in order, and kept, so a replay of the first `n` rounds sees the same
/// requests and memory grows only with the rounds a run consumes.
pub struct Plan<'a> {
    pub kind: WorkloadKind,
    /// Sent before timing starts (warm-up; for serve workloads it also
    /// fills the pool that repeats copy from).
    pub warmup: Round,
    rounds: Vec<Round>,
    next: Box<dyn FnMut() -> Round + 'a>,
}

impl Plan<'_> {
    /// Timed round `i`, generating the rounds up to it on first use.
    pub fn round(&mut self, i: usize) -> &Round {
        while self.rounds.len() <= i {
            let round = (self.next)();
            self.rounds.push(round);
        }
        &self.rounds[i]
    }

    /// The timed rounds generated so far.
    pub fn rounds(&self) -> &[Round] {
        &self.rounds
    }

    /// FNV-1a over the canonical form of every request and swap.
    pub fn digest(&self, rounds: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |s: &str| {
            for b in s.bytes().chain(std::iter::once(b'\n')) {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        };
        for round in std::iter::once(&self.warmup).chain(self.rounds.iter().take(rounds)) {
            for item in &round.items {
                eat(&item.canonical());
            }
            for s in &round.swaps {
                eat(&format!("swap {} {} {:?}", s.target, s.full, s.fresh));
            }
        }
        h
    }
}

fn weights(rng: &mut Rng, w0: f64) -> Vec<f64> {
    let w0 = (w0 + (rng.unit() - 0.5) * 0.1).clamp(0.05, 0.95);
    vec![w0, 1.0 - w0]
}

fn batch_request(target: &Target, points: usize) -> BatchRequest {
    BatchRequest::new(target.id()).points(points)
}

/// The latency-bounded request at quantile `q` of the target's training
/// latencies, times `scale`.
fn latency_bounded(target: &Target, q: f64, scale: f64, points: usize) -> Call {
    let h = quantile(&target.latencies, q) * scale;
    if target.streaming() {
        Call::Stream(
            StreamRequest::new(target.id())
                .objective_bounded(StreamObjective::Latency, 0.0, h)
                .objective(StreamObjective::CostCores)
                .points(points),
        )
    } else {
        Call::Batch(
            batch_request(target, points)
                .objective_bounded(BatchObjective::Latency, 0.0, h)
                .objective(BatchObjective::CostCores),
        )
    }
}

fn unbounded(target: &Target, points: usize) -> Call {
    if target.streaming() {
        Call::Stream(
            StreamRequest::new(target.id())
                .objective(StreamObjective::Latency)
                .objective(StreamObjective::CostCores)
                .points(points),
        )
    } else {
        Call::Batch(
            batch_request(target, points)
                .objective(BatchObjective::Latency)
                .objective(BatchObjective::CostCores),
        )
    }
}

fn cost_bounded(target: &Target, q: f64, scale: f64, points: usize) -> Call {
    let h = quantile(&target.costs, q) * scale;
    Call::Batch(
        batch_request(target, points)
            .objective(BatchObjective::Latency)
            .objective_bounded(BatchObjective::CostCores, 0.0, h),
    )
}

fn set_weights(call: &mut Call, w: Vec<f64>) {
    match call {
        Call::Batch(r) => r.weights = Some(w),
        Call::Stream(r) => r.weights = Some(w),
        Call::Stage(r) => r.weights = Some(w),
    }
}

fn set_class(call: &mut Call, class: Priority, deadline: Duration) {
    match call {
        Call::Batch(r) => {
            r.priority = class;
            r.deadline = Some(deadline);
        }
        Call::Stream(r) => {
            r.priority = class;
            r.deadline = Some(deadline);
        }
        Call::Stage(r) => {
            r.priority = class;
            r.deadline = Some(deadline);
        }
    }
}

/// Generate the input of `kind` for `seed`.
pub fn generate(kind: WorkloadKind, seed: u64, targets: &[Target]) -> Plan<'_> {
    let rng = Rng::new(seed ^ kind as u64);
    match kind {
        WorkloadKind::ColdMix => cold_mix(rng, targets),
        WorkloadKind::BurstServe | WorkloadKind::SwapServe => serve(rng, kind, targets),
    }
}

/// cold-mix: per round, every batch target gets two unbounded requests (4
/// and 8 frontier points) and one latency-bounded one (6 points), and the
/// streaming target one bounded and one 4-point unbounded request. Bounded
/// requests walk the quantile grid, each target from its own offset, so a
/// cycle of [`COLD_CYCLE`] rounds holds every (target, quantile) pair once.
/// Every request is Interactive: one user waiting on each answer.
fn cold_mix(mut rng: Rng, targets: &[Target]) -> Plan<'_> {
    let warmup = Round {
        items: vec![Item {
            id: 0,
            call: unbounded(&targets[0], 4),
            origin: Origin::Fresh,
            target: Some(0),
        }],
        swaps: Vec::new(),
    };
    let offsets: Vec<usize> = (0..targets.len()).map(|_| rng.below(COLD_CYCLE)).collect();
    let w_grid = [0.2, 0.35, 0.5, 0.65, 0.8];
    let mut next_id = 1;
    let mut r = 0;
    let next = move || {
        let mut calls: Vec<(Call, usize)> = Vec::new();
        for (t, target) in targets.iter().enumerate() {
            let q = COLD_QUANTILES[(r + offsets[t]) % COLD_CYCLE];
            calls.push((latency_bounded(target, q, 1.0, 6), t));
            calls.push((unbounded(target, 4), t));
            if t != STREAM_TARGET {
                calls.push((unbounded(target, 8), t));
            }
        }
        let mut ws: Vec<f64> = (0..calls.len()).map(|i| w_grid[i % w_grid.len()]).collect();
        rng.shuffle(&mut ws);
        rng.shuffle(&mut calls);
        let items = calls
            .into_iter()
            .zip(ws)
            .map(|((mut call, t), w0)| {
                set_weights(&mut call, weights(&mut rng, w0));
                set_class(&mut call, Priority::Interactive, Duration::from_millis(500));
                next_id += 1;
                Item {
                    id: next_id - 1,
                    call,
                    origin: Origin::Fresh,
                    target: Some(t),
                }
            })
            .collect();
        r += 1;
        Round {
            items,
            swaps: Vec::new(),
        }
    };
    Plan {
        kind: WorkloadKind::ColdMix,
        warmup,
        rounds: Vec::new(),
        next: Box::new(next),
    }
}

const INTERACTIVE_DEADLINE: Duration = Duration::from_millis(250);
const BATCH_DEADLINE: Duration = Duration::from_secs(2);
/// Rounds in one serve cycle: fresh bounds walk this many quantile strata
/// of `[0.2, 0.6]`, and repeats copy the request of the same stratum one
/// cycle back (well inside the frontier cache's [`CACHE_CAPACITY`]).
pub const SERVE_CYCLE: usize = 5;

/// One per-stage request per sparksim stage fixture, built once and cloned
/// (the per-stage models are shared `Arc`s).
fn stage_templates() -> Vec<StageRequest> {
    [
        ("stage-chain2", StageFixture::chain2()),
        ("stage-diamond", StageFixture::diamond()),
        ("stage-fanin", StageFixture::fanin_join()),
    ]
    .into_iter()
    .map(|(name, fx)| {
        StageRequest::new(name, fx.dag.clone(), fx.space())
            .objective(StageObjectiveSpec::analytic(
                "latency",
                Fold::CriticalPath,
                fx.latency_models(),
            ))
            .objective(StageObjectiveSpec::analytic(
                "cost",
                Fold::Sum,
                fx.cost_models(),
            ))
    })
    .collect()
}

/// Tighten the finite upper bound of `call` inside its frontier-cache cell
/// (sign, exponent and top mantissa bits kept): to `share` of the way from
/// the cell's lower edge to the old bound. A cached frontier for the old
/// bound may hold points the tighter bound excludes. A bound exactly on a
/// cell edge (never produced by the interpolated quantiles) stays put.
fn tighten_in_cell(call: &mut Call, share: f64) {
    let constraints = match call {
        Call::Batch(r) => &mut r.constraints,
        Call::Stream(r) => &mut r.constraints,
        Call::Stage(r) => &mut r.constraints,
    };
    for (_, hi) in constraints.iter_mut().flatten() {
        let keep = 52 - udao::frontier_cache::REGION_MANTISSA_BITS;
        let edge = f64::from_bits(hi.to_bits() & !((1u64 << keep) - 1));
        *hi = edge + (*hi - edge) * share;
    }
}

/// burst-serve / swap-serve: per burst of 20, 8 fresh bounded plain
/// requests (each batch target one latency- and one cost-bounded), 2
/// per-stage requests (descent and joint), 5 exact repeats and 5 near
/// repeats of fresh requests from earlier rounds. One in five is
/// Interactive. swap-serve scales every bound by [`LOOSE_BOUND_SCALE`] and
/// adds two swaps per burst on the GP latency models.
///
/// The mix is stratified so every cycle of [`SERVE_CYCLE`] rounds holds the
/// same shares: fresh bound quantiles walk the strata, point budgets and
/// stage fixtures rotate, and repeat `k` copies fresh slot `k` (mod 8) of
/// the round one cycle back; near repeats tighten the copied bound inside
/// its cache cell by a stratified share. The seed draws the jitter inside
/// each stratum and share, the weights and the order.
fn serve(mut rng: Rng, kind: WorkloadKind, targets: &[Target]) -> Plan<'_> {
    let batch_targets: Vec<usize> = (0..targets.len())
        .filter(|&t| !targets[t].streaming())
        .collect();
    let slots = 2 * batch_targets.len();
    let stages = stage_templates();
    let mut next_id = 0;
    let scale = kind.bound_scale();
    let warm_items = fresh_round(&mut rng, targets, &batch_targets, 0, scale, &mut next_id);
    let mut history: Vec<Vec<Item>> = vec![warm_items.clone()];
    let warmup = Round {
        items: finish_burst(&mut rng, warm_items),
        swaps: Vec::new(),
    };
    let mut fresh_used = [0usize; 2];
    let mut r = 0;
    let next = move || {
        r += 1;
        let mut items = fresh_round(&mut rng, targets, &batch_targets, r, scale, &mut next_id);
        for (m, mode) in [StageMode::Descent, StageMode::Joint]
            .into_iter()
            .enumerate()
        {
            let template = &stages[(r % SERVE_CYCLE + m) % stages.len()];
            let call = Call::Stage(template.clone().points(5 + r % SERVE_CYCLE).mode(mode));
            next_id += 1;
            items.push(Item {
                id: next_id - 1,
                call,
                origin: Origin::Stage,
                target: None,
            });
        }
        for k in 0..10 {
            let origin = if k < 5 { Origin::Exact } else { Origin::Near };
            let past = &history[r.saturating_sub(SERVE_CYCLE)];
            let mut copy = past[k % slots].clone();
            if origin == Origin::Near {
                tighten_in_cell(&mut copy.call, (k - 5) as f64 / 5.0 + rng.unit() / 5.0);
            }
            next_id += 1;
            copy.id = next_id - 1;
            copy.origin = origin;
            items.push(copy);
        }
        history.push(
            items
                .iter()
                .filter(|it| it.origin == Origin::Fresh)
                .cloned()
                .collect(),
        );
        let swaps = if kind == WorkloadKind::SwapServe {
            // Alternate which GP key is fine-tuned (ingest) and which is
            // refitted (retrain_now) each burst.
            let (a, b) = if r % 2 == 0 { (0, 1) } else { (1, 0) };
            let fresh = (fresh_used[a] < SWAP_FRESH_TRACES).then(|| {
                fresh_used[a] += 1;
                fresh_used[a] - 1
            });
            vec![
                Swap {
                    target: SWAP_TARGETS[a],
                    full: false,
                    fresh,
                },
                Swap {
                    target: SWAP_TARGETS[b],
                    full: true,
                    fresh: None,
                },
            ]
        } else {
            Vec::new()
        };
        Round {
            items: finish_burst(&mut rng, items),
            swaps,
        }
    };
    Plan {
        kind,
        warmup,
        rounds: Vec::new(),
        next: Box::new(next),
    }
}

/// The 8 fresh plain requests of serve round `r`: per batch target, one
/// latency- and one cost-bounded request at the round's quantile strata,
/// times `scale`.
fn fresh_round(
    rng: &mut Rng,
    targets: &[Target],
    batch_targets: &[usize],
    r: usize,
    scale: f64,
    next_id: &mut usize,
) -> Vec<Item> {
    let mut items = Vec::new();
    for (slot, &t) in batch_targets.iter().enumerate() {
        let stratum = (r + slot * 3) % SERVE_CYCLE;
        let q = 0.2 + 0.4 * (stratum as f64 + rng.unit()) / SERVE_CYCLE as f64;
        items.push((
            latency_bounded(&targets[t], q, scale, 4 + (r + slot) % SERVE_CYCLE),
            t,
        ));
        let stratum = (r + slot * 7 + 5) % SERVE_CYCLE;
        let q = 0.2 + 0.4 * (stratum as f64 + rng.unit()) / SERVE_CYCLE as f64;
        items.push((
            cost_bounded(&targets[t], q, scale, 4 + (r + slot + 2) % SERVE_CYCLE),
            t,
        ));
    }
    items
        .into_iter()
        .map(|(call, t)| {
            *next_id += 1;
            Item {
                id: *next_id - 1,
                call,
                origin: Origin::Fresh,
                target: Some(t),
            }
        })
        .collect()
}

/// Weights, classes and order of one burst. One request per kind is
/// Interactive: the first exact repeat, near repeat, and two fresh ones.
fn finish_burst(rng: &mut Rng, mut items: Vec<Item>) -> Vec<Item> {
    let mut interactive = Vec::new();
    for origin in [Origin::Exact, Origin::Near, Origin::Fresh, Origin::Fresh] {
        if let Some(i) = items
            .iter()
            .position(|it| it.origin == origin && !interactive.contains(&it.id))
        {
            interactive.push(items[i].id);
        }
    }
    let w_grid = [0.2, 0.35, 0.5, 0.65, 0.8];
    for (i, it) in items.iter_mut().enumerate() {
        set_weights(&mut it.call, weights(rng, w_grid[i % w_grid.len()]));
        if interactive.contains(&it.id) {
            set_class(&mut it.call, Priority::Interactive, INTERACTIVE_DEADLINE);
        } else {
            set_class(&mut it.call, Priority::Batch, BATCH_DEADLINE);
        }
    }
    rng.shuffle(&mut items);
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use udao::frontier_cache::FrontierKey;

    fn key(call: &Call) -> (FrontierKey, udao::RequestFingerprint) {
        let Call::Batch(r) = call else {
            panic!("batch request expected")
        };
        FrontierKey::for_request(
            &r.workload_id,
            &["latency", "cost_cores"],
            &r.constraints,
            r.points,
            &[],
        )
    }

    #[test]
    fn tightened_bounds_stay_in_the_cache_cell() {
        for h in [0.37, 4.24, 5.01, 41.9, 1234.5] {
            for share in [0.0, 0.3, 0.99] {
                let original = Call::Batch(
                    BatchRequest::new("q2-v0")
                        .objective_bounded(BatchObjective::Latency, 0.0, h)
                        .objective(BatchObjective::CostCores),
                );
                let mut near = original.clone();
                tighten_in_cell(&mut near, share);
                let Call::Batch(r) = &near else {
                    unreachable!()
                };
                let tightened = r.constraints[0].expect("bounded").1;
                assert!(tightened < h, "{h} -> {tightened}");
                let (k0, f0) = key(&original);
                let (k1, f1) = key(&near);
                assert!(k0 == k1, "bound {h} left its cell at share {share}");
                assert!(f0 != f1);
            }
        }
    }

    #[test]
    fn swap_serve_bounds_sit_far_above_every_training_trace() {
        let targets = collect_targets(&ClusterSpec::paper_cluster()).expect("targets");
        let mut plan = generate(WorkloadKind::SwapServe, 3, &targets);
        plan.round(2 * SERVE_CYCLE);
        let mut bounded = 0;
        for item in plan.rounds().iter().flat_map(|r| &r.items) {
            let Some(t) = item.target else { continue };
            let worst = [&targets[t].latencies, &targets[t].costs].map(|v| v[v.len() - 1]);
            for (c, w) in item.constraints().iter().zip(worst) {
                if let Some((_, hi)) = c {
                    assert!(*hi > 32.0 * w, "bound {hi} within 32x of trace {w}");
                    bounded += 1;
                }
            }
        }
        assert!(bounded > 0);
    }

    #[test]
    fn same_seed_same_inputs() {
        let targets = collect_targets(&ClusterSpec::paper_cluster()).expect("targets");
        for kind in [
            WorkloadKind::ColdMix,
            WorkloadKind::BurstServe,
            WorkloadKind::SwapServe,
        ] {
            let [mut a, mut b, mut c] = [7, 7, 8].map(|seed| generate(kind, seed, &targets));
            for plan in [&mut a, &mut b, &mut c] {
                plan.round(11);
            }
            assert_eq!(a.digest(12), b.digest(12));
            assert_ne!(a.digest(12), c.digest(12));
        }
    }
}
