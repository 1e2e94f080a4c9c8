//! SLO scheduler bench: interactive tail latency under a batch-class
//! flood, emitting `BENCH_scheduler.json`.
//!
//! Run: `cargo run --release -p udao-bench --bin bench_scheduler`
//! Fast sizing for CI smoke runs: `CHECK_FAST=1`.
//!
//! The workload is the serving engine's reason to exist: an interactive
//! tenant sharing the engine with a cheap batch flood at a 10:1
//! batch-to-interactive ratio. Phase one measures the interactive p99
//! with the engine otherwise idle; phase two repeats the same requests
//! while each interactive submission is preceded by ten batch-class
//! submissions into a small queue, so the batch quota is permanently
//! saturated. Strict class precedence plus per-class quotas must keep the
//! interactive class (a) admitted — at least 95% of submissions — and
//! (b) fast — loaded p99 within 3x of the unloaded p99 — while every
//! shed lands on the batch class.
//!
//! The binary validates its own output: the JSON is re-parsed and the
//! gates re-checked from the file, so a malformed report fails the run.

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use udao::{
    BatchRequest, ModelFamily, ModelProvider, Priority, ResponseHandle, ServingEngine,
    ServingOptions, Udao,
};
use udao_core::Error;
use udao_model::server::{ModelKey, ModelServer};
use udao_sparksim::objectives::BatchObjective;
use udao_sparksim::{batch_workloads, ClusterSpec};

const OUT_PATH: &str = "BENCH_scheduler.json";
/// Simulated remote model-server fetch latency per solve; dominates the
/// per-request cost so OS jitter stays small relative to the 3x gate
/// (sleeps overlap across workers even on one core, compute does not).
const MODEL_DELAY: Duration = Duration::from_millis(40);
/// Batch submissions per interactive submission in the loaded phase.
const FLOOD_RATIO: usize = 10;
/// Loaded-phase queue depth: derived quotas are interactive 8 /
/// standard 6 / batch 4, so each 10-burst overflows the batch quota while
/// interactive headroom never fills.
const LOADED_QUEUE_DEPTH: usize = 8;
/// Unmeasured requests per phase before latencies count (worker spawn,
/// first scheduler pop, allocator warm-up).
const WARMUP_ROUNDS: usize = 3;

/// Model provider that simulates a slow remote model server.
struct SlowProvider {
    inner: Arc<ModelServer>,
    delay: Duration,
}

impl ModelProvider for SlowProvider {
    fn fetch(
        &self,
        key: &ModelKey,
    ) -> udao_core::Result<Option<Arc<dyn udao_core::ObjectiveModel>>> {
        std::thread::sleep(self.delay);
        self.inner.fetch(key)
    }
}

fn request(class: Priority) -> BatchRequest {
    // The flood is *cheap* batch work (a single frontier point); the
    // interactive tenant asks for a real frontier, so its own solve —
    // not the co-tenants' — dominates its latency budget.
    let points = if class == Priority::Batch { 1 } else { 6 };
    BatchRequest::new("q2-v0")
        .objective(BatchObjective::Latency)
        .objective(BatchObjective::CostCores)
        .points(points)
        .priority(class)
}

/// Small PF configuration so each solve is dominated by the model fetch.
fn quick_pf() -> (udao_core::pf::PfVariant, udao_core::pf::PfOptions) {
    (
        udao_core::pf::PfVariant::ApproxSequential,
        udao_core::pf::PfOptions {
            mogd: udao_core::mogd::MogdConfig {
                multistarts: 2,
                max_iters: 30,
                ..Default::default()
            },
            max_probes: 8,
            ..Default::default()
        },
    )
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    let n = sorted_ms.len();
    let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    sorted_ms[idx]
}

/// Submit one interactive request and wait it to completion, returning
/// the submit-to-response latency in milliseconds (the SLO the scheduler
/// protects, queue wait included).
fn timed_interactive(
    engine: &ServingEngine<BatchObjective>,
) -> Result<Option<f64>, String> {
    let submitted = Instant::now();
    match engine.submit(request(Priority::Interactive)) {
        Ok(handle) => {
            handle.wait().map_err(|e| format!("interactive solve: {e}"))?;
            Ok(Some(submitted.elapsed().as_secs_f64() * 1e3))
        }
        Err(Error::Shed { .. }) => Ok(None),
        Err(other) => Err(format!("interactive submit: {other}")),
    }
}

struct LoadedPhase {
    latencies_ms: Vec<f64>,
    interactive_admitted: u64,
    interactive_shed: u64,
    batch_admitted: u64,
    batch_shed: u64,
}

/// Loaded phase: before every interactive request, burst `FLOOD_RATIO`
/// batch-class submissions into the small queue. Batch handles are
/// collected and drained at the end so every admitted request is served.
fn run_loaded(udao: &Arc<Udao>, rounds: usize) -> Result<LoadedPhase, String> {
    let engine: ServingEngine<BatchObjective> = ServingEngine::start_with(
        Arc::clone(udao),
        ServingOptions::default().with_workers(2).with_queue_depth(LOADED_QUEUE_DEPTH),
    );
    let mut phase = LoadedPhase {
        latencies_ms: Vec::with_capacity(rounds),
        interactive_admitted: 0,
        interactive_shed: 0,
        batch_admitted: 0,
        batch_shed: 0,
    };
    let mut batch_handles: Vec<ResponseHandle> = Vec::new();
    // Unmeasured warm-up: worker spawn and first-pop costs stay out of
    // the tail.
    for _ in 0..WARMUP_ROUNDS {
        timed_interactive(&engine)?.ok_or("warm-up request must not shed")?;
    }
    for _ in 0..rounds {
        for _ in 0..FLOOD_RATIO {
            match engine.submit(request(Priority::Batch)) {
                Ok(handle) => {
                    phase.batch_admitted += 1;
                    batch_handles.push(handle);
                }
                Err(Error::Shed { class, .. }) => {
                    if class != Some(Priority::Batch) {
                        return Err(format!("batch shed reported class {class:?}"));
                    }
                    phase.batch_shed += 1;
                }
                Err(other) => return Err(format!("batch submit: {other}")),
            }
        }
        match timed_interactive(&engine)? {
            Some(ms) => {
                phase.interactive_admitted += 1;
                phase.latencies_ms.push(ms);
            }
            None => phase.interactive_shed += 1,
        }
    }
    for handle in batch_handles {
        handle.wait().map_err(|e| format!("batch solve: {e}"))?;
    }
    Ok(phase)
}

fn run() -> Result<(), String> {
    let fast = std::env::var("CHECK_FAST").is_ok_and(|v| v == "1");
    let rounds = if fast { 30 } else { 80 };

    let (variant, opts) = quick_pf();
    let builder = Udao::builder(ClusterSpec::paper_cluster()).pf(variant, opts);
    let server = builder.shared_model_server();
    let udao = builder
        .model_provider(Arc::new(SlowProvider { inner: server, delay: MODEL_DELAY }))
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let workloads = batch_workloads();
    let q2 = workloads.iter().find(|w| w.id == "q2-v0").ok_or("q2-v0 missing")?;
    udao.train_batch(q2, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
    let udao = Arc::new(udao);

    // Warm-up solve so one-time costs don't land in the unloaded phase.
    udao.recommend(&request(Priority::Standard)).map_err(|e| format!("warm-up: {e}"))?;

    // Phase one: unloaded interactive baseline.
    let engine: ServingEngine<BatchObjective> =
        ServingEngine::start_with(Arc::clone(&udao), ServingOptions::default().with_workers(2));
    let mut unloaded_ms = Vec::with_capacity(rounds);
    for _ in 0..WARMUP_ROUNDS {
        timed_interactive(&engine)?.ok_or("warm-up request must not shed")?;
    }
    for _ in 0..rounds {
        let ms = timed_interactive(&engine)?.ok_or("unloaded engine must not shed")?;
        unloaded_ms.push(ms);
    }
    drop(engine);
    unloaded_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let unloaded_p50 = percentile(&unloaded_ms, 0.50);
    let unloaded_p99 = percentile(&unloaded_ms, 0.99);
    println!("[bench] unloaded interactive: p50 {unloaded_p50:.1} ms, p99 {unloaded_p99:.1} ms");

    // Phase two: the same interactive stream under a 10:1 batch flood.
    let mut loaded = run_loaded(&udao, rounds)?;
    loaded.latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    if loaded.latencies_ms.is_empty() {
        return Err("no interactive request survived the flood".into());
    }
    let loaded_p50 = percentile(&loaded.latencies_ms, 0.50);
    let loaded_p99 = percentile(&loaded.latencies_ms, 0.99);
    let p99_ratio = loaded_p99 / unloaded_p99;
    let admitted_frac = loaded.interactive_admitted as f64
        / (loaded.interactive_admitted + loaded.interactive_shed) as f64;
    println!(
        "[bench] loaded interactive: p50 {loaded_p50:.1} ms, p99 {loaded_p99:.1} ms \
         ({p99_ratio:.2}x unloaded; gate: <= 3x)"
    );
    println!(
        "[bench] admissions: interactive {}/{} ({:.1}%; gate: >= 95%), batch {} admitted / {} shed",
        loaded.interactive_admitted,
        loaded.interactive_admitted + loaded.interactive_shed,
        admitted_frac * 100.0,
        loaded.batch_admitted,
        loaded.batch_shed,
    );

    // The overload must be real (batch quota overflowed), absorbed by the
    // batch class alone, and invisible to the interactive tail.
    let gate = p99_ratio <= 3.0
        && admitted_frac >= 0.95
        && loaded.interactive_shed == 0
        && loaded.batch_shed > 0;

    let report = serde_json::json!({
        "workload": "q2-v0",
        "rounds": rounds,
        "flood_ratio": FLOOD_RATIO,
        "model_delay_ms": MODEL_DELAY.as_millis() as u64,
        "loaded_queue_depth": LOADED_QUEUE_DEPTH,
        "unloaded_p50_ms": unloaded_p50,
        "unloaded_p99_ms": unloaded_p99,
        "loaded_p50_ms": loaded_p50,
        "loaded_p99_ms": loaded_p99,
        "p99_ratio": p99_ratio,
        "interactive_admitted": loaded.interactive_admitted,
        "interactive_shed": loaded.interactive_shed,
        "interactive_admitted_frac": admitted_frac,
        "batch_admitted": loaded.batch_admitted,
        "batch_shed": loaded.batch_shed,
        "scheduler_gate": gate,
    });
    let mut f = std::fs::File::create(OUT_PATH).map_err(|e| format!("create {OUT_PATH}: {e}"))?;
    let rendered =
        serde_json::to_string_pretty(&report).map_err(|e| format!("render report: {e}"))?;
    f.write_all(rendered.as_bytes()).map_err(|e| format!("write {OUT_PATH}: {e}"))?;
    println!("[bench] wrote {OUT_PATH}");

    // Self-validate: the gate decision must survive a round-trip through
    // the file, so downstream checks can trust the JSON alone.
    let raw = std::fs::read_to_string(OUT_PATH).map_err(|e| format!("read back: {e}"))?;
    let parsed: serde_json::Value =
        serde_json::from_str(&raw).map_err(|e| format!("re-parse: {e}"))?;
    let ratio = parsed
        .get("p99_ratio")
        .and_then(serde_json::Value::as_f64)
        .ok_or("p99_ratio missing from report")?;
    let frac = parsed
        .get("interactive_admitted_frac")
        .and_then(serde_json::Value::as_f64)
        .ok_or("interactive_admitted_frac missing from report")?;
    let shed_interactive = parsed
        .get("interactive_shed")
        .and_then(serde_json::Value::as_u64)
        .ok_or("interactive_shed missing from report")?;
    let shed_batch = parsed
        .get("batch_shed")
        .and_then(serde_json::Value::as_u64)
        .ok_or("batch_shed missing from report")?;
    if ratio > 3.0 {
        return Err(format!("scheduler gate failed: loaded p99 is {ratio:.2}x unloaded (> 3x)"));
    }
    if frac < 0.95 {
        return Err(format!(
            "scheduler gate failed: only {:.1}% of interactive requests admitted (< 95%)",
            frac * 100.0
        ));
    }
    if shed_interactive != 0 {
        return Err(format!(
            "scheduler gate failed: {shed_interactive} interactive request(s) shed; \
             the batch class must absorb all shedding"
        ));
    }
    if shed_batch == 0 {
        return Err("scheduler gate vacuous: the flood never overflowed the batch quota".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_scheduler failed: {e}");
            ExitCode::FAILURE
        }
    }
}
