//! Serving-engine throughput bench: concurrent `ServingEngine` workers over
//! a slow (I/O-bound) model provider, emitting `BENCH_throughput.json`.
//!
//! Run: `cargo run --release -p udao-bench --bin bench_throughput`
//! Fast sizing for CI smoke runs: `CHECK_FAST=1`.
//!
//! The workload models the paper's serving deployment: solves fetch their
//! learned model from a remote model server (here simulated by a provider
//! that sleeps `MODEL_DELAY` per fetch), then run a quick PF-AS solve.
//! Because requests are fetch-dominated, worker concurrency overlaps the
//! waits even on a single core — which is exactly what the engine's worker
//! pool is for. The bench measures requests/sec and p50/p95/p99 request
//! latency at 1, 4, and 8 workers and gates on >= 2x the single-worker
//! throughput at 4 workers.
//!
//! The binary validates its own output: the JSON is re-parsed and the gate
//! re-checked from the file, so a malformed report fails the run.

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use udao::{
    BatchRequest, ClassQuotas, ModelFamily, ModelProvider, ServingEngine, ServingOptions, Udao,
};
use udao_model::server::{ModelKey, ModelServer};
use udao_sparksim::objectives::BatchObjective;
use udao_sparksim::{batch_workloads, ClusterSpec};

const OUT_PATH: &str = "BENCH_throughput.json";
/// Simulated remote model-server fetch latency per learned model.
const MODEL_DELAY: Duration = Duration::from_millis(40);
/// Worker-pool sizes to sweep; the gate compares index 1 (4 workers)
/// against index 0 (1 worker).
const WORKER_LEVELS: [usize; 3] = [1, 4, 8];

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

fn request() -> BatchRequest {
    BatchRequest::new("q2-v0")
        .objective(BatchObjective::Latency)
        .objective(BatchObjective::CostCores)
        .points(3)
}

/// Small PF configuration so each solve is dominated by the model fetch,
/// not by optimizer compute — the regime where worker concurrency pays off
/// even on a single core.
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

struct Level {
    workers: usize,
    rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    let n = sorted_ms.len();
    let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    sorted_ms[idx]
}

/// Drive `requests` concurrent submissions through a fresh engine with the
/// given worker count; every request must complete successfully.
fn run_level(udao: &Arc<Udao>, workers: usize, requests: usize) -> Result<Level, String> {
    let engine: ServingEngine<BatchObjective> = ServingEngine::start_with(
        Arc::clone(udao),
        ServingOptions::default()
            .with_workers(workers)
            .with_queue_depth(requests.max(1))
            // The whole burst is one (standard) class; the derived
            // per-class quotas would shed the tail of larger levels.
            .with_class_quotas(ClassQuotas {
                interactive: requests.max(1),
                standard: requests.max(1),
                batch: requests.max(1),
            }),
    );
    let engine = Arc::new(engine);
    let started = Instant::now();
    let clients: Vec<_> = (0..requests)
        .map(|i| {
            let engine = Arc::clone(&engine);
            std::thread::Builder::new()
                .name(format!("bench-client-{i}"))
                .spawn(move || -> Result<f64, String> {
                    let submitted = Instant::now();
                    let handle =
                        engine.submit(request()).map_err(|e| format!("submit: {e}"))?;
                    handle.wait().map_err(|e| format!("solve: {e}"))?;
                    Ok(submitted.elapsed().as_secs_f64() * 1e3)
                })
                .map_err(|e| format!("spawn client: {e}"))
        })
        .collect();
    let mut latencies_ms = Vec::with_capacity(requests);
    for client in clients {
        let client = client?;
        latencies_ms.push(client.join().map_err(|_| "client panicked".to_string())??);
    }
    let elapsed = started.elapsed().as_secs_f64();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    Ok(Level {
        workers,
        rps: requests as f64 / elapsed,
        p50_ms: percentile(&latencies_ms, 0.50),
        p95_ms: percentile(&latencies_ms, 0.95),
        p99_ms: percentile(&latencies_ms, 0.99),
    })
}

fn run() -> Result<(), String> {
    let fast = std::env::var("CHECK_FAST").is_ok_and(|v| v == "1");
    let requests = if fast { 12 } else { 24 };

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

    // Warm-up solve so one-time costs (simulator tables, allocator) don't
    // land inside the single-worker level.
    udao.recommend(&request()).map_err(|e| format!("warm-up: {e}"))?;

    let mut levels = Vec::new();
    for workers in WORKER_LEVELS {
        let level = run_level(&udao, workers, requests)?;
        println!(
            "[bench] {} worker(s): {:.1} req/s, p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms",
            level.workers, level.rps, level.p50_ms, level.p95_ms, level.p99_ms
        );
        levels.push(level);
    }

    let speedup_4x = levels[1].rps / levels[0].rps;
    let gate = speedup_4x >= 2.0;
    println!("[bench] 4-worker speedup over 1 worker: {speedup_4x:.2}x (gate: >= 2x)");

    let level_values: Vec<serde_json::Value> = levels
        .iter()
        .map(|l| {
            serde_json::json!({
                "workers": l.workers,
                "rps": l.rps,
                "p50_ms": l.p50_ms,
                "p95_ms": l.p95_ms,
                "p99_ms": l.p99_ms,
            })
        })
        .collect();
    let report = serde_json::json!({
        "workload": "q2-v0",
        "requests_per_level": requests,
        "model_delay_ms": MODEL_DELAY.as_millis() as u64,
        "levels": level_values,
        "speedup_4x": speedup_4x,
        "throughput_gate": gate,
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
    let recorded = parsed
        .get("speedup_4x")
        .and_then(serde_json::Value::as_f64)
        .ok_or("speedup_4x missing from report")?;
    if parsed.get("levels").and_then(serde_json::Value::as_array).map(|l| l.len())
        != Some(WORKER_LEVELS.len())
    {
        return Err("levels missing from report".into());
    }
    if recorded < 2.0 {
        return Err(format!(
            "throughput gate failed: 4-worker speedup {recorded:.2}x is below 2x"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_throughput failed: {e}");
            ExitCode::FAILURE
        }
    }
}
