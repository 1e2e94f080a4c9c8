//! Model-lifecycle bench: hot-swap latency and stale-serve accounting
//! under live serving load, emitting `BENCH_lifecycle.json`.
//!
//! Run: `cargo run --release -p udao-bench --bin bench_lifecycle`
//! Fast sizing for CI smoke runs: `CHECK_FAST=1`.
//!
//! A retrain mill continuously republishes the learned latency model while
//! a 4-worker serving engine answers requests against it. The bench
//! measures the registry's swap latency (snapshot → train → publish, from
//! the `model.swap_seconds` histogram), counts the swaps that landed, and
//! gates on the lifecycle safety invariant: **zero** stale serves — no
//! request may ever observe an older version than the registry had
//! published when its solve leased (`model.stale_served == 0`), and every
//! report must pin exactly one version for the learned key.
//!
//! The binary validates its own output: the JSON is re-parsed and the gate
//! re-checked from the file, so a malformed report fails the run.

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use udao::{BatchRequest, ClassQuotas, ModelFamily, ServingEngine, ServingOptions, Udao};
use udao_model::dataset::Dataset;
use udao_model::server::{ModelKey, ModelServer};
use udao_sparksim::objectives::BatchObjective;
use udao_sparksim::{batch_workloads, ClusterSpec};
use udao_telemetry::names;

const OUT_PATH: &str = "BENCH_lifecycle.json";
const WORKERS: usize = 4;
/// Trace-archive cap: the mill stops growing the archive here so GP
/// refits (and thus swap latency) stay representative, not ever-slower.
const ARCHIVE_CAP: usize = 120;

fn request() -> BatchRequest {
    BatchRequest::new("q2-v0")
        .objective(BatchObjective::Latency)
        .objective(BatchObjective::CostCores)
        .points(3)
}

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

/// A small drifting trace batch for the retrain mill.
fn mill_batch(dim: usize, round: u64) -> Dataset {
    let slope = 4.5 + (round % 3) as f64 / 2.0;
    let x: Vec<Vec<f64>> = (0..2u64)
        .map(|p| {
            (0..dim)
                .map(|j| ((round.wrapping_mul(31) + p * 7 + j as u64 * 13) % 97) as f64 / 96.0)
                .collect()
        })
        .collect();
    let y: Vec<f64> = x.iter().map(|r| 2.0 + slope * r.iter().sum::<f64>() / dim as f64).collect();
    Dataset::new(x, y)
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    let n = sorted_ms.len();
    let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    sorted_ms[idx]
}

fn run() -> Result<(), String> {
    let fast = std::env::var("CHECK_FAST").is_ok_and(|v| v == "1");
    let requests = if fast { 32 } else { 120 };

    let (variant, opts) = quick_pf();
    let udao = Udao::builder(ClusterSpec::paper_cluster())
        .pf(variant, opts)
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let workloads = batch_workloads();
    let q2 = workloads.iter().find(|w| w.id == "q2-v0").ok_or("q2-v0 missing")?;
    udao.train_batch(q2, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
    let server: Arc<ModelServer> = udao.shared_model_server();
    let key = ModelKey::new("q2-v0", "latency");
    let dim = server.lease(&key).ok_or("latency model missing after training")?.model.dim();
    let udao = Arc::new(udao);

    // Warm-up solve so one-time costs stay out of the measured window.
    udao.recommend(&request()).map_err(|e| format!("warm-up: {e}"))?;

    let before = udao_telemetry::global().snapshot();

    // The retrain mill: continuous ingest → full refit → hot-swap while
    // the engine serves.
    let stop = Arc::new(AtomicBool::new(false));
    let mill = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let key = key.clone();
        std::thread::spawn(move || {
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let batch = if server.trace_count(&key) < ARCHIVE_CAP {
                    mill_batch(dim, round)
                } else {
                    Dataset::default()
                };
                server.retrain_now(&key, &batch);
                round += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let mut engine: ServingEngine<BatchObjective> = ServingEngine::start_with(
        Arc::clone(&udao),
        ServingOptions::default()
            .with_workers(WORKERS)
            .with_queue_depth(requests)
            // The whole burst is one (standard) class; the derived
            // per-class quotas would shed its tail.
            .with_class_quotas(ClassQuotas {
                interactive: requests,
                standard: requests,
                batch: requests,
            }),
    );
    let started = Instant::now();
    let handles: Vec<_> = (0..requests)
        .map(|i| engine.submit(request()).map_err(|e| format!("submit {i}: {e}")))
        .collect::<Result<_, _>>()?;
    let mut latencies_ms = Vec::with_capacity(requests);
    let mut stale_in_reports = 0u64;
    let mut versions = std::collections::BTreeSet::new();
    for (i, handle) in handles.into_iter().enumerate() {
        let rec = handle.wait().map_err(|e| format!("solve {i}: {e}"))?;
        stale_in_reports += rec.report.stale_served;
        if rec.report.model_versions.len() != 1 {
            return Err(format!(
                "request {i} pinned {} learned models, expected exactly 1",
                rec.report.model_versions.len()
            ));
        }
        versions.insert(rec.report.model_versions[0].1);
        latencies_ms.push(rec.report.total_seconds * 1e3);
    }
    let elapsed = started.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    mill.join().map_err(|_| "retrain mill panicked".to_string())?;
    engine.shutdown();

    let delta = udao_telemetry::global().snapshot().delta_since(&before);
    let swaps = delta.counter(names::MODEL_SWAPS);
    let stale_served = delta.counter(names::MODEL_STALE_SERVED) + stale_in_reports;
    let swap_hist = delta.histogram(names::MODEL_SWAP_SECONDS);
    let swap_ms_mean = swap_hist.map(|h| h.mean() * 1e3).unwrap_or(0.0);
    let swap_ms_p95 = swap_hist.and_then(|h| h.quantile(0.95)).map(|s| s * 1e3).unwrap_or(0.0);

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let gate = stale_served == 0 && swaps >= 1;
    println!(
        "[bench] {requests} requests / {WORKERS} workers over {swaps} hot-swaps: \
         {:.1} req/s, swap mean {swap_ms_mean:.2} ms, swap p95 {swap_ms_p95:.2} ms, \
         {} distinct versions served, stale serves {stale_served} (gate: 0)",
        requests as f64 / elapsed,
        versions.len(),
    );

    let report = serde_json::json!({
        "workload": "q2-v0",
        "requests": requests,
        "workers": WORKERS,
        "swaps": swaps,
        "swap_ms_mean": swap_ms_mean,
        "swap_ms_p95": swap_ms_p95,
        "stale_served": stale_served,
        "distinct_versions_served": versions.len(),
        "request_p50_ms": percentile(&latencies_ms, 0.50),
        "request_p95_ms": percentile(&latencies_ms, 0.95),
        "lifecycle_gate": gate,
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
    let recorded_stale = parsed
        .get("stale_served")
        .and_then(serde_json::Value::as_u64)
        .ok_or("stale_served missing from report")?;
    let recorded_swaps = parsed
        .get("swaps")
        .and_then(serde_json::Value::as_u64)
        .ok_or("swaps missing from report")?;
    if recorded_stale != 0 {
        return Err(format!("lifecycle gate failed: {recorded_stale} stale serves (must be 0)"));
    }
    if recorded_swaps < 1 {
        return Err("lifecycle gate failed: the mill never swapped a model".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_lifecycle failed: {e}");
            ExitCode::FAILURE
        }
    }
}
