//! Frontier-cache bench: exact-hit serving latency versus cold solves and
//! warm-started near hits versus cold solves, emitting `BENCH_cache.json`.
//!
//! Run: `cargo run --release -p udao-bench --bin bench_cache`
//! Fast sizing for CI smoke runs: `CHECK_FAST=1`.
//!
//! Each round measures one paired triple on the same trained models:
//! a **cold** solve against an empty cache (miss + insert), an **exact
//! hit** repeat of the identical request (served straight from the cached
//! frontier), and a **warm-started near hit** (same key, different point
//! count) next to a cold control solve of the same request on an
//! identically-trained cacheless instance. Gates: the cache actually
//! serves (`cache.served > 0`), exact hits answer at least 10x faster
//! than cold solves at the median, and warm-started solves are no slower
//! than their cold controls while keeping frontier hypervolume within 2%.
//!
//! The binary validates its own output: the JSON is re-parsed and the
//! gates re-checked from the file, so a malformed report fails the run.

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use udao::{BatchRequest, FrontierCache, ModelFamily, Udao};
use udao_core::pareto::{hypervolume, ParetoPoint};
use udao_sparksim::objectives::BatchObjective;
use udao_sparksim::{batch_workloads, ClusterSpec};
use udao_telemetry::names;

const OUT_PATH: &str = "BENCH_cache.json";
/// Exact-hit latency must sit at least this far below cold solves.
const HIT_SPEEDUP_GATE: f64 = 10.0;
/// Warm-started frontiers must keep at least this hypervolume fraction.
const HV_GATE: f64 = 0.98;

fn request(points: usize) -> BatchRequest {
    BatchRequest::new("q2-v0")
        .objective(BatchObjective::Latency)
        .objective(BatchObjective::CostCores)
        .points(points)
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

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    let n = sorted_ms.len();
    let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    sorted_ms[idx]
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    v
}

/// Hypervolume of both frontiers against a shared padded envelope, so the
/// warm and cold runs are scored on one scale.
fn hv_ratio(warm: &[ParetoPoint], cold: &[ParetoPoint]) -> Result<f64, String> {
    if warm.is_empty() || cold.is_empty() {
        return Err("empty frontier in hypervolume comparison".into());
    }
    let k = warm[0].f.len();
    let mut utopia = vec![f64::INFINITY; k];
    let mut nadir = vec![f64::NEG_INFINITY; k];
    for p in warm.iter().chain(cold) {
        for (j, v) in p.f.iter().enumerate() {
            utopia[j] = utopia[j].min(*v);
            nadir[j] = nadir[j].max(*v);
        }
    }
    for j in 0..k {
        let pad = (nadir[j] - utopia[j]).abs().max(1e-9) * 0.05;
        utopia[j] -= pad;
        nadir[j] += pad;
    }
    let fs = |frontier: &[ParetoPoint]| -> Vec<Vec<f64>> {
        frontier.iter().map(|p| p.f.clone()).collect()
    };
    let hv_cold = hypervolume(&fs(cold), &utopia, &nadir);
    if hv_cold <= 0.0 {
        return Err("cold frontier has zero hypervolume".into());
    }
    Ok(hypervolume(&fs(warm), &utopia, &nadir) / hv_cold)
}

fn run() -> Result<(), String> {
    let fast = std::env::var("CHECK_FAST").is_ok_and(|v| v == "1");
    let rounds = if fast { 6 } else { 24 };

    let (variant, opts) = quick_pf();
    let udao = Udao::builder(ClusterSpec::paper_cluster())
        .pf(variant, opts)
        .frontier_cache(64)
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let (variant, opts) = quick_pf();
    // Identically trained cacheless control: deterministic seeding makes
    // its cold solves exactly what the cached instance would produce.
    let control = Udao::builder(ClusterSpec::paper_cluster())
        .pf(variant, opts)
        .build()
        .map_err(|e| format!("control build: {e}"))?;
    let workloads = batch_workloads();
    let q2 = workloads.iter().find(|w| w.id == "q2-v0").ok_or("q2-v0 missing")?;
    udao.train_batch(q2, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
    control.train_batch(q2, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
    let cache: &Arc<FrontierCache> = udao.frontier_cache().ok_or("cache not enabled")?;

    // Warm-up solves keep one-time costs out of the measured rounds.
    udao.recommend(&request(3)).map_err(|e| format!("warm-up: {e}"))?;
    control.recommend(&request(3)).map_err(|e| format!("control warm-up: {e}"))?;

    let before = udao_telemetry::global().snapshot();
    let mut cold_ms = Vec::with_capacity(rounds);
    let mut hit_ms = Vec::with_capacity(rounds);
    let mut warm_ms = Vec::with_capacity(rounds);
    let mut cold_ref_ms = Vec::with_capacity(rounds);
    let mut served = 0u64;
    let mut warm_starts = 0u64;
    let mut hv_min = f64::INFINITY;
    for round in 0..rounds {
        cache.invalidate_all();
        let cold = udao.recommend(&request(5)).map_err(|e| format!("cold {round}: {e}"))?;
        if cold.report.cache_misses != 1 {
            return Err(format!("round {round}: cold solve was not a miss"));
        }
        cold_ms.push(cold.report.total_seconds * 1e3);

        let hit = udao.recommend(&request(5)).map_err(|e| format!("hit {round}: {e}"))?;
        if hit.report.cache_served != 1 {
            return Err(format!("round {round}: repeat was not served from the cache"));
        }
        served += hit.report.cache_served;
        hit_ms.push(hit.report.total_seconds * 1e3);

        // Near hit: same key, different point count → warm-started solve.
        let warm = udao.recommend(&request(4)).map_err(|e| format!("warm {round}: {e}"))?;
        if warm.report.cache_warm_starts != 1 {
            return Err(format!("round {round}: near hit did not warm-start"));
        }
        warm_starts += warm.report.cache_warm_starts;
        warm_ms.push(warm.report.total_seconds * 1e3);

        let cold_ref =
            control.recommend(&request(4)).map_err(|e| format!("control {round}: {e}"))?;
        cold_ref_ms.push(cold_ref.report.total_seconds * 1e3);
        hv_min = hv_min.min(hv_ratio(&warm.frontier, &cold_ref.frontier)?);
    }
    let delta = udao_telemetry::global().snapshot().delta_since(&before);

    let cold_ms = sorted(cold_ms);
    let hit_ms = sorted(hit_ms);
    let warm_ms = sorted(warm_ms);
    let cold_ref_ms = sorted(cold_ref_ms);
    let cold_p50 = percentile(&cold_ms, 0.50);
    let hit_p50 = percentile(&hit_ms, 0.50);
    let warm_p50 = percentile(&warm_ms, 0.50);
    let cold_ref_p50 = percentile(&cold_ref_ms, 0.50);
    let speedup = cold_p50 / hit_p50.max(1e-9);
    let warm_beats_cold = warm_p50 <= cold_ref_p50;
    let gate =
        served > 0 && speedup >= HIT_SPEEDUP_GATE && warm_beats_cold && hv_min >= HV_GATE;
    println!(
        "[bench] {rounds} rounds: cold p50 {cold_p50:.3} ms, exact-hit p50 {hit_p50:.4} ms \
         ({speedup:.1}x, gate {HIT_SPEEDUP_GATE}x), warm p50 {warm_p50:.3} ms vs cold control \
         {cold_ref_p50:.3} ms, hv min {hv_min:.4} (gate {HV_GATE}), served {served}, \
         warm starts {warm_starts}"
    );

    let report = serde_json::json!({
        "workload": "q2-v0",
        "rounds": rounds,
        "cache_capacity": cache.capacity(),
        "served": served,
        "warm_starts": warm_starts,
        "inserts": delta.counter(names::CACHE_INSERTS),
        "invalidations": delta.counter(names::CACHE_INVALIDATIONS),
        "cold_p50_ms": cold_p50,
        "cold_p95_ms": percentile(&cold_ms, 0.95),
        "hit_p50_ms": hit_p50,
        "hit_p95_ms": percentile(&hit_ms, 0.95),
        "warm_p50_ms": warm_p50,
        "cold_control_p50_ms": cold_ref_p50,
        "hit_speedup": speedup,
        "hit_speedup_gate": HIT_SPEEDUP_GATE,
        "warm_beats_cold": warm_beats_cold,
        "hv_min_ratio": hv_min,
        "hv_gate": HV_GATE,
        "cache_gate": gate,
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
    let field = |name: &str| -> Result<f64, String> {
        parsed.get(name).and_then(serde_json::Value::as_f64).ok_or(format!("{name} missing"))
    };
    if field("served")? < 1.0 {
        return Err("cache gate failed: no request was ever served from the cache".into());
    }
    if field("hit_speedup")? < HIT_SPEEDUP_GATE {
        return Err(format!(
            "cache gate failed: exact hits only {:.1}x faster than cold (need {HIT_SPEEDUP_GATE}x)",
            field("hit_speedup")?
        ));
    }
    if !matches!(parsed.get("warm_beats_cold"), Some(serde_json::Value::Bool(true))) {
        return Err(format!(
            "cache gate failed: warm-started p50 {warm_p50:.3} ms did not beat cold {cold_ref_p50:.3} ms"
        ));
    }
    if field("hv_min_ratio")? < HV_GATE {
        return Err(format!(
            "cache gate failed: warm frontier hypervolume ratio {hv_min:.4} below {HV_GATE}"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_cache failed: {e}");
            ExitCode::FAILURE
        }
    }
}
