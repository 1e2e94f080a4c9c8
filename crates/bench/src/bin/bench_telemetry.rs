//! Telemetry bench smoke: run one instrumented recommendation and emit
//! `BENCH_telemetry.json` with the per-request solve report — the same
//! fields `Recommendation::report` exposes (MOGD iterations, PF probes,
//! model inferences, per-stage wall-clock).
//!
//! Run: `cargo run --release -p udao-bench --bin bench_telemetry`
//!
//! The binary validates its own output (required fields present and
//! non-zero, JSON re-parses) and exits non-zero on any miss, so CI can use
//! it as a telemetry end-to-end gate.

use std::io::Write as _;
use std::process::ExitCode;
use udao::{BatchRequest, ModelFamily, Udao};
use udao_core::mogd::MogdConfig;
use udao_core::pf::{PfOptions, PfVariant};
use udao_sparksim::objectives::BatchObjective;
use udao_sparksim::{batch_workloads, ClusterSpec};

const OUT_PATH: &str = "BENCH_telemetry.json";

fn run() -> Result<(), String> {
    let udao = Udao::builder(ClusterSpec::paper_cluster())
        .pf(
            PfVariant::ApproxSequential,
            PfOptions {
                mogd: MogdConfig {
                    multistarts: 4,
                    max_iters: 60,
                    alpha: 1.0,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .build()
        .map_err(|e| format!("builder: {e}"))?;
    let workloads = batch_workloads();
    let q2 = workloads
        .iter()
        .find(|w| w.id == "q2-v0")
        .ok_or("workload q2-v0 missing")?;
    udao.train_batch(q2, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
    let rec = udao
        .recommend(
            &BatchRequest::new("q2-v0")
                .objective(BatchObjective::Latency)
                .objective(BatchObjective::CostCores)
                .weights(vec![0.5, 0.5])
                .points(8),
        )
        .map_err(|e| format!("recommend: {e}"))?;

    let json = serde_json::to_string_pretty(&rec.report.to_value())
        .map_err(|e| format!("serialize report: {e}"))?;
    let mut f = std::fs::File::create(OUT_PATH).map_err(|e| format!("create {OUT_PATH}: {e}"))?;
    f.write_all(json.as_bytes())
        .and_then(|()| f.write_all(b"\n"))
        .map_err(|e| format!("write {OUT_PATH}: {e}"))?;
    println!("[bench] wrote {OUT_PATH}");

    // Self-validate: re-read, re-parse, check the acceptance fields.
    let raw = std::fs::read_to_string(OUT_PATH).map_err(|e| format!("read back: {e}"))?;
    let parsed: serde_json::Value =
        serde_json::from_str(&raw).map_err(|e| format!("re-parse: {e}"))?;
    let field = |name: &str| -> Result<u64, String> {
        parsed
            .get(name)
            .and_then(serde_json::Value::as_u64)
            .ok_or_else(|| format!("field {name} missing or not an integer"))
    };
    for name in ["mogd_iterations", "pf_probes", "model_inferences"] {
        let v = field(name)?;
        if v == 0 {
            return Err(format!("field {name} is zero — telemetry not flowing"));
        }
        println!("[bench] {name} = {v}");
    }
    let stages = parsed
        .get("stages")
        .and_then(serde_json::Value::as_array)
        .ok_or("field stages missing or not an array")?;
    if stages.is_empty() {
        return Err("no stage wall-clock recorded".into());
    }
    for s in stages {
        let path = s.get("path").and_then(serde_json::Value::as_str).unwrap_or("?");
        let secs = s.get("seconds").and_then(serde_json::Value::as_f64).unwrap_or(-1.0);
        if secs < 0.0 {
            return Err(format!("stage {path} has no seconds field"));
        }
        println!("[bench] stage {path} = {secs:.6}s");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_telemetry failed: {e}");
            ExitCode::FAILURE
        }
    }
}
