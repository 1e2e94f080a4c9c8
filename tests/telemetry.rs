//! Telemetry integration tests: a served request must come back with a
//! `SolveReport` that reflects real optimizer work, and ladder descents
//! must show up in the fallback counters.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use udao::{
    BatchRequest, FallbackStage, ModelFamily, ModelProvider, ResilienceOptions, Udao,
};
use udao_core::mogd::MogdConfig;
use udao_core::pf::{PfOptions, PfVariant};
use udao_core::{ObjectiveModel, Result};
use udao_model::server::ModelServer;
use udao_model::ModelKey;
use udao_sparksim::objectives::BatchObjective;
use udao_sparksim::{batch_workloads, ClusterSpec};

fn quick_builder() -> udao::UdaoBuilder {
    Udao::builder(ClusterSpec::paper_cluster()).pf(
        PfVariant::ApproxSequential,
        PfOptions {
            mogd: MogdConfig { multistarts: 4, max_iters: 60, alpha: 1.0, ..Default::default() },
            ..Default::default()
        },
    )
}

#[test]
fn solve_report_counts_real_optimizer_work() {
    let udao = quick_builder().build().expect("valid options");
    let workloads = batch_workloads();
    let q2 = workloads.iter().find(|w| w.id == "q2-v0").unwrap();
    udao.train_batch(q2, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
    let rec = udao
        .recommend(
            &BatchRequest::new("q2-v0")
                .objective(BatchObjective::Latency)
                .objective(BatchObjective::CostCores)
                .points(8),
        )
        .unwrap();

    let report = &rec.report;
    assert_eq!(report.workload_id, "q2-v0");
    assert!(report.mogd_iterations > 0, "MOGD did not iterate? {report:?}");
    assert!(report.mogd_restarts > 0);
    assert!(report.pf_probes > 0, "PF spent no probes? {report:?}");
    assert!(report.model_inferences > 0, "no model inference recorded");
    assert!(report.model_lookups > 0, "no model-server lookup recorded");
    assert!(report.total_seconds > 0.0);

    // Stage wall-clock comes from the span hierarchy of the solve.
    let stage = |path: &str| report.stages.iter().find(|s| s.path == path);
    let root = stage("recommend").expect("root span missing");
    let moo = stage("recommend/moo").expect("moo span missing");
    assert!(stage("recommend/models").is_some());
    assert!(stage("recommend/snap").is_some());
    assert!(root.seconds > 0.0);
    assert!(moo.seconds > 0.0);

    // JSON export round-trips through the parser with the headline fields.
    let parsed: serde_json::Value =
        serde_json::from_str(&report.to_value().to_string()).expect("valid JSON");
    assert_eq!(
        parsed.get("workload").and_then(serde_json::Value::as_str),
        Some("q2-v0")
    );
    assert!(parsed.get("mogd_iterations").and_then(serde_json::Value::as_u64) > Some(0));
    assert!(parsed.get("stages").and_then(serde_json::Value::as_array).is_some());
}

/// Routes lookups to the in-process server but makes the first prediction
/// of the request panic — enough to sink the primary PF rung exactly once.
struct PanicOnceProvider {
    server: Arc<ModelServer>,
    fired: Arc<AtomicBool>,
}

struct PanicOnceModel {
    inner: Arc<dyn ObjectiveModel>,
    fired: Arc<AtomicBool>,
}

impl ObjectiveModel for PanicOnceModel {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn predict(&self, x: &[f64]) -> f64 {
        if !self.fired.swap(true, Ordering::SeqCst) {
            panic!("injected: first prediction of the request dies");
        }
        self.inner.predict(x)
    }
    fn predict_std(&self, x: &[f64]) -> f64 {
        self.inner.predict_std(x)
    }
}

impl ModelProvider for PanicOnceProvider {
    fn fetch(&self, key: &ModelKey) -> Result<Option<Arc<dyn ObjectiveModel>>> {
        Ok(self.server.get(key).map(|m| {
            Arc::new(PanicOnceModel { inner: m, fired: Arc::clone(&self.fired) })
                as Arc<dyn ObjectiveModel>
        }))
    }
}

#[test]
fn ladder_descents_show_up_in_the_report() {
    let builder = quick_builder();
    let fired = Arc::new(AtomicBool::new(false));
    let provider = PanicOnceProvider {
        server: builder.shared_model_server(),
        fired: Arc::clone(&fired),
    };
    let udao = builder
        .model_provider(Arc::new(provider))
        .resilience(ResilienceOptions::default())
        .build()
        .expect("valid options");
    let workloads = batch_workloads();
    let q1 = workloads.iter().find(|w| w.id == "q1-v0").unwrap();
    udao.train_batch(q1, 40, ModelFamily::Gp, &[BatchObjective::Latency]);

    let rec = udao
        .recommend(
            &BatchRequest::new("q1-v0")
                .objective(BatchObjective::Latency)
                .objective(BatchObjective::CostCores)
                .weights(vec![0.9, 0.1])
                .points(6),
        )
        .expect("one panic must be absorbed by the ladder");

    assert!(fired.load(Ordering::SeqCst), "the injected panic never fired");
    assert!(rec.degraded);
    assert!(rec.stage > FallbackStage::Primary, "stage: {}", rec.stage);
    let report = &rec.report;
    assert!(
        report.fallback_transitions >= 1,
        "no ladder transition recorded: {report:?}"
    );
    // The rungs actually entered leave per-stage counters behind.
    assert!(report.metrics.counter("fallback.stage.primary") >= 1);
    let below_primary = report.metrics.counter("fallback.stage.single-objective-fallback")
        + report.metrics.counter("fallback.stage.pf-as-fallback")
        + report.metrics.counter("fallback.stage.default-configuration");
    assert!(below_primary >= 1, "no fallback rung counter: {report:?}");
}
