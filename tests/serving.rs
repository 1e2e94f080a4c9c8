//! Concurrency stress tests for the serving engine: response integrity,
//! determinism across worker counts, typed shedding, graceful drain, and
//! per-request report isolation while several workers solve at once.

use std::sync::Arc;
use std::time::Duration;
use udao::{
    BatchRequest, ModelFamily, ModelProvider, ServingEngine, ServingOptions, StreamRequest, Udao,
};
use udao_core::Error;
use udao_model::server::{ModelKey, ModelServer};
use udao_sparksim::objectives::{BatchObjective, StreamObjective};
use udao_sparksim::{batch_workloads, streaming_workloads, ClusterSpec};

fn quick_pf() -> (udao_core::pf::PfVariant, udao_core::pf::PfOptions) {
    (
        udao_core::pf::PfVariant::ApproxSequential,
        udao_core::pf::PfOptions {
            mogd: udao_core::mogd::MogdConfig { multistarts: 4, max_iters: 60, ..Default::default() },
            ..Default::default()
        },
    )
}

/// A trained optimizer for `q2-v0` (latency learned via GP, cost analytic).
fn trained_udao() -> Arc<Udao> {
    let (v, o) = quick_pf();
    let udao = Udao::builder(ClusterSpec::paper_cluster())
        .pf(v, o)
        .build()
        .expect("quick_pf options are valid");
    let workloads = batch_workloads();
    let q2 = workloads.iter().find(|w| w.id == "q2-v0").expect("q2-v0 exists");
    udao.train_batch(q2, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
    Arc::new(udao)
}

fn q2_request(points: usize) -> BatchRequest {
    BatchRequest::new("q2-v0")
        .objective(BatchObjective::Latency)
        .objective(BatchObjective::CostCores)
        .points(points)
}

/// Model provider that simulates a slow remote model server, so solves
/// take long enough for admission control to observe a backlog.
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

#[test]
fn no_lost_or_duplicated_responses_under_concurrent_load() {
    let udao = trained_udao();
    // Distinct requests (different point budgets) so a misrouted response
    // would be visible as a frontier-size mismatch.
    let variants: Vec<usize> = vec![3, 4, 5, 6, 3, 4, 5, 6];
    let serial: Vec<_> = variants
        .iter()
        .map(|&points| udao.recommend(&q2_request(points)).expect("serial solve"))
        .collect();
    let engine: ServingEngine<BatchObjective> =
        ServingEngine::start_with(Arc::clone(&udao), ServingOptions::default().with_workers(4));
    let handles: Vec<_> = variants
        .iter()
        .map(|&points| engine.submit(q2_request(points)).expect("admitted"))
        .collect();
    // Every handle resolves exactly once, with the answer of *its* request.
    for (handle, baseline) in handles.into_iter().zip(&serial) {
        let rec = handle.wait().expect("engine solve succeeds");
        assert_eq!(rec.frontier.len(), baseline.frontier.len());
        for (a, b) in rec.x.iter().zip(&baseline.x) {
            assert_eq!(a.to_bits(), b.to_bits(), "engine result differs from serial");
        }
    }
    assert_eq!(engine.in_flight(), 0, "all work accounted for");
}

#[test]
fn results_are_bitwise_deterministic_across_worker_counts() {
    let udao = trained_udao();
    let serial = udao.recommend(&q2_request(5)).expect("serial");
    for workers in [1usize, 4] {
        let engine: ServingEngine<BatchObjective> = ServingEngine::start_with(
            Arc::clone(&udao),
            ServingOptions::default().with_workers(workers),
        );
        // Co-tenants running simultaneously must not perturb the answer.
        let handles: Vec<_> =
            (0..4).map(|_| engine.submit(q2_request(5)).expect("admitted")).collect();
        for handle in handles {
            let rec = handle.wait().expect("engine solve succeeds");
            assert_eq!(rec.x.len(), serial.x.len());
            for (a, b) in rec.x.iter().zip(&serial.x) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "recommendation must be bitwise stable at {workers} workers"
                );
            }
            for (a, b) in rec.predicted.iter().zip(&serial.predicted) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}

#[test]
fn mixed_batch_and_stream_requests_serve_concurrently() {
    let (v, o) = quick_pf();
    let udao = Udao::builder(ClusterSpec::paper_cluster())
        .pf(v, o)
        .build()
        .expect("valid options");
    let workloads = batch_workloads();
    let q2 = workloads.iter().find(|w| w.id == "q2-v0").expect("q2-v0 exists");
    udao.train_batch(q2, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
    let streams = streaming_workloads();
    let s1 = &streams[0];
    udao.train_streaming(
        s1,
        40,
        ModelFamily::Gp,
        &[StreamObjective::Latency, StreamObjective::Throughput],
    );
    let udao = Arc::new(udao);
    // One optimizer, two typed front doors sharing its models.
    let batch_engine: ServingEngine<BatchObjective> =
        ServingEngine::start_with(Arc::clone(&udao), ServingOptions::default().with_workers(2));
    let stream_engine: ServingEngine<StreamObjective> =
        ServingEngine::start_with(Arc::clone(&udao), ServingOptions::default().with_workers(2));
    let batch_handles: Vec<_> =
        (0..3).map(|_| batch_engine.submit(q2_request(4)).expect("admitted")).collect();
    let stream_req = || {
        StreamRequest::new(s1.id.clone())
            .objective(StreamObjective::Latency)
            .objective(StreamObjective::Throughput)
            .points(4)
    };
    let stream_handles: Vec<_> =
        (0..3).map(|_| stream_engine.submit(stream_req()).expect("admitted")).collect();
    for handle in batch_handles {
        let rec = handle.wait().expect("batch solve");
        assert!(rec.batch_conf.is_some());
        assert!(rec.stream_conf.is_none());
    }
    for handle in stream_handles {
        let rec = handle.wait().expect("stream solve");
        assert!(rec.stream_conf.is_some());
        assert!(rec.batch_conf.is_none());
    }
}

#[test]
fn shutdown_drains_admitted_work_then_rejects_new_submissions() {
    let udao = trained_udao();
    let mut engine: ServingEngine<BatchObjective> =
        ServingEngine::start_with(Arc::clone(&udao), ServingOptions::default().with_workers(2));
    let handles: Vec<_> =
        (0..5).map(|_| engine.submit(q2_request(3)).expect("admitted")).collect();
    engine.shutdown();
    // Everything admitted before the drain still gets a real answer.
    for handle in handles {
        handle.wait().expect("admitted work completes during drain");
    }
    // New work is shed with the typed error, not dropped or panicking.
    match engine.submit(q2_request(3)) {
        Err(Error::Shed { reason, .. }) => assert!(reason.contains("draining"), "{reason}"),
        other => panic!("expected Shed after shutdown, got {other:?}"),
    }
}

#[test]
fn overload_sheds_with_typed_error_and_serves_admitted_requests() {
    let (v, o) = quick_pf();
    let builder = Udao::builder(ClusterSpec::paper_cluster()).pf(v, o);
    let server = builder.shared_model_server();
    let udao = builder
        .model_provider(Arc::new(SlowProvider { inner: server, delay: Duration::from_millis(30) }))
        .build()
        .expect("valid options");
    let workloads = batch_workloads();
    let q2 = workloads.iter().find(|w| w.id == "q2-v0").expect("q2-v0 exists");
    udao.train_batch(q2, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
    let engine: ServingEngine<BatchObjective> = ServingEngine::start_with(
        Arc::new(udao),
        ServingOptions::default().with_workers(1).with_queue_depth(1),
    );
    let mut admitted = Vec::new();
    let mut shed = 0usize;
    for _ in 0..12 {
        match engine.submit(q2_request(3)) {
            Ok(handle) => admitted.push(handle),
            Err(Error::Shed { reason, .. }) => {
                assert!(reason.contains("queue full"), "unexpected shed reason: {reason}");
                shed += 1;
            }
            Err(other) => panic!("overload must shed, not fail: {other}"),
        }
    }
    assert!(shed > 0, "depth-1 queue with 30ms model fetches must shed under a 12-burst");
    assert!(!admitted.is_empty(), "admission control must not shed everything");
    for handle in admitted {
        handle.wait().expect("admitted requests are served to completion");
    }
}

#[test]
fn expired_budget_is_shed_at_admission() {
    let udao = trained_udao();
    let engine: ServingEngine<BatchObjective> =
        ServingEngine::start_with(Arc::clone(&udao), ServingOptions::default().with_workers(1));
    let req = q2_request(3).budget(Duration::ZERO);
    match engine.submit(req) {
        Err(Error::Shed { reason, .. }) => assert!(reason.contains("expired"), "{reason}"),
        other => panic!("zero budget must shed deterministically, got {other:?}"),
    }
}

#[test]
fn per_request_reports_stay_exact_under_engine_concurrency() {
    let udao = trained_udao();
    // Solo baseline: deterministic counters for this request when nothing
    // else is in flight.
    let solo = udao.recommend(&q2_request(5)).expect("solo").report;
    assert!(solo.model_inferences > 0);
    assert!(solo.model_batch_calls > 0);
    let engine: ServingEngine<BatchObjective> =
        ServingEngine::start_with(Arc::clone(&udao), ServingOptions::default().with_workers(4));
    let handles: Vec<_> =
        (0..4).map(|_| engine.submit(q2_request(5)).expect("admitted")).collect();
    for handle in handles {
        let report = handle.wait().expect("engine solve").report;
        // With these four solves running on concurrent workers, each report
        // must attribute exactly the work a solo solve does — no bleed, no
        // absorption.
        assert_eq!(report.mogd_iterations, solo.mogd_iterations);
        assert_eq!(report.mogd_restarts, solo.mogd_restarts);
        assert_eq!(report.pf_probes, solo.pf_probes);
        assert_eq!(report.model_inferences, solo.model_inferences);
        assert_eq!(report.model_batch_calls, solo.model_batch_calls);
        assert_eq!(report.model_cache_hits, solo.model_cache_hits);
        assert_eq!(report.model_cache_misses, solo.model_cache_misses);
    }
}
