//! Fault-injection integration tests: the optimizer must survive poisoned
//! models, dropped lookups, injected latency, and panicking workers, and
//! still return a valid (possibly degraded) recommendation.
//!
//! Each scenario drives `Udao::recommend` (batch and streaming) through a
//! [`FaultInjector`] installed at the [`ModelProvider`] seam, with every
//! fault rate at or above 10%, and asserts the request still ends in
//! `Ok(Recommendation)` with a mutually non-dominated frontier.

use std::sync::Arc;
use std::time::{Duration, Instant};
use udao::{
    BatchRequest, FallbackStage, ModelFamily, ModelProvider, Recommendation, ResilienceOptions,
    StreamRequest, Udao,
};
use udao_core::mogd::MogdConfig;
use udao_core::pareto::dominates;
use udao_core::pf::{PfOptions, PfVariant};
use udao_core::{Error, ObjectiveModel, Result};
use udao_model::server::ModelServer;
use udao_model::ModelKey;
use udao_sparksim::objectives::{BatchObjective, StreamObjective};
use udao_sparksim::{
    batch_workloads, streaming_workloads, ClusterSpec, FaultConfig, FaultInjector,
};

/// A [`ModelProvider`] that routes lookups through the shared in-process
/// model server while subjecting them to an injector's fault plan: lookups
/// may be dropped (transient errors) and every returned model is wrapped so
/// its predictions can go non-finite, sleep, or panic.
struct FaultyProvider {
    server: Arc<ModelServer>,
    injector: Arc<FaultInjector>,
}

impl ModelProvider for FaultyProvider {
    fn fetch(&self, key: &ModelKey) -> Result<Option<Arc<dyn ObjectiveModel>>> {
        if let Some(msg) = self.injector.lookup_fault() {
            return Err(Error::ModelUnavailable(msg));
        }
        Ok(self.server.get(key).map(|m| self.injector.wrap(m)))
    }
}

/// Build an optimizer with trained latency models for `workload_id`, then
/// interpose `faults` between the optimizer and its model server.
fn faulty_udao(
    workload_id: &str,
    variant: PfVariant,
    faults: FaultConfig,
    resilience: ResilienceOptions,
) -> (Udao, Arc<FaultInjector>) {
    let builder = Udao::builder(ClusterSpec::paper_cluster()).pf(
        variant,
        PfOptions {
            mogd: MogdConfig { multistarts: 4, max_iters: 60, alpha: 1.0, ..Default::default() },
            threads: 2,
            ..Default::default()
        },
    );
    let injector = FaultInjector::new(faults);
    // The builder exposes the model server before `build`, so the faulty
    // provider can wrap the very server training will write into.
    let provider =
        FaultyProvider { server: builder.shared_model_server(), injector: Arc::clone(&injector) };
    let udao = builder
        .model_provider(Arc::new(provider))
        .resilience(resilience)
        .build()
        .expect("valid fault-injection options");
    let workloads = batch_workloads();
    let w = workloads.iter().find(|w| w.id == workload_id).unwrap();
    udao.train_batch(w, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
    (udao, injector)
}

fn latency_cost_request(id: &str) -> BatchRequest {
    BatchRequest::new(id)
        .objective(BatchObjective::Latency)
        .objective(BatchObjective::CostCores)
        .points(6)
}

/// A recommendation is *valid* when it carries a decodable configuration
/// and a non-empty, mutually non-dominated frontier.
fn assert_valid(rec: &Recommendation) {
    assert!(rec.batch_conf.is_some() || rec.stream_conf.is_some());
    assert!(!rec.frontier.is_empty(), "empty frontier");
    assert!(rec.x.iter().all(|v| v.is_finite()), "non-finite configuration {:?}", rec.x);
    for (i, a) in rec.frontier.iter().enumerate() {
        for (j, b) in rec.frontier.iter().enumerate() {
            if i != j {
                assert!(
                    !dominates(&a.f, &b.f),
                    "frontier point {:?} dominates {:?}",
                    a.f,
                    b.f
                );
            }
        }
    }
}

#[test]
fn nan_models_still_yield_a_recommendation() {
    let (udao, injector) = faulty_udao(
        "q1-v0",
        PfVariant::ApproxSequential,
        FaultConfig { nan_rate: 0.2, seed: 11, ..Default::default() },
        ResilienceOptions::default(),
    );
    let rec = udao
        .recommend(&latency_cost_request("q1-v0"))
        .expect("NaN-poisoned models must degrade, not fail");
    assert_valid(&rec);
    assert!(rec.predicted.iter().all(|v| v.is_finite()), "{:?}", rec.predicted);
    assert!(injector.counts().nans > 0, "no NaN was actually injected");
}

#[test]
fn dropped_lookups_are_retried_and_absorbed() {
    let (udao, injector) = faulty_udao(
        "q2-v0",
        PfVariant::ApproxSequential,
        FaultConfig { drop_rate: 0.3, seed: 5, ..Default::default() },
        // Even a lookup whose every retry drops must degrade, not fail.
        ResilienceOptions::default().with_cold_start_analytic(),
    );
    let req = latency_cost_request("q2-v0");
    for round in 0..5 {
        let rec = udao
            .recommend(&req)
            .unwrap_or_else(|e| panic!("round {round} failed: {e}"));
        assert_valid(&rec);
    }
    assert!(injector.counts().drops > 0, "no lookup was actually dropped");
}

#[test]
fn cold_start_degrades_to_heuristics_when_enabled() {
    // No training at all: every learned objective is a cold start.
    let udao = Udao::builder(ClusterSpec::paper_cluster())
        .resilience(ResilienceOptions::default().with_cold_start_analytic())
        .build()
        .expect("valid options");
    let rec = udao
        .recommend(&latency_cost_request("q5-v0"))
        .expect("cold start must fall back to heuristic priors");
    assert_valid(&rec);
    assert!(rec.degraded, "heuristic answer must be flagged degraded");

    let srec = udao
        .recommend(
            &StreamRequest::new(streaming_workloads()[0].id.clone())
                .objective(StreamObjective::Latency)
                .objective(StreamObjective::CostCores)
                .points(6),
        )
        .expect("streaming cold start must fall back too");
    assert_valid(&srec);
    assert!(srec.degraded);
}

#[test]
fn cold_start_without_degradation_is_a_clear_error() {
    let udao = Udao::new(ClusterSpec::paper_cluster());
    let err = udao.recommend(&latency_cost_request("q5-v0")).unwrap_err();
    assert!(err.to_string().contains("no trained model"), "{err}");
}

#[test]
fn slow_models_respect_the_request_budget() {
    let budget = Duration::from_millis(250);
    let (udao, injector) = faulty_udao(
        "q3-v0",
        PfVariant::ApproxSequential,
        FaultConfig {
            slow_rate: 0.3,
            latency: Duration::from_millis(2),
            seed: 23,
            ..Default::default()
        },
        ResilienceOptions::default().with_budget(budget),
    );
    let started = Instant::now();
    let rec = udao
        .recommend(&latency_cost_request("q3-v0"))
        .expect("slow models must yield best-so-far, not hang");
    let elapsed = started.elapsed();
    assert_valid(&rec);
    assert!(injector.counts().delays > 0, "no latency was actually injected");
    // Deadlines are cooperative: allow slack for the solver block in
    // flight when the budget expires, but rule out unbounded overrun.
    assert!(elapsed < budget + Duration::from_secs(5), "took {elapsed:?}");
}

#[test]
fn panicking_workers_are_absorbed_by_the_ladder() {
    let (udao, injector) = faulty_udao(
        "q6-v0",
        PfVariant::ApproxParallel,
        FaultConfig { panic_rate: 0.15, seed: 41, ..Default::default() },
        ResilienceOptions::default(),
    );
    let rec = udao
        .recommend(&latency_cost_request("q6-v0"))
        .expect("panicking models must be isolated, not fatal");
    assert_valid(&rec);
    assert!(injector.counts().panics > 0, "no panic was actually injected");
    // With panics at 15% every solver stage is overwhelmingly likely to
    // lose at least one worker, so the answer cannot be pristine.
    assert!(rec.degraded, "a panic-ridden solve must be flagged degraded");
    assert!(rec.stage >= FallbackStage::Primary);
}

#[test]
fn all_faults_at_once_cannot_break_the_serving_path() {
    let budget = Duration::from_millis(500);
    for seed in [1u64, 2, 3] {
        let (udao, injector) = faulty_udao(
            "q7-v0",
            PfVariant::ApproxParallel,
            FaultConfig {
                nan_rate: 0.1,
                slow_rate: 0.1,
                latency: Duration::from_millis(1),
                drop_rate: 0.1,
                panic_rate: 0.1,
                seed,
            },
            ResilienceOptions::default().with_budget(budget).with_cold_start_analytic(),
        );
        let started = Instant::now();
        let rec = udao
            .recommend(&latency_cost_request("q7-v0"))
            .unwrap_or_else(|e| panic!("seed {seed}: chaos broke the serving path: {e}"));
        assert_valid(&rec);
        assert!(started.elapsed() < budget + Duration::from_secs(10));
        let counts = injector.counts();
        assert!(
            counts.nans + counts.delays + counts.drops + counts.panics > 0,
            "seed {seed}: chaos run injected nothing"
        );
    }
}

#[test]
fn streaming_requests_survive_fault_injection() {
    let builder = Udao::builder(ClusterSpec::paper_cluster()).pf(
        PfVariant::ApproxSequential,
        PfOptions {
            mogd: MogdConfig { multistarts: 4, max_iters: 60, alpha: 1.0, ..Default::default() },
            ..Default::default()
        },
    );
    let injector = FaultInjector::new(FaultConfig {
        nan_rate: 0.15,
        panic_rate: 0.1,
        seed: 77,
        ..Default::default()
    });
    let provider =
        FaultyProvider { server: builder.shared_model_server(), injector: Arc::clone(&injector) };
    let udao = builder
        .model_provider(Arc::new(provider))
        .resilience(ResilienceOptions::default().with_cold_start_analytic())
        .build()
        .expect("valid options");
    let workloads = streaming_workloads();
    let w = &workloads[0];
    udao.train_streaming(w, 40, ModelFamily::Gp, &[StreamObjective::Latency]);
    let rec = udao
        .recommend(
            &StreamRequest::new(w.id.clone())
                .objective(StreamObjective::Latency)
                .objective(StreamObjective::CostCores)
                .points(6),
        )
        .expect("faulty streaming models must degrade, not fail");
    assert_valid(&rec);
    let counts = injector.counts();
    assert!(counts.nans + counts.panics > 0, "nothing was injected");
}
