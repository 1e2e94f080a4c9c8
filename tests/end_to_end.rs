//! End-to-end integration tests spanning every crate: traces → model
//! server → Progressive Frontier → recommendation → simulated execution.

use udao::{BatchRequest, ModelFamily, StreamRequest, Udao};
use udao_core::mogd::MogdConfig;
use udao_core::pf::{PfOptions, PfVariant};
use udao_sparksim::objectives::{BatchObjective, StreamObjective};
use udao_sparksim::{batch_workloads, streaming_workloads, ClusterSpec};

fn quick_udao() -> Udao {
    Udao::builder(ClusterSpec::paper_cluster())
        .pf(
            PfVariant::ApproxSequential,
            PfOptions {
                // alpha = 1: conservative optimization under model uncertainty.
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
        .expect("valid options")
}

#[test]
fn batch_pipeline_beats_the_spark_default_on_latency_preference() {
    let udao = quick_udao();
    let workloads = batch_workloads();
    let w = workloads.iter().find(|w| w.id == "q9-v0").unwrap();
    udao.train_batch(w, 60, ModelFamily::Gp, &[BatchObjective::Latency]);

    let rec = udao
        .recommend(
            &BatchRequest::new("q9-v0")
                .objective(BatchObjective::Latency)
                .objective_bounded(BatchObjective::CostCores, 4.0, 58.0)
                .weights(vec![0.9, 0.1])
                .points(10),
        )
        .unwrap();

    let tuned = udao.measure_batch(w, rec.batch_conf.as_ref().unwrap(), 0).expect("simulatable workload");
    let default = udao.measure_batch(w, &udao_sparksim::BatchConf::spark_default(), 0).expect("simulatable workload");
    assert!(
        tuned.latency_s < default.latency_s,
        "tuned {} vs spark default {}",
        tuned.latency_s,
        default.latency_s
    );
}

#[test]
fn constraints_are_respected_by_the_recommendation() {
    let udao = quick_udao();
    let workloads = batch_workloads();
    let w = workloads.iter().find(|w| w.id == "q6-v0").unwrap();
    udao.train_batch(w, 60, ModelFamily::Gp, &[BatchObjective::Latency]);

    let rec = udao
        .recommend(
            &BatchRequest::new("q6-v0")
                .objective(BatchObjective::Latency)
                .objective_bounded(BatchObjective::CostCores, 4.0, 20.0)
                .points(8),
        )
        .unwrap();
    let conf = rec.batch_conf.unwrap();
    assert!(
        (4..=20).contains(&conf.total_cores()),
        "cores {} outside [4, 20]",
        conf.total_cores()
    );
}

#[test]
fn dnn_models_work_end_to_end_like_gp_models() {
    let udao = quick_udao();
    let workloads = batch_workloads();
    let w = workloads.iter().find(|w| w.id == "q1-v0").unwrap();
    udao.train_batch(w, 50, ModelFamily::Dnn, &[BatchObjective::Latency]);

    let rec = udao
        .recommend(
            &BatchRequest::new("q1-v0")
                .objective(BatchObjective::Latency)
                .objective(BatchObjective::CostCores)
                .points(8),
        )
        .unwrap();
    assert!(rec.frontier.len() >= 2);
    assert!(rec.predicted[0].is_finite());
}

#[test]
fn streaming_pipeline_keeps_the_job_stable() {
    let udao = quick_udao();
    let workloads = streaming_workloads();
    let w = &workloads[3];
    udao.train_streaming(
        w,
        60,
        ModelFamily::Gp,
        &[StreamObjective::Latency, StreamObjective::Throughput],
    );
    let rec = udao
        .recommend(
            &StreamRequest::new(w.id.clone())
                .objective(StreamObjective::Latency)
                .objective(StreamObjective::Throughput)
                .weights(vec![0.7, 0.3])
                .points(8),
        )
        .unwrap();
    let m = udao.measure_streaming(w, rec.stream_conf.as_ref().unwrap(), 0).expect("simulatable workload");
    assert!(m.stable, "latency-favoring recommendation must keep up with load");
}

#[test]
fn model_server_updates_flow_into_new_recommendations() {
    // Retraining with many more traces must not break recommendation.
    let udao = quick_udao();
    let workloads = batch_workloads();
    let w = workloads.iter().find(|w| w.id == "q3-v0").unwrap();
    udao.train_batch(w, 30, ModelFamily::Gp, &[BatchObjective::Latency]);
    let r1 = udao
        .recommend(
            &BatchRequest::new("q3-v0")
                .objective(BatchObjective::Latency)
                .objective(BatchObjective::CostCores)
                .points(6),
        )
        .unwrap();
    udao.train_batch(w, 250, ModelFamily::Gp, &[BatchObjective::Latency]);
    let r2 = udao
        .recommend(
            &BatchRequest::new("q3-v0")
                .objective(BatchObjective::Latency)
                .objective(BatchObjective::CostCores)
                .points(6),
        )
        .unwrap();
    assert!(r1.predicted[0].is_finite() && r2.predicted[0].is_finite());
    let (retrains, _) = udao
        .model_server()
        .training_stats(&udao_model::ModelKey::new("q3-v0", "latency"));
    assert!(retrains >= 2, "large trace update should retrain: {retrains}");
}

#[test]
fn recommendations_are_reproducible() {
    let udao = quick_udao();
    let workloads = batch_workloads();
    let w = workloads.iter().find(|w| w.id == "q12-v0").unwrap();
    udao.train_batch(w, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
    let req = BatchRequest::new("q12-v0")
        .objective(BatchObjective::Latency)
        .objective(BatchObjective::CostCores)
        .points(6);
    let a = udao.recommend(&req).unwrap();
    let b = udao.recommend(&req).unwrap();
    assert_eq!(a.x, b.x, "same models + same request => same recommendation");
}
