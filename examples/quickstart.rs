//! Quickstart: tune TPCx-BB Q2 (Fig. 1(b)) for latency and cost.
//!
//! Trains a GP latency model from simulator traces, computes the Pareto
//! frontier with the Progressive Frontier algorithm, and prints the
//! recommendation for a balanced (0.5, 0.5) preference.
//!
//! Run with: `cargo run --release -p udao --example quickstart`

use udao::{BatchRequest, ModelFamily, Udao};
use udao_sparksim::objectives::BatchObjective;
use udao_sparksim::{batch_workloads, ClusterSpec};

fn main() {
    let udao = Udao::builder(ClusterSpec::paper_cluster())
        .build()
        .expect("default optimizer options are valid");
    let workloads = batch_workloads();
    let q2 = workloads.iter().find(|w| w.id == "q2-v0").expect("Q2 exists");

    println!("== offline: training latency model for {} ==", q2.id);
    udao.train_batch(q2, 80, ModelFamily::Gp, &[BatchObjective::Latency]);
    println!(
        "model server holds {} traces for (q2-v0, latency)",
        udao.model_server()
            .trace_count(&udao_model::ModelKey::new("q2-v0", "latency"))
    );

    println!("\n== online: request {{latency, cost in #cores}} with weights (0.5, 0.5) ==");
    let request = BatchRequest::new("q2-v0")
        .objective(BatchObjective::Latency)
        .objective(BatchObjective::CostCores)
        .weights(vec![0.5, 0.5])
        .points(15);
    let rec = udao.recommend(&request).expect("recommendation");

    println!(
        "Pareto frontier ({} points, {} probes, {:.2}s MOO time):",
        rec.frontier.len(),
        rec.probes,
        rec.moo_seconds
    );
    let mut pts: Vec<_> = rec.frontier.iter().map(|p| (p.f[0], p.f[1])).collect();
    pts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for (lat, cores) in &pts {
        println!("  latency {lat:8.1}s   cores {cores:5.1}");
    }

    let conf = rec.batch_conf.expect("batch configuration");
    println!("\nrecommended configuration:");
    println!(
        "  executors={} cores/executor={} memory={}GB",
        conf.executor_instances, conf.executor_cores, conf.executor_memory_gb
    );
    println!(
        "  parallelism={} shuffle.partitions={}",
        conf.default_parallelism, conf.shuffle_partitions
    );
    println!(
        "  memory.fraction={:.2} shuffle.compress={}",
        conf.memory_fraction, conf.shuffle_compress
    );
    println!(
        "  predicted: latency {:.1}s at {} cores",
        rec.predicted[0],
        conf.total_cores()
    );

    let measured = udao.measure_batch(q2, &conf, 0).expect("simulatable workload");
    println!(
        "  measured on the simulated cluster: latency {:.1}s, CPU-hours {:.3}",
        measured.latency_s, measured.cpu_hours
    );

    println!("\n== what the solve cost ==");
    println!("{}", rec.report.render());
}
