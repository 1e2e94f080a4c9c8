//! Use Case 2 (§I): serverless analytics. A media company's news site sees
//! peak load in the morning and a light load otherwise; the cloud provider
//! must pick the number of computing units per period, balancing latency
//! against user cost, and must re-configure *within seconds* when the load
//! changes.
//!
//! The example tunes one streaming workload at three load levels. Because
//! the Pareto frontier is already computed, adjusting the preference (cost
//! thrift off-peak, latency urgency at peak) is instantaneous.
//!
//! Run with: `cargo run --release -p udao --example serverless_scaling`

use udao::{ModelFamily, StreamRequest, Udao};
use udao_sparksim::objectives::StreamObjective;
use udao_sparksim::{streaming_workloads, ClusterSpec};

fn main() {
    let udao = Udao::builder(ClusterSpec::paper_cluster())
        .build()
        .expect("default optimizer options are valid");
    let workloads = streaming_workloads();
    let news = workloads.iter().find(|w| w.offline).expect("offline streaming workload");

    println!("== offline: training latency/throughput models for {} ==", news.id);
    udao.train_streaming(
        news,
        90,
        ModelFamily::Gp,
        &[StreamObjective::Latency, StreamObjective::Throughput],
    );

    // (period, minimum sustained records/s, weights favoring latency vs cost)
    let periods = [
        ("overnight (light)", 100_000.0, vec![0.2, 0.1, 0.7]),
        ("daytime (steady)", 400_000.0, vec![0.4, 0.2, 0.4]),
        ("morning peak / breaking news", 700_000.0, vec![0.7, 0.2, 0.1]),
    ];

    println!(
        "\n{:<32} {:>10} {:>12} {:>8} {:>8}",
        "period", "lat(s)", "tput(rec/s)", "cores", "moo(s)"
    );
    for (name, min_tput, weights) in periods {
        // Throughput is a maximization objective; in minimization space the
        // requirement "throughput >= min_tput" becomes an upper bound.
        let req = StreamRequest::new(news.id.clone())
            .objective(StreamObjective::Latency)
            .objective_bounded(StreamObjective::Throughput, -2_000_000.0, -min_tput)
            .objective(StreamObjective::CostCores)
            .weights(weights)
            .points(10);
        match udao.recommend(&req) {
            Ok(rec) => {
                let conf = rec.stream_conf.as_ref().unwrap();
                let measured = udao.measure_streaming(news, conf, 0).expect("simulatable workload");
                println!(
                    "{:<32} {:>10.2} {:>12.0} {:>8} {:>8.2}",
                    name,
                    measured.latency_s,
                    measured.throughput,
                    conf.total_cores(),
                    rec.moo_seconds
                );
            }
            Err(e) => println!("{name:<32} infeasible at this load: {e}"),
        }
    }
    println!("\nThe provider scales computing units with the load while the");
    println!("frontier keeps each period's latency/cost trade-off explicit.");
}
