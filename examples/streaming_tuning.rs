//! Streaming tuning deep-dive: compute a 2-D (latency/throughput) and a
//! 3-D (latency/throughput/cost) Pareto frontier for a click-stream
//! workload — the Fig. 5 setting — and compare the recommendation
//! strategies of Appendix B on the 2-D frontier.
//!
//! Run with: `cargo run --release -p udao --example streaming_tuning`

use udao::{ModelFamily, StreamRequest, Udao};
use udao_core::recommend::{recommend, Strategy};
use udao_sparksim::objectives::StreamObjective;
use udao_sparksim::{streaming_workloads, ClusterSpec};

fn main() {
    let udao = Udao::builder(ClusterSpec::paper_cluster())
        .build()
        .expect("default optimizer options are valid");
    let workloads = streaming_workloads();
    let job = workloads.iter().find(|w| w.id == "s2-v1").expect("job exists");

    println!("== training models for {} ==", job.id);
    udao.train_streaming(
        job,
        90,
        ModelFamily::Gp,
        &[StreamObjective::Latency, StreamObjective::Throughput],
    );

    // --- 2-D: latency vs throughput (Fig. 5(c) shape). ---
    let req2d = StreamRequest::new(job.id.clone())
        .objective(StreamObjective::Latency)
        .objective(StreamObjective::Throughput)
        .points(15);
    let rec = udao.recommend(&req2d).expect("2-D run");
    println!("\n2-D frontier (latency vs throughput), {} points:", rec.frontier.len());
    let mut pts: Vec<_> = rec.frontier.iter().map(|p| (p.f[0], -p.f[1])).collect();
    pts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for (lat, tput) in &pts {
        println!("  latency {lat:7.2}s   throughput {tput:>12.0} rec/s");
    }

    // Appendix-B strategies on the same frontier.
    println!("\nrecommendation strategies over this frontier:");
    for (name, strategy) in [
        ("Utopia-Nearest", Strategy::UtopiaNearest),
        ("WUN (0.9 latency)", Strategy::WeightedUtopiaNearest(vec![0.9, 0.1])),
        ("Slope-Max (left)", Strategy::SlopeLeft),
        ("Knee-Point (left)", Strategy::KneeLeft),
    ] {
        let i = recommend(&rec.frontier, &rec.utopia, &rec.nadir, &strategy).expect("pick");
        let p = &rec.frontier[i];
        println!(
            "  {name:<20} -> latency {:7.2}s  throughput {:>12.0} rec/s",
            p.f[0], -p.f[1]
        );
    }

    // --- 3-D: add cost (Fig. 5(c) / 5(f) setting). ---
    let req3d = StreamRequest::new(job.id.clone())
        .objective(StreamObjective::Latency)
        .objective(StreamObjective::Throughput)
        .objective(StreamObjective::CostCores)
        .weights(vec![0.6, 0.2, 0.2])
        .points(15);
    let rec3 = udao.recommend(&req3d).expect("3-D run");
    println!(
        "\n3-D frontier: {} points in {:.2}s ({} probes)",
        rec3.frontier.len(),
        rec3.moo_seconds,
        rec3.probes
    );
    let conf = rec3.stream_conf.expect("configuration");
    let m = udao.measure_streaming(job, &conf, 0).expect("simulatable workload");
    println!(
        "chosen config: interval {:.1}s, {} cores -> measured latency {:.2}s, throughput {:.0} rec/s (stable: {})",
        conf.batch_interval_s,
        conf.total_cores(),
        m.latency_s,
        m.throughput,
        m.stable
    );
}
