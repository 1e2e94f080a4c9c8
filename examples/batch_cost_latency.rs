//! Use Case 1 (§I): a data-driven security company runs thousands of cloud
//! analytic tasks daily and must balance detection latency against cloud
//! cost. This example tunes a mix of SQL, SQL+UDF, and ML jobs, sweeping
//! the application's preference vector and showing how the recommendation
//! adapts — the behaviour OtterTune-style single-objective tuners lack.
//!
//! Run with: `cargo run --release -p udao --example batch_cost_latency`

use udao::{BatchRequest, ModelFamily, Udao};
use udao_sparksim::objectives::BatchObjective;
use udao_sparksim::{batch_workloads, ClusterSpec, WorkloadKind};

fn main() {
    let udao = Udao::builder(ClusterSpec::paper_cluster())
        .build()
        .expect("default optimizer options are valid");
    let workloads = batch_workloads();

    // One representative job per task class.
    let picks: Vec<_> = [WorkloadKind::Sql, WorkloadKind::SqlUdf, WorkloadKind::Ml]
        .iter()
        .map(|k| workloads.iter().find(|w| w.kind == *k && w.offline).expect("exists"))
        .collect();

    for w in &picks {
        println!("== workload {} ({:?}) ==", w.id, w.kind);
        udao.train_batch(w, 70, ModelFamily::Gp, &[BatchObjective::Latency]);

        // Sweep the latency:cost preference, as in Fig. 1(c).
        println!("{:>14} {:>12} {:>8} {:>10}", "weights", "latency(s)", "cores", "measured(s)");
        for (wl, wc) in [(0.1, 0.9), (0.5, 0.5), (0.9, 0.1)] {
            let req = BatchRequest::new(w.id.clone())
                .objective(BatchObjective::Latency)
                .objective_bounded(BatchObjective::CostCores, 4.0, 58.0)
                .weights(vec![wl, wc])
                .points(12);
            match udao.recommend(&req) {
                Ok(rec) => {
                    let conf = rec.batch_conf.unwrap();
                    let measured = udao.measure_batch(w, &conf, 0).expect("simulatable workload");
                    println!(
                        "{:>14} {:>12.1} {:>8} {:>10.1}",
                        format!("({wl:.1},{wc:.1})"),
                        rec.predicted[0],
                        conf.total_cores(),
                        measured.latency_s
                    );
                }
                Err(e) => println!("  ({wl:.1},{wc:.1}): {e}"),
            }
        }
        println!();
    }
    println!("Favoring latency buys more cores; favoring cost sheds them —");
    println!("one Pareto frontier serves every preference without re-optimization.");
}
