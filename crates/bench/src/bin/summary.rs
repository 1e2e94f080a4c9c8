//! Headline summary (abstract / §I claims): the 2–50× speedup of the PF
//! algorithms over existing MOO methods on time-to-first-Pareto-set, and
//! the TPCx-BB runtime reduction vs OtterTune.
//!
//! Run: `cargo run --release -p udao-bench --bin summary [-- --jobs N]`

use udao::ModelFamily;
use udao_bench::{batch_moo_problem, experiment_udao, run_method, write_csv, Budgets, Method};
use udao_sparksim::batch_workloads;
use udao_sparksim::objectives::BatchObjective;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(12usize);

    println!("== Headline: time to first Pareto set, PF-AP vs prior MOO methods ==");
    println!("({jobs} batch workloads, 2-D latency/cost, DNN models)\n");
    let methods =
        [Method::PfAp, Method::PfAs, Method::Ws, Method::Nc, Method::Evo, Method::Qehvi, Method::Pesm];
    let mut first_times: Vec<Vec<f64>> = vec![Vec::new(); methods.len()];
    let budgets = Budgets { sizes: vec![10, 20], ..Default::default() };
    let workloads = batch_workloads();
    for (wi, w) in workloads.iter().take(jobs).enumerate() {
        let udao = experiment_udao();
        let p = batch_moo_problem(
            &udao,
            w,
            ModelFamily::Dnn,
            80,
            &[BatchObjective::Latency, BatchObjective::CostCores],
        );
        let (u, n) = udao_baselines::reference_box(&p, wi as u64);
        for (mi, m) in methods.iter().enumerate() {
            let run = run_method(*m, &p, &budgets, &u, &n);
            if run.first_set_time.is_finite() {
                first_times[mi].push(run.first_set_time);
            }
        }
        eprintln!("  ... workload {} done", w.id);
    }
    let med = |v: &mut Vec<f64>| -> f64 {
        if v.is_empty() {
            return f64::NAN;
        }
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let pf_time = med(&mut first_times[0].clone());
    println!("{:>8} {:>20} {:>18}", "method", "median first-set (s)", "slowdown vs PF-AP");
    let mut rows = Vec::new();
    for (mi, m) in methods.iter().enumerate() {
        let t = med(&mut first_times[mi]);
        let factor = t / pf_time;
        println!("{:>8} {:>20.3} {:>17.1}x", m.label(), t, factor);
        rows.push(format!("{},{t:.4},{factor:.2}", m.label()));
    }
    write_csv("summary_speedup.csv", "method,median_first_set_s,slowdown_vs_pfap", &rows);
    println!("\n(paper claim: 2-50x speedup over existing MOO methods — compare the");
    println!(" slowdown column; see fig6 ef for the 26-49% TPCx-BB runtime reduction)");
}
