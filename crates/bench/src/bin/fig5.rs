//! Fig. 5 — comparative MOO results on the streaming workloads: 2-D
//! (latency, throughput) and 3-D (+ cost) objective spaces, job 54.
//!
//! Sub-figures: `abc` WS/NC/PF 3-D frontiers; `d` uncertain space vs time
//! for all six methods (2-D); `ef` uncertain-space thresholds across the
//! 63-workload population in 2-D and 3-D.
//!
//! Run: `cargo run --release -p udao-bench --bin fig5 -- [abc|d|ef|all] [--jobs N]`

use udao::ModelFamily;
use udao_bench::{
    experiment_udao, frontier_rows, median, run_method, stream_moo_problem, uncertainty_at,
    write_csv, Budgets, Method,
};
use udao_core::MooProblem;
use udao_sparksim::objectives::StreamObjective;
use udao_sparksim::streaming_workloads;

const OBJ_2D: [StreamObjective; 2] = [StreamObjective::Latency, StreamObjective::Throughput];
const OBJ_3D: [StreamObjective; 3] =
    [StreamObjective::Latency, StreamObjective::Throughput, StreamObjective::CostCores];

fn job_problem(index: usize, objectives: &[StreamObjective]) -> (MooProblem, Vec<f64>, Vec<f64>) {
    let udao = experiment_udao();
    let workloads = streaming_workloads();
    let job = &workloads[index];
    let p = stream_moo_problem(&udao, job, ModelFamily::Dnn, 100, objectives);
    let (u, n) = udao_baselines::reference_box(&p, index as u64);
    (p, u, n)
}

fn fig5abc() {
    println!("== Fig. 5(a)-(c): 3-D frontiers of WS, NC, PF-AP (job 54) ==");
    let (p, u, n) = job_problem(53, &OBJ_3D);
    let budgets = Budgets::single(20);
    for (m, file) in [
        (Method::Ws, "fig5a_ws_frontier_3d.csv"),
        (Method::Nc, "fig5b_nc_frontier_3d.csv"),
        (Method::PfAp, "fig5c_pf_frontier_3d.csv"),
    ] {
        let t0 = std::time::Instant::now();
        let run = run_method(m, &p, &budgets, &u, &n);
        println!(
            "{:>6}: {:>2} frontier points in {:>6.2}s",
            m.label(),
            run.frontier.len(),
            t0.elapsed().as_secs_f64()
        );
        write_csv(file, "latency,neg_throughput,cost_cores", &frontier_rows(&run.frontier));
    }
}

fn fig5d() {
    println!("== Fig. 5(d): uncertain space vs time, job 54, 2-D, all methods ==");
    let (p, u, n) = job_problem(53, &OBJ_2D);
    let budgets = Budgets::default();
    let mut rows = Vec::new();
    for m in [Method::PfAp, Method::Evo, Method::Ws, Method::Nc, Method::Qehvi, Method::Pesm] {
        let run = run_method(m, &p, &budgets, &u, &n);
        println!(
            "{:>6}: first Pareto set after {:>6.2}s, final uncertainty {:5.1}%",
            m.label(),
            run.first_set_time,
            run.series.last().map(|(_, u)| *u).unwrap_or(100.0)
        );
        for (t, uv) in &run.series {
            rows.push(format!("{},{t:.4},{uv:.2}", m.label()));
        }
    }
    write_csv("fig5d_uncertainty.csv", "method,elapsed_s,uncertain_pct", &rows);
}

fn fig5ef(jobs: usize, objectives: &[StreamObjective], tag: &str) {
    println!("== Fig. 5({tag}): uncertain space across {jobs} streaming workloads ({}-D) ==", objectives.len());
    let thresholds = [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0];
    let methods = [Method::PfAp, Method::Evo, Method::Qehvi, Method::Nc];
    let workloads = streaming_workloads();
    let mut per_method: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); thresholds.len()]; methods.len()];
    let budgets = Budgets { sizes: vec![10, 15], ..Default::default() };
    for (wi, w) in workloads.iter().take(jobs).enumerate() {
        let udao = experiment_udao();
        let p = stream_moo_problem(&udao, w, ModelFamily::Dnn, 60, objectives);
        let (u, n) = udao_baselines::reference_box(&p, wi as u64);
        for (mi, m) in methods.iter().enumerate() {
            let run = run_method(*m, &p, &budgets, &u, &n);
            for (ti, t) in thresholds.iter().enumerate() {
                per_method[mi][ti].push(uncertainty_at(&run.series, *t));
            }
        }
        if (wi + 1) % 10 == 0 {
            eprintln!("  ... {}/{jobs} workloads", wi + 1);
        }
    }
    println!("median uncertain space (%) at elapsed-time thresholds:");
    print!("{:>8}", "method");
    for t in thresholds {
        print!("{t:>8}");
    }
    println!();
    let mut rows = Vec::new();
    for (mi, m) in methods.iter().enumerate() {
        print!("{:>8}", m.label());
        let mut cells = Vec::new();
        for vals in per_method[mi].iter_mut() {
            let md = median(vals);
            print!("{md:>8.1}");
            cells.push(format!("{md:.2}"));
        }
        println!();
        rows.push(format!("{},{}", m.label(), cells.join(",")));
    }
    write_csv(
        &format!("fig5{tag}_population.csv"),
        "method,u_at_0.05s,u_at_0.1s,u_at_0.2s,u_at_0.5s,u_at_1s,u_at_2s,u_at_5s,u_at_10s",
        &rows,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let jobs = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(63);
    match which {
        "abc" => fig5abc(),
        "d" => fig5d(),
        "e" => fig5ef(jobs, &OBJ_2D, "e"),
        "f" => fig5ef(jobs, &OBJ_3D, "f"),
        "ef" => {
            fig5ef(jobs, &OBJ_2D, "e");
            fig5ef(jobs, &OBJ_3D, "f");
        }
        _ => {
            fig5abc();
            fig5d();
            fig5ef(jobs, &OBJ_2D, "e");
            fig5ef(jobs, &OBJ_3D, "f");
        }
    }
}
