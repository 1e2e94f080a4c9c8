//! Fig. 4 — comparative MOO results on the batch (TPCx-BB) workloads,
//! 2-D objectives (latency, cost in #cores), DNN latency models.
//!
//! Sub-figures: `a` uncertain space vs time for PF-AP/PF-AS/WS/NC (job 9);
//! `b` WS/NC frontiers; `c` PF-AP frontier; `d` uncertain space for
//! PF-AP/Evo/qEHVI/PESM; `e` Evo frontier inconsistency at 30/40/50
//! probes; `f` uncertain space across the full workload population.
//!
//! Run: `cargo run --release -p udao-bench --bin fig4 -- [a|b|c|d|e|f|all] [--jobs N]`

use udao::ModelFamily;
use udao_baselines::evo::{nsga2, EvoConfig};
use udao_bench::{
    batch_moo_problem, experiment_udao, frontier_rows, median, run_method, uncertainty_at,
    write_csv, Budgets, Method,
};
use udao_core::MooProblem;
use udao_sparksim::batch_workloads;
use udao_sparksim::objectives::BatchObjective;

fn job9_problem() -> (MooProblem, Vec<f64>, Vec<f64>) {
    let udao = experiment_udao();
    let workloads = batch_workloads();
    let job9 = workloads.iter().find(|w| w.id == "q9-v0").expect("job 9");
    let p = batch_moo_problem(
        &udao,
        job9,
        ModelFamily::Dnn,
        100,
        &[BatchObjective::Latency, BatchObjective::CostCores],
    );
    let (u, n) = udao_baselines::reference_box(&p, 9);
    (p, u, n)
}

fn series_csv(name: &str, runs: &[(&str, &udao_bench::MethodRun)]) {
    let mut rows = Vec::new();
    for (label, run) in runs {
        for (t, u) in &run.series {
            rows.push(format!("{label},{t:.4},{u:.2}"));
        }
    }
    write_csv(name, "method,elapsed_s,uncertain_pct", &rows);
}

fn fig4a() {
    println!("== Fig. 4(a): uncertain space vs time, job 9, 2-D ==");
    let (p, u, n) = job9_problem();
    let budgets = Budgets::default();
    let runs: Vec<(Method, udao_bench::MethodRun)> =
        [Method::PfAp, Method::PfAs, Method::Ws, Method::Nc]
            .into_iter()
            .map(|m| (m, run_method(m, &p, &budgets, &u, &n)))
            .collect();
    for (m, r) in &runs {
        println!(
            "{:>6}: first Pareto set after {:.2}s, final uncertainty {:.1}%",
            m.label(),
            r.first_set_time,
            r.series.last().map(|(_, u)| *u).unwrap_or(100.0)
        );
    }
    let refs: Vec<(&str, &udao_bench::MethodRun)> =
        runs.iter().map(|(m, r)| (m.label(), r)).collect();
    series_csv("fig4a_uncertainty.csv", &refs);
}

fn fig4bc() {
    println!("== Fig. 4(b)/(c): frontiers of WS, NC, and PF-AP, job 9 ==");
    let (p, u, n) = job9_problem();
    let budgets = Budgets::single(10);
    for (m, file) in [
        (Method::Ws, "fig4b_ws_frontier.csv"),
        (Method::Nc, "fig4b_nc_frontier.csv"),
        (Method::PfAp, "fig4c_pfap_frontier.csv"),
    ] {
        let t0 = std::time::Instant::now();
        let run = run_method(m, &p, &budgets, &u, &n);
        println!(
            "{:>6}: {:>2} frontier points in {:.2}s (requested 10)",
            m.label(),
            run.frontier.len(),
            t0.elapsed().as_secs_f64()
        );
        write_csv(file, "latency,cost_cores", &frontier_rows(&run.frontier));
    }
}

fn fig4d() {
    println!("== Fig. 4(d): uncertain space vs time, PF-AP vs Evo/qEHVI/PESM, job 9 ==");
    let (p, u, n) = job9_problem();
    let budgets = Budgets::default();
    let runs: Vec<(Method, udao_bench::MethodRun)> =
        [Method::PfAp, Method::Evo, Method::Qehvi, Method::Pesm]
            .into_iter()
            .map(|m| (m, run_method(m, &p, &budgets, &u, &n)))
            .collect();
    for (m, r) in &runs {
        println!(
            "{:>6}: first Pareto set after {:.2}s, final uncertainty {:.1}%",
            m.label(),
            r.first_set_time,
            r.series.last().map(|(_, u)| *u).unwrap_or(100.0)
        );
    }
    let refs: Vec<(&str, &udao_bench::MethodRun)> =
        runs.iter().map(|(m, r)| (m.label(), r)).collect();
    series_csv("fig4d_uncertainty.csv", &refs);
}

fn fig4e() {
    println!("== Fig. 4(e): Evo frontier inconsistency across probe budgets, job 9 ==");
    let (p, _, _) = job9_problem();
    let mut rows = Vec::new();
    for probes in [300usize, 400, 500] {
        let run = nsga2(&p, probes, &EvoConfig::default());
        println!("  {probes} probes -> {} frontier points", run.frontier.len());
        for r in frontier_rows(&run.frontier) {
            rows.push(format!("{probes},{r}"));
        }
    }
    write_csv("fig4e_evo_frontiers.csv", "probes,latency,cost_cores", &rows);
    println!("  (compare the three frontiers: the same latency maps to different costs)");
}

fn fig4f(jobs: usize) {
    println!("== Fig. 4(f): uncertain space across {jobs} batch workloads ==");
    let thresholds = [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0];
    let methods = [Method::PfAp, Method::Evo, Method::Qehvi, Method::Nc];
    let workloads = batch_workloads();
    let mut per_method: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); thresholds.len()]; methods.len()];
    let budgets = Budgets { sizes: vec![10, 15], ..Default::default() };
    for (wi, w) in workloads.iter().take(jobs).enumerate() {
        let udao = experiment_udao();
        // Small DNNs keep the 258-job fleet tractable; same family as 4(a).
        let p = batch_moo_problem(
            &udao,
            w,
            ModelFamily::Dnn,
            60,
            &[BatchObjective::Latency, BatchObjective::CostCores],
        );
        let (u, n) = udao_baselines::reference_box(&p, wi as u64);
        for (mi, m) in methods.iter().enumerate() {
            let run = run_method(*m, &p, &budgets, &u, &n);
            for (ti, t) in thresholds.iter().enumerate() {
                per_method[mi][ti].push(uncertainty_at(&run.series, *t));
            }
        }
        if (wi + 1) % 20 == 0 {
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
        "fig4f_population.csv",
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
        .unwrap_or(258);
    match which {
        "a" => fig4a(),
        "b" | "c" => fig4bc(),
        "d" => fig4d(),
        "e" => fig4e(),
        "f" => fig4f(jobs),
        _ => {
            fig4a();
            fig4bc();
            fig4d();
            fig4e();
            fig4f(jobs);
        }
    }
}
