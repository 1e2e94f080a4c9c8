//! Appendix Fig. 8 — streaming 2-D details on job 56: uncertain space vs
//! time for PF-AP/PF-AS/Evo/WS/NC, the WS/NC vs PF frontiers, the Evo
//! inconsistency across probe budgets, and the uncertain space of all 63
//! workloads under 1-second and 2-second constraints (PF-AP vs Evo).
//!
//! Run: `cargo run --release -p udao-bench --bin fig8 [-- --jobs N]`

use udao::ModelFamily;
use udao_baselines::evo::{nsga2, EvoConfig};
use udao_bench::{
    experiment_udao, frontier_rows, run_method, stream_moo_problem, uncertainty_at, write_csv,
    Budgets, Method,
};
use udao_sparksim::objectives::StreamObjective;
use udao_sparksim::streaming_workloads;

const OBJ_2D: [StreamObjective; 2] = [StreamObjective::Latency, StreamObjective::Throughput];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(63);

    // --- Fig. 8(a): uncertain space vs time, job 56. ---
    println!("== Fig. 8(a): uncertain space vs time, job 56, 2-D ==");
    let udao = experiment_udao();
    let workloads = streaming_workloads();
    let job56 = &workloads[55];
    let p = stream_moo_problem(&udao, job56, ModelFamily::Dnn, 100, &OBJ_2D);
    let (u, n) = udao_baselines::reference_box(&p, 56);
    let budgets = Budgets::default();
    let mut rows = Vec::new();
    let mut frontier_store = Vec::new();
    for m in [Method::PfAp, Method::PfAs, Method::Evo, Method::Ws, Method::Nc] {
        let run = run_method(m, &p, &budgets, &u, &n);
        println!(
            "{:>6}: first Pareto set after {:>6.2}s, final uncertainty {:5.1}%, {} points",
            m.label(),
            run.first_set_time,
            run.series.last().map(|(_, u)| *u).unwrap_or(100.0),
            run.frontier.len()
        );
        for (t, uv) in &run.series {
            rows.push(format!("{},{t:.4},{uv:.2}", m.label()));
        }
        frontier_store.push((m, run.frontier));
    }
    write_csv("fig8a_uncertainty.csv", "method,elapsed_s,uncertain_pct", &rows);

    // --- Fig. 8(b)/(c): WS+NC vs PF frontiers. ---
    for (m, frontier) in &frontier_store {
        let file = match m {
            Method::Ws => "fig8b_ws_frontier.csv",
            Method::Nc => "fig8b_nc_frontier.csv",
            Method::PfAp => "fig8c_pf_frontier.csv",
            _ => continue,
        };
        write_csv(file, "latency,neg_throughput", &frontier_rows(frontier));
    }

    // --- Fig. 8(d)/(e): Evo inconsistency on jobs 56 and 54. ---
    println!("\n== Fig. 8(d)/(e): Evo frontier inconsistency (jobs 56, 54) ==");
    for (job_idx, file) in [(55usize, "fig8d_evo_job56.csv"), (53, "fig8e_evo_job54.csv")] {
        let udao = experiment_udao();
        let w = &workloads[job_idx];
        let p = stream_moo_problem(&udao, w, ModelFamily::Dnn, 100, &OBJ_2D);
        let mut rows = Vec::new();
        for probes in [300usize, 400, 500] {
            let run = nsga2(&p, probes, &EvoConfig::default());
            println!("  {}: {probes} probes -> {} points", w.id, run.frontier.len());
            for r in frontier_rows(&run.frontier) {
                rows.push(format!("{probes},{r}"));
            }
        }
        write_csv(file, "probes,latency,neg_throughput", &rows);
    }

    // --- Fig. 8(f): uncertain space under 1 s / 2 s across the fleet. ---
    println!("\n== Fig. 8(f): uncertainty under 1s / 2s constraints, {jobs} workloads ==");
    let mut cells: Vec<Vec<f64>> = vec![Vec::new(); 4]; // Evo@1, PF@1, Evo@2, PF@2
    for (wi, w) in workloads.iter().take(jobs).enumerate() {
        let udao = experiment_udao();
        let p = stream_moo_problem(&udao, w, ModelFamily::Dnn, 60, &OBJ_2D);
        let (u, n) = udao_baselines::reference_box(&p, wi as u64);
        let evo = run_method(Method::Evo, &p, &budgets, &u, &n);
        let pf = run_method(Method::PfAp, &p, &budgets, &u, &n);
        cells[0].push(uncertainty_at(&evo.series, 1.0));
        cells[1].push(uncertainty_at(&pf.series, 1.0));
        cells[2].push(uncertainty_at(&evo.series, 2.0));
        cells[3].push(uncertainty_at(&pf.series, 2.0));
    }
    let labels = ["Evo (1s)", "PF-AP (1s)", "Evo (2s)", "PF-AP (2s)"];
    let mut rows = Vec::new();
    for (label, vals) in labels.iter().zip(&mut cells) {
        let med = udao_bench::median(vals);
        let done: usize = vals.iter().filter(|v| **v < 100.0).count();
        println!("  {label:<12} median uncertainty {med:5.1}%  ({done}/{} produced a set)", vals.len());
        rows.push(format!("{label},{med:.2},{done}"));
    }
    write_csv("fig8f_time_budget.csv", "method,median_uncertain_pct,jobs_with_set", &rows);
}
