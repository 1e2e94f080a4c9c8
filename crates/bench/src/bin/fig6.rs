//! Fig. 6 — end-to-end comparison of UDAO (PF + WUN) against an
//! OtterTune-style single-objective tuner.
//!
//! Sub-figures: `ab` accurate models, batch, weights (0.5,0.5) and
//! (0.9,0.1); `cd` accurate models, streaming; `ef` inaccurate models with
//! measured latency on the top-12 long-running jobs (UDAO uses DNN models,
//! OtterTune its GP models); `gh` performance-improvement rate vs weighted
//! APE over 120 recommended configurations per system.
//!
//! Run: `cargo run --release -p udao-bench --bin fig6 -- [ab|cd|ef|gh|all]`

use udao::{BatchRequest, ModelFamily, StreamRequest, Udao};
use udao_baselines::ottertune::{tune, OtterTuneConfig};
use udao_bench::{expert_manual_conf, experiment_udao, write_csv};
use udao_core::MooProblem;
use udao_sparksim::objectives::{BatchObjective, StreamObjective};
use udao_sparksim::{batch_workloads, streaming_workloads, BatchConf, StreamConf, Workload};

/// The 30 batch test workloads: one (online) variant per template.
fn batch_test_workloads() -> Vec<Workload> {
    let all = batch_workloads();
    (1..=30)
        .map(|t| all.iter().find(|w| w.template == t && w.variant == 3).unwrap().clone())
        .collect()
}

/// The 15 streaming test workloads.
fn stream_test_workloads() -> Vec<Workload> {
    let all = streaming_workloads();
    all.iter().filter(|w| w.variant >= 4 && w.variant < 7).take(15).cloned().collect()
}

/// OtterTune path: collapse the objectives into a fixed weighted sum of
/// normalized model predictions (plus penalties for the request's value
/// constraints), then run GP/EI search over it.
fn ottertune_recommend(problem: &MooProblem, weights: &[f64], seed: u64) -> Vec<f64> {
    // Normalize inside the *constrained* objective box, exactly as the
    // PF/WUN side does — otherwise a wide unconstrained cost range makes
    // the cost term flat and the weighted sum effectively single-objective.
    let (mut u, mut n) = udao_baselines::reference_box(problem, seed);
    for (j, b) in problem.constraints.iter().enumerate() {
        if b.lo.is_finite() {
            u[j] = u[j].max(b.lo);
        }
        if b.hi.is_finite() {
            n[j] = n[j].min(b.hi);
        }
    }
    let objective = |x: &[f64]| -> f64 {
        let mut total = 0.0;
        for (j, m) in problem.objectives.iter().enumerate() {
            let v = m.predict(x);
            let width = (n[j] - u[j]).max(1e-9);
            total += weights[j] * (v - u[j]) / width;
            let b = problem.constraints[j];
            if v < b.lo {
                total += 10.0 + ((b.lo - v) / width).powi(2);
            } else if v > b.hi {
                total += 10.0 + ((v - b.hi) / width).powi(2);
            }
        }
        total
    };
    tune(problem.dim, &objective, &OtterTuneConfig { seed, ..Default::default() }).x
}

/// Trace budget per test workload. The paper's models train on a 24,560-
/// trace corpus with cross-workload encodings; per-workload GPs here need
/// a few hundred traces to reach comparable accuracy on the cliff-heavy
/// ML templates.
const TRACES: usize = 300;

fn batch_udao(family: ModelFamily, w: &Workload) -> Udao {
    let udao = experiment_udao();
    udao.train_batch(w, TRACES, family, &[BatchObjective::Latency]);
    udao
}

fn fig6ab() {
    println!("== Fig. 6(a)/(b): accurate models, batch, UDAO (PF-WUN) vs OtterTune ==");
    let tests = batch_test_workloads();
    for (tag, weights) in [("a", [0.5, 0.5]), ("b", [0.9, 0.1])] {
        println!("\nweights (latency, cost) = ({}, {}):", weights[0], weights[1]);
        println!(
            "{:>8} {:>12} {:>9} {:>12} {:>9} {:>12}",
            "job", "udao lat%", "udao cores", "otter lat%", "otter cores", "udao saves"
        );
        let mut rows = Vec::new();
        let mut dominated = 0usize;
        let mut savings = Vec::new();
        for w in &tests {
            let udao = batch_udao(ModelFamily::Gp, w);
            let req = BatchRequest::new(w.id.clone())
                .objective(BatchObjective::Latency)
                .objective_bounded(BatchObjective::CostCores, 4.0, 58.0)
                .weights(weights.to_vec())
                .points(12);
            let Ok(rec) = udao.recommend(&req) else { continue };
            let problem = udao.problem(&req).unwrap();
            let ot_x = ottertune_recommend(&problem, &weights, w.seed);
            let ot_f = problem.evaluate(&problem_space_snap(&ot_x)).unwrap();
            // Accurate-model regime: predicted values are the truth.
            let (u_lat, u_cores) = (rec.predicted[0], rec.predicted[1]);
            let (o_lat, o_cores) = (ot_f[0], ot_f[1]);
            let slower = u_lat.max(o_lat).max(1e-9);
            let save = (o_lat - u_lat) / o_lat.max(1e-9) * 100.0;
            savings.push(save);
            if u_lat <= o_lat && u_cores <= o_cores && (u_lat < o_lat || u_cores < o_cores) {
                dominated += 1;
            }
            println!(
                "{:>8} {:>11.1}% {:>9.0} {:>11.1}% {:>9.0} {:>11.1}%",
                w.id,
                u_lat / slower * 100.0,
                u_cores,
                o_lat / slower * 100.0,
                o_cores,
                save
            );
            rows.push(format!(
                "{},{u_lat:.2},{u_cores:.0},{o_lat:.2},{o_cores:.0},{save:.2}",
                w.id
            ));
        }
        savings.sort_by(|a, b| a.partial_cmp(b).unwrap());
        println!(
            "UDAO latency saving: median {:.0}%, max {:.0}%; dominates OtterTune on {} jobs",
            savings[savings.len() / 2],
            savings.last().unwrap(),
            dominated
        );
        write_csv(
            &format!("fig6{tag}_batch_accurate.csv"),
            "job,udao_latency,udao_cores,otter_latency,otter_cores,udao_saving_pct",
            &rows,
        );
    }
}

/// Snap a raw tuner output onto the decodable batch grid.
fn problem_space_snap(x: &[f64]) -> Vec<f64> {
    BatchConf::space().snap(x).expect("snaps")
}

fn fig6cd() {
    println!("== Fig. 6(c)/(d): accurate models, streaming, latency vs throughput ==");
    let tests = stream_test_workloads();
    for (tag, weights) in [("c", [0.5, 0.5]), ("d", [0.9, 0.1])] {
        println!("\nweights (latency, throughput) = ({}, {}):", weights[0], weights[1]);
        let mut rows = Vec::new();
        let mut savings = Vec::new();
        for w in &tests {
            let udao = experiment_udao();
            udao.train_streaming(
                w,
                100,
                ModelFamily::Gp,
                &[StreamObjective::Latency, StreamObjective::Throughput],
            );
            let req = StreamRequest::new(w.id.clone())
                .objective(StreamObjective::Latency)
                .objective(StreamObjective::Throughput)
                .weights(weights.to_vec())
                .points(12);
            let Ok(rec) = udao.recommend(&req) else { continue };
            let problem = udao.problem(&req).unwrap();
            let ot_x = ottertune_recommend(&problem, &weights, w.seed);
            let snapped = StreamConf::space().snap(&ot_x).unwrap();
            let ot_f = problem.evaluate(&snapped).unwrap();
            let save = (ot_f[0] - rec.predicted[0]) / ot_f[0].max(1e-9) * 100.0;
            savings.push(save);
            println!(
                "  {:>8}: udao lat {:>8.2}s tput {:>11.0} | otter lat {:>8.2}s tput {:>11.0} | saving {:>6.1}%",
                w.id,
                rec.predicted[0],
                -rec.predicted[1],
                ot_f[0],
                -ot_f[1],
                save
            );
            rows.push(format!(
                "{},{:.3},{:.0},{:.3},{:.0},{save:.2}",
                w.id, rec.predicted[0], -rec.predicted[1], ot_f[0], -ot_f[1]
            ));
        }
        savings.sort_by(|a, b| a.partial_cmp(b).unwrap());
        println!(
            "UDAO latency saving: median {:.0}%, max {:.0}%",
            savings[savings.len() / 2],
            savings.last().unwrap()
        );
        write_csv(
            &format!("fig6{tag}_stream_accurate.csv"),
            "job,udao_latency,udao_throughput,otter_latency,otter_throughput,udao_saving_pct",
            &rows,
        );
    }
}

fn fig6ef() {
    println!("== Fig. 6(e)/(f): inaccurate models, measured latency, top-12 jobs ==");
    // Substitution note: the paper gives UDAO its DNN models here because
    // *their* DNN was the more accurate family (20% vs 35% WMAPE). On this
    // simulator substrate our from-scratch MLP ensembles underfit the
    // spill cliffs of the ML templates, so the GP family is the stronger
    // model for BOTH systems; UDAO accordingly optimizes GP models — the
    // comparison remains optimizer-vs-optimizer on equal model quality.
    println!("(both systems optimize their GP models; both measured on the cluster)");
    let tests = batch_test_workloads();
    // Rank by default-config latency; take the 12 longest-running.
    let udao0 = experiment_udao();
    let mut ranked: Vec<(f64, &Workload)> = tests
        .iter()
        .map(|w| (udao0.measure_batch(w, &BatchConf::spark_default(), 0).expect("simulatable workload").latency_s, w))
        .collect();
    ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let top12: Vec<&Workload> = ranked.iter().take(12).map(|(_, w)| *w).collect();

    for (tag, weights) in [("e", [0.5, 0.5]), ("f", [0.9, 0.1])] {
        println!("\nweights = ({}, {}):", weights[0], weights[1]);
        println!(
            "{:>8} {:>12} {:>12} {:>10} {:>10}",
            "job", "udao meas(s)", "otter meas(s)", "udao cores", "otter cores"
        );
        let mut rows = Vec::new();
        let (mut total_u, mut total_o) = (0.0, 0.0);
        let (mut cost_u, mut cost_o) = (0.0, 0.0);
        for w in &top12 {
            let udao = batch_udao(ModelFamily::Gp, w);
            let req = BatchRequest::new(w.id.clone())
                .objective(BatchObjective::Latency)
                .objective_bounded(BatchObjective::CostCores, 4.0, 58.0)
                .weights(weights.to_vec())
                .points(12);
            let Ok(rec) = udao.recommend(&req) else { continue };
            let u_conf = rec.batch_conf.unwrap();
            let u_meas = udao.measure_batch(w, &u_conf, 7).expect("simulatable workload");
            // OtterTune with GP models.
            let udao_gp = batch_udao(ModelFamily::Gp, w);
            let problem = udao_gp.problem(&req).unwrap();
            let ot_x = ottertune_recommend(&problem, &weights, w.seed);
            let o_conf = BatchConf::from_configuration(
                &BatchConf::space().decode(&problem_space_snap(&ot_x)).unwrap(),
            );
            let o_meas = udao_gp.measure_batch(w, &o_conf, 7).expect("simulatable workload");
            total_u += u_meas.latency_s;
            total_o += o_meas.latency_s;
            cost_u += u_meas.cores;
            cost_o += o_meas.cores;
            println!(
                "{:>8} {:>12.1} {:>12.1} {:>10} {:>10}",
                w.id,
                u_meas.latency_s,
                o_meas.latency_s,
                u_conf.total_cores(),
                o_conf.total_cores()
            );
            rows.push(format!(
                "{},{:.2},{:.2},{},{}",
                w.id,
                u_meas.latency_s,
                o_meas.latency_s,
                u_conf.total_cores(),
                o_conf.total_cores()
            ));
        }
        println!(
            "totals: UDAO {total_u:.0}s vs OtterTune {total_o:.0}s -> {:.0}% runtime reduction ({:+.0}% cores)",
            (1.0 - total_u / total_o.max(1e-9)) * 100.0,
            (cost_u / cost_o.max(1e-9) - 1.0) * 100.0
        );
        write_csv(
            &format!("fig6{tag}_measured.csv"),
            "job,udao_measured_latency,otter_measured_latency,udao_cores,otter_cores",
            &rows,
        );
    }
}

fn fig6gh() {
    println!("== Fig. 6(g)/(h): PIR vs weighted APE, 120 configurations per system ==");
    let tests = batch_test_workloads();
    let manual = expert_manual_conf();
    let mut rows_u = Vec::new();
    let mut rows_o = Vec::new();
    let (mut neg_u, mut neg_o, mut n_u, mut n_o) = (0usize, 0usize, 0usize, 0usize);
    let cost_objs = [BatchObjective::CostCores, BatchObjective::cost2()];
    for w in &tests {
        let manual_lat = experiment_udao().measure_batch(w, &manual, 3).expect("simulatable workload").latency_s;
        // Train each system once per job, covering both cost objectives.
        let udao_dnn = experiment_udao();
        udao_dnn.train_batch(
            w,
            100,
            ModelFamily::Dnn,
            &[BatchObjective::Latency, BatchObjective::cost2()],
        );
        let udao_gp = experiment_udao();
        udao_gp.train_batch(
            w,
            100,
            ModelFamily::Gp,
            &[BatchObjective::Latency, BatchObjective::cost2()],
        );
        for weights in [[0.5, 0.5], [0.9, 0.1]] {
            for cost in cost_objs {
                let req = BatchRequest::new(w.id.clone())
                    .objective(BatchObjective::Latency)
                    .objective(cost)
                    .weights(weights.to_vec())
                    .points(10);
                // UDAO / DNN.
                if let Ok(rec) = udao_dnn.recommend(&req) {
                    let meas = udao_dnn.measure_batch(w, rec.batch_conf.as_ref().unwrap(), 5).expect("simulatable workload");
                    let ape = (rec.predicted[0] - meas.latency_s).abs() / meas.latency_s;
                    let pir = (manual_lat - meas.latency_s) / manual_lat * 100.0;
                    if pir < 0.0 {
                        neg_u += 1;
                    }
                    n_u += 1;
                    rows_u.push(format!("{},{ape:.4},{pir:.2}", w.id));
                }
                // OtterTune / GP.
                let problem = udao_gp.problem(&req).unwrap();
                let ot_x = ottertune_recommend(&problem, &weights, w.seed);
                let snapped = problem_space_snap(&ot_x);
                let pred = problem.evaluate(&snapped).unwrap();
                let conf =
                    BatchConf::from_configuration(&BatchConf::space().decode(&snapped).unwrap());
                let meas = udao_gp.measure_batch(w, &conf, 5).expect("simulatable workload");
                let ape = (pred[0] - meas.latency_s).abs() / meas.latency_s;
                let pir = (manual_lat - meas.latency_s) / manual_lat * 100.0;
                if pir < 0.0 {
                    neg_o += 1;
                }
                n_o += 1;
                rows_o.push(format!("{},{ape:.4},{pir:.2}", w.id));
            }
        }
    }
    println!("UDAO:      {n_u} configs, {neg_u} with PIR < 0% (worse than the expert)");
    println!("OtterTune: {n_o} configs, {neg_o} with PIR < 0% (worse than the expert)");
    write_csv("fig6g_ottertune_pir.csv", "job,weighted_ape,pir_pct", &rows_o);
    write_csv("fig6h_udao_pir.csv", "job,weighted_ape,pir_pct", &rows_u);
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match which.as_str() {
        "ab" => fig6ab(),
        "cd" => fig6cd(),
        "ef" => fig6ef(),
        "gh" => fig6gh(),
        _ => {
            fig6ab();
            fig6cd();
            fig6ef();
            fig6gh();
        }
    }
}
