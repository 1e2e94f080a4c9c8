//! Appendix Fig. 9 — latency and cost2 (weighted CPU-hour + IO cost) under
//! inaccurate models, both measured on the simulated cluster and as
//! predicted by each system's own models, for the top-12 long-running
//! batch jobs at weights (0.5, 0.5) and (0.9, 0.1).
//!
//! UDAO optimizes DNN models; OtterTune optimizes its GP models (both for
//! latency and for the learned cost2).
//!
//! Run: `cargo run --release -p udao-bench --bin fig9`

use udao::{BatchRequest, ModelFamily, Udao};
use udao_baselines::ottertune::{tune, OtterTuneConfig};
use udao_bench::{experiment_udao, write_csv};
use udao_sparksim::objectives::BatchObjective;
use udao_sparksim::{batch_workloads, BatchConf, Workload};

fn test_workloads() -> Vec<Workload> {
    let all = batch_workloads();
    (1..=30)
        .map(|t| all.iter().find(|w| w.template == t && w.variant == 3).unwrap().clone())
        .collect()
}

fn ottertune_x(
    problem: &udao_core::MooProblem,
    weights: &[f64],
    seed: u64,
) -> Vec<f64> {
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
        problem
            .objectives
            .iter()
            .enumerate()
            .map(|(j, m)| weights[j] * (m.predict(x) - u[j]) / (n[j] - u[j]).max(1e-9))
            .sum()
    };
    tune(problem.dim, &objective, &OtterTuneConfig { seed, ..Default::default() }).x
}

fn main() {
    let cost2 = BatchObjective::cost2();
    let tests = test_workloads();
    let udao0 = experiment_udao();
    let mut ranked: Vec<(f64, &Workload)> = tests
        .iter()
        .map(|w| (udao0.measure_batch(w, &BatchConf::spark_default(), 0).expect("simulatable workload").latency_s, w))
        .collect();
    ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let top12: Vec<&Workload> = ranked.iter().take(12).map(|(_, w)| *w).collect();

    // Train each system once per job (latency + cost2 models).
    let train = |family: ModelFamily, w: &Workload| -> Udao {
        let udao = experiment_udao();
        udao.train_batch(w, 100, family, &[BatchObjective::Latency, cost2]);
        udao
    };
    // Same substitution as fig6 ef: on this substrate the GP family is the
    // more accurate model for both systems (see EXPERIMENTS.md), so the
    // optimizer comparison runs on equal GP models.
    let systems: Vec<(&Workload, Udao, Udao)> =
        top12.iter().map(|w| (*w, train(ModelFamily::Gp, w), train(ModelFamily::Gp, w))).collect();

    for (tag, weights) in [("ab", [0.5, 0.5]), ("cd", [0.9, 0.1])] {
        println!("== Fig. 9 ({tag}): weights = ({}, {}), latency + cost2 ==", weights[0], weights[1]);
        println!(
            "{:>8} | {:>10} {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10} {:>10}",
            "job", "U meas(s)", "U pred(s)", "O meas(s)", "O pred(s)", "U meas$", "U pred$", "O meas$", "O pred$"
        );
        let mut rows = Vec::new();
        let (mut tu, mut to, mut cu, mut co) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (w, udao_dnn, udao_gp) in &systems {
            let req = BatchRequest::new(w.id.clone())
                .objective(BatchObjective::Latency)
                .objective(cost2)
                .weights(weights.to_vec())
                .points(10);
            // UDAO (DNN).
            let Ok(rec) = udao_dnn.recommend(&req) else { continue };
            let u_meas = udao_dnn.measure_batch(w, rec.batch_conf.as_ref().unwrap(), 11).expect("simulatable workload");
            let u_cost_meas = cost2.extract(&u_meas);
            // OtterTune (GP).
            let problem = udao_gp.problem(&req).unwrap();
            let x = ottertune_x(&problem, &weights, w.seed);
            let snapped = BatchConf::space().snap(&x).unwrap();
            let o_pred = problem.evaluate(&snapped).unwrap();
            let o_conf =
                BatchConf::from_configuration(&BatchConf::space().decode(&snapped).unwrap());
            let o_meas = udao_gp.measure_batch(w, &o_conf, 11).expect("simulatable workload");
            let o_cost_meas = cost2.extract(&o_meas);
            tu += u_meas.latency_s;
            to += o_meas.latency_s;
            cu += u_cost_meas;
            co += o_cost_meas;
            println!(
                "{:>8} | {:>10.1} {:>10.1} {:>10.1} {:>10.1} | {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
                w.id,
                u_meas.latency_s,
                rec.predicted[0],
                o_meas.latency_s,
                o_pred[0],
                u_cost_meas,
                rec.predicted[1],
                o_cost_meas,
                o_pred[1]
            );
            rows.push(format!(
                "{},{:.3},{:.3},{:.3},{:.3},{:.5},{:.5},{:.5},{:.5}",
                w.id,
                u_meas.latency_s,
                rec.predicted[0],
                o_meas.latency_s,
                o_pred[0],
                u_cost_meas,
                rec.predicted[1],
                o_cost_meas,
                o_pred[1]
            ));
        }
        println!(
            "totals: UDAO {tu:.0}s / {cu:.3}$ vs OtterTune {to:.0}s / {co:.3}$ -> {:.0}% latency reduction, {:+.0}% cost2",
            (1.0 - tu / to.max(1e-9)) * 100.0,
            (cu / co.max(1e-9) - 1.0) * 100.0
        );
        write_csv(
            &format!("fig9{tag}_cost2.csv"),
            "job,udao_meas_lat,udao_pred_lat,otter_meas_lat,otter_pred_lat,udao_meas_cost2,udao_pred_cost2,otter_meas_cost2,otter_pred_cost2",
            &rows,
        );
        println!();
    }
}
