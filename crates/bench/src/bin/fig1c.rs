//! Fig. 1(c) — latency benefits of UDAO over OtterTune on TPCx-BB Q2 as
//! the application preference moves from balanced (0.5, 0.5) to
//! latency-favoring (0.9, 0.1).
//!
//! Run: `cargo run --release -p udao-bench --bin fig1c`

use udao::{BatchRequest, ModelFamily, Udao};
use udao_baselines::ottertune::{tune, OtterTuneConfig};
use udao_bench::{experiment_udao, write_csv};
use udao_sparksim::objectives::BatchObjective;
use udao_sparksim::{batch_workloads, BatchConf};

fn main() {
    let workloads = batch_workloads();
    let q2 = workloads.iter().find(|w| w.id == "q2-v0").expect("Q2");

    let train = |family: ModelFamily| -> Udao {
        let udao = experiment_udao();
        udao.train_batch(q2, 100, family, &[BatchObjective::Latency]);
        udao
    };

    println!("Fig. 1(c) — TPCx-BB Q2, measured latency by preference vector");
    println!("{:>14} {:>16} {:>12} {:>16} {:>12}", "weights", "OtterTune lat(s)", "ot cores", "UDAO lat(s)", "udao cores");
    let mut rows = Vec::new();
    for weights in [[0.5, 0.5], [0.9, 0.1]] {
        // UDAO: DNN models + PF + WUN.
        let udao = train(ModelFamily::Dnn);
        let req = BatchRequest::new(q2.id.clone())
            .objective(BatchObjective::Latency)
            .objective_bounded(BatchObjective::CostCores, 4.0, 58.0)
            .weights(weights.to_vec())
            .points(12);
        let rec = udao.recommend(&req).expect("udao recommendation");
        let u_conf = rec.batch_conf.unwrap();
        let u_meas = udao.measure_batch(q2, &u_conf, 1).expect("simulatable workload");

        // OtterTune: GP models + weighted-sum EI search.
        let udao_gp = train(ModelFamily::Gp);
        let problem = udao_gp.problem(&req).unwrap();
        let (mut u, mut n) = udao_baselines::reference_box(&problem, q2.seed);
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
                if v < b.lo || v > b.hi {
                    total += 10.0;
                }
            }
            total
        };
        let ot =
            tune(problem.dim, &objective, &OtterTuneConfig { seed: q2.seed, ..Default::default() });
        let snapped = BatchConf::space().snap(&ot.x).unwrap();
        let o_conf = BatchConf::from_configuration(&BatchConf::space().decode(&snapped).unwrap());
        let o_meas = udao_gp.measure_batch(q2, &o_conf, 1).expect("simulatable workload");

        let reduction = (1.0 - u_meas.latency_s / o_meas.latency_s.max(1e-9)) * 100.0;
        println!(
            "{:>14} {:>16.1} {:>12} {:>16.1} {:>12}   ({reduction:.0}% latency reduction)",
            format!("({},{})", weights[0], weights[1]),
            o_meas.latency_s,
            o_conf.total_cores(),
            u_meas.latency_s,
            u_conf.total_cores()
        );
        rows.push(format!(
            "{}|{},{:.2},{},{:.2},{}",
            weights[0],
            weights[1],
            o_meas.latency_s,
            o_conf.total_cores(),
            u_meas.latency_s,
            u_conf.total_cores()
        ));
    }
    write_csv(
        "fig1c_latency_vs_ottertune.csv",
        "weights,otter_latency,otter_cores,udao_latency,udao_cores",
        &rows,
    );
}
