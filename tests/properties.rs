//! Property-based tests (proptest) of the core invariants: Pareto
//! dominance, hyperrectangle geometry, parameter-space codecs, and the
//! uncertain-space metric.

use proptest::prelude::*;
use udao_core::hyperrect::Rect;
use udao_core::pareto::{dominates, hypervolume, pareto_filter, uncertain_space, ParetoPoint};
use udao_core::space::{Configuration, ParamSpace, ParamSpec, ParamValue};

fn objective_vec(k: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..100.0, k)
}

proptest! {
    #[test]
    fn dominance_is_irreflexive_and_antisymmetric(f in objective_vec(3), g in objective_vec(3)) {
        prop_assert!(!dominates(&f, &f), "no vector dominates itself");
        prop_assert!(!(dominates(&f, &g) && dominates(&g, &f)), "antisymmetry");
    }

    #[test]
    fn dominance_is_transitive(a in objective_vec(2), b in objective_vec(2), c in objective_vec(2)) {
        if dominates(&a, &b) && dominates(&b, &c) {
            prop_assert!(dominates(&a, &c));
        }
    }

    #[test]
    fn filtered_frontiers_are_mutually_non_dominated(
        fs in prop::collection::vec(objective_vec(2), 1..40)
    ) {
        let pts: Vec<ParetoPoint> =
            fs.into_iter().map(|f| ParetoPoint::new(vec![0.0], f)).collect();
        let front = pareto_filter(pts.clone());
        prop_assert!(!front.is_empty());
        for a in &front {
            for b in &front {
                prop_assert!(!dominates(&a.f, &b.f));
            }
        }
        // Every input point is dominated by or equal to some frontier point.
        for p in &pts {
            prop_assert!(front.iter().any(|q| q.f == p.f || dominates(&q.f, &p.f)));
        }
    }

    #[test]
    fn pareto_filter_is_idempotent(
        fs in prop::collection::vec(objective_vec(2), 1..40)
    ) {
        let pts: Vec<ParetoPoint> =
            fs.into_iter().map(|f| ParetoPoint::new(vec![0.0], f)).collect();
        let once = pareto_filter(pts);
        let twice = pareto_filter(once.clone());
        // Filtering an already-filtered frontier must be a no-op.
        prop_assert_eq!(once.len(), twice.len());
        for (a, b) in once.iter().zip(&twice) {
            prop_assert_eq!(&a.f, &b.f);
        }
    }

    #[test]
    fn hypervolume_is_monotone_under_insertion(
        fs in prop::collection::vec(objective_vec(2), 1..20),
        extra in objective_vec(2)
    ) {
        let u = [0.0, 0.0];
        let n = [100.0, 100.0];
        let base = hypervolume(&fs, &u, &n);
        prop_assert!((0.0..=1.0).contains(&base), "fraction of the box: {base}");
        // Adding any point never shrinks the dominated volume...
        let mut grown = fs.clone();
        grown.push(extra.clone());
        let hv_grown = hypervolume(&grown, &u, &n);
        prop_assert!(hv_grown >= base - 1e-12, "{hv_grown} < {base}");
        // ...and adding a *dominated* point leaves it exactly unchanged.
        if fs.iter().any(|f| dominates(f, &extra) || f == &extra) {
            prop_assert!((hv_grown - base).abs() < 1e-12, "dominated insert changed hv");
        }
    }

    #[test]
    fn subdivision_never_gains_volume(
        fm in prop::collection::vec(0.0f64..1.0, 2..4usize)
    ) {
        let k = fm.len();
        let rect = Rect::new(vec![0.0; k], vec![1.0; k]);
        let cells = rect.subdivide(&fm);
        let total: f64 = cells.iter().map(Rect::volume).sum();
        prop_assert!(total <= rect.volume() + 1e-9);
        // The two discarded cells (dominated + empty) account for the gap.
        let discarded: f64 = fm.iter().product::<f64>()
            + fm.iter().map(|v| 1.0 - v).product::<f64>();
        prop_assert!((total + discarded - rect.volume()).abs() < 1e-9);
    }

    #[test]
    fn uncertain_space_is_a_fraction_and_shrinks_with_points(
        fs in prop::collection::vec(objective_vec(2), 1..20)
    ) {
        let u = [0.0, 0.0];
        let n = [100.0, 100.0];
        // Monotonicity is only guaranteed for accumulating *Pareto* sets:
        // a later point dominating an earlier one would invalidate the
        // earlier point's certainty claims. Use the filtered frontier.
        let nd: Vec<Vec<f64>> = udao_core::pareto::non_dominated_indices(&fs)
            .into_iter()
            .map(|i| fs[i].clone())
            .collect();
        let u1 = uncertain_space(&nd[..1], &u, &n);
        let u_all = uncertain_space(&nd, &u, &n);
        prop_assert!((0.0..=1.0).contains(&u_all), "fraction: {u_all}");
        prop_assert!(u_all <= u1 + 1e-9, "more points cannot increase uncertainty");
    }

    #[test]
    fn space_encode_decode_is_stable(
        execs in 2i64..=20,
        frac in 0.2f64..0.9,
        flag in any::<bool>(),
        cat in 0usize..3
    ) {
        let space = ParamSpace::new(vec![
            ParamSpec::integer("executors", 2, 20),
            ParamSpec::continuous("fraction", 0.2, 0.9),
            ParamSpec::boolean("compress"),
            ParamSpec::categorical("serializer", &["java", "kryo", "arrow"]),
        ]).unwrap();
        let c = Configuration::new(vec![
            ParamValue::Int(execs),
            ParamValue::Float(frac),
            ParamValue::Bool(flag),
            ParamValue::Cat(cat),
        ]);
        let x = space.encode(&c).unwrap();
        prop_assert!(x.iter().all(|v| (0.0..=1.0).contains(v)));
        let back = space.decode(&x).unwrap();
        // Integers, booleans and categoricals round-trip exactly; floats up
        // to codec precision.
        prop_assert_eq!(&back.values[0], &c.values[0]);
        prop_assert_eq!(&back.values[2], &c.values[2]);
        prop_assert_eq!(&back.values[3], &c.values[3]);
        match (&back.values[1], &c.values[1]) {
            (ParamValue::Float(a), ParamValue::Float(b)) => prop_assert!((a - b).abs() < 1e-9),
            _ => prop_assert!(false, "float knob changed kind"),
        }
    }

    #[test]
    fn snap_is_idempotent_for_any_point(x in prop::collection::vec(0.0f64..=1.0, 6)) {
        let space = ParamSpace::new(vec![
            ParamSpec::integer("a", 0, 7),
            ParamSpec::continuous("b", -1.0, 1.0),
            ParamSpec::boolean("c"),
            ParamSpec::categorical("d", &["x", "y", "z"]),
        ]).unwrap();
        let s1 = space.snap(&x).unwrap();
        let s2 = space.snap(&s1).unwrap();
        prop_assert_eq!(s1, s2);
    }

    #[test]
    fn simulator_latency_is_positive_and_cost_monotone(
        execs in 2i64..=29,
        cores in 1i64..=5,
        mem in 1i64..=32,
        parts in 8i64..=1000
    ) {
        use udao_sparksim::{simulate_batch, BatchConf, ClusterSpec, DataflowProgram};
        let conf = BatchConf {
            executor_instances: execs,
            executor_cores: cores,
            executor_memory_gb: mem,
            shuffle_partitions: parts,
            ..BatchConf::spark_default()
        };
        let m = simulate_batch(
            &DataflowProgram::tpcxbb_q2(2_000.0),
            &conf,
            &ClusterSpec::paper_cluster(),
            1,
        );
        prop_assert!(m.latency_s > 0.0);
        prop_assert!(m.cores <= (execs * cores) as f64 + 1e-9);
        prop_assert!(m.cpu_hours > 0.0);
        prop_assert!((0.0..=1.0).contains(&m.cpu_util));
    }

    // Stage-space codec: splitting a flat knob vector into (global,
    // per-stage) blocks and concatenating them back is a bitwise identity,
    // and the per-stage model input is exactly global ++ stage block.
    #[test]
    fn stage_space_split_concat_roundtrips_bitwise(
        n_stages in 1usize..5,
        global_dim in 0usize..3,
        stage_dim in 1usize..3,
        raw in prop::collection::vec(0.0f64..1.0, 16)
    ) {
        use udao_core::stage::StageSpace;
        let global = ParamSpace::new(
            (0..global_dim).map(|i| ParamSpec::continuous(format!("g{i}"), 0.0, 1.0)).collect(),
        ).unwrap();
        let stage = ParamSpace::new(
            (0..stage_dim).map(|i| ParamSpec::continuous(format!("s{i}"), 0.0, 1.0)).collect(),
        ).unwrap();
        let space = StageSpace::new(global, stage, n_stages).unwrap();
        let x = raw[..space.encoded_dim()].to_vec();
        let (g, stages) = space.split(&x).unwrap();
        prop_assert_eq!(g.len(), global_dim);
        prop_assert_eq!(stages.len(), n_stages);
        let back = space.concat(&g, &stages).unwrap();
        for (a, b) in x.iter().zip(&back) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (i, block) in stages.iter().enumerate() {
            let mut want = g.clone();
            want.extend_from_slice(block);
            let input = space.stage_input(&x, i).unwrap();
            prop_assert_eq!(input.len(), want.len());
            for (a, b) in input.iter().zip(&want) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // Writing a stage's own block back is a no-op on the flat vector.
        let mut rewritten = x.clone();
        for (i, block) in stages.iter().enumerate() {
            space.write_stage(&mut rewritten, i, block).unwrap();
        }
        space.write_global(&mut rewritten, &g).unwrap();
        prop_assert_eq!(&x, &rewritten);
    }

    // Composed-objective evaluation is *exactly* the DAG fold of
    // independent per-stage model evaluations — no hidden re-weighting,
    // for arbitrary DAGs, surfaces, and knob vectors.
    #[test]
    fn composed_objective_equals_fold_of_per_stage_evals(
        works in prop::collection::vec(0.1f64..4.0, 1..6),
        opts in prop::collection::vec(0.0f64..1.0, 6),
        knobs in prop::collection::vec(0.0f64..1.0, 7),
        dep_bits in 0u32..u32::MAX
    ) {
        use udao_core::objective::ObjectiveModel;
        use udao_core::stage::{Fold, StageDag};
        use udao_sparksim::stages::{StageFixture, StageSurface};
        let n = works.len();
        // A pseudo-random DAG: stage i depends on an arbitrary subset of
        // its predecessors (always acyclic by construction).
        let deps: Vec<Vec<usize>> = (0..n)
            .map(|i| (0..i).filter(|j| dep_bits >> (i * 3 + j) & 1 == 1).collect())
            .collect();
        let fx = StageFixture {
            dag: StageDag::new(deps).unwrap(),
            surfaces: works
                .iter()
                .zip(&opts)
                .map(|(&work, &knob_opt)| StageSurface { work, knob_opt })
                .collect(),
        };
        let space = fx.space();
        let x = knobs[..1 + n].to_vec();
        let (latency, cost) = fx.composed();
        for (composed, models, fold) in [
            (&latency, fx.latency_models(), Fold::CriticalPath),
            (&cost, fx.cost_models(), Fold::Sum),
        ] {
            let per_stage: Vec<f64> = (0..n)
                .map(|i| models[i].predict(&space.stage_input(&x, i).unwrap()))
                .collect();
            let vals = composed.stage_values(&x).unwrap();
            for (a, b) in vals.iter().zip(&per_stage) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            // Composed prediction is exactly the fold of per-stage evals.
            prop_assert_eq!(
                composed.predict(&x).to_bits(),
                fold.fold(&fx.dag, &per_stage).to_bits()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mogd_solutions_satisfy_their_constraints(
        cost_cap in 10.0f64..22.0
    ) {
        use std::sync::Arc;
        use udao_core::mogd::{Mogd, MogdConfig};
        use udao_core::objective::{FnModel, ObjectiveModel};
        use udao_core::solver::{Bound, CoProblem, CoSolver, MooProblem};
        let lat: Arc<dyn ObjectiveModel> =
            Arc::new(FnModel::new(2, |x| 100.0 + 200.0 * (1.0 - x[0]) + 30.0 * x[1]));
        let cost: Arc<dyn ObjectiveModel> =
            Arc::new(FnModel::new(2, |x| 8.0 + 16.0 * x[0] + 8.0 * x[1]));
        let p = MooProblem::new(2, vec![lat, cost]);
        let mogd = Mogd::new(MogdConfig::default());
        let co = CoProblem::constrained(0, vec![Bound::FREE, Bound::new(8.0, cost_cap)]);
        if let Some(sol) = mogd.solve(&p, &co).unwrap() {
            prop_assert!(sol.f[1] <= cost_cap + 0.05, "cost {} cap {}", sol.f[1], cost_cap);
            prop_assert!(sol.x.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    // Adversarial robustness: under models that randomly return NaN/∞,
    // MOGD and PF-AS must never panic, never report a non-finite
    // objective, and never step outside the unit hypercube. A typed
    // error (or an empty result) is acceptable; silent corruption is not.
    #[test]
    fn solvers_stay_finite_and_in_bounds_under_nan_injection(
        nan_rate in 0.05f64..0.5,
        seed in 0u64..u64::MAX
    ) {
        use std::sync::Arc;
        use udao_core::mogd::{Mogd, MogdConfig};
        use udao_core::objective::{FnModel, ObjectiveModel};
        use udao_core::pf::{PfOptions, PfVariant, ProgressiveFrontier};
        use udao_core::solver::{CoProblem, CoSolver, MooProblem};
        use udao_sparksim::{FaultConfig, FaultInjector};

        let inj = FaultInjector::new(FaultConfig { nan_rate, seed, ..Default::default() });
        let lat: Arc<dyn ObjectiveModel> =
            Arc::new(FnModel::new(2, |x| 1.0 / (0.1 + x[0]) + 0.3 * x[1]));
        let cost: Arc<dyn ObjectiveModel> = Arc::new(FnModel::new(2, |x| 1.0 + 9.0 * x[0]));
        let p = MooProblem::new(2, vec![inj.wrap(lat), inj.wrap(cost)]);

        let mogd = Mogd::new(MogdConfig { multistarts: 3, max_iters: 40, ..Default::default() });
        match mogd.solve(&p, &CoProblem::unconstrained(0, 2)) {
            Ok(Some(sol)) => {
                prop_assert!(sol.f.iter().all(|v| v.is_finite()), "{:?}", sol.f);
                prop_assert!(sol.x.iter().all(|v| (0.0..=1.0).contains(v)), "{:?}", sol.x);
            }
            Ok(None) | Err(_) => {}
        }

        let pf = ProgressiveFrontier::new(
            PfVariant::ApproxSequential,
            PfOptions {
                mogd: MogdConfig { multistarts: 3, max_iters: 40, ..Default::default() },
                max_probes: 32,
                ..Default::default()
            },
        );
        if let Ok(run) = pf.solve(&p, 5) {
            for pt in &run.frontier {
                prop_assert!(pt.f.iter().all(|v| v.is_finite()), "{:?}", pt.f);
                prop_assert!(pt.x.iter().all(|v| (0.0..=1.0).contains(v)), "{:?}", pt.x);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // DAG-ordered coordinate descent is invariant under topological-order
    // tie permutations: relabeling stages that share a topo depth (the
    // diamond's two middle stages) permutes the recommended knob vector
    // accordingly and leaves the predicted objectives bitwise unchanged.
    // Dyadic works/optima keep every block argmin on the exact lattice so
    // the comparison can be bitwise rather than tolerance-band.
    #[test]
    fn descent_is_invariant_under_topo_tie_permutations(
        wk in prop::collection::vec(1u32..=16, 4),
        ak in prop::collection::vec(0u32..=32, 4)
    ) {
        use udao::{Fold, StageMode, StageObjectiveSpec, StageRequest, Udao};
        use udao_core::stage::StageDag;
        use udao_sparksim::stages::{StageFixture, StageSurface};
        use udao_sparksim::ClusterSpec;
        let udao = Udao::builder(ClusterSpec::paper_cluster())
            .pf(
                udao_core::pf::PfVariant::ApproxSequential,
                udao_core::pf::PfOptions {
                    mogd: udao_core::mogd::MogdConfig {
                        multistarts: 4,
                        max_iters: 60,
                        ..Default::default()
                    },
                    exact_resolution: 33,
                    ..Default::default()
                },
            )
            .build()
            .unwrap();
        let surf =
            |i: usize| StageSurface { work: wk[i] as f64 / 4.0, knob_opt: ak[i] as f64 / 32.0 };
        // Diamond A and its tie-permuted twin B: stages 1 and 2 share topo
        // depth 1, so swapping their labels is a pure tie permutation.
        let diamond = || StageDag::new(vec![vec![], vec![0], vec![0], vec![1, 2]]).unwrap();
        let fx_a = StageFixture {
            dag: diamond(),
            surfaces: vec![surf(0), surf(1), surf(2), surf(3)],
        };
        let fx_b = StageFixture {
            dag: diamond(),
            surfaces: vec![surf(0), surf(2), surf(1), surf(3)],
        };
        let solve = |fx: &StageFixture| {
            let request = StageRequest::new("tie-perm", fx.dag.clone(), fx.space())
                .objective(StageObjectiveSpec::analytic(
                    "latency",
                    Fold::CriticalPath,
                    fx.latency_models(),
                ))
                .objective(StageObjectiveSpec::analytic("cost", Fold::Sum, fx.cost_models()))
                .points(5)
                .mode(StageMode::Descent);
            udao.recommend_stages(&request).unwrap()
        };
        let rec_a = solve(&fx_a);
        let rec_b = solve(&fx_b);
        for (a, b) in rec_a.predicted.iter().zip(&rec_b.predicted) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        // x layout: [global, v0, v1, v2, v3] — B's middle knobs are A's,
        // swapped; everything else is identical.
        let mut permuted = rec_a.x.clone();
        permuted.swap(2, 3);
        prop_assert_eq!(rec_b.x.len(), permuted.len());
        for (a, b) in permuted.iter().zip(&rec_b.x) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
