//! Closed-form stage-truth suite for the per-stage tuning subsystem.
//!
//! The fixtures in `udao_sparksim::stages` are built so every composed
//! optimum is known analytically and lies on the exact solver's dyadic
//! lattice (see the module docs there): per-stage latency/cost surfaces
//! `w_i·(1+(1-u)²)·(1+(v-a_i)²)` / `w_i·(1+u²)·(1+(v-a_i)²)` compose to a
//! front swept purely by the global knob once every stage knob sits at its
//! optimum `a_i`. That lets this suite assert *bitwise* recovery, not
//! tolerance-band agreement:
//!
//! * the DAG-ordered coordinate descent recovers the exact composed
//!   optimum on a 2-stage chain, a diamond, and a fan-in join;
//! * no frontier point ever falls below the closed-form front (the front
//!   identity `√(L/CP−1) + √(C/S−1) = 1` holds to float precision);
//! * the best single global configuration is provably dominated on a
//!   heterogeneous DAG, at every sweep weight;
//! * per-stage requests served through the [`ServingEngine`] are
//!   bitwise-equal to serial solves;
//! * frontier-cache entries under stage-shaped keys never serve a
//!   differently-shaped DAG's frontier.

use std::sync::Arc;
use std::time::Duration;
use udao::{
    Fold, ServingEngine, ServingOptions, StageMode, StageObjectiveSpec, StageRequest, Udao,
};
use udao_core::budget::Budget;
use udao_core::pareto::dominates;
use udao_sparksim::objectives::BatchObjective;
use udao_sparksim::{ClusterSpec, StageFixture};

/// The sweep grid of a 5-point request: λ = t/4, all on the dyadic lattice.
const LAMBDAS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// 33 lattice levels → the dyadic `j/32` grid that contains every fixture
/// optimum, so block solves recover per-stage optima bitwise.
fn exact_udao(cache: Option<usize>) -> Udao {
    let mut builder = Udao::builder(ClusterSpec::paper_cluster()).pf(
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
    );
    if let Some(capacity) = cache {
        builder = builder.frontier_cache(capacity);
    }
    builder.build().expect("stage-truth options are valid")
}

fn stage_request(workload: &str, fx: &StageFixture, mode: StageMode) -> StageRequest {
    StageRequest::new(workload, fx.dag.clone(), fx.space())
        .objective(StageObjectiveSpec::analytic(
            "latency",
            Fold::CriticalPath,
            fx.latency_models(),
        ))
        .objective(StageObjectiveSpec::analytic("cost", Fold::Sum, fx.cost_models()))
        .points(LAMBDAS.len())
        .mode(mode)
}

/// Closed-form composed optima are recovered exactly: on every fixture the
/// recommended configuration is bitwise `[0.5, a_0, …, a_n]` (utopia-
/// nearest over the λ grid picks λ = ½), the predicted values are the
/// analytic front values, and the frontier contains the exact front point
/// of every sweep weight.
#[test]
fn descent_recovers_exact_composed_optima_on_all_fixtures() {
    let udao = exact_udao(None);
    for (name, fx) in [
        ("chain2", StageFixture::chain2()),
        ("diamond", StageFixture::diamond()),
        ("fanin_join", StageFixture::fanin_join()),
    ] {
        let rec = udao
            .recommend_stages(&stage_request(name, &fx, StageMode::Descent))
            .unwrap_or_else(|e| panic!("{name}: descent solve failed: {e}"));
        assert_eq!(rec.x, fx.front_config(0.5), "{name}: composed optimum, bitwise");
        assert_eq!(
            rec.predicted,
            vec![fx.ideal_latency(0.5), fx.ideal_cost(0.5)],
            "{name}: analytic front values, bitwise"
        );
        assert!(!rec.degraded, "{name}: clean primary solve");
        for lambda in LAMBDAS {
            let want = [fx.ideal_latency(lambda), fx.ideal_cost(lambda)];
            assert!(
                rec.frontier.iter().any(|p| p.f == want),
                "{name}: frontier misses the exact front point at λ={lambda}"
            );
        }
        assert_eq!(rec.report.stages_tuned, fx.len() as u64, "{name}: telemetry");
        assert!(rec.report.stage_descent_rounds > 0, "{name}: descent rounds recorded");
    }
}

/// Never below the front: the front identity `√(L/CP−1) + √(C/S−1)`
/// equals exactly 1 on the analytic 2-D front and exceeds it above; no
/// frontier point of either solve mode may undercut it.
#[test]
fn no_frontier_point_falls_below_the_closed_form_front() {
    let udao = exact_udao(None);
    for fx in [StageFixture::chain2(), StageFixture::diamond(), StageFixture::fanin_join()] {
        for mode in [StageMode::Descent, StageMode::Joint] {
            let rec = udao
                .recommend_stages(&stage_request("front-floor", &fx, mode))
                .expect("solve succeeds");
            for p in &rec.frontier {
                let residual = fx.front_residual(p.f[0], p.f[1]);
                assert!(
                    residual >= 1.0 - 1e-9,
                    "point {:?} sits below the closed-form front (residual {residual})",
                    p.f
                );
                if mode == StageMode::Descent {
                    // The descent frontier is not merely above the front —
                    // it is *on* it, to float precision.
                    assert!(
                        (residual - 1.0).abs() <= 1e-9,
                        "descent point {:?} strayed off the front (residual {residual})",
                        p.f
                    );
                }
            }
        }
    }
}

/// One-global-config is provably dominated on a heterogeneous DAG: at
/// every sweep weight, the best configuration with a single shared stage
/// knob (exhaustive lattice sweep) is dominated by the per-stage front
/// point, and the summed-cost gap meets the analytic `1 + Var_w(a)`
/// margin.
#[test]
fn one_global_config_is_dominated_on_a_heterogeneous_dag() {
    let fx = StageFixture::diamond();
    let udao = exact_udao(None);
    let rec = udao
        .recommend_stages(&stage_request("one-global", &fx, StageMode::Descent))
        .expect("descent solve succeeds");
    let (latency, cost) = fx.composed();
    use udao_core::objective::ObjectiveModel;
    let resolution = 33;
    for lambda in LAMBDAS {
        // Best single global configuration at this cluster knob: sweep the
        // one shared stage knob over the full lattice.
        let mut best = (f64::INFINITY, f64::INFINITY);
        for iv in 0..resolution {
            let v = iv as f64 / (resolution - 1) as f64;
            let mut x = vec![lambda];
            x.extend(std::iter::repeat(v).take(fx.len()));
            let f = (latency.predict(&x), cost.predict(&x));
            if f.1 < best.1 || (f.1 == best.1 && f.0 < best.0) {
                best = f;
            }
        }
        let front = [fx.ideal_latency(lambda), fx.ideal_cost(lambda)];
        assert!(
            dominates(&front, &[best.0, best.1]),
            "λ={lambda}: per-stage front {front:?} must dominate one-global-config {best:?}"
        );
        assert!(
            best.1 >= front[1] * fx.global_config_margin() * (1.0 - 1e-9),
            "λ={lambda}: cost gap {} below the analytic margin {}",
            best.1 / front[1],
            fx.global_config_margin()
        );
    }
    // The per-stage solve actually achieved those dominating points.
    let cost_min = rec.frontier.iter().map(|p| p.f[1]).fold(f64::INFINITY, f64::min);
    assert_eq!(cost_min, fx.total_work(), "per-stage cost floor is exactly S");
}

/// Per-stage requests through the serving engine are bitwise-equal to
/// serial solves: same configuration, predictions, and frontier,
/// regardless of worker count or scheduling.
#[test]
fn engine_per_stage_solves_are_bitwise_equal_to_serial() {
    let udao = Arc::new(exact_udao(None));
    let fx = StageFixture::diamond();
    let serial = udao
        .recommend_stages(&stage_request("engine-eq", &fx, StageMode::Descent))
        .expect("serial solve succeeds");
    let engine: ServingEngine<BatchObjective> = ServingEngine::start_with(
        Arc::clone(&udao),
        ServingOptions::default().with_workers(3),
    );
    for _ in 0..4 {
        let served = engine
            .solve_stages(stage_request("engine-eq", &fx, StageMode::Descent))
            .expect("engine solve succeeds");
        assert_eq!(served.x, serial.x, "configuration, bitwise");
        assert_eq!(served.predicted, serial.predicted, "predictions, bitwise");
        assert_eq!(served.frontier.len(), serial.frontier.len(), "frontier size");
        for (a, b) in served.frontier.iter().zip(&serial.frontier) {
            assert_eq!(a.f, b.f, "frontier objective vectors, bitwise");
            assert_eq!(a.x, b.x, "frontier configurations, bitwise");
        }
        // The engine stamped its scheduling decisions into the report.
        assert!(served.report.class.is_some(), "served report names its class");
    }
}

/// Stage-shaped cache keys partition the cache: an exact repeat is served
/// from the cached frontier, but a differently-shaped DAG under the same
/// workload id, objectives, and point budget never sees it.
#[test]
fn stage_shaped_cache_keys_never_serve_a_different_dag() {
    let udao = exact_udao(Some(16));
    let cache = udao.frontier_cache().expect("cache enabled").clone();
    let diamond = StageFixture::diamond();
    let fanin = StageFixture::fanin_join();
    // Same workload id, same objective names, same constraints and points:
    // the only difference between the two requests is the DAG shape.
    let cold = udao
        .recommend_stages(&stage_request("shared-wl", &diamond, StageMode::Descent))
        .expect("cold diamond solve");
    assert_eq!(cold.report.cache_misses, 1, "cold solve misses");
    assert_eq!(cache.len(), 1, "cold solve inserted its frontier");
    let hit = udao
        .recommend_stages(&stage_request("shared-wl", &diamond, StageMode::Descent))
        .expect("repeat diamond solve");
    assert_eq!(hit.report.cache_served, 1, "exact repeat is served from the cache");
    assert_eq!(hit.x, cold.x, "cache-served recommendation is bitwise-equal");
    assert_eq!(hit.predicted, cold.predicted, "cache-served predictions are bitwise-equal");
    let other = udao
        .recommend_stages(&stage_request("shared-wl", &fanin, StageMode::Descent))
        .expect("fan-in solve");
    assert_eq!(
        other.report.cache_served, 0,
        "a differently-shaped DAG must not be served the diamond frontier"
    );
    assert_eq!(other.report.cache_misses, 1, "different shape is a miss");
    assert_eq!(cache.len(), 2, "shapes occupy separate entries");
    // And it solved its *own* problem exactly, not the diamond's.
    assert_eq!(other.x, fanin.front_config(0.5), "fan-in optimum recovered, bitwise");
    // Joint and decomposed solves of the same DAG are separate entries
    // too (their frontiers differ by construction).
    let joint = udao
        .recommend_stages(&stage_request("shared-wl", &diamond, StageMode::Joint))
        .expect("joint diamond solve");
    assert_eq!(joint.report.cache_served, 0, "mode is part of the shape");
    assert_eq!(cache.len(), 3, "joint mode occupies its own entry");
    // A near repeat (same shape and bounds, another point budget)
    // warm-starts a joint solve from its cached entry; the decomposed
    // solver restarts every block from the midpoint by design, so the same
    // near repeat in descent mode is a miss.
    let near = |mode| stage_request("shared-wl", &diamond, mode).points(LAMBDAS.len() - 1);
    let joint_near = udao.recommend_stages(&near(StageMode::Joint)).expect("joint near repeat");
    assert_eq!(joint_near.report.cache_warm_starts, 1, "joint near repeat warm-starts");
    assert_eq!(joint_near.report.cache_misses, 0);
    let descent_near =
        udao.recommend_stages(&near(StageMode::Descent)).expect("descent near repeat");
    assert_eq!(descent_near.report.cache_warm_starts, 0, "descent never warm-starts");
    assert_eq!(descent_near.report.cache_misses, 1, "descent near repeat is a miss");
    // Stage reports carry the shared spans under the paths perfbench reads.
    for rec in [&cold, &joint_near, &descent_near] {
        for path in ["recommend/models", "recommend/moo", "recommend/snap"] {
            assert!(
                rec.report.stages.iter().any(|t| t.path == path && t.count > 0),
                "stage report lacks span {path}: {:?}",
                rec.report.stages
            );
        }
    }
}

/// A single-stage DAG degenerates cleanly: the composed problem is the
/// stage's own surface and descent still recovers its exact optimum.
#[test]
fn single_stage_dag_degenerates_to_plain_tuning() {
    let fx = StageFixture {
        dag: udao::StageDag::chain(1),
        surfaces: vec![udao_sparksim::stages::StageSurface { work: 2.0, knob_opt: 0.75 }],
    };
    let udao = exact_udao(None);
    let rec = udao
        .recommend_stages(&stage_request("single", &fx, StageMode::Descent))
        .expect("single-stage solve succeeds");
    assert_eq!(rec.x, fx.front_config(0.5), "single-stage optimum, bitwise");
    assert_eq!(rec.report.stages_tuned, 1);
    assert_eq!(rec.report.stage_attribution.len(), 1);
}

/// An already-expired budget degrades gracefully: the solve still answers
/// (from the anchor candidates) and is marked degraded, never panics or
/// hangs.
#[test]
fn expired_budget_degrades_instead_of_failing() {
    let udao = exact_udao(None);
    let fx = StageFixture::chain2();
    let rec = udao
        .recommend_stages_within(
            &stage_request("expired", &fx, StageMode::Descent),
            Budget::new(Duration::ZERO),
        )
        .expect("expired-budget solve still answers");
    assert!(rec.degraded, "truncated sweep must be marked degraded");
    assert!(rec.predicted.iter().all(|v| v.is_finite()), "answer is finite");
}
