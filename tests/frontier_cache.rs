//! Cross-request frontier cache: exact hits serve the cached Pareto
//! frontier without touching the solvers, near hits warm-start MOGD and
//! resume PF probing from the cached uncertain space while matching cold
//! frontier quality, and a hot-swap makes every cached entry for the
//! retired weights unreachable on the very next request.

use udao::{BatchRequest, ModelFamily, Udao, UdaoBuilder};
use udao_core::pareto::hypervolume;
use udao_model::dataset::Dataset;
use udao_model::server::ModelKey;
use udao_sparksim::objectives::BatchObjective;
use udao_sparksim::{batch_workloads, ClusterSpec, Workload};

fn quick_pf() -> (udao_core::pf::PfVariant, udao_core::pf::PfOptions) {
    (
        udao_core::pf::PfVariant::ApproxSequential,
        udao_core::pf::PfOptions {
            mogd: udao_core::mogd::MogdConfig { multistarts: 2, max_iters: 25, ..Default::default() },
            max_probes: 4,
            ..Default::default()
        },
    )
}

fn cached_builder(capacity: usize) -> UdaoBuilder {
    let (variant, options) = quick_pf();
    Udao::builder(ClusterSpec::paper_cluster()).pf(variant, options).frontier_cache(capacity)
}

fn q2() -> Workload {
    batch_workloads().into_iter().find(|w| w.id == "q2-v0").expect("q2-v0 exists")
}

fn q2_request(points: usize) -> BatchRequest {
    BatchRequest::new("q2-v0")
        .objective(BatchObjective::Latency)
        .objective(BatchObjective::CostCores)
        .points(points)
}

/// Normalized hypervolume of a recommendation's frontier against shared
/// reference bounds, so two frontiers are comparable on one scale.
fn frontier_hv(frontier: &[udao_core::pareto::ParetoPoint], utopia: &[f64], nadir: &[f64]) -> f64 {
    let fs: Vec<Vec<f64>> = frontier.iter().map(|p| p.f.clone()).collect();
    hypervolume(&fs, utopia, nadir)
}

/// Elementwise (utopia, nadir) envelope over both frontiers, padded so no
/// point sits exactly on the reference boundary.
fn joint_bounds(
    a: &[udao_core::pareto::ParetoPoint],
    b: &[udao_core::pareto::ParetoPoint],
) -> (Vec<f64>, Vec<f64>) {
    let k = a[0].f.len();
    let mut utopia = vec![f64::INFINITY; k];
    let mut nadir = vec![f64::NEG_INFINITY; k];
    for p in a.iter().chain(b) {
        for (j, v) in p.f.iter().enumerate() {
            utopia[j] = utopia[j].min(*v);
            nadir[j] = nadir[j].max(*v);
        }
    }
    for j in 0..k {
        let pad = (nadir[j] - utopia[j]).abs().max(1e-9) * 0.05;
        utopia[j] -= pad;
        nadir[j] += pad;
    }
    (utopia, nadir)
}

/// An identical repeat request is served straight from the cache: the
/// frontier comes back bitwise identical, with zero PF probes and zero
/// model inferences, and the solve report says so.
#[test]
fn exact_hit_serves_the_cached_frontier_without_solving() {
    let udao = cached_builder(32).build().expect("valid options");
    let w = q2();
    udao.train_batch(&w, 40, ModelFamily::Gp, &[BatchObjective::Latency]);

    let first = udao.recommend(&q2_request(4)).expect("cold solve");
    assert_eq!(first.report.cache_served, 0);
    assert_eq!(first.report.cache_warm_starts, 0);
    assert_eq!(first.report.cache_misses, 1, "an enabled cache counts the cold miss");
    assert!(first.probes > 0, "the cold solve actually ran PF");
    let cache = udao.frontier_cache().expect("cache enabled");
    assert_eq!(cache.len(), 1, "the successful primary solve populated the cache");

    let second = udao.recommend(&q2_request(4)).expect("cached solve");
    assert_eq!(second.report.cache_served, 1, "identical request is an exact hit");
    assert_eq!(second.report.cache_misses, 0);
    assert_eq!(second.probes, 0, "a served frontier spends no PF probes");
    assert_eq!(second.report.pf_probes, 0);
    assert_eq!(second.report.mogd_iterations, 0, "no descent on the cached path");
    assert!(!second.degraded);
    assert_eq!(second.frontier.len(), first.frontier.len());
    for (a, b) in first.frontier.iter().zip(&second.frontier) {
        for (va, vb) in a.x.iter().zip(&b.x) {
            assert_eq!(va.to_bits(), vb.to_bits(), "cached frontier configs differ");
        }
        for (va, vb) in a.f.iter().zip(&b.f) {
            assert_eq!(va.to_bits(), vb.to_bits(), "cached frontier objectives differ");
        }
    }
    for (a, b) in first.predicted.iter().zip(&second.predicted) {
        assert_eq!(a.to_bits(), b.to_bits(), "selection from the cached frontier differs");
    }
    assert_eq!(cache.len(), 1, "a hit does not duplicate the entry");
}

/// Weights select from the cached frontier per request: two requests that
/// differ only in preference weights share one cache entry, and the second
/// is served — with its own (possibly different) selection.
#[test]
fn differing_weights_share_one_entry_and_reselect() {
    let udao = cached_builder(32).build().expect("valid options");
    let w = q2();
    udao.train_batch(&w, 40, ModelFamily::Gp, &[BatchObjective::Latency]);

    let lat_heavy =
        udao.recommend(&q2_request(4).weights(vec![0.95, 0.05])).expect("cold solve");
    let cost_heavy =
        udao.recommend(&q2_request(4).weights(vec![0.05, 0.95])).expect("served solve");
    assert_eq!(lat_heavy.report.cache_served, 0);
    assert_eq!(cost_heavy.report.cache_served, 1, "weights are not part of the cache key");
    assert_eq!(udao.frontier_cache().expect("enabled").len(), 1);
    // Both selections come from the same frontier; the latency-heavy
    // request must not predict worse latency than the cost-heavy one.
    assert!(
        lat_heavy.predicted[0] <= cost_heavy.predicted[0] + 1e-9,
        "weighted reselection ignored the preference: {:?} vs {:?}",
        lat_heavy.predicted,
        cost_heavy.predicted
    );
}

/// A near hit (same workload/objectives/constraint cell, different point
/// count) warm-starts MOGD from the cached Pareto configs and resumes PF
/// from the cached uncertain rectangles — and still lands on a frontier
/// whose hypervolume is within 2% of a cold solve on identical weights.
#[test]
fn warm_started_near_hit_matches_cold_frontier_quality() {
    let w = q2();
    let cached = cached_builder(32).build().expect("valid options");
    cached.train_batch(&w, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
    // An identically-seeded control instance: everything is deterministic,
    // so its cold solve is exactly what the cached instance would have
    // produced without the cache.
    let (variant, options) = quick_pf();
    let control = Udao::builder(ClusterSpec::paper_cluster())
        .pf(variant, options)
        .build()
        .expect("valid options");
    control.train_batch(&w, 40, ModelFamily::Gp, &[BatchObjective::Latency]);

    let seeded = cached.recommend(&q2_request(6)).expect("cold solve populates cache");
    assert_eq!(seeded.report.cache_misses, 1);

    let warm = cached.recommend(&q2_request(5)).expect("warm-started solve");
    assert_eq!(warm.report.cache_warm_starts, 1, "different point count is a near hit");
    assert_eq!(warm.report.cache_served, 0, "near hits still solve");
    assert!(warm.probes > 0, "the warm start resumes probing, not serving");

    let cold = control.recommend(&q2_request(5)).expect("cold control solve");
    assert_eq!(cold.report.cache_served + cold.report.cache_warm_starts, 0);

    assert!(!warm.frontier.is_empty() && !cold.frontier.is_empty());
    let (utopia, nadir) = joint_bounds(&warm.frontier, &cold.frontier);
    let hv_warm = frontier_hv(&warm.frontier, &utopia, &nadir);
    let hv_cold = frontier_hv(&cold.frontier, &utopia, &nadir);
    assert!(hv_cold > 0.0);
    let ratio = hv_warm / hv_cold;
    assert!(
        ratio >= 0.98,
        "warm-started frontier lost more than 2% hypervolume: warm {hv_warm} vs cold {hv_cold}"
    );
}

/// Model versions are pinned into the cache key: a hot-swap makes every
/// entry built on the retired weights unreachable, so the next request
/// re-solves against the new version and re-populates — it can never be
/// served a frontier computed from retired weights.
#[test]
fn hot_swap_makes_cached_frontiers_unreachable() {
    let udao = cached_builder(32).build().expect("valid options");
    let w = q2();
    udao.train_batch(&w, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
    let server = udao.shared_model_server();
    let key = ModelKey::new("q2-v0", "latency");
    assert_eq!(server.current_version(&key), 1);

    let v1 = udao.recommend(&q2_request(4)).expect("solve at v1");
    assert_eq!(v1.report.model_versions, vec![("latency".to_string(), 1)]);
    assert_eq!(udao.recommend(&q2_request(4)).expect("served at v1").report.cache_served, 1);

    // Hot-swap: an (empty) forced retrain republishes and bumps the version.
    assert!(server.retrain_now(&key, &Dataset::default()), "forced retrain publishes");
    assert_eq!(server.current_version(&key), 2);

    let v2 = udao.recommend(&q2_request(4)).expect("solve at v2");
    assert_eq!(v2.report.cache_served, 0, "retired-weight frontier must not be served");
    assert_eq!(v2.report.cache_misses, 1);
    assert_eq!(v2.report.model_versions, vec![("latency".to_string(), 2)]);

    // The v1 entry is unreachable but still resident; the idle prune
    // reclaims it against the registry's current versions.
    let cache = udao.frontier_cache().expect("cache enabled");
    assert_eq!(cache.len(), 2, "stale v1 entry plus fresh v2 entry");
    assert!(udao.prune_idle() >= 1, "prune reclaims the stale entry");
    assert_eq!(cache.len(), 1, "only the current-version entry survives");
    assert_eq!(udao.recommend(&q2_request(4)).expect("served at v2").report.cache_served, 1);
}

/// Degenerate capacities are rejected at build time, and a cacheless build
/// reports no cache activity at all.
#[test]
fn zero_capacity_is_rejected_and_cacheless_builds_stay_silent() {
    assert!(
        Udao::builder(ClusterSpec::paper_cluster()).frontier_cache(0).build().is_err(),
        "capacity 0 must be an InvalidConfig error"
    );
    let (variant, options) = quick_pf();
    let udao = Udao::builder(ClusterSpec::paper_cluster())
        .pf(variant, options)
        .build()
        .expect("valid options");
    assert!(udao.frontier_cache().is_none());
    let w = q2();
    udao.train_batch(&w, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
    let rec = udao.recommend(&q2_request(4)).expect("solve");
    let total =
        rec.report.cache_served + rec.report.cache_warm_starts + rec.report.cache_misses;
    assert_eq!(total, 0, "a cacheless instance never counts cache traffic");
}

/// The `[lo, hi)` span of the quantized constraint cell holding `v`: every
/// bound inside it lands on the same `FrontierKey`.
fn region_cell_span(v: f64) -> (f64, f64) {
    let keep = 52 - udao::frontier_cache::REGION_MANTISSA_BITS;
    let lo = v.to_bits() & !((1u64 << keep) - 1);
    (f64::from_bits(lo), f64::from_bits(lo + (1u64 << keep)))
}

/// A near hit whose bound is tighter than the cached request's must not
/// leak cached points outside the new bound: the seed frontier is filtered
/// against the new request before the warm-started run resumes from it, so
/// every point of the response's frontier satisfies *this* request.
#[test]
fn near_hit_frontier_respects_the_tighter_bound() {
    let udao = cached_builder(32).build().expect("valid options");
    let w = q2();
    udao.train_batch(&w, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
    let bounded = |hi: f64| {
        BatchRequest::new("q2-v0")
            .objective_bounded(BatchObjective::Latency, 0.0, hi)
            .objective(BatchObjective::CostCores)
            .points(6)
    };
    // Place both bounds in the quantization cell of a mid-frontier latency:
    // `loose` at the top of the cell, `tight` at its bottom.
    let free = udao.recommend(&q2_request(6)).expect("unbounded solve");
    let mut latencies: Vec<f64> = free.frontier.iter().map(|p| p.f[0]).collect();
    latencies.sort_by(f64::total_cmp);
    let (cell_lo, cell_hi) = region_cell_span(latencies[latencies.len() / 2]);
    let loose = cell_lo + 0.999 * (cell_hi - cell_lo);
    let tight = cell_lo + 0.001 * (cell_hi - cell_lo);

    let cached = udao.recommend(&bounded(loose)).expect("loose-bound solve");
    assert_eq!(cached.report.cache_misses, 1, "a new constraint cell is a miss");
    let slack = |hi: f64| udao_core::mogd::MogdConfig::default().tol * hi;
    let cut = cached.frontier.iter().filter(|p| p.f[0] > tight + slack(tight)).count();
    assert!(cut > 0, "the cached frontier must hold points the tight bound cuts off");
    assert!(cut < cached.frontier.len(), "and points it keeps, so the near hit warm-starts");

    let near = udao.recommend(&bounded(tight)).expect("tight-bound solve");
    assert_eq!(near.report.cache_warm_starts, 1, "same cell, different bound: a near hit");
    for p in &near.frontier {
        assert!(
            p.f[0] <= tight + slack(tight),
            "frontier point at latency {} leaks past the bound {tight}",
            p.f[0]
        );
    }
    assert!(near.predicted[0] <= tight + slack(tight), "the recommendation is within the bound");
}
