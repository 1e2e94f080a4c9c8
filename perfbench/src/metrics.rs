//! Checks and metrics computed from a phase's outcomes.

use crate::measure::{Answer, Fail, Outcome, Phase};
use crate::plan::{Call, Item, Origin, Plan, Target};
use crate::tracing::{tracer, Method};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use udao::Priority;
use udao_sparksim::{simulate_batch, simulate_streaming, ClusterSpec};
use udao_telemetry::names;

/// Relative slack for the bound and utopia checks: float noise only.
const TOL: f64 = 1e-9;

/// Ordered metric name → (value, unit).
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Nearest-rank percentile; 0 for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

fn mean(sum: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn le(a: f64, b: f64) -> bool {
    a <= b + TOL * b.abs().max(1.0)
}

/// What is wrong with an answer, by the rules every response must meet.
#[derive(Default, Debug, Clone, Copy)]
pub struct Violations {
    /// A frontier point or the recommended point outside the request's bounds.
    pub bound: bool,
    /// A frontier point or the recommended point below the reported utopia.
    pub utopia: bool,
    /// A stale model version served, or more than one version pinned per key.
    pub stale: bool,
}

/// Bounds apply to every frontier point and to the recommended point. The
/// utopia check covers the frontier points only: they and the utopia hold
/// the solver's conservative estimate (mean + α·std), while the recommended
/// point's `predicted` is the plain mean at the snapped configuration, which
/// sits below that estimate by construction.
pub fn check(item: &Item, a: &Answer) -> Violations {
    let mut v = Violations::default();
    for f in a.frontier.iter().chain(std::iter::once(&a.predicted)) {
        for (i, c) in item.constraints().iter().enumerate() {
            if let (Some((lo, hi)), Some(&fi)) = (c, f.get(i)) {
                v.bound |= !(le(*lo, fi) && le(fi, *hi));
            }
        }
    }
    for f in &a.frontier {
        for (u, fi) in a.utopia.iter().zip(f) {
            v.utopia |= !le(*u, *fi);
        }
    }
    let mut keys: Vec<&str> = a
        .report
        .model_versions
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    keys.sort_unstable();
    let pinned = keys.len();
    keys.dedup();
    v.stale = a.report.stale_served > 0 || keys.len() != pinned;
    v
}

/// 2-D hypervolume of `frontier` inside `bx`, as a share of the box.
pub fn hypervolume(frontier: &[Vec<f64>], bx: &[(f64, f64); 2]) -> f64 {
    let norm = |v: f64, (lo, hi): (f64, f64)| ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
    let mut pts: Vec<(f64, f64)> = frontier
        .iter()
        .map(|f| (norm(f[0], bx[0]), norm(f[1], bx[1])))
        .collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut area = 0.0;
    let mut best_y = 1.0f64;
    for (i, &(x, y)) in pts.iter().enumerate() {
        best_y = best_y.min(y);
        let next_x = pts.get(i + 1).map_or(1.0, |p| p.0);
        area += (next_x - x) * (1.0 - best_y);
    }
    area
}

/// Weighted distance of the simulated (latency, cost) of the recommended
/// configuration from the box's utopia corner, each objective normalized
/// into the box and clipped to it (a configuration worse than the median
/// training trace sits on the box's far edge); 0 is best, 1 the far corner.
pub fn rec_score(target: &Target, item: &Item, a: &Answer, cluster: &ClusterSpec) -> Option<f64> {
    let seed = target.workload.seed;
    let (latency, cost) = if let Some(conf) = &a.batch_conf {
        let m = simulate_batch(target.workload.batch_program()?, conf, cluster, seed);
        (m.latency_s, m.cores)
    } else {
        let m = simulate_streaming(
            target.workload.stream_query()?,
            a.stream_conf.as_ref()?,
            cluster,
            seed,
        );
        (m.latency_s, m.cores)
    };
    let bx = target.quality_box();
    let w = item
        .weights()
        .map(|w| w.to_vec())
        .unwrap_or_else(|| vec![0.5, 0.5]);
    let total: f64 = w.iter().sum();
    let d2: f64 = [latency, cost]
        .iter()
        .zip(bx.iter())
        .zip(w.iter())
        .map(|((v, (lo, hi)), wi)| {
            let n = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
            wi / total * n * n
        })
        .sum();
    Some(d2.sqrt())
}

/// Per-request accounting shared by both metric sets.
pub struct Tally<'a> {
    pub attempted: usize,
    pub failed: usize,
    pub fails: BTreeMap<&'static str, usize>,
    pub answered: Vec<(&'a Item, &'a Outcome, &'a Answer)>,
}

pub fn tally<'a>(phase: &'a Phase, items: &HashMap<usize, &'a Item>) -> Result<Tally<'a>, String> {
    let mut fails: BTreeMap<&'static str, usize> = [
        "fail.infeasible",
        "fail.shed",
        "fail.timeout",
        "fail.other",
        "fail.bound_violation",
        "fail.utopia_violation",
        "fail.stale",
    ]
    .into_iter()
    .map(|k| (k, 0))
    .collect();
    let mut failed = 0;
    let mut answered = Vec::new();
    for o in &phase.outcomes {
        let item = *items
            .get(&o.id)
            .ok_or_else(|| format!("response for unknown request {}", o.id))?;
        let mut kinds: Vec<&'static str> = Vec::new();
        match &o.result {
            Err(f) => kinds.push(match f {
                Fail::Infeasible => "fail.infeasible",
                Fail::Shed => "fail.shed",
                Fail::Timeout => "fail.timeout",
                Fail::Other(msg) => {
                    eprintln!("request {} failed: {msg}", o.id);
                    "fail.other"
                }
            }),
            Ok(a) => {
                let v = check(item, a);
                for (hit, kind) in [
                    (v.bound, "fail.bound_violation"),
                    (v.utopia, "fail.utopia_violation"),
                    (v.stale, "fail.stale"),
                ] {
                    if hit {
                        kinds.push(kind);
                    }
                }
                answered.push((item, o, a));
            }
        }
        failed += usize::from(!kinds.is_empty());
        for kind in kinds {
            *fails.get_mut(kind).expect("known failure kind") += 1;
        }
    }
    Ok(Tally {
        attempted: phase.outcomes.len(),
        failed,
        fails,
        answered,
    })
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced phase.
pub fn end_to_end(
    phase: &Phase,
    t: &Tally,
    items: &HashMap<usize, &Item>,
    targets: &[Target],
    cluster: &ClusterSpec,
    setup_s: f64,
) -> Metrics {
    let lat_ms: Vec<f64> = phase.outcomes.iter().map(|o| o.latency_s * 1e3).collect();
    let interactive_ms: Vec<f64> = phase
        .outcomes
        .iter()
        .filter(|o| items[&o.id].priority() == Priority::Interactive)
        .map(|o| o.latency_s * 1e3)
        .collect();
    let mut hv = Vec::new();
    let mut score = Vec::new();
    for (item, _, a) in &t.answered {
        let Some(target) = item.target.map(|i| &targets[i]) else {
            continue;
        };
        hv.push(hypervolume(&a.frontier, &target.quality_box()));
        if let Some(s) = rec_score(target, item, a, cluster) {
            score.push(s);
        }
    }
    let mut m = Metrics::new();
    m.insert("setup_s", (setup_s, "s"));
    m.insert("latency_ms_p50", (median(&lat_ms), "ms"));
    m.insert("latency_ms_p90", (percentile(&lat_ms, 0.9), "ms"));
    m.insert(
        "interactive_latency_ms_p90",
        (percentile(&interactive_ms, 0.9), "ms"),
    );
    m.insert("throughput_rps", (t.attempted as f64 / phase.wall_s, "1/s"));
    m.insert("frontier_hv", (mean(hv.iter().sum(), hv.len()), "share"));
    m.insert(
        "rec_score",
        (mean(score.iter().sum(), score.len()), "distance"),
    );
    m.insert("peak_rss_mb", (peak_rss_mb(), "MB"));
    m
}

fn span_s(report: &udao::SolveReport, path: &str) -> f64 {
    report
        .stages
        .iter()
        .filter(|s| s.path == path)
        .map(|s| s.seconds)
        .sum()
}

/// The per-layer metrics of a traced phase. `overhead` is traced ÷
/// untraced `latency_ms_p50`; `setup` holds the median set-up split.
pub fn per_layer(
    phase: &Phase,
    t: &Tally,
    items: &HashMap<usize, &Item>,
    overhead: f64,
    setup_traces_ms: f64,
    setup_fit_ms: f64,
) -> Metrics {
    let n = t.attempted;
    let ok = t.answered.len();
    let tr = tracer();
    let (value_calls, value_points, value_ms) = tr.totals(Method::Value);
    let (_, _, std_ms) = tr.totals(Method::Std);
    let (grad_calls, _, grad_ms) = tr.totals(Method::Grad);
    let (std_grad_calls, _, std_grad_ms) = tr.totals(Method::StdGrad);
    let leases = tr.leases.calls.load(Ordering::SeqCst) as f64;
    let lease_us = tr.leases.busy_ns.load(Ordering::SeqCst) as f64 / 1e3;

    let sum = |f: &dyn Fn(&Answer) -> f64| t.answered.iter().map(|(_, _, a)| f(a)).sum::<f64>();
    let per_ok = |f: &dyn Fn(&Answer) -> f64| mean(sum(f), ok);
    let hits = sum(&|a| a.report.model_cache_hits as f64);
    let misses = sum(&|a| a.report.model_cache_misses as f64);
    // The coalescer records its dispatch sizes outside every request's
    // scope, so they are read from the phase's global telemetry.
    let coalesced = phase.global.histogram(names::SERVE_COALESCED_BATCH_SIZE);
    let (coalesced_sum, coalesced_n) = coalesced.map_or((0.0, 0), |h| (h.sum, h.count));
    let queue_ms: Vec<f64> = t
        .answered
        .iter()
        .map(|(_, _, a)| a.report.queue_wait_seconds * 1e3)
        .collect();
    let served: Vec<f64> = t
        .answered
        .iter()
        .filter(|(_, _, a)| a.report.cache_served > 0)
        .map(|(_, o, _)| o.latency_s * 1e3)
        .collect();
    let warm: Vec<f64> = t
        .answered
        .iter()
        .filter(|(_, _, a)| a.report.cache_warm_starts > 0)
        .map(|(_, o, _)| o.latency_s * 1e3)
        .collect();
    let missed = t
        .answered
        .iter()
        .filter(|(_, _, a)| a.report.cache_misses > 0)
        .count();
    let stage_ms: Vec<f64> = phase
        .outcomes
        .iter()
        .filter(|o| matches!(items[&o.id].call, Call::Stage(_)))
        .map(|o| o.latency_s * 1e3)
        .collect();
    let stage_answers: Vec<&Answer> = t
        .answered
        .iter()
        .filter(|(i, _, _)| i.origin == Origin::Stage)
        .map(|(_, _, a)| *a)
        .collect();
    let descent = stage_answers
        .iter()
        .map(|a| a.report.stage_descent_rounds as f64)
        .sum::<f64>();
    let degraded = t.answered.iter().filter(|(_, _, a)| a.degraded).count();

    let mut m = Metrics::new();
    let mut put = |k: &'static str, v: f64, unit: &'static str| {
        m.insert(k, (v, unit));
    };
    put("model.value_ms", mean(value_ms, n), "ms");
    put("model.std_ms", mean(std_ms, n), "ms");
    put("model.grad_ms", mean(grad_ms, n), "ms");
    put("model.std_grad_ms", mean(std_grad_ms, n), "ms");
    put("model.value_points", mean(value_points, n), "count");
    put(
        "model.points_per_value_call",
        if value_calls > 0.0 {
            value_points / value_calls
        } else {
            0.0
        },
        "count",
    );
    put("model.grad_calls", mean(grad_calls, n), "count");
    put("model.std_grad_calls", mean(std_grad_calls, n), "count");
    put(
        "model.inferences",
        per_ok(&|a| a.report.model_inferences as f64),
        "count",
    );
    put(
        "model.batch_calls",
        per_ok(&|a| a.report.model_batch_calls as f64),
        "count",
    );
    put(
        "mogd.iterations",
        per_ok(&|a| a.report.mogd_iterations as f64),
        "count",
    );
    put(
        "mogd.restarts",
        per_ok(&|a| a.report.mogd_restarts as f64),
        "count",
    );
    put(
        "mogd.memo_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "share",
    );
    put("pf.probes", per_ok(&|a| a.report.pf_probes as f64), "count");
    put(
        "models_ms",
        per_ok(&|a| span_s(&a.report, "recommend/models") * 1e3),
        "ms",
    );
    put(
        "moo_ms",
        per_ok(&|a| span_s(&a.report, "recommend/moo") * 1e3),
        "ms",
    );
    put(
        "snap_ms",
        per_ok(&|a| span_s(&a.report, "recommend/snap") * 1e3),
        "ms",
    );
    put(
        "fallback.transitions",
        per_ok(&|a| a.report.fallback_transitions as f64),
        "count",
    );
    put("degraded_share", degraded as f64 / n as f64, "share");
    put("error_share", t.failed as f64 / n as f64, "share");
    put("serve.queue_wait_ms_p50", median(&queue_ms), "ms");
    put("serve.queue_wait_ms_p90", percentile(&queue_ms, 0.9), "ms");
    put(
        "serve.reorders",
        per_ok(&|a| a.report.reorders as f64),
        "count",
    );
    put(
        "coalescer.batch_points",
        if coalesced_n > 0 {
            coalesced_sum / coalesced_n as f64
        } else {
            0.0
        },
        "count",
    );
    put(
        "cache.served_share",
        served.len() as f64 / n as f64,
        "share",
    );
    put("cache.warm_share", warm.len() as f64 / n as f64, "share");
    put("cache.miss_share", missed as f64 / n as f64, "share");
    put("cache.hit_ms_p50", median(&served), "ms");
    put("cache.warm_ms_p50", median(&warm), "ms");
    put(
        "cache.invalidations",
        phase.global.counter(names::CACHE_INVALIDATIONS) as f64,
        "count",
    );
    put(
        "model.lease_us",
        if leases > 0.0 { lease_us / leases } else { 0.0 },
        "us",
    );
    put("model.leases", mean(leases, n), "count");
    put(
        "model.swaps",
        phase.global.counter(names::MODEL_SWAPS) as f64,
        "count",
    );
    put(
        "model.stale_served",
        sum(&|a| a.report.stale_served as f64),
        "count",
    );
    put(
        "server.ingest_ms",
        mean(phase.swap_s.iter().sum::<f64>() * 1e3, phase.swap_s.len()),
        "ms",
    );
    put("stage.solve_ms_p50", median(&stage_ms), "ms");
    put(
        "stage.descent_rounds",
        mean(descent, stage_answers.len()),
        "count",
    );
    for (k, v) in &t.fails {
        put(k, *v as f64, "count");
    }
    put("setup.traces_ms", setup_traces_ms, "ms");
    put("setup.fit_ms", setup_fit_ms, "ms");
    put("trace_overhead", overhead, "ratio");
    m
}

/// Index a plan's items by id.
pub fn index<'p>(plan: &'p Plan) -> HashMap<usize, &'p Item> {
    std::iter::once(&plan.warmup)
        .chain(plan.rounds())
        .flat_map(|r| r.items.iter())
        .map(|i| (i.id, i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypervolume_of_points_in_the_unit_box() {
        let bx = [(0.0, 1.0), (0.0, 1.0)];
        assert_eq!(hypervolume(&[vec![0.5, 0.5]], &bx), 0.25);
        // Two points: the staircase covers 0.25 + 0.5·0.25.
        assert_eq!(hypervolume(&[vec![0.5, 0.5], vec![0.0, 0.75]], &bx), 0.375);
        // Points outside the box are clipped to its edge.
        assert_eq!(hypervolume(&[vec![-1.0, 2.0]], &bx), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }
}
