//! Per-request solve reports.
//!
//! Every recommendation carries a [`SolveReport`]: the telemetry observed
//! during the solve (stage wall-clock from span histograms, MOGD/PF/model
//! counters) plus the outcome of the resilience ladder. Requests record
//! into a private telemetry *scope* (`udao_telemetry::enter_scope`), so the
//! report is exact even when other requests run concurrently — counters
//! never bleed between simultaneous requests.

use crate::resilience::FallbackStage;
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use udao_core::priority::Priority;
use udao_telemetry::{names, MetricsSnapshot};

/// Wall-clock spent in one instrumented stage (a `span.` histogram).
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Hierarchical span path, e.g. `recommend/moo`.
    pub path: String,
    /// Total seconds across all entries of the span during the request.
    pub seconds: f64,
    /// Number of times the span was entered.
    pub count: u64,
}

/// Per-DAG-stage attribution of a per-stage tuning solve: how much
/// wall-clock and how many block solves each stage consumed, and the
/// stage's contribution to each composed objective at the recommended
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StageAttribution {
    /// DAG stage index.
    pub stage: usize,
    /// Wall-clock attributed to this stage's block solves, seconds
    /// (0 for joint-mode solves, which tune all blocks at once).
    pub seconds: f64,
    /// Block solves run for this stage (coordinate-descent mode).
    pub solves: u64,
    /// The stage's per-objective values at the recommended configuration,
    /// ordered like the request's objectives.
    pub predicted: Vec<f64>,
}

/// What one solve cost: stage timings and optimizer/model counters.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Workload the request targeted.
    pub workload_id: String,
    /// Ladder stage that produced the result.
    pub stage: FallbackStage,
    /// Whether any degradation (heuristic models, raw snap, fallback
    /// rungs) was involved.
    pub degraded: bool,
    /// End-to-end wall-clock of the request, seconds.
    pub total_seconds: f64,
    /// MOGD inner-loop iterations across all solves of the request.
    pub mogd_iterations: u64,
    /// MOGD multistart restarts.
    pub mogd_restarts: u64,
    /// MOGD constraint-violation penalty activations.
    pub mogd_violations: u64,
    /// Progressive Frontier probes (cell solves attempted).
    pub pf_probes: u64,
    /// Model forward passes (learned + analytic + heuristic).
    pub model_inferences: u64,
    /// Batched inference calls (each covers many points; the ratio
    /// `model_inferences / model_batch_calls` is the realized batch size).
    pub model_batch_calls: u64,
    /// MOGD memoization-cache hits (model evaluations avoided).
    pub model_cache_hits: u64,
    /// MOGD memoization-cache misses (evaluations that went to the model).
    pub model_cache_misses: u64,
    /// Model-server lookups.
    pub model_lookups: u64,
    /// Requests answered straight from the cross-request frontier cache
    /// (exact hit: no MOO run at all). 0 or 1 for a single solve.
    pub cache_served: u64,
    /// Solves warm-started from a near-hit frontier-cache entry.
    pub cache_warm_starts: u64,
    /// Frontier-cache lookups that found nothing usable (0 when no cache
    /// is configured — the default).
    pub cache_misses: u64,
    /// `(objective name, pinned model version)` per learned objective of
    /// the request — exactly one version per key for the whole solve
    /// (version 0 = heuristic/unversioned provider).
    pub model_versions: Vec<(String, u64)>,
    /// Torn model reads observed while serving this request: leases that
    /// returned a version older than one already published before the
    /// lease began. Must be 0; `bench_lifecycle` gates on it.
    pub stale_served: u64,
    /// Resilience-ladder descents taken while serving the request.
    pub fallback_transitions: u64,
    /// Scheduling class the request ran under, when it went through a
    /// serving engine (`None` for direct `recommend` calls).
    pub class: Option<Priority>,
    /// Seconds the request spent queued between admission and the start of
    /// its solve (0 outside a serving engine).
    pub queue_wait_seconds: f64,
    /// Already-queued requests this one was ordered ahead of at admission
    /// (strict class precedence + earlier deadline); 0 outside a serving
    /// engine.
    pub reorders: u64,
    /// DAG stages tuned by a per-stage solve (0 for workload-level solves).
    pub stages_tuned: u64,
    /// Coordinate-descent rounds taken by a per-stage solve (0 for
    /// workload-level and joint-mode solves).
    pub stage_descent_rounds: u64,
    /// Per-DAG-stage attribution of a per-stage solve (empty for
    /// workload-level solves); filled by `Udao::recommend_stages`.
    pub stage_attribution: Vec<StageAttribution>,
    /// Stage wall-clock from the delta's `span.*` histograms, sorted by
    /// path.
    pub stages: Vec<StageTiming>,
    /// The rest of the telemetry delta: every counter and histogram not
    /// surfaced above. Counters with a typed field (`mogd.iterations`,
    /// `pf.probes`, …) and the `span.*` histograms are moved out, not
    /// copied, so each instrument appears once in a report.
    pub metrics: MetricsSnapshot,
}

impl SolveReport {
    /// Build a report from the telemetry delta of one request.
    pub fn from_delta(
        workload_id: impl Into<String>,
        stage: FallbackStage,
        degraded: bool,
        total_seconds: f64,
        mut delta: MetricsSnapshot,
    ) -> Self {
        let (spans, rest): (BTreeMap<_, _>, _) = std::mem::take(&mut delta.histograms)
            .into_iter()
            .partition(|(name, _)| name.starts_with(names::SPAN_PREFIX));
        delta.histograms = rest;
        let stages = spans
            .into_iter()
            .map(|(name, h)| StageTiming {
                path: name[names::SPAN_PREFIX.len()..].to_string(),
                seconds: h.sum,
                count: h.count,
            })
            .collect();
        // Typed fields take their counters out of the delta, as `stages`
        // takes the spans: each instrument is held once per report.
        let mut take = |name: &str| delta.counters.remove(name).unwrap_or(0);
        Self {
            workload_id: workload_id.into(),
            stage,
            degraded,
            total_seconds,
            mogd_iterations: take(names::MOGD_ITERATIONS),
            mogd_restarts: take(names::MOGD_RESTARTS),
            mogd_violations: take(names::MOGD_VIOLATIONS),
            pf_probes: take(names::PF_PROBES),
            model_inferences: take(names::MODEL_INFERENCES),
            model_batch_calls: take(names::MODEL_BATCH_CALLS),
            model_cache_hits: take(names::MODEL_CACHE_HITS),
            model_cache_misses: take(names::MODEL_CACHE_MISSES),
            model_lookups: take(names::MODEL_LOOKUPS),
            cache_served: take(names::CACHE_SERVED),
            cache_warm_starts: take(names::CACHE_WARM_STARTS),
            cache_misses: take(names::CACHE_MISSES),
            model_versions: Vec::new(),
            stale_served: take(names::MODEL_STALE_SERVED),
            fallback_transitions: take(names::FALLBACK_TRANSITIONS),
            class: None,
            queue_wait_seconds: 0.0,
            reorders: 0,
            stages_tuned: take(names::STAGE_TUNED),
            stage_descent_rounds: take(names::STAGE_DESCENT_ROUNDS),
            stage_attribution: Vec::new(),
            stages,
            metrics: delta,
        }
    }

    /// An empty report (used where a recommendation is synthesized outside
    /// the solve path, e.g. re-materialized pipeline stages).
    pub fn empty(workload_id: impl Into<String>) -> Self {
        Self::from_delta(
            workload_id,
            FallbackStage::Primary,
            false,
            0.0,
            MetricsSnapshot::default(),
        )
    }

    /// JSON value of the report (counters + stage timings + the rest of
    /// the delta).
    pub fn to_value(&self) -> Value {
        let stages = self
            .stages
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("path".to_string(), Value::String(s.path.clone())),
                    ("seconds".to_string(), Value::Float(s.seconds)),
                    ("count".to_string(), Value::UInt(s.count)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("workload".to_string(), Value::String(self.workload_id.clone())),
            ("stage".to_string(), Value::String(self.stage.to_string())),
            ("degraded".to_string(), Value::Bool(self.degraded)),
            ("total_seconds".to_string(), Value::Float(self.total_seconds)),
            ("mogd_iterations".to_string(), Value::UInt(self.mogd_iterations)),
            ("mogd_restarts".to_string(), Value::UInt(self.mogd_restarts)),
            ("mogd_violations".to_string(), Value::UInt(self.mogd_violations)),
            ("pf_probes".to_string(), Value::UInt(self.pf_probes)),
            ("model_inferences".to_string(), Value::UInt(self.model_inferences)),
            ("model_batch_calls".to_string(), Value::UInt(self.model_batch_calls)),
            ("model_cache_hits".to_string(), Value::UInt(self.model_cache_hits)),
            ("model_cache_misses".to_string(), Value::UInt(self.model_cache_misses)),
            ("model_lookups".to_string(), Value::UInt(self.model_lookups)),
            ("cache_served".to_string(), Value::UInt(self.cache_served)),
            ("cache_warm_starts".to_string(), Value::UInt(self.cache_warm_starts)),
            ("cache_misses".to_string(), Value::UInt(self.cache_misses)),
            (
                "model_versions".to_string(),
                Value::Object(
                    self.model_versions
                        .iter()
                        .map(|(name, v)| (name.clone(), Value::UInt(*v)))
                        .collect(),
                ),
            ),
            ("stale_served".to_string(), Value::UInt(self.stale_served)),
            (
                "fallback_transitions".to_string(),
                Value::UInt(self.fallback_transitions),
            ),
            (
                "class".to_string(),
                match self.class {
                    Some(c) => Value::String(c.to_string()),
                    None => Value::Null,
                },
            ),
            (
                "queue_wait_seconds".to_string(),
                Value::Float(self.queue_wait_seconds),
            ),
            ("reorders".to_string(), Value::UInt(self.reorders)),
            ("stages_tuned".to_string(), Value::UInt(self.stages_tuned)),
            (
                "stage_descent_rounds".to_string(),
                Value::UInt(self.stage_descent_rounds),
            ),
            (
                "stage_attribution".to_string(),
                Value::Array(
                    self.stage_attribution
                        .iter()
                        .map(|a| {
                            Value::Object(vec![
                                ("stage".to_string(), Value::UInt(a.stage as u64)),
                                ("seconds".to_string(), Value::Float(a.seconds)),
                                ("solves".to_string(), Value::UInt(a.solves)),
                                (
                                    "predicted".to_string(),
                                    Value::Array(
                                        a.predicted.iter().map(|v| Value::Float(*v)).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("stages".to_string(), Value::Array(stages)),
            ("metrics".to_string(), self.metrics.to_value()),
        ])
    }

    /// Human-readable multi-line rendering (what `udao-cli --report`
    /// prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "solve report: {} (stage: {}, degraded: {})",
            self.workload_id, self.stage, self.degraded
        );
        let _ = writeln!(out, "  total wall-clock  {:>9.3} ms", self.total_seconds * 1e3);
        if !self.stages.is_empty() {
            let _ = writeln!(out, "  stages:");
            for s in &self.stages {
                let _ = writeln!(
                    out,
                    "    {:<20} {:>9.3} ms  x{}",
                    s.path,
                    s.seconds * 1e3,
                    s.count
                );
            }
        }
        let _ = writeln!(
            out,
            "  mogd:   {} iterations, {} restarts, {} solves, {} constraint violations",
            self.mogd_iterations,
            self.mogd_restarts,
            self.metrics.counter(names::MOGD_SOLVES),
            self.mogd_violations
        );
        let _ = writeln!(
            out,
            "  pf:     {} probes ({} skipped as dominated)",
            self.pf_probes,
            self.metrics.counter(names::PF_SKIPPED_PROBES)
        );
        let _ = writeln!(
            out,
            "  model:  {} inferences in {} batch calls, {} lookups",
            self.model_inferences, self.model_batch_calls, self.model_lookups
        );
        let _ = writeln!(
            out,
            "  cache:  {} hits, {} misses",
            self.model_cache_hits, self.model_cache_misses
        );
        if self.cache_served + self.cache_warm_starts + self.cache_misses > 0 {
            let _ = writeln!(
                out,
                "  frontier cache: {} served, {} warm starts, {} misses",
                self.cache_served, self.cache_warm_starts, self.cache_misses
            );
        }
        if !self.model_versions.is_empty() || self.stale_served > 0 {
            let versions = self
                .model_versions
                .iter()
                .map(|(name, v)| format!("{name}=v{v}"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "  models: {} (stale served: {})",
                if versions.is_empty() { "-".to_string() } else { versions },
                self.stale_served
            );
        }
        if let Some(class) = self.class {
            let _ = writeln!(
                out,
                "  sched:  class {class}, queued {:.3} ms, {} reorders",
                self.queue_wait_seconds * 1e3,
                self.reorders
            );
        }
        if self.stages_tuned > 0 {
            let _ = writeln!(
                out,
                "  tuning: {} stages tuned, {} descent rounds",
                self.stages_tuned, self.stage_descent_rounds
            );
            for a in &self.stage_attribution {
                let predicted = a
                    .predicted
                    .iter()
                    .map(|v| format!("{v:.4}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(
                    out,
                    "    stage {:<3} {:>9.3} ms  x{}  [{}]",
                    a.stage,
                    a.seconds * 1e3,
                    a.solves,
                    predicted
                );
            }
        }
        let _ = write!(
            out,
            "  ladder: {} transitions",
            self.fallback_transitions
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udao_telemetry::MetricsRegistry;

    fn sample_delta() -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.counter(names::MOGD_ITERATIONS).add(420);
        reg.counter(names::PF_PROBES).add(17);
        reg.counter(names::MODEL_INFERENCES).add(9001);
        reg.counter(names::MODEL_BATCH_CALLS).add(101);
        reg.counter(names::MODEL_CACHE_HITS).add(77);
        reg.counter(names::MODEL_CACHE_MISSES).add(23);
        reg.counter(names::MOGD_SOLVES).add(3);
        reg.histogram("span.recommend").record(0.25);
        reg.histogram("span.recommend/moo").record(0.2);
        reg.histogram(names::MOGD_SOLVE_SECONDS).record(0.01);
        reg.snapshot()
    }

    #[test]
    fn from_delta_extracts_counters_and_stage_timings() {
        let report =
            SolveReport::from_delta("q2-v0", FallbackStage::Primary, false, 0.3, sample_delta());
        assert_eq!(report.mogd_iterations, 420);
        assert_eq!(report.pf_probes, 17);
        assert_eq!(report.model_inferences, 9001);
        assert_eq!(report.model_batch_calls, 101);
        assert_eq!(report.model_cache_hits, 77);
        assert_eq!(report.model_cache_misses, 23);
        // Only span.* histograms become stage timings, prefix stripped.
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.stages[0].path, "recommend");
        assert_eq!(report.stages[1].path, "recommend/moo");
        assert!((report.stages[1].seconds - 0.2).abs() < 1e-12);
        // The span histograms moved into `stages` and the typed counters
        // into their fields; everything else stays in `metrics`.
        assert!(report.metrics.histogram("span.recommend").is_none());
        assert!(report.metrics.histogram(names::MOGD_SOLVE_SECONDS).is_some());
        assert_eq!(report.metrics.counter(names::MOGD_ITERATIONS), 0);
        assert_eq!(report.metrics.counter(names::MOGD_SOLVES), 3);
    }

    #[test]
    fn json_and_render_carry_the_headline_fields() {
        let report = SolveReport::from_delta(
            "q2-v0",
            FallbackStage::SingleObjective,
            true,
            0.3,
            sample_delta(),
        );
        let v = report.to_value();
        assert_eq!(
            v.get("stage").and_then(Value::as_str),
            Some("single-objective-fallback")
        );
        assert_eq!(v.get("mogd_iterations").and_then(Value::as_u64), Some(420));
        assert!(v.get("metrics").is_some());
        let text = report.render();
        assert!(text.contains("degraded: true"));
        assert!(text.contains("420 iterations"));
        assert!(text.contains("recommend/moo"));
    }

    #[test]
    fn empty_report_is_all_zero() {
        let report = SolveReport::empty("w");
        assert_eq!(report.mogd_iterations, 0);
        assert!(report.stages.is_empty());
        assert!(!report.degraded);
        assert!(report.model_versions.is_empty());
        assert_eq!(report.stale_served, 0);
    }

    #[test]
    fn frontier_cache_counters_surface_in_json_and_render() {
        let reg = MetricsRegistry::new();
        reg.counter(names::CACHE_SERVED).inc();
        reg.counter(names::CACHE_MISSES).add(2);
        let report =
            SolveReport::from_delta("q2-v0", FallbackStage::Primary, false, 0.1, reg.snapshot());
        assert_eq!(report.cache_served, 1);
        assert_eq!(report.cache_warm_starts, 0);
        assert_eq!(report.cache_misses, 2);
        let v = report.to_value();
        assert_eq!(v.get("cache_served").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("cache_warm_starts").and_then(Value::as_u64), Some(0));
        assert_eq!(v.get("cache_misses").and_then(Value::as_u64), Some(2));
        let text = report.render();
        assert!(text.contains("frontier cache: 1 served"), "{text}");
        // Cacheless solves keep the quiet rendering: no frontier-cache line.
        let silent = SolveReport::empty("w").render();
        assert!(!silent.contains("frontier cache"), "{silent}");
        assert_eq!(
            SolveReport::empty("w").to_value().get("cache_served").and_then(Value::as_u64),
            Some(0),
            "key present even when zero"
        );
    }

    #[test]
    fn scheduler_decisions_surface_in_json_and_render() {
        let mut report = SolveReport::empty("q2-v0");
        // Unscheduled solves keep the keys with neutral values.
        let v = report.to_value();
        assert_eq!(v.get("class"), Some(&Value::Null));
        assert_eq!(v.get("queue_wait_seconds").and_then(Value::as_f64), Some(0.0));
        assert_eq!(v.get("reorders").and_then(Value::as_u64), Some(0));
        assert!(!report.render().contains("sched:"), "quiet outside an engine");
        // Engine-served solves name the scheduler's decisions.
        report.class = Some(Priority::Interactive);
        report.queue_wait_seconds = 0.0042;
        report.reorders = 3;
        let v = report.to_value();
        assert_eq!(v.get("class").and_then(Value::as_str), Some("interactive"));
        assert_eq!(v.get("reorders").and_then(Value::as_u64), Some(3));
        let text = report.render();
        assert!(text.contains("class interactive"), "{text}");
        assert!(text.contains("3 reorders"), "{text}");
    }

    #[test]
    fn stage_tuning_surfaces_in_json_and_render() {
        // Workload-level solves keep the keys with neutral values and a
        // quiet rendering.
        let plain = SolveReport::empty("q2-v0");
        let v = plain.to_value();
        assert_eq!(v.get("stages_tuned").and_then(Value::as_u64), Some(0));
        assert_eq!(v.get("stage_descent_rounds").and_then(Value::as_u64), Some(0));
        assert!(v.get("stage_attribution").is_some(), "key present even when empty");
        assert!(!plain.render().contains("tuning:"), "quiet without stage tuning");
        // Per-stage solves surface counters and attribution.
        let reg = MetricsRegistry::new();
        reg.counter(names::STAGE_TUNED).add(3);
        reg.counter(names::STAGE_DESCENT_ROUNDS).add(7);
        let mut report =
            SolveReport::from_delta("q2-v0", FallbackStage::Primary, false, 0.2, reg.snapshot());
        report.stage_attribution = vec![StageAttribution {
            stage: 1,
            seconds: 0.05,
            solves: 4,
            predicted: vec![2.5, 1.0],
        }];
        assert_eq!(report.stages_tuned, 3);
        assert_eq!(report.stage_descent_rounds, 7);
        let v = report.to_value();
        assert_eq!(v.get("stages_tuned").and_then(Value::as_u64), Some(3));
        let attribution = v
            .get("stage_attribution")
            .and_then(Value::as_array)
            .expect("attribution present");
        assert_eq!(attribution[0].get("stage").and_then(Value::as_u64), Some(1));
        assert_eq!(attribution[0].get("solves").and_then(Value::as_u64), Some(4));
        let text = report.render();
        assert!(text.contains("3 stages tuned"), "{text}");
        assert!(text.contains("7 descent rounds"), "{text}");
        assert!(text.contains("stage 1"), "{text}");
    }

    #[test]
    fn model_versions_and_stale_served_surface_in_json_and_render() {
        let reg = MetricsRegistry::new();
        reg.counter(names::MODEL_STALE_SERVED).add(2);
        let mut report =
            SolveReport::from_delta("q2-v0", FallbackStage::Primary, false, 0.1, reg.snapshot());
        report.model_versions = vec![("latency".into(), 3)];
        assert_eq!(report.stale_served, 2);
        let v = report.to_value();
        assert_eq!(v.get("stale_served").and_then(Value::as_u64), Some(2));
        let versions = v.get("model_versions").expect("versions present");
        assert_eq!(versions.get("latency").and_then(Value::as_u64), Some(3));
        let text = report.render();
        assert!(text.contains("latency=v3"), "{text}");
        assert!(text.contains("stale served: 2"), "{text}");
    }
}
