//! Canonical instrument names recorded across the workspace.
//!
//! Keeping the names in one place lets report extraction (`SolveReport` in
//! the `udao` crate, the bench smoke validator) match recording sites by
//! constant instead of by string literal.

pub use crate::span::SPAN_PREFIX;

// ------------------------------------------------------------------- MOGD

/// Gradient-descent iterations executed (across all multistarts).
pub const MOGD_ITERATIONS: &str = "mogd.iterations";
/// Multistart restarts attempted (includes the center start).
pub const MOGD_RESTARTS: &str = "mogd.restarts";
/// Iterations whose candidate violated an objective constraint (Eq. 3
/// penalty branch taken).
pub const MOGD_VIOLATIONS: &str = "mogd.constraint_violations";
/// Constrained-optimization solves completed.
pub const MOGD_SOLVES: &str = "mogd.solves";
/// Wall-clock seconds per CO solve.
pub const MOGD_SOLVE_SECONDS: &str = "mogd.solve_seconds";

// ------------------------------------------------- Progressive Frontier

/// Middle-Point probes issued across PF runs.
pub const PF_PROBES: &str = "pf.probes";
/// Probes skipped because the probe budget or deadline was exhausted.
pub const PF_SKIPPED_PROBES: &str = "pf.skipped_probes";
/// PF runs started (any variant).
pub const PF_RUNS: &str = "pf.runs";
/// Wall-clock seconds per PF-AP cell solve (recorded on worker threads).
pub const PF_CELL_SOLVE_SECONDS: &str = "pf.cell_solve_seconds";
/// Final uncertain-space volume fraction per PF run (dimensionless, in
/// `[0, 1]`; shrinkage below `min_volume_frac` ends the run).
pub const PF_UNCERTAIN_FRAC: &str = "pf.uncertain_volume_frac";
/// PF runs resumed from a `PfSeed` (anchors skipped, probing restarted
/// from cached uncertain rectangles).
pub const PF_SEEDED_RUNS: &str = "pf.seeded_runs";

// ------------------------------------------------- frontier cache (serving)

/// Requests answered directly from a cached Pareto frontier (exact hit —
/// no MOO run at all).
pub const CACHE_SERVED: &str = "cache.served";
/// Requests that warm-started MOGD/PF from a near-hit cache entry.
pub const CACHE_WARM_STARTS: &str = "cache.warm_starts";
/// Cache lookups that found nothing usable (cold solve follows).
pub const CACHE_MISSES: &str = "cache.misses";
/// Solved frontiers inserted into the cache.
pub const CACHE_INSERTS: &str = "cache.inserts";
/// Entries dropped because a model hot-swap retired their pinned
/// versions (lifecycle invalidation fan-out).
pub const CACHE_INVALIDATIONS: &str = "cache.invalidations";
/// Entries evicted by the capacity bound (oldest-first within a shard).
pub const CACHE_EVICTIONS: &str = "cache.evictions";

// ---------------------------------------------------------- model server

/// Model lookups served by the in-memory model server.
pub const MODEL_LOOKUPS: &str = "model.lookups";
/// Wall-clock seconds per model lookup.
pub const MODEL_LOOKUP_SECONDS: &str = "model.lookup_seconds";
/// Objective-model inference calls (predictions through a served model).
pub const MODEL_INFERENCES: &str = "model.inferences";
/// Full retrains triggered by trace-count thresholds.
pub const MODEL_RETRAINS: &str = "model.retrains";
/// Fine-tune passes on incremental trace ingest.
pub const MODEL_FINE_TUNES: &str = "model.fine_tunes";
/// Batched inference calls (`predict_batch` invocations; each one covers
/// many points — compare against [`MODEL_INFERENCES`] for batch size).
pub const MODEL_BATCH_CALLS: &str = "model.batch_calls";
/// MOGD memoization-cache hits (model evaluations avoided entirely).
pub const MODEL_CACHE_HITS: &str = "model.cache_hits";
/// MOGD memoization-cache misses (evaluations that went to the model).
pub const MODEL_CACHE_MISSES: &str = "model.cache_misses";
/// GP fine-tunes served by the incremental Cholesky row-append path
/// (`Gp::extend`) instead of a full refit.
pub const MODEL_GP_EXTENDS: &str = "model.gp_extends";
/// GP extends that failed positive definiteness and fell back to a full
/// refit.
pub const MODEL_GP_EXTEND_FALLBACKS: &str = "model.gp_extend_fallbacks";

// ------------------------------------------------------- model lifecycle

/// Version published by a model lease (histogram: which registry epochs
/// actually served traffic).
pub const MODEL_VERSION: &str = "model.version";
/// Hot-swaps: publishes that *replaced* an already-served model version.
pub const MODEL_SWAPS: &str = "model.swaps";
/// Wall-clock seconds from training snapshot to atomic publish (histogram;
/// the swap latency `bench_lifecycle` reports).
pub const MODEL_SWAP_SECONDS: &str = "model.swap_seconds";
/// Trainings discarded at publish time because a newer snapshot already
/// published (compare-and-publish losers).
pub const MODEL_SWAP_SUPERSEDED: &str = "model.swap_superseded";
/// Leases that returned a version older than one already published before
/// the lease began — a torn read. Must stay 0; gated by `bench_lifecycle`.
pub const MODEL_STALE_SERVED: &str = "model.stale_served";
/// Windowed mean relative error of predictions vs. observed outcomes
/// (histogram, recorded per drift observation).
pub const MODEL_DRIFT_SCORE: &str = "model.drift_score";
/// Full retrains triggered by drift detection (threshold crossings).
pub const MODEL_DRIFT_RETRAINS: &str = "model.drift_retrains";
/// Observed traces accepted by the lifecycle loop.
pub const LIFECYCLE_OBSERVED: &str = "lifecycle.observed";
/// Observed traces dropped because the lifecycle queue was full.
pub const LIFECYCLE_DROPPED: &str = "lifecycle.dropped";

// --------------------------------------------------------- serving engine

/// Submission-queue depth observed at each enqueue/dequeue (histogram).
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
/// Requests rejected by admission control (queue full, in-flight cap,
/// draining engine, or a budget that cannot cover the observed p50 solve
/// time).
pub const SERVE_SHED: &str = "serve.shed";
/// Requests admitted into the serving queue.
pub const SERVE_ADMITTED: &str = "serve.admitted";
/// Requests completed by engine workers (success or error, shed excluded).
pub const SERVE_COMPLETED: &str = "serve.completed";
/// End-to-end seconds from admission to response (queue wait + solve).
pub const SERVE_SECONDS: &str = "serve.seconds";
/// Points per coalesced cross-request inference dispatch (histogram).
/// Nothing records it any more: cross-request inference coalescing was
/// removed, so the name stays only for readers compiled against it, which
/// now always see it empty.
pub const SERVE_COALESCED_BATCH_SIZE: &str = "serve.coalesced_batch_size";
/// Seconds each dispatched request spent queued between admission and the
/// start of its solve (histogram).
pub const SERVE_QUEUE_WAIT_SECONDS: &str = "serve.queue_wait_seconds";

/// Per-class shed counter name: `serve.shed.<class>` where `<class>` is
/// the priority class's canonical lowercase name (`interactive` /
/// `standard` / `batch`). Incremented alongside the aggregate
/// [`SERVE_SHED`], so per-class counts always sum to it.
pub fn serve_shed_class(class: &impl std::fmt::Display) -> String {
    format!("serve.shed.{class}")
}

/// Per-class admission counter name: `serve.admitted.<class>`; the
/// class-split companion of [`SERVE_ADMITTED`].
pub fn serve_admitted_class(class: &impl std::fmt::Display) -> String {
    format!("serve.admitted.{class}")
}

// -------------------------------------------------------------- simulator

/// Batch (Spark SQL) simulator runs.
pub const SIM_BATCH_RUNS: &str = "sim.batch_runs";
/// Streaming simulator runs.
pub const SIM_STREAM_RUNS: &str = "sim.stream_runs";

// ------------------------------------------------------ per-stage tuning

/// Stages tuned by a per-stage solve (joint or coordinate descent); a
/// solve over an `n`-stage DAG adds `n`.
pub const STAGE_TUNED: &str = "stage.tuned";
/// Coordinate-descent rounds taken across a per-stage solve's weight
/// sweep (joint solves record 0).
pub const STAGE_DESCENT_ROUNDS: &str = "stage.descent_rounds";
/// Wall-clock of whole per-stage solves, seconds (histogram).
pub const STAGE_SOLVE_SECONDS: &str = "stage.solve_seconds";

// ----------------------------------------------------- resilience ladder

/// Fallback-stage transitions taken by the resilience ladder (each descent
/// below the primary path counts once).
pub const FALLBACK_TRANSITIONS: &str = "fallback.transitions";
/// Model-fetch retries performed under the retry policy.
pub const MODEL_FETCH_RETRIES: &str = "fallback.model_fetch_retries";
/// Requests that returned a degraded (non-primary) recommendation.
pub const DEGRADED_RESULTS: &str = "fallback.degraded_results";

/// Per-stage entry counter name: `fallback.stage.<stage>` where `<stage>`
/// is the stage's `Display` form (e.g. `pf-as-fallback`).
pub fn fallback_stage(stage: &impl std::fmt::Display) -> String {
    format!("fallback.stage.{stage}")
}

#[cfg(test)]
mod tests {
    #[test]
    fn fallback_stage_names_compose() {
        assert_eq!(super::fallback_stage(&"primary"), "fallback.stage.primary");
    }

    #[test]
    fn per_class_serve_names_compose() {
        assert_eq!(super::serve_shed_class(&"batch"), "serve.shed.batch");
        assert_eq!(
            super::serve_admitted_class(&"interactive"),
            "serve.admitted.interactive"
        );
    }
}
