//! The model server (§V): an asynchronous, *versioned* registry of
//! per-(workload, objective) predictive models.
//!
//! The server ingests runtime traces as they arrive, trains models **off
//! the registry lock**, checkpoints the best weights, retrains from
//! scratch on large trace updates, and fine-tunes incrementally on small
//! ones, mirroring the industry practice the paper cites.
//!
//! ## Versioned hot-swap
//!
//! Each [`ModelKey`] maps to an epoch-stamped model: every publish bumps a
//! monotonically increasing per-key **version**. Consumers pin a version
//! for the duration of a solve via [`ModelServer::lease`] — the returned
//! [`ModelLease`] holds an `Arc` to exactly one trained snapshot, so a
//! retrain that lands mid-solve can never hand different iterations of one
//! descent different weights. Swaps are *atomic publish-then-retire*: the
//! new version becomes visible in one short write-locked store, the old
//! version is downgraded to a `Weak` in the retired list, and its memory
//! is reclaimed only when the last pinned lease drops its `Arc`
//! ([`ModelServer::retired_unreclaimed`] observes this in tests).
//!
//! ## Training off-lock
//!
//! [`ModelServer::ingest`] holds the registry write lock only to append
//! traces and snapshot the training inputs, trains on the calling thread
//! with **no lock held**, then re-locks briefly to compare-and-publish:
//! a training whose snapshot is older than one already published is
//! discarded (`model.swap_superseded`) instead of clobbering fresher
//! weights. [`ModelServer::get`]/[`lease`](ModelServer::lease) therefore
//! never block behind a retrain — only behind microsecond map operations.
//!
//! ## Drift detection
//!
//! [`ModelServer::observe`] compares served predictions against observed
//! (simulated-run) outcomes and keeps rolling relative-residual windows
//! per key (see [`crate::drift`]). A full window whose mean relative error
//! exceeds the threshold reports `drifted = true` — the lifecycle loop
//! answers with [`ModelServer::retrain_now`] and invalidation fan-out
//! (memo-cache generation, frontier-cache entries).

use crate::dataset::Dataset;
use crate::drift::{DriftOptions, DriftVerdict, DriftWindow};
use crate::gp::{Gp, GpConfig};
use crate::mlp::{Ensemble, MlpConfig};
use crate::precision::{F32Batch, FastPath, Precision};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::Instant;
use udao_core::ObjectiveModel;
use udao_telemetry::{names, Counter};

/// Identifies one model: a workload and one of its objectives.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ModelKey {
    /// Workload identifier (e.g. `"tpcxbb-q2-sf100"`).
    pub workload: String,
    /// Objective name (e.g. `"latency"`).
    pub objective: String,
}

impl ModelKey {
    /// Build a key.
    pub fn new(workload: impl Into<String>, objective: impl Into<String>) -> Self {
        Self { workload: workload.into(), objective: objective.into() }
    }
}

/// Which model family to train for an objective.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ModelKind {
    /// Gaussian Process (OtterTune-style).
    Gp(GpConfig),
    /// Deep ensemble of MLPs (`members` networks).
    Dnn {
        /// Architecture and training hyperparameters per member.
        config: MlpConfig,
        /// Number of ensemble members.
        members: usize,
    },
}

impl Default for ModelKind {
    fn default() -> Self {
        ModelKind::Gp(GpConfig::default())
    }
}

/// A pinned model version: the snapshot one solve holds for its entire
/// duration. The `Arc` keeps the weights alive past any number of swaps;
/// `version` is the registry epoch the snapshot was published under, and is
/// what `SolveReport.model_versions` and the MOGD memo generation carry.
#[derive(Clone)]
pub struct ModelLease {
    /// The pinned model snapshot.
    pub model: Arc<dyn ObjectiveModel>,
    /// Registry epoch of the snapshot (1-based; bumped on every publish).
    pub version: u64,
}

impl std::fmt::Debug for ModelLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelLease").field("version", &self.version).finish()
    }
}

/// Threshold (in new traces) above which the server retrains from scratch
/// instead of fine-tuning; the paper uses 5000 vs 1000 at cluster scale,
/// scaled down here to simulator trace volumes.
const RETRAIN_THRESHOLD: usize = 200;
/// Epoch budget for incremental fine-tuning.
const FINE_TUNE_EPOCHS: usize = 60;

enum Trained {
    /// The fitted GP is kept so small trace updates can *extend* its
    /// Cholesky factor (O(k·n²)) instead of refitting (O(n³) × the
    /// hyperparameter grid). Boxed: a `Gp` owns its whole training set,
    /// so inline it would dominate every enum it appears in.
    Gp(Box<Gp>),
    Dnn(Ensemble),
}

struct Entry {
    data: Dataset,
    kind: ModelKind,
    /// The published model and its version; swapped atomically under the
    /// registry write lock.
    current: Option<(Arc<dyn ObjectiveModel>, u64)>,
    trained: Option<Trained>,
    /// Learn in log-target space (positive heavy-tailed objectives).
    log_target: bool,
    /// Traces ingested since the last (re)training.
    pending: usize,
    /// Number of retrains / fine-tunes performed (diagnostics).
    retrains: usize,
    fine_tunes: usize,
    /// Last published version (0 = never published).
    version: u64,
    /// Monotonic snapshot sequence handed to each training job.
    train_seq: u64,
    /// Snapshot sequence of the last published training; older jobs are
    /// discarded at publish time (compare-and-publish).
    published_seq: u64,
    /// Weak handles to retired versions: alive exactly while some lease
    /// still pins them.
    retired: Vec<Weak<dyn ObjectiveModel>>,
}

/// A snapshot of everything one training needs, taken under the write lock
/// and trained with no lock held.
enum TrainJob {
    Full { data: Dataset, kind: ModelKind },
    FineTune { ens: Ensemble, batch: Dataset },
    /// GP incremental fine-tune: extend the factor with the batch; on a
    /// positive-definiteness failure fall back to a full refit of `data`.
    GpExtend { gp: Box<Gp>, batch: Dataset, data: Dataset, kind: ModelKind },
}

/// What a training produced, ready to publish.
enum TrainOutcome {
    Gp(Box<Gp>),
    Dnn(Ensemble),
    /// Training failed (degenerate data); nothing to publish.
    None,
}

/// A served model with inference accounting: every `predict` through a
/// model handed out by the server counts against `model.inferences`.
/// Gradients and uncertainty delegate to the wrapped model untouched, so
/// analytic gradients stay analytic (and finite-difference probes inside a
/// model count as the predictions they are).
struct Metered<M> {
    inner: M,
    inferences: Arc<Counter>,
    batch_calls: Arc<Counter>,
}

impl<M: ObjectiveModel> ObjectiveModel for Metered<M> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn predict(&self, x: &[f64]) -> f64 {
        self.inferences.inc();
        self.inner.predict(x)
    }
    fn predict_std(&self, x: &[f64]) -> f64 {
        self.inner.predict_std(x)
    }
    /// One batched call counts as one `model.batch_calls` and `n`
    /// inferences — the ratio of the two counters is the average batch
    /// size the optimizer achieved.
    fn predict_batch(&self, xs: &[Vec<f64>], out: &mut [f64]) {
        self.batch_calls.inc();
        self.inferences.add(xs.len() as u64);
        self.inner.predict_batch(xs, out)
    }
    fn predict_std_batch(&self, xs: &[Vec<f64>], out: &mut [f64]) {
        self.inner.predict_std_batch(xs, out)
    }
    fn gradient(&self, x: &[f64], out: &mut [f64]) {
        self.inner.gradient(x, out)
    }
    fn std_gradient(&self, x: &[f64], out: &mut [f64]) {
        self.inner.std_gradient(x, out)
    }
}

/// Wrap a trained model for serving: the f32 fast path (when a non-default
/// [`Precision`] is active) innermost, then the log-space transform when
/// the entry was registered with [`ModelServer::register_log`], then the
/// inference-counting wrapper always —
/// `Metered(LogSpace?(FastPath?(model)))`.
fn wrap_model<M: ObjectiveModel + F32Batch + 'static>(
    model: M,
    log: bool,
    precision: Precision,
) -> Arc<dyn ObjectiveModel> {
    let inferences = udao_telemetry::counter(names::MODEL_INFERENCES);
    let batch_calls = udao_telemetry::counter(names::MODEL_BATCH_CALLS);
    match (log, precision.is_f64()) {
        (true, true) => {
            Arc::new(Metered { inner: crate::transform::LogSpace(model), inferences, batch_calls })
        }
        (false, true) => Arc::new(Metered { inner: model, inferences, batch_calls }),
        (true, false) => Arc::new(Metered {
            inner: crate::transform::LogSpace(FastPath::new(model, precision)),
            inferences,
            batch_calls,
        }),
        (false, false) => {
            Arc::new(Metered { inner: FastPath::new(model, precision), inferences, batch_calls })
        }
    }
}

/// The versioned model registry. Thread-safe; leases hand out `Arc`-pinned
/// snapshots that stay valid (and bitwise constant) across retrains.
#[derive(Default)]
pub struct ModelServer {
    entries: RwLock<HashMap<ModelKey, Entry>>,
    /// Published-version floor per key, updated *after* each publish
    /// completes. A lease that begins after reading floor `v` must see
    /// version `>= v`; anything less is a torn read and counts as
    /// `model.stale_served`. Kept outside `entries` so the tripwire reads
    /// from a different lock than the lease it checks.
    floors: Mutex<HashMap<ModelKey, u64>>,
    /// Rolling prediction-vs-observed residual windows per key.
    drift: Mutex<HashMap<ModelKey, DriftWindow>>,
    drift_options: RwLock<DriftOptions>,
    /// Inference precision applied to models published after it is set.
    precision: RwLock<Precision>,
}

impl ModelServer {
    /// Create an empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the drift-detection policy (applies to subsequent
    /// [`ModelServer::observe`] calls).
    pub fn set_drift_options(&self, options: DriftOptions) {
        *self.drift_options.write() = options;
    }

    /// The current drift-detection policy.
    pub fn drift_options(&self) -> DriftOptions {
        *self.drift_options.read()
    }

    /// Set the inference precision for models published from now on
    /// (already-published versions keep the precision they were wrapped
    /// with — leases stay immutable snapshots).
    pub fn set_precision(&self, precision: Precision) {
        *self.precision.write() = precision;
    }

    /// The precision models are currently being published at.
    pub fn precision(&self) -> Precision {
        *self.precision.read()
    }

    /// Declare a model for `key` with the given family. Idempotent; the
    /// family of an existing entry is left unchanged.
    pub fn register(&self, key: ModelKey, kind: ModelKind) {
        self.register_inner(key, kind, false);
    }

    /// Like [`register`](Self::register), but the model learns `ln(y)` and
    /// predicts through `exp` — the right choice for strictly positive,
    /// heavy-tailed objectives such as latency, where a linear-space model
    /// can hallucinate negative values that gradient-based optimization
    /// would exploit.
    pub fn register_log(&self, key: ModelKey, kind: ModelKind) {
        self.register_inner(key, kind, true);
    }

    fn register_inner(&self, key: ModelKey, kind: ModelKind, log_target: bool) {
        self.entries.write().entry(key).or_insert_with(|| Entry {
            data: Dataset::default(),
            kind,
            current: None,
            trained: None,
            log_target,
            pending: 0,
            retrains: 0,
            fine_tunes: 0,
            version: 0,
            train_seq: 0,
            published_seq: 0,
            retired: Vec::new(),
        });
    }

    /// Ingest a batch of traces for `key` and update its model: a full
    /// retrain if the entry is untrained or the pending volume crossed
    /// `RETRAIN_THRESHOLD`, an incremental fine-tune otherwise. Training
    /// runs on the calling thread with **no registry lock held**; see the
    /// module docs for the snapshot → train → compare-and-publish
    /// protocol.
    pub fn ingest(&self, key: &ModelKey, batch: &Dataset) {
        self.ingest_inner(key, batch, false);
    }

    /// Ingest `batch` (possibly empty) and force a full retrain from the
    /// entry's complete trace archive — the drift-triggered path. Returns
    /// `true` if a model was published.
    pub fn retrain_now(&self, key: &ModelKey, batch: &Dataset) -> bool {
        self.ingest_inner(key, batch, true)
    }

    fn ingest_inner(&self, key: &ModelKey, batch: &Dataset, force_full: bool) -> bool {
        let started = Instant::now();
        // Phase 1 (locked, short): append traces, snapshot training inputs.
        let (job, log, seq, full) = {
            let mut entries = self.entries.write();
            let Some(e) = entries.get_mut(key) else { return false };
            // Log-target entries store and train on ln(y); targets are
            // clamped at a tiny positive value to survive degenerate traces.
            let batch = if e.log_target {
                Dataset::new(batch.x.clone(), batch.y.iter().map(|v| v.max(1e-9).ln()).collect())
            } else {
                batch.clone()
            };
            e.data.extend(&batch);
            e.pending += batch.len();
            if e.data.is_empty() {
                return false;
            }
            let need_full = force_full || e.trained.is_none() || e.pending >= RETRAIN_THRESHOLD;
            e.train_seq += 1;
            let seq = e.train_seq;
            let job = match (&e.trained, need_full) {
                (Some(Trained::Dnn(ens)), false) => TrainJob::FineTune { ens: ens.clone(), batch },
                (Some(Trained::Gp(gp)), false) => TrainJob::GpExtend {
                    gp: gp.clone(),
                    batch,
                    data: e.data.clone(),
                    kind: e.kind.clone(),
                },
                _ => TrainJob::Full { data: e.data.clone(), kind: e.kind.clone() },
            };
            if need_full {
                e.pending = 0;
            }
            (job, e.log_target, seq, need_full)
        };
        // Phase 2 (no lock): train. `get`/`lease` stay answerable while
        // this runs, serving the previous version.
        let outcome = match job {
            TrainJob::FineTune { mut ens, batch } => {
                ens.fine_tune(&batch, FINE_TUNE_EPOCHS);
                TrainOutcome::Dnn(ens)
            }
            TrainJob::GpExtend { mut gp, batch, data, kind } => {
                if gp.extend(&batch.x, &batch.y) {
                    udao_telemetry::counter(names::MODEL_GP_EXTENDS).inc();
                    TrainOutcome::Gp(gp)
                } else {
                    // The bordered factor went non-PD (e.g. a near-duplicate
                    // trace at tiny noise): refit from the full archive.
                    udao_telemetry::counter(names::MODEL_GP_EXTEND_FALLBACKS).inc();
                    match kind {
                        ModelKind::Gp(cfg) => Gp::fit(&data, &cfg)
                            .map(|g| TrainOutcome::Gp(Box::new(g)))
                            .unwrap_or(TrainOutcome::None),
                        ModelKind::Dnn { .. } => TrainOutcome::None,
                    }
                }
            }
            TrainJob::Full { data, kind } => match kind {
                ModelKind::Gp(cfg) => Gp::fit(&data, &cfg)
                    .map(|g| TrainOutcome::Gp(Box::new(g)))
                    .unwrap_or(TrainOutcome::None),
                ModelKind::Dnn { config, members } => Ensemble::fit(&data, &config, members)
                    .map(TrainOutcome::Dnn)
                    .unwrap_or(TrainOutcome::None),
            },
        };
        // Phase 3 (locked, short): compare-and-publish.
        self.publish(key, outcome, log, seq, full, started)
    }

    /// Atomically publish a training outcome for `key` unless a training
    /// with a newer snapshot already published (`seq` comparison). Retires
    /// the previous version (demoted to a `Weak`) and bumps the epoch.
    fn publish(
        &self,
        key: &ModelKey,
        outcome: TrainOutcome,
        log: bool,
        seq: u64,
        full: bool,
        started: Instant,
    ) -> bool {
        let precision = *self.precision.read();
        let (wrapped, trained) = match outcome {
            TrainOutcome::Gp(gp) => {
                (wrap_model((*gp).clone(), log, precision), Trained::Gp(gp))
            }
            TrainOutcome::Dnn(ens) => {
                (wrap_model(ens.clone(), log, precision), Trained::Dnn(ens))
            }
            TrainOutcome::None => return false,
        };
        let version = {
            let mut entries = self.entries.write();
            let Some(e) = entries.get_mut(key) else { return false };
            if seq <= e.published_seq {
                // A training snapshotted after ours already published:
                // ours would roll fresher weights back. Discard it.
                udao_telemetry::counter(names::MODEL_SWAP_SUPERSEDED).inc();
                return false;
            }
            let swapping = if let Some((old, _)) = e.current.take() {
                e.retired.push(Arc::downgrade(&old));
                true
            } else {
                false
            };
            // Drop weaks whose versions have been fully reclaimed so the
            // retired list stays bounded by the number of live pins.
            e.retired.retain(|w| w.strong_count() > 0);
            e.version += 1;
            e.published_seq = seq;
            e.current = Some((wrapped, e.version));
            e.trained = Some(trained);
            if full {
                e.retrains += 1;
                udao_telemetry::counter(names::MODEL_RETRAINS).inc();
            } else {
                e.fine_tunes += 1;
                udao_telemetry::counter(names::MODEL_FINE_TUNES).inc();
            }
            if swapping {
                udao_telemetry::counter(names::MODEL_SWAPS).inc();
            }
            e.version
        };
        // The floor trails the publish: a lease that starts after this
        // store must observe at least `version`.
        self.floors.lock().insert(key.clone(), version);
        udao_telemetry::histogram(names::MODEL_SWAP_SECONDS)
            .record_duration(started.elapsed());
        true
    }

    /// Pin the current model version for `key`: the returned lease holds
    /// one epoch-stamped snapshot for as long as the caller keeps it — a
    /// solve that leases at admission sees exactly one set of weights for
    /// its entire descent, regardless of concurrent swaps.
    pub fn lease(&self, key: &ModelKey) -> Option<ModelLease> {
        let started = Instant::now();
        // Torn-read tripwire: any version published before this load must
        // be visible to the lease below (the load precedes the read lock).
        let floor = self.floors.lock().get(key).copied().unwrap_or(0);
        let lease = self
            .entries
            .read()
            .get(key)
            .and_then(|e| e.current.clone())
            .map(|(model, version)| ModelLease { model, version });
        udao_telemetry::counter(names::MODEL_LOOKUPS).inc();
        udao_telemetry::histogram(names::MODEL_LOOKUP_SECONDS).record_duration(started.elapsed());
        if let Some(l) = &lease {
            udao_telemetry::histogram(names::MODEL_VERSION).record(l.version as f64);
            if l.version < floor {
                udao_telemetry::counter(names::MODEL_STALE_SERVED).inc();
            }
        }
        lease
    }

    /// Retrieve the current model for `key`, if one has been trained.
    /// Unversioned convenience over [`ModelServer::lease`].
    pub fn get(&self, key: &ModelKey) -> Option<Arc<dyn ObjectiveModel>> {
        self.lease(key).map(|l| l.model)
    }

    /// The currently published version for `key` (0 = none yet).
    pub fn current_version(&self, key: &ModelKey) -> u64 {
        self.entries.read().get(key).map(|e| e.version).unwrap_or(0)
    }

    /// Retired versions of `key` still pinned by at least one live lease.
    /// Returns 0 once every old lease has dropped — `Arc` reclamation is
    /// the epoch-based garbage collection.
    pub fn retired_unreclaimed(&self, key: &ModelKey) -> usize {
        self.entries
            .read()
            .get(key)
            .map(|e| e.retired.iter().filter(|w| w.strong_count() > 0).count())
            .unwrap_or(0)
    }

    /// Record one observed outcome for `key`: compares the served model's
    /// prediction at `x` against the observed value `y` (raw objective
    /// space) and updates the rolling drift window. Returns `None` when no
    /// model is published yet. The prediction runs with no registry lock
    /// held.
    pub fn observe(&self, key: &ModelKey, x: &[f64], y: f64) -> Option<DriftVerdict> {
        let (model, _version) = self.entries.read().get(key).and_then(|e| e.current.clone())?;
        // Served models predict in raw space (log-target entries answer
        // through their exp transform), so the residual is raw-vs-raw.
        let predicted = model.predict(x);
        let residual = DriftWindow::residual(predicted, y);
        let opts = *self.drift_options.read();
        let verdict = self
            .drift
            .lock()
            .entry(key.clone())
            .or_default()
            .record(residual, &opts);
        udao_telemetry::histogram(names::MODEL_DRIFT_SCORE).record(verdict.score);
        Some(verdict)
    }

    /// The current windowed drift score for `key`, if any observations
    /// have been recorded since the last reset.
    pub fn drift_score(&self, key: &ModelKey) -> Option<f64> {
        self.drift.lock().get(key).and_then(|w| w.score())
    }

    /// Forget `key`'s drift window (a freshly retrained model starts with
    /// a clean slate).
    pub fn reset_drift(&self, key: &ModelKey) {
        if let Some(w) = self.drift.lock().get_mut(key) {
            w.reset();
        }
    }

    /// Number of traces held for `key`.
    pub fn trace_count(&self, key: &ModelKey) -> usize {
        self.entries.read().get(key).map(|e| e.data.len()).unwrap_or(0)
    }

    /// `(full retrains, incremental fine-tunes)` performed for `key`.
    pub fn training_stats(&self, key: &ModelKey) -> (usize, usize) {
        self.entries
            .read()
            .get(key)
            .map(|e| (e.retrains, e.fine_tunes))
            .unwrap_or((0, 0))
    }

    /// All registered keys (sorted for determinism).
    pub fn keys(&self) -> Vec<ModelKey> {
        let mut keys: Vec<ModelKey> = self.entries.read().keys().cloned().collect();
        keys.sort_by(|a, b| (&a.workload, &a.objective).cmp(&(&b.workload, &b.objective)));
        keys
    }

    /// Serialize the server state (trace datasets, model families, target
    /// transforms) to a JSON checkpoint. Training is deterministic, so
    /// persisting the data rather than the weights reproduces identical
    /// models on [`ModelServer::load_json`] while staying robust to model
    /// format changes.
    pub fn save_json(&self) -> udao_core::Result<String> {
        let entries = self.entries.read();
        let mut dump: Vec<PersistedEntry> = entries
            .iter()
            .map(|(k, e)| PersistedEntry {
                key: k.clone(),
                kind: e.kind.clone(),
                log_target: e.log_target,
                // Stored data is already log-transformed for log entries;
                // persist the raw-equivalent so load re-applies the codec.
                x: e.data.x.clone(),
                y: if e.log_target {
                    e.data.y.iter().map(|v| v.exp()).collect()
                } else {
                    e.data.y.clone()
                },
            })
            .collect();
        dump.sort_by(|a, b| {
            (&a.key.workload, &a.key.objective).cmp(&(&b.key.workload, &b.key.objective))
        });
        serde_json::to_string(&dump)
            .map_err(|e| udao_core::Error::InvalidConfig(format!("checkpoint serialization: {e}")))
    }

    /// Restore a server from a [`ModelServer::save_json`] checkpoint,
    /// retraining every entry from its persisted traces.
    pub fn load_json(json: &str) -> Option<ModelServer> {
        let dump: Vec<PersistedEntry> = serde_json::from_str(json).ok()?;
        let server = ModelServer::new();
        for e in dump {
            server.register_inner(e.key.clone(), e.kind, e.log_target);
            server.ingest(&e.key, &Dataset::new(e.x, e.y));
        }
        Some(server)
    }
}

/// One persisted registry entry.
#[derive(Serialize, Deserialize)]
struct PersistedEntry {
    key: ModelKey,
    kind: ModelKind,
    log_target: bool,
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_data(n: usize, slope: f64) -> Dataset {
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1).max(1) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 + slope * r[0]).collect();
        Dataset::new(x, y)
    }

    #[test]
    fn register_ingest_get_round_trip() {
        let server = ModelServer::new();
        let key = ModelKey::new("q2", "latency");
        server.register(key.clone(), ModelKind::Gp(GpConfig::default()));
        assert!(server.get(&key).is_none(), "no model before traces");
        server.ingest(&key, &line_data(20, 5.0));
        let model = server.get(&key).expect("model trained");
        assert!((model.predict(&[0.5]) - 4.5).abs() < 0.3);
        assert_eq!(server.trace_count(&key), 20);
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let server = ModelServer::new();
        let key = ModelKey::new("nope", "latency");
        server.ingest(&key, &line_data(5, 1.0));
        assert!(server.get(&key).is_none());
        assert_eq!(server.trace_count(&key), 0);
        assert_eq!(server.current_version(&key), 0);
        assert!(server.observe(&key, &[0.5], 1.0).is_none());
    }

    #[test]
    fn small_updates_fine_tune_dnn_large_updates_retrain() {
        let server = ModelServer::new();
        let key = ModelKey::new("q9", "latency");
        server.register(
            key.clone(),
            ModelKind::Dnn {
                config: MlpConfig { epochs: 120, hidden: vec![16], ..Default::default() },
                members: 2,
            },
        );
        server.ingest(&key, &line_data(30, 5.0)); // first train: full
        assert_eq!(server.training_stats(&key), (1, 0));
        server.ingest(&key, &line_data(10, 5.0)); // small: fine-tune
        assert_eq!(server.training_stats(&key), (1, 1));
        server.ingest(&key, &line_data(250, 5.0)); // large: retrain
        assert_eq!(server.training_stats(&key), (2, 1));
        // Every publish bumped the version.
        assert_eq!(server.current_version(&key), 3);
    }

    #[test]
    fn small_gp_updates_extend_instead_of_refitting() {
        let reg = udao_telemetry::global();
        let extends_before = reg.counter(names::MODEL_GP_EXTENDS).get();
        let server = ModelServer::new();
        let key = ModelKey::new("q11", "latency");
        server.register(key.clone(), ModelKind::Gp(GpConfig::default()));
        server.ingest(&key, &line_data(20, 5.0)); // first train: full fit
        assert_eq!(server.training_stats(&key), (1, 0));
        server.ingest(&key, &line_data(10, 5.0)); // small: incremental extend
        assert_eq!(server.training_stats(&key), (1, 1), "small GP update must fine-tune");
        assert_eq!(reg.counter(names::MODEL_GP_EXTENDS).get(), extends_before + 1);
        assert_eq!(server.current_version(&key), 2);
        // The extended model still answers accurately on the line.
        let m = server.get(&key).unwrap();
        assert!((m.predict(&[0.5]) - 4.5).abs() < 0.3, "got {}", m.predict(&[0.5]));
        // A large batch still forces the full refit (hyperparameters do
        // eventually re-tune).
        server.ingest(&key, &line_data(250, 5.0));
        assert_eq!(server.training_stats(&key), (2, 1));
    }

    #[test]
    fn precision_setting_wraps_published_models() {
        let server = ModelServer::new();
        let key = ModelKey::new("q12", "latency");
        server.register(key.clone(), ModelKind::Gp(GpConfig::default()));
        server.ingest(&key, &line_data(20, 5.0));
        let f64_model = server.get(&key).unwrap();

        // Verified f32: served values are the f64 shadow, so they match the
        // f64-published model closely; the bound must hold on this data.
        let violations_before = udao_telemetry::global()
            .counter(names::MODEL_F32_VERIFY_VIOLATIONS)
            .get();
        server.set_precision(Precision::F32Verified { rel_tol: 1e-3 });
        assert!(!server.precision().is_f64());
        assert!(server.retrain_now(&key, &Dataset::default()));
        let verified = server.get(&key).unwrap();
        assert!((verified.predict(&[0.5]) - f64_model.predict(&[0.5])).abs() < 1e-9);
        assert_eq!(
            udao_telemetry::global().counter(names::MODEL_F32_VERIFY_VIOLATIONS).get(),
            violations_before,
            "1e-3 relative bound must hold on a well-scaled GP"
        );

        // Pure f32: close to f64 but served from the fast kernels.
        server.set_precision(Precision::F32);
        assert!(server.retrain_now(&key, &Dataset::default()));
        let fast = server.get(&key).unwrap();
        let (a, b) = (fast.predict(&[0.5]), f64_model.predict(&[0.5]));
        assert!((a - b).abs() <= 1e-3 * (1.0 + b.abs()), "{a} vs {b}");
    }

    #[test]
    fn handed_out_models_survive_retrains() {
        let server = ModelServer::new();
        let key = ModelKey::new("q5", "cost");
        server.register(key.clone(), ModelKind::Gp(GpConfig::default()));
        server.ingest(&key, &line_data(15, 3.0));
        let old = server.get(&key).unwrap();
        let before = old.predict(&[0.5]);
        server.ingest(&key, &line_data(250, -3.0)); // retrain on different data
        // The old Arc still answers with the old model.
        assert_eq!(old.predict(&[0.5]), before);
        // The registry serves the new one.
        let new = server.get(&key).unwrap();
        assert!((new.predict(&[0.5]) - before).abs() > 0.5);
    }

    #[test]
    fn leases_pin_versions_and_retire_after_last_drop() {
        let server = ModelServer::new();
        let key = ModelKey::new("q3", "latency");
        server.register(key.clone(), ModelKind::Gp(GpConfig::default()));
        server.ingest(&key, &line_data(15, 3.0));
        let lease_v1 = server.lease(&key).expect("v1 published");
        assert_eq!(lease_v1.version, 1);
        let before = lease_v1.model.predict(&[0.5]);

        // Swap to v2 while v1 is pinned.
        server.ingest(&key, &line_data(250, -3.0));
        assert_eq!(server.current_version(&key), 2);
        assert_eq!(server.lease(&key).unwrap().version, 2);
        // The pinned lease still answers with v1's exact bits.
        assert_eq!(lease_v1.model.predict(&[0.5]).to_bits(), before.to_bits());
        // v1 is retired but not reclaimed while the lease lives.
        assert_eq!(server.retired_unreclaimed(&key), 1);
        drop(lease_v1);
        assert_eq!(server.retired_unreclaimed(&key), 0, "last pin dropped -> reclaimed");
    }

    #[test]
    fn swap_counters_track_replacements_only() {
        // A private scope: other tests swap models in parallel, so the
        // global counter can move under this one. `ingest` publishes on
        // the calling thread, so the scope sees exactly its increments.
        let scope = Arc::new(udao_telemetry::MetricsRegistry::new());
        let _guard = udao_telemetry::enter_scope(Arc::clone(&scope));
        let swaps = || scope.snapshot().counter(names::MODEL_SWAPS);
        let server = ModelServer::new();
        let key = ModelKey::new("q4", "latency");
        server.register(key.clone(), ModelKind::Gp(GpConfig::default()));
        server.ingest(&key, &line_data(15, 3.0)); // initial publish: not a swap
        assert_eq!(swaps(), 0);
        server.ingest(&key, &line_data(250, 2.0)); // replacement: a swap
        assert_eq!(swaps(), 1);
    }

    #[test]
    fn drift_observation_triggers_on_shifted_ground_truth() {
        let server = ModelServer::new();
        server.set_drift_options(DriftOptions { window: 8, threshold: 0.3 });
        let key = ModelKey::new("q6", "latency");
        server.register(key.clone(), ModelKind::Gp(GpConfig::default()));
        server.ingest(&key, &line_data(20, 5.0)); // learns y = 2 + 5x
        // Outcomes matching the model: no drift.
        for i in 0..16 {
            let x = i as f64 / 15.0;
            let v = server.observe(&key, &[x], 2.0 + 5.0 * x).expect("model published");
            assert!(!v.drifted, "accurate outcomes must not trigger");
        }
        assert!(server.drift_score(&key).unwrap_or(1.0) < 0.3);
        // Ground truth shifts: y = 10 + 5x. Observations now miss badly.
        let mut fired = false;
        for i in 0..16 {
            let x = i as f64 / 15.0;
            if server.observe(&key, &[x], 10.0 + 5.0 * x).expect("model").drifted {
                fired = true;
                break;
            }
        }
        assert!(fired, "shifted ground truth must cross the drift threshold");
        // The window reset on trigger.
        assert!(server.drift_score(&key).is_none());
        // retrain_now republishes from the full archive.
        let v_before = server.current_version(&key);
        assert!(server.retrain_now(&key, &line_data(10, 5.0)));
        assert_eq!(server.current_version(&key), v_before + 1);
    }

    #[test]
    fn retrain_now_without_new_traces_still_republishes() {
        let server = ModelServer::new();
        let key = ModelKey::new("q8", "latency");
        server.register(key.clone(), ModelKind::Gp(GpConfig::default()));
        server.ingest(&key, &line_data(15, 3.0));
        assert!(server.retrain_now(&key, &Dataset::default()));
        assert_eq!(server.current_version(&key), 2);
        assert_eq!(server.training_stats(&key).0, 2);
    }

    #[test]
    fn concurrent_ingests_publish_monotone_versions() {
        let server = Arc::new(ModelServer::new());
        let key = ModelKey::new("q10", "latency");
        server.register(key.clone(), ModelKind::Gp(GpConfig::default()));
        server.ingest(&key, &line_data(12, 1.0));
        std::thread::scope(|s| {
            for t in 0..4 {
                let server = Arc::clone(&server);
                let key = key.clone();
                s.spawn(move || {
                    for i in 0..6 {
                        server.retrain_now(&key, &line_data(4, t as f64 + i as f64));
                    }
                });
            }
            // Reads race the publishes and must always see a whole model.
            let server = Arc::clone(&server);
            let key = key.clone();
            s.spawn(move || {
                let mut last = 0;
                for _ in 0..200 {
                    if let Some(l) = server.lease(&key) {
                        assert!(l.version >= last, "versions move forward");
                        last = l.version;
                        assert!(l.model.predict(&[0.5]).is_finite());
                    }
                }
            });
        });
        assert!(server.current_version(&key) >= 2);
    }

    #[test]
    fn log_registered_models_never_predict_negative() {
        use udao_core::ObjectiveModel;
        let server = ModelServer::new();
        let key = ModelKey::new("q7", "latency");
        server.register_log(key.clone(), ModelKind::Gp(GpConfig::default()));
        // Steep positive target: linear-space GPs extrapolate negative here.
        let x: Vec<Vec<f64>> = (0..15).map(|i| vec![i as f64 / 14.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| 0.2 + 100.0 * r[0] * r[0]).collect();
        server.ingest(&key, &Dataset::new(x, y));
        let m = server.get(&key).unwrap();
        for i in 0..50 {
            let p = m.predict(&[i as f64 / 49.0]);
            assert!(p > 0.0, "log-space model predicted {p} at x={i}");
        }
    }

    #[test]
    fn save_load_round_trips_models_exactly() {
        use udao_core::ObjectiveModel;
        let server = ModelServer::new();
        let key = ModelKey::new("q2", "latency");
        server.register_log(key.clone(), ModelKind::Gp(GpConfig::default()));
        server.ingest(&key, &line_data(20, 6.0));
        let original = server.get(&key).unwrap();

        let json = server.save_json().expect("serializes");
        let restored = ModelServer::load_json(&json).expect("loads");
        let model = restored.get(&key).expect("model retrained");
        for i in 0..10 {
            let x = [i as f64 / 9.0];
            assert!(
                (model.predict(&x) - original.predict(&x)).abs() < 1e-9,
                "deterministic retraining reproduces the model"
            );
        }
        assert_eq!(restored.trace_count(&key), 20);
        assert!(ModelServer::load_json("{not json").is_none());
    }

    #[test]
    fn keys_are_sorted() {
        let server = ModelServer::new();
        server.register(ModelKey::new("b", "y"), ModelKind::default());
        server.register(ModelKey::new("a", "z"), ModelKind::default());
        server.register(ModelKey::new("a", "y"), ModelKind::default());
        let keys = server.keys();
        assert_eq!(
            keys,
            vec![ModelKey::new("a", "y"), ModelKey::new("a", "z"), ModelKey::new("b", "y")]
        );
    }
}
