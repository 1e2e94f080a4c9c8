//! Online model lifecycle chaos suite: a swap storm of engine requests
//! racing continuous retrain/swap cycles, drift-triggered retraining
//! observed within one request cycle, and proof that serving never blocks
//! behind a retrain in flight.
//!
//! The central invariant: a solve pins its model versions **once**, at
//! admission, and the whole descent runs against exactly those weights.
//! The swap storm checks it end to end — every `SolveReport` names exactly
//! one version per learned key, no report ever counts a stale serve (the
//! registry's torn-read tripwire), and each recommendation is bitwise
//! identical to a serial replay against its pinned versions.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use udao::{
    BatchRequest, ClassQuotas, LifecycleOptions, ModelFamily, ModelProvider, ServingEngine,
    ServingOptions, Udao,
};
use udao_core::ObjectiveModel;
use udao_model::dataset::Dataset;
use udao_model::drift::DriftOptions;
use udao_model::server::{ModelKey, ModelKind, ModelLease, ModelServer};
use udao_sparksim::fault::{FaultConfig, FaultInjector};
use udao_sparksim::objectives::BatchObjective;
use udao_sparksim::{batch_workloads, ClusterSpec};

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

fn storm_key() -> ModelKey {
    ModelKey::new("q2-v0", "latency")
}

fn q2_request(points: usize) -> BatchRequest {
    BatchRequest::new("q2-v0")
        .objective(BatchObjective::Latency)
        .objective(BatchObjective::CostCores)
        .points(points)
}

/// Full-size storm unless `CHECK_FAST=1` asks for the smoke-sized run.
fn storm_size() -> usize {
    if std::env::var("CHECK_FAST").map(|v| v == "1").unwrap_or(false) {
        240
    } else {
        1000
    }
}

/// Provider that serves real versioned leases from the model server while
/// recording every `(key, version) → model` snapshot it ever hands out, so
/// a serial replay can later re-solve any request against the exact
/// weights its storm-time solve pinned.
struct RecordingProvider {
    inner: Arc<ModelServer>,
    seen: Mutex<HashMap<(ModelKey, u64), Arc<dyn ObjectiveModel>>>,
}

impl ModelProvider for RecordingProvider {
    fn fetch(&self, key: &ModelKey) -> udao_core::Result<Option<Arc<dyn ObjectiveModel>>> {
        Ok(self.inner.get(key))
    }

    fn lease(&self, key: &ModelKey) -> udao_core::Result<Option<ModelLease>> {
        let lease = self.inner.lease(key);
        if let Some(l) = &lease {
            self.seen
                .lock()
                .unwrap()
                .entry((key.clone(), l.version))
                .or_insert_with(|| Arc::clone(&l.model));
        }
        Ok(lease)
    }
}

/// Provider that replays recorded version snapshots: `pin` names the exact
/// version each key must serve (set per replayed request).
struct PinnedProvider {
    seen: Mutex<HashMap<(ModelKey, u64), Arc<dyn ObjectiveModel>>>,
    pin: Mutex<HashMap<ModelKey, u64>>,
}

impl ModelProvider for PinnedProvider {
    fn fetch(&self, key: &ModelKey) -> udao_core::Result<Option<Arc<dyn ObjectiveModel>>> {
        Ok(self.lease(key)?.map(|l| l.model))
    }

    fn lease(&self, key: &ModelKey) -> udao_core::Result<Option<ModelLease>> {
        let Some(version) = self.pin.lock().unwrap().get(key).copied() else {
            return Ok(None);
        };
        let model = self.seen.lock().unwrap().get(&(key.clone(), version)).cloned();
        Ok(model.map(|model| ModelLease { model, version }))
    }
}

/// A small trace batch for the storm's retrain mill. The perturbation is
/// drawn from the seeded `sparksim::fault` sequence, so every run of the
/// storm retrains on the same drifting ground truth.
fn storm_batch(injector: &FaultInjector, dim: usize, round: u64) -> Dataset {
    // Each `lookup_fault` is one seeded coin flip (drop_rate = 0.5).
    let slope = if injector.lookup_fault().is_some() { 5.5 } else { 4.5 };
    let shift = if injector.lookup_fault().is_some() { 2.0 } else { 3.0 };
    let x: Vec<Vec<f64>> = (0..2)
        .map(|p| {
            (0..dim)
                .map(|j| {
                    let v = (round.wrapping_mul(31) + p * 7 + j as u64 * 13) % 97;
                    v as f64 / 96.0
                })
                .collect()
        })
        .collect();
    let y: Vec<f64> =
        x.iter().map(|r| shift + slope * r.iter().sum::<f64>() / dim as f64).collect();
    Dataset::new(x, y)
}

/// The tentpole chaos test: ≥1k engine requests race a continuous
/// retrain/swap mill. Every report must name exactly one pinned version
/// for the learned key, never count a stale serve, and replay bitwise
/// against its pinned weights; afterwards every retired version must be
/// reclaimed.
#[test]
fn swap_storm_pins_one_version_per_request_and_replays_bitwise() {
    let n = storm_size();
    let (variant, options) = quick_pf();
    let builder = Udao::builder(ClusterSpec::paper_cluster()).pf(variant, options);
    let server = builder.shared_model_server();
    let recording = Arc::new(RecordingProvider {
        inner: Arc::clone(&server),
        seen: Mutex::new(HashMap::new()),
    });
    let udao = builder
        .model_provider(Arc::clone(&recording) as Arc<dyn ModelProvider>)
        .build()
        .expect("quick_pf options are valid");
    let workloads = batch_workloads();
    let q2 = workloads.iter().find(|w| w.id == "q2-v0").expect("q2-v0 exists");
    udao.train_batch(q2, 24, ModelFamily::Gp, &[BatchObjective::Latency]);
    let key = storm_key();
    let dim = server.lease(&key).expect("trained").model.dim();
    let udao = Arc::new(udao);

    // The retrain mill: two threads continuously ingest fault-seeded trace
    // batches and force hot-swaps while the engine serves. The archive is
    // capped so GP refits stay cheap; once full the mill keeps swapping
    // (empty batches still bump the version) at the same cadence.
    let stop = Arc::new(AtomicBool::new(false));
    let mill: Vec<_> = (0..2u64)
        .map(|t| {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            let key = key.clone();
            std::thread::spawn(move || {
                let injector = FaultInjector::new(FaultConfig {
                    drop_rate: 0.5,
                    seed: 0xC0FF_EE00 + t,
                    ..Default::default()
                });
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let batch = if server.trace_count(&key) < 80 {
                        storm_batch(&injector, dim, round)
                    } else {
                        Dataset::default()
                    };
                    server.retrain_now(&key, &batch);
                    round += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        })
        .collect();

    let mut engine: ServingEngine<BatchObjective> = ServingEngine::start_with(
        Arc::clone(&udao),
        ServingOptions::default()
            .with_workers(4)
            .with_queue_depth(n)
            // The storm floods the whole queue with one (standard) class;
            // the derived per-class quotas would shed the tail, which is
            // not what this suite measures.
            .with_class_quotas(ClassQuotas { interactive: n, standard: n, batch: n }),
    );
    let points_of = |i: usize| 2 + (i % 3);
    let handles: Vec<_> =
        (0..n).map(|i| engine.submit(q2_request(points_of(i))).expect("admitted")).collect();
    let recs: Vec<_> =
        handles.into_iter().map(|h| h.wait().expect("storm solve succeeds")).collect();
    stop.store(true, Ordering::Relaxed);
    for handle in mill {
        handle.join().expect("retrain mill exits cleanly");
    }
    engine.shutdown();

    // Invariants on every single report: no stale serve ever (the registry
    // tripwire would have counted one on any torn read), and exactly one
    // pinned version for the learned latency key.
    let final_version = server.current_version(&key);
    assert!(final_version > 1, "the storm must actually swap (stuck at v{final_version})");
    let mut distinct = std::collections::BTreeSet::new();
    for (i, rec) in recs.iter().enumerate() {
        assert_eq!(rec.report.stale_served, 0, "request {i} served a stale version");
        assert_eq!(
            rec.report.model_versions.len(),
            1,
            "request {i} must pin exactly one learned model, got {:?}",
            rec.report.model_versions
        );
        let (name, version) = &rec.report.model_versions[0];
        assert_eq!(name, "latency");
        assert!(
            *version >= 1 && *version <= final_version,
            "request {i} pinned impossible version {version} (registry at {final_version})"
        );
        distinct.insert(*version);
    }
    assert!(
        distinct.len() >= 2,
        "a {n}-request storm against a continuous mill must observe several versions"
    );

    // Serial replay: re-solve each request against exactly the versions its
    // report names. Bitwise equality proves no solve ever mixed weights
    // from two versions mid-descent.
    let pinned = Arc::new(PinnedProvider {
        seen: Mutex::new(recording.seen.lock().unwrap().clone()),
        pin: Mutex::new(HashMap::new()),
    });
    let (variant, options) = quick_pf();
    let replay = Udao::builder(ClusterSpec::paper_cluster())
        .pf(variant, options)
        .model_provider(Arc::clone(&pinned) as Arc<dyn ModelProvider>)
        .build()
        .expect("quick_pf options are valid");
    for (i, rec) in recs.iter().enumerate() {
        let pins: HashMap<ModelKey, u64> = rec
            .report
            .model_versions
            .iter()
            .map(|(name, version)| (ModelKey::new("q2-v0", name.clone()), *version))
            .collect();
        *pinned.pin.lock().unwrap() = pins;
        let again = replay.recommend(&q2_request(points_of(i))).expect("replay solve");
        assert_eq!(again.frontier.len(), rec.frontier.len(), "request {i} frontier size");
        for (a, b) in rec.x.iter().zip(&again.x) {
            assert_eq!(a.to_bits(), b.to_bits(), "request {i}: x differs from pinned replay");
        }
        for (a, b) in rec.predicted.iter().zip(&again.predicted) {
            assert_eq!(a.to_bits(), b.to_bits(), "request {i}: prediction differs from replay");
        }
        assert_eq!(again.report.model_versions, rec.report.model_versions);
    }

    // Reclamation: once the replay snapshots (the only remaining pins on
    // retired versions) are gone, the registry must hold no retired
    // weights alive.
    recording.seen.lock().unwrap().clear();
    pinned.seen.lock().unwrap().clear();
    drop(replay);
    assert_eq!(
        server.retired_unreclaimed(&key),
        0,
        "retired versions must be reclaimed once the last pin drops"
    );
}

/// Drift closes the loop within one request cycle: a request before the
/// drift pins vN; a drifted observation window then forces a retrain, and
/// the very next request already pins (and reports) vN+1.
#[test]
fn drift_retrain_is_visible_to_the_next_request() {
    let (variant, options) = quick_pf();
    let udao = Udao::builder(ClusterSpec::paper_cluster())
        .pf(variant, options)
        .build()
        .expect("quick_pf options are valid");
    let workloads = batch_workloads();
    let q2 = workloads.iter().find(|w| w.id == "q2-v0").expect("q2-v0 exists");
    udao.train_batch(q2, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
    let key = storm_key();
    let server = udao.shared_model_server();
    assert_eq!(server.current_version(&key), 1);

    let mgr = udao
        .start_lifecycle(LifecycleOptions {
            retrain_batch: 1000, // only the drift path may retrain here
            drift: DriftOptions { window: 8, threshold: 0.3 },
            ..Default::default()
        })
        .expect("lifecycle starts");

    let before = udao.recommend(&q2_request(3)).expect("pre-drift solve");
    assert_eq!(before.report.model_versions, vec![("latency".to_string(), 1)]);

    // Observed reality an order of magnitude off the prediction: one full
    // window is enough evidence to trip the detector.
    for _ in 0..8 {
        assert!(mgr.observe(
            key.clone(),
            before.x.clone(),
            before.predicted[0].abs() * 10.0 + 5.0
        ));
    }
    mgr.flush();
    assert_eq!(mgr.stats().drift_retrains, 1, "one full drifted window, one forced retrain");
    assert_eq!(server.current_version(&key), 2, "the retrain published a new version");
    assert_eq!(server.drift_score(&key), None, "the window resets after firing");

    // Within one request cycle: the very next solve pins the new version
    // (its problem generation changed with it, so no memoized evaluation
    // from v1 can leak into this answer).
    let after = udao.recommend(&q2_request(3)).expect("post-drift solve");
    assert_eq!(after.report.model_versions, vec![("latency".to_string(), 2)]);
    assert_eq!(after.report.stale_served, 0);
}

/// The lifecycle fan-out reclaims cached frontiers: a drift-forced retrain
/// publishes new weights and, in the same publish step, drops every
/// frontier-cache entry pinned to the retired version — the next request
/// is a cold miss against the new model, never a stale serve.
#[test]
fn lifecycle_retrain_invalidates_cached_frontiers() {
    let (variant, options) = quick_pf();
    let udao = Udao::builder(ClusterSpec::paper_cluster())
        .pf(variant, options)
        .frontier_cache(16)
        .build()
        .expect("quick_pf options are valid");
    let workloads = batch_workloads();
    let q2 = workloads.iter().find(|w| w.id == "q2-v0").expect("q2-v0 exists");
    udao.train_batch(q2, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
    let mgr = udao
        .start_lifecycle(LifecycleOptions {
            retrain_batch: 1000, // only the drift path may retrain here
            drift: DriftOptions { window: 8, threshold: 0.3 },
            ..Default::default()
        })
        .expect("lifecycle starts");

    let before = udao.recommend(&q2_request(3)).expect("pre-drift solve");
    let cache = udao.frontier_cache().expect("cache enabled");
    assert_eq!(cache.len(), 1, "the solve cached its frontier");

    for _ in 0..8 {
        assert!(mgr.observe(
            storm_key(),
            before.x.clone(),
            before.predicted[0].abs() * 10.0 + 5.0
        ));
    }
    mgr.flush();
    assert_eq!(mgr.stats().drift_retrains, 1);
    assert_eq!(
        cache.len(),
        0,
        "the publish fan-out must drop frontiers built on the retired weights"
    );
    let after = udao.recommend(&q2_request(3)).expect("post-drift solve");
    assert_eq!(after.report.cache_served, 0, "nothing cached survives the swap");
    assert_eq!(after.report.cache_misses, 1);
    assert_eq!(after.report.model_versions, vec![("latency".to_string(), 2)]);
    assert_eq!(after.report.stale_served, 0);
}

/// Swap-storm variant over the frontier cache: rounds of forced hot-swaps
/// interleaved with repeat requests. Every post-swap request must be a
/// cache miss pinned to the fresh version — across the whole storm the
/// cache never serves a frontier computed from retired weights — while
/// unswapped repeats keep hitting.
#[test]
fn swap_storm_never_serves_frontiers_from_retired_weights() {
    let (variant, options) = quick_pf();
    let udao = Udao::builder(ClusterSpec::paper_cluster())
        .pf(variant, options)
        .frontier_cache(64)
        .build()
        .expect("quick_pf options are valid");
    let workloads = batch_workloads();
    let q2 = workloads.iter().find(|w| w.id == "q2-v0").expect("q2-v0 exists");
    udao.train_batch(q2, 24, ModelFamily::Gp, &[BatchObjective::Latency]);
    let key = storm_key();
    let server = udao.shared_model_server();
    let dim = server.lease(&key).expect("trained").model.dim();
    let injector = FaultInjector::new(FaultConfig { drop_rate: 0.5, seed: 0xCAC4E, ..Default::default() });

    for round in 0..8u64 {
        let expected_version = server.current_version(&key);
        let cold = udao.recommend(&q2_request(3)).expect("post-swap solve");
        assert_eq!(
            cold.report.cache_served, 0,
            "round {round}: a frontier from retired weights was served"
        );
        assert_eq!(
            cold.report.model_versions,
            vec![("latency".to_string(), expected_version)],
            "round {round}: the miss must pin the live version"
        );
        assert_eq!(cold.report.stale_served, 0);
        let hit = udao.recommend(&q2_request(3)).expect("repeat solve");
        assert_eq!(
            hit.report.cache_served, 1,
            "round {round}: an unswapped repeat must hit the cache"
        );
        // Force the hot-swap for the next round on real drifting traces.
        let batch = if server.trace_count(&key) < 80 {
            storm_batch(&injector, dim, round)
        } else {
            Dataset::default()
        };
        assert!(server.retrain_now(&key, &batch), "round {round}: forced retrain publishes");
        assert_eq!(server.current_version(&key), expected_version + 1);
    }
    // Unreachable retired-version entries are bounded: the idle prune
    // reclaims everything but the live round's frontier.
    let cache = udao.frontier_cache().expect("cache enabled");
    assert!(udao.prune_idle() > 0, "the storm left stale entries to reclaim");
    assert!(cache.len() <= 1, "only the live-version entry may survive the prune");
}

/// Per-stage variant of the cache swap storm: stage-shaped cache entries
/// pin every per-stage learned model version inside their key, so a
/// hot-swap of any *single* stage's model makes the cached frontier
/// unreachable — the next per-stage solve is a cold miss pinned to the
/// fresh version, unswapped repeats keep hitting, and the idle prune
/// reclaims every retired-version stage entry.
#[test]
fn per_stage_swap_storm_invalidates_stage_cache_entries() {
    use udao::{Fold, StageMode, StageObjectiveSpec, StageRequest};
    use udao_sparksim::StageFixture;
    let (variant, options) = quick_pf();
    let udao = Udao::builder(ClusterSpec::paper_cluster())
        .pf(variant, options)
        .frontier_cache(64)
        .build()
        .expect("quick_pf options are valid");
    let fx = StageFixture::chain2();
    let server = udao.shared_model_server();
    // One GP per (stage, objective), keyed `{workload}::stage{i}` exactly
    // as the tuner resolves them; inputs are the stage's (global knob,
    // own knob) block.
    let keys: Vec<ModelKey> = (0..fx.len())
        .flat_map(|i| {
            ["latency", "cost"]
                .map(|name| ModelKey::new(format!("stagestorm::stage{i}"), name))
        })
        .collect();
    let xs: Vec<Vec<f64>> =
        (0..25).map(|k| vec![(k % 5) as f64 / 4.0, (k / 5) as f64 / 4.0]).collect();
    for (j, key) in keys.iter().enumerate() {
        let ys: Vec<f64> =
            xs.iter().map(|r| 1.0 + (j + 1) as f64 * r[0] + 2.0 * r[1] * r[1]).collect();
        server.register(key.clone(), ModelKind::Gp(Default::default()));
        server.ingest(key, &Dataset::new(xs.clone(), ys));
        assert_eq!(server.current_version(key), 1, "seed publish for {key:?}");
    }
    let request = || {
        StageRequest::new("stagestorm", fx.dag.clone(), fx.space())
            .objective(StageObjectiveSpec::learned("latency", Fold::CriticalPath))
            .objective(StageObjectiveSpec::learned("cost", Fold::Sum))
            .points(3)
            .mode(StageMode::Descent)
    };
    let cache = udao.frontier_cache().expect("cache enabled");

    for round in 0..6u64 {
        let cold = udao.recommend_stages(&request()).expect("post-swap solve");
        assert_eq!(
            cold.report.cache_served, 0,
            "round {round}: a stage frontier from retired weights was served"
        );
        assert_eq!(cold.report.stale_served, 0);
        // The report pins one version per (stage, objective), and each one
        // is the registry's live version at admission.
        assert_eq!(cold.report.model_versions.len(), keys.len(), "round {round}");
        for (entry, version) in &cold.report.model_versions {
            let (stage_part, name) = entry.split_once('/').expect("stage-scoped entry");
            let key = ModelKey::new(format!("stagestorm::{stage_part}"), name);
            assert_eq!(
                *version,
                server.current_version(&key),
                "round {round}: {entry} must pin the live version"
            );
        }
        let hit = udao.recommend_stages(&request()).expect("repeat solve");
        assert_eq!(
            hit.report.cache_served, 1,
            "round {round}: an unswapped repeat must hit the stage entry"
        );
        // Hot-swap a single stage model: one version bump is enough to
        // retire the whole composed entry.
        let swap = &keys[(round as usize) % keys.len()];
        assert!(server.retrain_now(swap, &Dataset::default()), "round {round}: swap publishes");
    }
    // Every entry in the cache is now pinned to at least one retired
    // version (the final swap retired the live round's too): the idle
    // prune must reclaim them all, parsing the stage-scoped entry names.
    assert!(udao.prune_idle() > 0, "the storm left stale stage entries to reclaim");
    assert_eq!(cache.len(), 0, "no stage entry may outlive its pinned versions");
}

/// Idle serving workers reclaim stale cache entries on their own: after a
/// hot-swap retires the cached frontier's weights, an idle engine (no
/// further requests) prunes the entry within a few idle periods.
#[test]
fn idle_serving_workers_prune_stale_cache_entries() {
    let (variant, options) = quick_pf();
    let udao = Udao::builder(ClusterSpec::paper_cluster())
        .pf(variant, options)
        .frontier_cache(16)
        .build()
        .expect("quick_pf options are valid");
    let workloads = batch_workloads();
    let q2 = workloads.iter().find(|w| w.id == "q2-v0").expect("q2-v0 exists");
    udao.train_batch(q2, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
    let udao = Arc::new(udao);
    let mut engine: ServingEngine<BatchObjective> = ServingEngine::start_with(
        Arc::clone(&udao),
        ServingOptions::default().with_workers(2),
    );
    let rec = engine.solve(q2_request(3)).expect("engine solve");
    assert_eq!(rec.report.cache_misses, 1);
    let cache = udao.frontier_cache().expect("cache enabled");
    assert_eq!(cache.len(), 1);

    // Retire the weights underneath the cached frontier, then go idle.
    assert!(udao.shared_model_server().retrain_now(&storm_key(), &Dataset::default()));
    let deadline = Instant::now() + Duration::from_secs(5);
    while cache.len() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        cache.len(),
        0,
        "idle workers must reclaim the stale entry without any request traffic"
    );
    engine.shutdown();
}

/// Serving never blocks behind training: while a deliberately large full
/// GP refit grinds on another thread, `lease` keeps answering from the old
/// version with low latency, and the swap lands atomically afterwards.
#[test]
fn lease_never_blocks_behind_a_slow_retrain() {
    let key = ModelKey::new("w", "latency");
    let server = Arc::new(ModelServer::new());
    server.register(key.clone(), ModelKind::Gp(Default::default()));
    let seed: Vec<Vec<f64>> = (0..24).map(|i| vec![i as f64 / 23.0]).collect();
    let seed_y: Vec<f64> = seed.iter().map(|r| 2.0 + 5.0 * r[0]).collect();
    server.ingest(&key, &Dataset::new(seed, seed_y));
    assert_eq!(server.current_version(&key), 1);

    // A big batch makes the Phase-2 (off-lock) Cholesky slow enough that
    // the serving thread demonstrably overlaps it.
    let big: Vec<Vec<f64>> = (0..500).map(|i| vec![(i % 100) as f64 / 99.0 + i as f64 * 1e-5]).collect();
    let big_y: Vec<f64> = big.iter().map(|r| 2.0 + 5.0 * r[0]).collect();
    let big = Dataset::new(big, big_y);
    let training = Arc::new(AtomicBool::new(true));
    let trainer = {
        let server = Arc::clone(&server);
        let key = key.clone();
        let training = Arc::clone(&training);
        std::thread::spawn(move || {
            let published = server.retrain_now(&key, &big);
            training.store(false, Ordering::Release);
            published
        })
    };

    let mut old_version_leases = 0u64;
    let mut last_version = 0u64;
    let mut slowest = Duration::ZERO;
    while training.load(Ordering::Acquire) {
        let started = Instant::now();
        let lease = server.lease(&key).expect("old version keeps serving");
        let took = started.elapsed();
        slowest = slowest.max(took);
        if training.load(Ordering::Acquire) {
            // The publish lands *inside* `retrain_now`, strictly before the
            // trainer clears `training`, so a v2 lease here only means the
            // swap already landed — asserting v1 outright races the store.
            // What must hold: versions move 1 → 2 monotonically (never torn
            // or rolled back), and the slow refit serves the old version
            // throughout — counted below.
            assert!(
                lease.version >= last_version,
                "version rolled back mid-retrain: {} after {last_version}",
                lease.version
            );
            assert!(lease.version <= 2, "impossible version {} during one retrain", lease.version);
            last_version = lease.version;
            if lease.version == 1 {
                old_version_leases += 1;
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    assert!(trainer.join().expect("trainer exits"), "the slow retrain must publish");
    assert!(
        old_version_leases > 0,
        "the refit must be slow enough for the serving thread to lease the old version meanwhile"
    );
    assert!(
        slowest < Duration::from_millis(250),
        "lease stalled {slowest:?} behind an off-lock retrain"
    );
    assert_eq!(server.current_version(&key), 2, "the swap lands after training");
    assert_eq!(server.lease(&key).expect("served").version, 2);
}
