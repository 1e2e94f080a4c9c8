//! Cross-request frontier cache: sharded, versioned storage of solved
//! Pareto frontiers keyed by what actually determines them.
//!
//! A solved frontier is a pure function of `(workload, objective set,
//! constraint region, point budget, pinned model versions)` — requests
//! that agree on all of those can share one MOO run. The cache stores
//! each finished [`PfSeed`] (frontier **plus** the Progressive Frontier's
//! remaining uncertain rectangles) under a two-level key:
//!
//! * **[`FrontierKey`]** — workload id, ordered objective names, the
//!   *quantized* constraint region (each finite bound truncated to its
//!   sign, exponent, and top [`REGION_MANTISSA_BITS`] mantissa bits, a
//!   ≈1.6 % relative grid), and the exact `(objective, version)` pairs
//!   the solve pinned. The version fingerprint makes hot-swaps
//!   self-invalidating: a republished model changes the fingerprint, so a
//!   stale entry can never be *found*, only reclaimed.
//! * **[`RequestFingerprint`]** — the exact (bit-pattern) constraint
//!   bounds and the requested point budget.
//!
//! A lookup whose key and fingerprint both match is an **exact hit**: the
//! cached frontier answers the request with no MOO run at all (the caller
//! re-runs only the cheap weighted selection, so differing preference
//! weights still share one entry). A matching key with a differing
//! fingerprint — nearby constraints inside the same quantization cell, or
//! a different point budget — is a **near hit**: the caller warm-starts
//! MOGD from the cached Pareto configurations and resumes PF probing from
//! the cached uncertain rectangles instead of the full objective-space
//! box.
//!
//! Invalidation has three cooperating paths:
//! 1. keys embed pinned versions, so swapped entries go unreachable
//!    immediately (correctness);
//! 2. the lifecycle loop calls [`FrontierCache::invalidate_model`] on
//!    every publish, dropping the retired entries eagerly (reclamation);
//! 3. idle serving workers call [`FrontierCache::prune_stale`]
//!    periodically, reclaiming entries whose pinned versions no longer
//!    match the registry even when no lifecycle manager runs.
//!
//! Telemetry: the cache counts `cache.inserts`, `cache.evictions`, and
//! `cache.invalidations`; the serving path counts `cache.served`,
//! `cache.warm_starts`, and `cache.misses` where the decision is made.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use udao_core::pf::PfSeed;
use udao_telemetry::names;

/// Shard count: enough to keep concurrent serving workers off one lock.
const SHARDS: usize = 16;

/// Mantissa bits kept when quantizing a constraint bound into its region
/// cell (sign and exponent are always kept): 6 bits ≈ a 1.6 % relative
/// grid, so "the same constraint, give or take solver noise" lands in one
/// cell while genuinely different regions do not.
pub const REGION_MANTISSA_BITS: u32 = 6;

/// Quantize one constraint bound to its region cell: keep sign, exponent,
/// and the top [`REGION_MANTISSA_BITS`] mantissa bits of the `f64`.
fn region_cell(v: f64) -> u64 {
    let keep = 52 - REGION_MANTISSA_BITS;
    // NaN never matches itself through bit-identity anyway; normalize the
    // two zero encodings so -0.0 and 0.0 share a cell.
    let v = if v == 0.0 { 0.0 } else { v };
    v.to_bits() & !((1u64 << keep) - 1)
}

/// What determines a frontier, quantized: the cache's primary key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierKey {
    workload_id: String,
    objectives: Vec<String>,
    /// Quantized `[lo, hi]` cell per objective (`None` = unconstrained).
    region: Vec<Option<(u64, u64)>>,
    /// `(objective name, pinned model version)` per learned objective.
    versions: Vec<(String, u64)>,
    /// Structural shape fingerprint for per-stage requests: a hash of the
    /// stage DAG shape, block dimensions, and solve mode. `0` for plain
    /// workload-level requests, so two requests that agree on everything
    /// else but differ in DAG shape can never share a frontier.
    shape: u64,
}

impl Hash for FrontierKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.workload_id.hash(state);
        self.objectives.hash(state);
        self.region.hash(state);
        self.versions.hash(state);
        self.shape.hash(state);
    }
}

/// The exact request parameters an exact hit must also match: bit-pattern
/// constraint bounds and the Pareto point budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestFingerprint {
    bounds: Vec<Option<(u64, u64)>>,
    points: usize,
}

impl FrontierKey {
    /// Build the key/fingerprint pair for one request, from the pieces the
    /// optimizer has at solve time. `versions` are the pinned
    /// `(objective, version)` pairs of the freshly built problem — which
    /// is exactly what makes a later lookup against retired weights
    /// impossible.
    pub fn for_request(
        workload_id: &str,
        objectives: &[&str],
        constraints: &[Option<(f64, f64)>],
        points: usize,
        versions: &[(String, u64)],
    ) -> (Self, RequestFingerprint) {
        Self::for_request_shaped(workload_id, objectives, constraints, points, versions, 0)
    }

    /// [`for_request`](Self::for_request) with a non-zero stage-shape
    /// fingerprint — used by per-stage solves so frontiers computed for
    /// one DAG shape are structurally unreachable from any other shape
    /// (or from plain workload-level requests, which use shape `0`).
    pub fn for_request_shaped(
        workload_id: &str,
        objectives: &[&str],
        constraints: &[Option<(f64, f64)>],
        points: usize,
        versions: &[(String, u64)],
        shape: u64,
    ) -> (Self, RequestFingerprint) {
        let key = FrontierKey {
            workload_id: workload_id.to_string(),
            objectives: objectives.iter().map(|s| s.to_string()).collect(),
            region: constraints
                .iter()
                .map(|c| c.map(|(lo, hi)| (region_cell(lo), region_cell(hi))))
                .collect(),
            versions: versions.to_vec(),
            shape,
        };
        let fingerprint = RequestFingerprint {
            bounds: constraints
                .iter()
                .map(|c| c.map(|(lo, hi)| (lo.to_bits(), hi.to_bits())))
                .collect(),
            points,
        };
        (key, fingerprint)
    }

    /// Workload this key belongs to.
    pub fn workload_id(&self) -> &str {
        &self.workload_id
    }

    /// The stage-shape fingerprint (`0` for workload-level requests).
    pub fn shape(&self) -> u64 {
        self.shape
    }

    /// The pinned `(objective, version)` pairs embedded in the key.
    pub fn versions(&self) -> &[(String, u64)] {
        &self.versions
    }
}

/// A cached solved frontier: the [`PfSeed`] exported by the Progressive
/// Frontier run that produced it (Pareto points, utopia/nadir corners,
/// and the remaining uncertain rectangles a resumed run probes next).
#[derive(Debug, Clone)]
pub struct CachedFrontier {
    /// The finished run's exported state.
    pub seed: PfSeed,
}

/// Outcome of a cache lookup; see the module docs for hit semantics.
#[derive(Debug, Clone)]
pub enum CacheLookup {
    /// Key and fingerprint both match: serve the frontier directly.
    Exact(Arc<CachedFrontier>),
    /// Key matches, fingerprint does not: warm-start from the entry.
    Near(Arc<CachedFrontier>),
    /// Nothing usable cached.
    Miss,
}

struct Entry {
    fingerprint: RequestFingerprint,
    value: Arc<CachedFrontier>,
    /// Last-touched stamp from the shard clock (LRU eviction order).
    stamp: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<FrontierKey, Entry>,
    clock: u64,
}

/// The sharded, versioned cross-request frontier cache; see module docs.
pub struct FrontierCache {
    shards: Vec<RwLock<Shard>>,
    per_shard_cap: usize,
    capacity: usize,
}

impl std::fmt::Debug for FrontierCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontierCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl FrontierCache {
    /// Create a cache holding at most `capacity` frontiers (floored at 1).
    /// The bound is enforced per shard (`ceil(capacity / 16)` each), so
    /// under a skewed key distribution the realized total can sit below
    /// `capacity` — never above it.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let per_shard_cap = capacity.div_ceil(SHARDS).max(1);
        FrontierCache {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            per_shard_cap,
            capacity,
        }
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached frontiers across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().map.len()).sum()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_of(&self, key: &FrontierKey) -> &RwLock<Shard> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Look up the entry for `key`, classifying it against `fingerprint`;
    /// touching an entry refreshes its LRU stamp.
    pub fn lookup(&self, key: &FrontierKey, fingerprint: &RequestFingerprint) -> CacheLookup {
        let mut shard = self.shard_of(key).write();
        shard.clock += 1;
        let stamp = shard.clock;
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.stamp = stamp;
                if entry.fingerprint == *fingerprint {
                    CacheLookup::Exact(Arc::clone(&entry.value))
                } else {
                    CacheLookup::Near(Arc::clone(&entry.value))
                }
            }
            None => CacheLookup::Miss,
        }
    }

    /// Insert (or replace) the frontier for `key`, evicting the
    /// least-recently-touched entries of the shard beyond its capacity
    /// share. Counts `cache.inserts` and `cache.evictions`.
    pub fn insert(
        &self,
        key: FrontierKey,
        fingerprint: RequestFingerprint,
        value: CachedFrontier,
    ) {
        let mut shard = self.shard_of(&key).write();
        shard.clock += 1;
        let stamp = shard.clock;
        shard
            .map
            .insert(key, Entry { fingerprint, value: Arc::new(value), stamp });
        udao_telemetry::counter(names::CACHE_INSERTS).inc();
        while shard.map.len() > self.per_shard_cap {
            let Some(oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            shard.map.remove(&oldest);
            udao_telemetry::counter(names::CACHE_EVICTIONS).inc();
        }
    }

    /// Drop every entry whose key pins a version of `(workload_id,
    /// objective)` — the lifecycle fan-out called on each model publish.
    /// Returns the number of entries
    /// dropped and counts each as `cache.invalidations`.
    pub fn invalidate_model(&self, workload_id: &str, objective: &str) -> usize {
        self.invalidate_where(|key| {
            key.workload_id == workload_id
                && key.versions.iter().any(|(name, _)| name == objective)
        })
    }

    /// Drop every entry (e.g. on cluster reconfiguration). Returns the
    /// number dropped, counted as `cache.invalidations`.
    pub fn invalidate_all(&self) -> usize {
        self.invalidate_where(|_| true)
    }

    /// Drop entries whose pinned versions no longer match what `current`
    /// reports for `(workload, objective)` — the idle-path reclamation of
    /// entries retired while no lifecycle manager was watching. Returns
    /// the number dropped, counted as `cache.invalidations`.
    pub fn prune_stale(&self, current: impl Fn(&str, &str) -> u64) -> usize {
        self.invalidate_where(|key| {
            key.versions
                .iter()
                .any(|(name, pinned)| current(&key.workload_id, name) != *pinned)
        })
    }

    fn invalidate_where(&self, doomed: impl Fn(&FrontierKey) -> bool) -> usize {
        let mut dropped = 0usize;
        for shard in &self.shards {
            let mut shard = shard.write();
            let before = shard.map.len();
            shard.map.retain(|key, _| !doomed(key));
            dropped += before - shard.map.len();
        }
        if dropped > 0 {
            udao_telemetry::counter(names::CACHE_INVALIDATIONS).add(dropped as u64);
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udao_core::hyperrect::Rect;
    use udao_core::pareto::ParetoPoint;

    fn seed() -> PfSeed {
        PfSeed {
            frontier: vec![ParetoPoint::new(vec![0.3, 0.7], vec![1.0, 2.0])],
            utopia: vec![0.0, 0.0],
            nadir: vec![4.0, 4.0],
            uncertain: vec![Rect::new(vec![1.0, 0.0], vec![4.0, 2.0])],
            initial_volume: 16.0,
        }
    }

    fn versions() -> Vec<(String, u64)> {
        vec![("latency".to_string(), 3)]
    }

    fn key_for(
        constraints: &[Option<(f64, f64)>],
        points: usize,
        versions: &[(String, u64)],
    ) -> (FrontierKey, RequestFingerprint) {
        FrontierKey::for_request("q2-v0", &["latency", "cost_cores"], constraints, points, versions)
    }

    #[test]
    fn exact_near_and_miss_are_classified() {
        let cache = FrontierCache::new(8);
        let constraints = vec![None, Some((4.0, 58.0))];
        let (key, fp) = key_for(&constraints, 10, &versions());
        assert!(matches!(cache.lookup(&key, &fp), CacheLookup::Miss));
        cache.insert(key.clone(), fp.clone(), CachedFrontier { seed: seed() });
        assert!(matches!(cache.lookup(&key, &fp), CacheLookup::Exact(_)));

        // Same quantization cell, different exact bound: near hit.
        let nearby = vec![None, Some((4.0, 58.0 + 1e-9))];
        let (near_key, near_fp) = key_for(&nearby, 10, &versions());
        assert_eq!(key, near_key, "a 1e-9 nudge stays in the region cell");
        assert!(matches!(cache.lookup(&near_key, &near_fp), CacheLookup::Near(_)));

        // Different point budget: same key, near hit.
        let (pts_key, pts_fp) = key_for(&constraints, 11, &versions());
        assert_eq!(key, pts_key);
        assert!(matches!(cache.lookup(&pts_key, &pts_fp), CacheLookup::Near(_)));

        // A genuinely different region or swapped versions: miss.
        let far = vec![None, Some((4.0, 80.0))];
        let (far_key, far_fp) = key_for(&far, 10, &versions());
        assert!(matches!(cache.lookup(&far_key, &far_fp), CacheLookup::Miss));
        let swapped = vec![("latency".to_string(), 4)];
        let (swap_key, swap_fp) = key_for(&constraints, 10, &swapped);
        assert!(matches!(cache.lookup(&swap_key, &swap_fp), CacheLookup::Miss));
    }

    #[test]
    fn capacity_evicts_least_recently_touched() {
        // Capacity 16 = one entry per shard; a shard receiving two keys
        // must evict its older one.
        let cache = FrontierCache::new(16);
        let mut keys = Vec::new();
        for i in 0..64 {
            let constraints = vec![Some((i as f64, i as f64 + 10.0)), None];
            let (key, fp) = key_for(&constraints, 10, &versions());
            cache.insert(key.clone(), fp.clone(), CachedFrontier { seed: seed() });
            keys.push((key, fp));
        }
        assert!(cache.len() <= 16, "len {} over capacity", cache.len());
        assert!(!cache.is_empty());
        // The most recent insert always survives its own shard's eviction.
        let (last_key, last_fp) = keys.last().expect("inserted some");
        assert!(matches!(cache.lookup(last_key, last_fp), CacheLookup::Exact(_)));
    }

    #[test]
    fn invalidation_targets_only_the_published_model() {
        let cache = FrontierCache::new(32);
        let constraints = vec![None, None];
        let (key_a, fp_a) = key_for(&constraints, 10, &versions());
        cache.insert(key_a.clone(), fp_a.clone(), CachedFrontier { seed: seed() });
        let other_versions = vec![("throughput".to_string(), 1)];
        let (key_b, fp_b) = key_for(&constraints, 10, &other_versions);
        cache.insert(key_b.clone(), fp_b.clone(), CachedFrontier { seed: seed() });

        assert_eq!(cache.invalidate_model("q2-v0", "latency"), 1);
        assert!(matches!(cache.lookup(&key_a, &fp_a), CacheLookup::Miss));
        assert!(matches!(cache.lookup(&key_b, &fp_b), CacheLookup::Exact(_)));
        // Publishing a model for a different workload touches nothing.
        assert_eq!(cache.invalidate_model("q9-v0", "throughput"), 0);
        assert_eq!(cache.invalidate_all(), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn prune_stale_drops_entries_behind_the_registry() {
        let cache = FrontierCache::new(32);
        let constraints = vec![None, None];
        let (key, fp) = key_for(&constraints, 10, &versions()); // pins latency=3
        cache.insert(key.clone(), fp.clone(), CachedFrontier { seed: seed() });
        // Registry still at version 3: nothing to prune.
        assert_eq!(cache.prune_stale(|_, _| 3), 0);
        assert!(matches!(cache.lookup(&key, &fp), CacheLookup::Exact(_)));
        // Registry moved to version 4: the entry is reclaimed.
        assert_eq!(cache.prune_stale(|_, _| 4), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn stage_shape_fingerprints_partition_the_key_space() {
        let cache = FrontierCache::new(32);
        let constraints = vec![None, None];
        // A per-stage entry under shape A...
        let (key_a, fp_a) = FrontierKey::for_request_shaped(
            "q2-v0", &["latency", "cost_cores"], &constraints, 10, &versions(), 0xA11CE,
        );
        cache.insert(key_a.clone(), fp_a.clone(), CachedFrontier { seed: seed() });
        assert_eq!(key_a.shape(), 0xA11CE);
        // ...is invisible to an identical request with a different DAG
        // shape, and to the plain workload-level request (shape 0).
        let (key_b, fp_b) = FrontierKey::for_request_shaped(
            "q2-v0", &["latency", "cost_cores"], &constraints, 10, &versions(), 0xB0B,
        );
        assert_ne!(key_a, key_b);
        assert!(matches!(cache.lookup(&key_b, &fp_b), CacheLookup::Miss));
        let (key_plain, fp_plain) =
            key_for(&constraints, 10, &versions());
        assert_eq!(key_plain.shape(), 0);
        assert!(matches!(cache.lookup(&key_plain, &fp_plain), CacheLookup::Miss));
        // The shaped entry itself still hits exactly.
        assert!(matches!(cache.lookup(&key_a, &fp_a), CacheLookup::Exact(_)));
        // Model invalidation reaches shaped entries too.
        assert_eq!(cache.invalidate_model("q2-v0", "latency"), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn zero_capacity_is_floored_and_zero_cells_normalized() {
        let cache = FrontierCache::new(0);
        assert_eq!(cache.capacity(), 1);
        assert_eq!(region_cell(0.0), region_cell(-0.0));
        assert_ne!(region_cell(1.0), region_cell(2.0));
    }
}
