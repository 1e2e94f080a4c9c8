//! Name → instrument registry with snapshot/delta views and JSON export.

use crate::histogram::{Histogram, HistogramSnapshot};
use parking_lot::RwLock;
use serde::Value;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A lock-free monotonic counter.
///
/// Handles are `Arc`-shared out of the registry, so hot loops resolve the
/// name once and then increment wait-free.
///
/// Counters created by the [`global`] registry remember their name and
/// *forward* every increment to the identically-named counter of the
/// active request scope (see [`crate::enter_scope`]), so per-request attribution
/// works even through handles cached long before the request started.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
    scope_name: Option<Box<str>>,
}

impl Counter {
    /// Create a counter at zero.
    pub fn new() -> Self {
        Counter { value: AtomicU64::new(0), scope_name: None }
    }

    /// Create a counter at zero that forwards increments to the active
    /// request scope under `name`.
    pub(crate) fn named(name: &str) -> Self {
        Counter { value: AtomicU64::new(0), scope_name: Some(name.into()) }
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        if let Some(name) = &self.scope_name {
            if let Some(scope) = crate::scope::current_scope() {
                // Scope registries are non-forwarding, so their counters
                // carry no name and this cannot recurse.
                scope.counter(name).add(n);
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Shard count for the instrument maps. Registration is rare (names are a
/// small fixed set), but handle resolution from concurrent PF-AP workers
/// should not serialize on one lock.
const SHARDS: usize = 8;

fn shard_of(name: &str) -> usize {
    // FNV-1a; cheap, stable across runs (no RandomState), good enough to
    // spread the few dozen instrument names across shards.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h as usize) % SHARDS
}

#[derive(Default)]
struct Shard {
    counters: HashMap<String, Arc<Counter>>,
    histograms: HashMap<String, Arc<Histogram>>,
}

/// A registry of named counters and histograms.
///
/// Most code uses the process-wide [`global`] registry; a private registry
/// is useful in tests that need full isolation, and as the per-request
/// scope registry of [`crate::scope::enter_scope`]. Only the global
/// registry is *forwarding*: its instruments mirror every increment into
/// the active request scope.
pub struct MetricsRegistry {
    shards: Vec<RwLock<Shard>>,
    forwarding: bool,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Create an empty, non-forwarding registry.
    pub fn new() -> Self {
        MetricsRegistry {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            forwarding: false,
        }
    }

    /// Create an empty registry whose instruments forward to the active
    /// request scope — the global registry's mode.
    pub(crate) fn new_forwarding() -> Self {
        MetricsRegistry { forwarding: true, ..Self::new() }
    }

    /// Whether this registry's instruments forward to the active scope.
    pub fn is_forwarding(&self) -> bool {
        self.forwarding
    }

    /// Resolve (or create) the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let shard = &self.shards[shard_of(name)];
        if let Some(c) = shard.read().counters.get(name) {
            return Arc::clone(c);
        }
        let mut w = shard.write();
        Arc::clone(w.counters.entry(name.to_string()).or_insert_with(|| {
            Arc::new(if self.forwarding { Counter::named(name) } else { Counter::new() })
        }))
    }

    /// Resolve (or create) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let shard = &self.shards[shard_of(name)];
        if let Some(h) = shard.read().histograms.get(name) {
            return Arc::clone(h);
        }
        let mut w = shard.write();
        Arc::clone(w.histograms.entry(name.to_string()).or_insert_with(|| {
            Arc::new(if self.forwarding { Histogram::named(name) } else { Histogram::new() })
        }))
    }

    /// A point-in-time copy of every registered instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = BTreeMap::new();
        let mut histograms = BTreeMap::new();
        for shard in &self.shards {
            let s = shard.read();
            for (name, c) in &s.counters {
                counters.insert(name.clone(), c.get());
            }
            for (name, h) in &s.histograms {
                histograms.insert(name.clone(), h.snapshot());
            }
        }
        MetricsSnapshot { counters, histograms }
    }
}

/// The process-wide registry every instrumented crate records into. Its
/// instruments forward increments into the active request scope (see
/// [`crate::enter_scope`]), so per-request deltas stay exact under
/// concurrency.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new_forwarding)
}

/// An owned, ordered copy of a registry's instruments.
///
/// `BTreeMap`s keep JSON dumps and report rendering deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value by name (0 when absent, so deltas read naturally).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram snapshot by name, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// The activity between `earlier` and `self`, assuming `earlier` was
    /// taken first on the same registry. Instruments with no new activity
    /// are dropped, so a delta reads as "what this request did".
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|(name, v)| {
                let d = v.saturating_sub(earlier.counter(name));
                (d > 0).then(|| (name.clone(), d))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|(name, h)| {
                let d = match earlier.histogram(name) {
                    Some(e) => h.delta_since(e),
                    None => h.clone(),
                };
                (d.count > 0).then(|| (name.clone(), d))
            })
            .collect();
        MetricsSnapshot { counters, histograms }
    }

    /// Merge another snapshot into this one (counter addition, bucket-wise
    /// histogram merge) — aggregates per-run or per-process dumps.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            let slot = self.counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (name, h) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .and_modify(|mine| mine.merge(h))
                .or_insert_with(|| h.clone());
        }
    }

    /// JSON view: `{"counters": {...}, "histograms": {...}}`.
    pub fn to_value(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::UInt(*v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.to_value()))
            .collect();
        Value::Object(vec![
            ("counters".to_string(), Value::Object(counters)),
            ("histograms".to_string(), Value::Object(histograms)),
        ])
    }

    /// Compact JSON text.
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }

    /// 2-space-indented JSON text.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.to_value().write_json(&mut out, Some(2), 0);
        out
    }
}

impl serde::Serialize for MetricsSnapshot {
    fn to_value(&self) -> Value {
        MetricsSnapshot::to_value(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_alias_the_same_instrument() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        assert_eq!(reg.counter("y").get(), 0);
    }

    #[test]
    fn snapshot_captures_both_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(5);
        reg.histogram("h").record(2.0);
        let s = reg.snapshot();
        assert_eq!(s.counter("c"), 5);
        assert_eq!(s.histogram("h").map(|h| h.count), Some(1));
        assert_eq!(s.counter("absent"), 0);
        assert!(s.histogram("absent").is_none());
    }

    #[test]
    fn delta_since_drops_quiet_instruments() {
        let reg = MetricsRegistry::new();
        reg.counter("quiet").add(10);
        reg.histogram("quiet_h").record(1.0);
        let before = reg.snapshot();
        reg.counter("busy").add(4);
        reg.histogram("busy_h").record(0.5);
        let delta = reg.snapshot().delta_since(&before);
        assert_eq!(delta.counters.len(), 1);
        assert_eq!(delta.counter("busy"), 4);
        assert_eq!(delta.histograms.len(), 1);
        assert_eq!(delta.histogram("busy_h").map(|h| h.count), Some(1));
    }

    #[test]
    fn delta_of_new_histogram_is_its_full_content() {
        let reg = MetricsRegistry::new();
        let before = reg.snapshot();
        reg.histogram("born_later").record(3.0);
        reg.histogram("born_later").record(4.0);
        let delta = reg.snapshot().delta_since(&before);
        assert_eq!(delta.histogram("born_later").map(|h| h.count), Some(2));
    }

    #[test]
    fn merge_aggregates_across_snapshots() {
        let a_reg = MetricsRegistry::new();
        let b_reg = MetricsRegistry::new();
        a_reg.counter("c").add(1);
        a_reg.histogram("h").record(1.0);
        b_reg.counter("c").add(2);
        b_reg.counter("only_b").inc();
        b_reg.histogram("h").record(2.0);
        let mut merged = a_reg.snapshot();
        merged.merge(&b_reg.snapshot());
        assert_eq!(merged.counter("c"), 3);
        assert_eq!(merged.counter("only_b"), 1);
        assert_eq!(merged.histogram("h").map(|h| h.count), Some(2));
    }

    #[test]
    fn json_export_round_trips_through_the_parser() {
        let reg = MetricsRegistry::new();
        reg.counter("solver.calls").add(7);
        reg.histogram("solver.seconds").record(0.125);
        let s = reg.snapshot();
        let parsed: Value = match serde_json::from_str(&s.to_json()) {
            Ok(v) => v,
            Err(e) => panic!("export must be valid JSON: {e}"),
        };
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("solver.calls"))
                .and_then(Value::as_u64),
            Some(7)
        );
        assert_eq!(
            parsed
                .get("histograms")
                .and_then(|h| h.get("solver.seconds"))
                .and_then(|h| h.get("count"))
                .and_then(Value::as_u64),
            Some(1)
        );
        // Pretty form parses to the same tree.
        let pretty: Value = match serde_json::from_str(&s.to_json_pretty()) {
            Ok(v) => v,
            Err(e) => panic!("pretty export must be valid JSON: {e}"),
        };
        assert_eq!(pretty.to_string(), parsed.to_string());
    }

    #[test]
    fn global_registry_is_one_instance() {
        let name = "registry_test.global_once";
        global().counter(name).inc();
        global().counter(name).inc();
        assert!(global().counter(name).get() >= 2);
    }

    #[test]
    fn concurrent_resolution_and_increments() {
        let reg = Arc::new(MetricsRegistry::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let c = reg.counter("shared");
                    let h = reg.histogram("shared_h");
                    for i in 0..500 {
                        c.inc();
                        h.record((t * 500 + i) as f64 + 1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker thread");
        }
        let s = reg.snapshot();
        assert_eq!(s.counter("shared"), 4000);
        assert_eq!(s.histogram("shared_h").map(|h| h.count), Some(4000));
    }
}
