//! Fixed log₂-scale histograms with lock-free recording.
//!
//! Values are bucketed by the floor of their base-2 logarithm over the range
//! `[2^MIN_EXP, 2^MAX_EXP)`, with dedicated underflow and overflow buckets.
//! The range covers 15 nanoseconds to ~8.5 years when values are seconds,
//! and 1 to 2.7·10⁸ when values are counts, so one layout serves both.

use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Smallest finite bucket edge exponent: bucket 1 starts at `2^MIN_EXP`.
const MIN_EXP: i32 = -26;
/// One past the largest finite bucket edge exponent.
const MAX_EXP: i32 = 28;
/// Total bucket count: underflow + one per exponent + overflow.
pub const BUCKETS: usize = (MAX_EXP - MIN_EXP) as usize + 2;

/// Map a value to its bucket index. Non-positive and NaN values land in the
/// underflow bucket; values at or above `2^MAX_EXP` in the overflow bucket.
fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v < f64::powi(2.0, MIN_EXP) {
        return 0; // underflow (also catches NaN and negatives)
    }
    let exp = v.log2().floor() as i32;
    if exp >= MAX_EXP {
        BUCKETS - 1
    } else {
        (exp - MIN_EXP) as usize + 1
    }
}

/// The inclusive lower edge of bucket `i` (0 for the underflow bucket).
fn bucket_lower_edge(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        f64::powi(2.0, MIN_EXP + (i as i32 - 1))
    }
}

/// `counts` up to its last non-empty bucket, allocated to fit. Snapshots
/// store only this prefix: one request's histogram fills a few buckets out
/// of [`BUCKETS`], and per-request reports keep their snapshots.
fn trimmed(counts: &[u64]) -> Vec<u64> {
    let len = counts.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
    counts[..len].to_vec()
}

/// Atomically add `v` to an `AtomicU64` holding `f64` bits.
fn atomic_add_f64(cell: &AtomicU64, v: f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(current) + v).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

/// A lock-free histogram with fixed log₂-scale buckets.
///
/// Recording is two relaxed atomic increments plus one CAS loop for the
/// running sum — safe to call from PF-AP worker threads concurrently.
///
/// Histograms created by the global registry remember their name and
/// forward every observation to the identically-named histogram of the
/// active request scope (see [`crate::scope`]).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_bits: AtomicU64,
    scope_name: Option<Box<str>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            scope_name: None,
        }
    }

    /// Create an empty histogram that forwards observations to the active
    /// request scope under `name`.
    pub(crate) fn named(name: &str) -> Self {
        Histogram { scope_name: Some(name.into()), ..Self::new() }
    }

    /// Record one observation. Non-finite values (`NaN`, `±∞`) are
    /// rejected entirely — counting them in `buckets`/`count` while
    /// skipping them in `sum` would silently skew the reported mean.
    pub fn record(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_add_f64(&self.sum_bits, v);
        if let Some(name) = &self.scope_name {
            if let Some(scope) = crate::scope::current_scope() {
                // Scope registries are non-forwarding, so their histograms
                // carry no name and this cannot recurse.
                scope.histogram(name).record(v);
            }
        }
    }

    /// Record a duration, in seconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_secs_f64());
    }

    /// Total observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all (finite) observations recorded so far.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// A consistent-enough point-in-time copy. Buckets are read
    /// individually, so a snapshot taken during concurrent recording may be
    /// off by in-flight observations — never torn within one bucket.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot {
            buckets: trimmed(&counts),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

/// An owned copy of a [`Histogram`]'s state: mergeable, diffable, and
/// JSON-exportable.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`BUCKETS`]), from bucket 0
    /// through the last non-empty one: trailing empty buckets are not
    /// stored, so an index past the end reads as an empty bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of finite observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        HistogramSnapshot { buckets: Vec::new(), count: 0, sum: 0.0 }
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Merge another snapshot into this one (bucket-wise addition) — the
    /// operation that aggregates per-shard or per-run histograms.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum += other.sum;
    }

    /// The observations recorded after `earlier` was taken, assuming
    /// `earlier` is an older snapshot of the same histogram.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, b)| b.saturating_sub(earlier.buckets.get(i).copied().unwrap_or(0)))
            .collect();
        HistogramSnapshot {
            buckets: trimmed(&buckets),
            count: self.count.saturating_sub(earlier.count),
            sum: (self.sum - earlier.sum).max(0.0),
        }
    }

    /// Approximate quantile (`q` in `[0,1]`): the lower edge of the bucket
    /// holding the `q`-th observation. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(bucket_lower_edge(i));
            }
        }
        Some(bucket_lower_edge(self.buckets.len().saturating_sub(1)))
    }

    /// JSON view: `{"count": n, "sum": s, "mean": m, "buckets": {edge: n}}`.
    /// Empty buckets are omitted so dumps stay small.
    pub fn to_value(&self) -> Value {
        let nonzero: Vec<(String, Value)> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| **b > 0)
            .map(|(i, b)| (format!("{:e}", bucket_lower_edge(i)), Value::UInt(*b)))
            .collect();
        Value::Object(vec![
            ("count".to_string(), Value::UInt(self.count)),
            ("sum".to_string(), Value::Float(self.sum)),
            ("mean".to_string(), Value::Float(self.mean())),
            ("buckets".to_string(), Value::Object(nonzero)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_log2() {
        // Same power-of-two decade lands in the same bucket; the next
        // decade lands one bucket up.
        assert_eq!(bucket_index(1.0), bucket_index(1.5));
        assert_eq!(bucket_index(1.0) + 1, bucket_index(2.0));
        assert_eq!(bucket_index(2.0), bucket_index(3.99));
        assert_eq!(bucket_index(0.25) + 2, bucket_index(1.0));
    }

    #[test]
    fn underflow_and_overflow_buckets() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1e-30), 0);
        assert_eq!(bucket_index(f64::INFINITY), BUCKETS - 1);
        assert_eq!(bucket_index(1e30), BUCKETS - 1);
    }

    #[test]
    fn edges_are_inclusive_lower() {
        // A value exactly on a power of two belongs to the bucket it opens.
        let h = Histogram::new();
        h.record(4.0);
        h.record(4.0001);
        h.record(7.9999);
        let s = h.snapshot();
        assert_eq!(s.buckets[bucket_index(4.0)], 3);
    }

    #[test]
    fn count_sum_mean() {
        let h = Histogram::new();
        for v in [1.0, 2.0, 3.0] {
            h.record(v);
        }
        h.record_duration(Duration::from_secs(2));
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert!((s.sum - 8.0).abs() < 1e-12);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_observations_are_rejected_everywhere() {
        let h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        h.record(1.0);
        let s = h.snapshot();
        // Rejected values appear in neither count, buckets, nor sum, so
        // the mean stays honest.
        assert_eq!(s.count, 1);
        assert_eq!(s.buckets.iter().sum::<u64>(), 1);
        assert!((s.sum - 1.0).abs() < 1e-12);
        assert!((s.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn finite_edge_cases_are_counted_consistently() {
        let h = Histogram::new();
        h.record(0.0);
        h.record(f64::MIN_POSITIVE); // subnormal-scale: underflow bucket
        h.record(1e-310); // an actual subnormal
        h.record(1.0);
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4);
        // Zero and subnormals land in the underflow bucket but still count.
        assert_eq!(s.buckets[0], 3);
        assert!((s.sum - (1.0 + f64::MIN_POSITIVE + 1e-310)).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(1.0);
        a.record(100.0);
        b.record(1.0);
        b.record(0.001);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 4);
        assert_eq!(m.buckets[bucket_index(1.0)], 2);
        assert_eq!(m.buckets[bucket_index(100.0)], 1);
        assert_eq!(m.buckets[bucket_index(0.001)], 1);
        assert!((m.sum - 102.001).abs() < 1e-9);
    }

    #[test]
    fn merge_is_commutative_on_snapshots() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [0.5, 8.0, 8.5] {
            a.record(v);
        }
        for v in [0.25, 8.1] {
            b.record(v);
        }
        let mut ab = a.snapshot();
        ab.merge(&b.snapshot());
        let mut ba = b.snapshot();
        ba.merge(&a.snapshot());
        assert_eq!(ab.buckets, ba.buckets);
        assert_eq!(ab.count, ba.count);
    }

    #[test]
    fn delta_since_isolates_new_observations() {
        let h = Histogram::new();
        h.record(1.0);
        let before = h.snapshot();
        h.record(16.0);
        h.record(16.5);
        let d = h.snapshot().delta_since(&before);
        assert_eq!(d.count, 2);
        assert_eq!(d.buckets[bucket_index(1.0)], 0);
        assert_eq!(d.buckets[bucket_index(16.0)], 2);
        assert!((d.sum - 32.5).abs() < 1e-9);
    }

    #[test]
    fn snapshots_and_deltas_store_no_trailing_empty_buckets() {
        let h = Histogram::new();
        assert!(h.snapshot().buckets.is_empty());
        h.record(100.0);
        let before = h.snapshot();
        assert_eq!(before.buckets.len(), bucket_index(100.0) + 1);
        h.record(1e-3);
        let d = h.snapshot().delta_since(&before);
        assert_eq!(d.buckets.len(), bucket_index(1e-3) + 1);
        assert_eq!(d.buckets[bucket_index(1e-3)], 1);
    }

    #[test]
    fn quantile_estimates_from_bucket_edges() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(1.0);
        }
        h.record(1024.0);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(1024.0));
        assert_eq!(HistogramSnapshot::empty().quantile(0.5), None);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.record(1.0 + (i % 7) as f64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("recorder thread");
        }
        assert_eq!(h.count(), 4000);
        let total: u64 = h.snapshot().buckets.iter().sum();
        assert_eq!(total, 4000);
    }

    #[test]
    fn json_view_has_the_summary_fields() {
        let h = Histogram::new();
        h.record(2.0);
        let v = h.snapshot().to_value();
        assert_eq!(v.get("count").and_then(|c| c.as_u64()), Some(1));
        assert_eq!(v.get("sum").and_then(|s| s.as_f64()), Some(2.0));
        assert!(v.get("buckets").is_some());
    }
}
