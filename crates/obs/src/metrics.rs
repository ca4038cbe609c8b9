//! The metrics registry: sharded counters, gauges, log-scale histograms,
//! and Prometheus-style text rendering.
//!
//! Names are dotted (`server.queue_wait`, `store.wal.fsync`); rendering
//! sanitizes them to Prometheus' `[a-zA-Z0-9_]` alphabet with a `dco_`
//! prefix, so `store.wal.fsync` exposes as `dco_store_wal_fsync_*`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of cache-line-padded cells a [`Counter`] stripes over.
const COUNTER_SHARDS: usize = 8;

/// Number of histogram buckets. Bucket `0` holds the value `0`; bucket
/// `i > 0` holds values in `(2^(i-1), 2^i]`; the last bucket tops out at
/// `u64::MAX`. 65 buckets cover the full `u64` range, so a quantile
/// estimate is within one power-of-two bound of the true value for
/// *every* recordable value. Rendering skips empty buckets, so the wide
/// range costs nothing on the wire.
pub const BUCKETS: usize = 65;

/// Upper bound of bucket `i` (`u64::MAX` for the overflow bucket).
pub fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// Bucket index for a recorded value.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// This thread's counter stripe, assigned round-robin at first use so
/// writer threads spread over the shards instead of all hitting cell 0.
fn shard_idx() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static IDX: usize = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
    }
    IDX.with(|i| *i)
}

/// One cache line worth of counter cell, padded so two shards never
/// false-share.
#[repr(align(64))]
#[derive(Default, Debug)]
struct PaddedCell(AtomicU64);

/// A monotone counter striped over `COUNTER_SHARDS` padded atomic
/// cells: concurrent writers on different threads mostly touch different
/// cache lines; reads sum the stripes.
#[derive(Default, Debug)]
pub struct Counter {
    shards: [PaddedCell; COUNTER_SHARDS],
}

impl Counter {
    /// A free-standing counter (registry-less, for tests).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.shards[shard_idx()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total across all stripes.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A last-value-wins gauge.
#[derive(Default, Debug)]
pub struct Gauge {
    v: AtomicU64,
}

impl Gauge {
    /// A free-standing gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the current value.
    pub fn set(&self, v: u64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log-scale histogram: power-of-two bucket bounds, so
/// recording is a `leading_zeros` plus two relaxed adds, and a quantile
/// estimate is within one bucket bound (2×) of the true value.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A free-standing histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        // Saturating, not wrapping: a wrapped sum would make successive
        // snapshots regress, which the monotonicity property forbids.
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
    }

    /// Record a duration in nanoseconds (the latency convention).
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// A point-in-time copy of the bucket counts. Counts only grow, and
    /// the copy reads each bucket once, so two non-overlapping snapshots
    /// `s1` then `s2` always satisfy `s1.count_le(i) <= s2.count_le(i)`
    /// for every bucket — snapshots never regress.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a [`Histogram`]'s state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: [u64; BUCKETS],
    sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            counts: [0; BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// The empty snapshot (identity of [`HistogramSnapshot::merge`]).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot::default()
    }

    /// A snapshot holding the given observations (for tests).
    pub fn of(values: &[u64]) -> HistogramSnapshot {
        let mut s = HistogramSnapshot::empty();
        for &v in values {
            s.counts[bucket_of(v)] += 1;
            s.sum = s.sum.saturating_add(v);
        }
        s
    }

    /// Fold another snapshot in. Merging is associative and commutative
    /// (bucket-wise saturating addition), so per-shard snapshots can be
    /// combined in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Observations at or below bucket `i`'s bound.
    pub fn count_le(&self, i: usize) -> u64 {
        self.counts[..=i.min(BUCKETS - 1)].iter().sum()
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// bucket holding the rank-`⌈q·n⌉` observation. For any recorded
    /// value `v` this is within one bucket bound: in `[v, 2·max(v,1)]`.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(BUCKETS - 1)
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A named family of metrics. Registration is idempotent: asking for the
/// same dotted name twice returns the same instrument, so call sites can
/// cache the `Arc` handle (the hot path never touches the registry lock).
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.lock()
            .counters
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.lock()
            .gauges
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Set gauge `name` to `v` (registering it on first use).
    pub fn set_gauge(&self, name: &str, v: u64) {
        self.gauge(name).set(v);
    }

    /// Render every registered instrument as Prometheus-style text
    /// exposition: `# TYPE` headers, `_total` counters, plain gauges,
    /// and cumulative `_bucket{le="…"}` / `_sum` / `_count` histograms.
    pub fn render(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for (name, c) in &inner.counters {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n}_total {}", c.value());
        }
        for (name, g) in &inner.gauges {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {}", g.value());
        }
        for (name, h) in &inner.histograms {
            let n = sanitize(name);
            let snap = h.snapshot();
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cum = 0u64;
            for (i, &c) in snap.counts.iter().enumerate() {
                if c == 0 {
                    continue; // only non-empty buckets; `le` is still cumulative
                }
                cum += c;
                let _ = writeln!(out, "{n}_bucket{{le=\"{}\"}} {cum}", bucket_bound(i));
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", snap.count());
            let _ = writeln!(out, "{n}_sum {}", snap.sum());
            let _ = writeln!(out, "{n}_count {}", snap.count());
        }
        out
    }
}

/// `store.wal.fsync` → `dco_store_wal_fsync`.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("dco_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.value(), 4000);
    }

    #[test]
    fn histogram_buckets_are_log_scale_and_quantiles_bound_the_value() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum(), 1_001_006);
        // Every quantile of a single-value histogram is within [v, 2v].
        let one = HistogramSnapshot::of(&[700]);
        let q = one.quantile(0.5);
        assert!((700..=1400).contains(&q), "q={q}");
    }

    #[test]
    fn merge_is_the_same_as_recording_everything_in_one() {
        let mut a = HistogramSnapshot::of(&[1, 5, 9]);
        let b = HistogramSnapshot::of(&[2, 6]);
        a.merge(&b);
        assert_eq!(a, HistogramSnapshot::of(&[1, 5, 9, 2, 6]));
    }

    #[test]
    fn render_is_parseable_prometheus_text() {
        let r = Registry::new();
        r.counter("server.requests").add(3);
        r.set_gauge("store.relations", 7);
        r.histogram("server.queue_wait").record(1500);
        let text = r.render();
        assert!(text.contains("# TYPE dco_server_requests counter"));
        assert!(text.contains("dco_server_requests_total 3"));
        assert!(text.contains("dco_store_relations 7"));
        assert!(text.contains("dco_server_queue_wait_bucket{le=\"2048\"} 1"));
        assert!(text.contains("dco_server_queue_wait_count 1"));
        assert!(text.contains("dco_server_queue_wait_sum 1500"));
    }

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("x.y");
        let b = r.counter("x.y");
        a.inc();
        assert_eq!(b.value(), 1);
    }
}
