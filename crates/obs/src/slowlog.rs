//! The slow-query log: a bounded ring of queries whose total latency
//! (queue wait included) exceeded a configurable threshold, each entry
//! carrying the rendered span tree and the EXPLAIN plan (estimated vs.
//! actual cardinalities) captured at record time.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One slow query: what ran, how long it took, and why.
#[derive(Debug, Clone)]
pub struct SlowQueryEntry {
    /// The query text (possibly truncated).
    pub query: String,
    /// Total latency, queue wait included, in nanoseconds.
    pub total_ns: u64,
    /// Rendered span tree ([`crate::trace::TraceRecord::render`]).
    pub trace: String,
    /// Rendered EXPLAIN plan with estimated and (root) actual
    /// cardinalities.
    pub plan: String,
}

impl SlowQueryEntry {
    /// Total latency in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

/// A bounded ring of [`SlowQueryEntry`]s behind an adjustable latency
/// threshold. The threshold starts at [`SlowLog::DEFAULT_THRESHOLD`];
/// `set_threshold(Duration::ZERO)` logs every query (tests),
/// `set_threshold(Duration::MAX)` disables the log.
#[derive(Debug)]
pub struct SlowLog {
    threshold_ns: AtomicU64,
    ring: Mutex<VecDeque<SlowQueryEntry>>,
    cap: usize,
}

impl SlowLog {
    /// Default slow-query threshold: 1 second.
    pub const DEFAULT_THRESHOLD: Duration = Duration::from_secs(1);

    /// A log keeping at most `cap` entries (oldest evicted first).
    pub fn new(cap: usize) -> SlowLog {
        SlowLog {
            threshold_ns: AtomicU64::new(Self::DEFAULT_THRESHOLD.as_nanos() as u64),
            ring: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
        }
    }

    /// Change the latency threshold.
    pub fn set_threshold(&self, d: Duration) {
        self.threshold_ns
            .store(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    /// Current threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns.load(Ordering::Relaxed)
    }

    /// Whether a query of `total_ns` total latency qualifies.
    pub fn is_slow(&self, total_ns: u64) -> bool {
        total_ns >= self.threshold_ns()
    }

    /// Append an entry, evicting the oldest past capacity.
    pub fn record(&self, entry: SlowQueryEntry) {
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// Copy of the log contents, oldest first.
    pub fn entries(&self) -> Vec<SlowQueryEntry> {
        self.ring
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn entry(q: &str, ns: u64) -> SlowQueryEntry {
        SlowQueryEntry {
            query: q.to_string(),
            total_ns: ns,
            trace: String::new(),
            plan: String::new(),
        }
    }

    #[test]
    fn threshold_gates_and_ring_is_bounded() {
        let log = SlowLog::new(2);
        assert!(!log.is_slow(999_999_999), "under the 1 s default");
        log.set_threshold(Duration::from_millis(10));
        assert!(log.is_slow(10_000_000));
        assert!(!log.is_slow(9_999_999));
        for i in 0..4 {
            log.record(entry(&format!("q{i}"), 20_000_000));
        }
        let got = log.entries();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].query, "q2");
        assert!((got[0].total_ms() - 20.0).abs() < 1e-9);
    }
}
