//! Memoized decisions: a sharded concurrent cache keyed by canonical
//! tuples.
//!
//! The cache backs the Fourier–Motzkin satisfiability decision of the
//! linear fragment (`dco_linear::tuple::lin_sat_cache`). Dense-order
//! tuples need none: their verdict is carried incrementally by
//! [`crate::sat::SatState`]. Keys are kept in canonical form (sorted,
//! deduplicated atom vectors), so structurally identical conjunctions
//! arising in different operations hash to the same key and are decided
//! exactly once. The cache is one per process, so concurrent evaluations
//! (the store's worker pool) share it; it is sharded 16 ways so they
//! rarely contend on the same lock when deciding different tuples, and the
//! expensive computation always happens *outside* the lock (two threads
//! may race to decide the same tuple; both get the same verdict, one write
//! wins — benign).
//!
//! Keys hash in O(1) when their `Hash` writes a precomputed fingerprint
//! (see [`crate::intern`]); a fingerprint collision falls through to the
//! full structural key compare inside the map — so a probe costs one mix
//! and (almost always) one `u64` compare per bucket entry.
//!
//! Eviction honors the capacity given to [`MemoCache::with_capacity`]
//! exactly: each shard holds at most `capacity / SHARDS` entries, and an
//! insert into a full shard evicts every other entry in one sweep rather
//! than clearing the shard. Verdicts are cheap to recompute relative to
//! the cost of an LRU chain, so victim choice is not worth tracking — but
//! keeping half the hot set (instead of dropping a whole shard) matters to
//! fixpoint workloads that straddle the capacity boundary, and the batched
//! sweep keeps eviction amortized O(1) per insert.
//!
//! Shard locks are *poison-tolerant*: an evaluation unwinding through a guard
//! abort (or any panic) while holding a shard lock leaves the shard in a
//! trivially consistent state — the critical sections only touch a map
//! entry and plain counters, and values are computed before insertion and
//! never mutated in place — so later evaluations recover the inner state
//! instead of propagating `PoisonError`. An aborted evaluation can at
//! worst have added *correct* memo entries (the chaos suite asserts this).

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::Mutex;

const SHARDS: usize = 16;

/// Hit/miss/eviction counters for a [`MemoCache`], read via
/// [`MemoCache::stats`]. Counters are approximate under concurrency but
/// exact in single-threaded benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
    /// Entries dropped by shard-clearing eviction.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache; 0.0 when untouched.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Shard<K, V> {
    map: HashMap<K, V>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            map: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

/// A sharded memoization table mapping canonical keys to computed verdicts.
pub struct MemoCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    hasher: RandomState,
    per_shard_cap: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> MemoCache<K, V> {
    /// An empty cache holding at most `capacity` entries (at least one per
    /// shard).
    pub fn with_capacity(capacity: usize) -> Self {
        MemoCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            hasher: RandomState::new(),
            per_shard_cap: (capacity / SHARDS).max(1),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let h = self.hasher.hash_one(key) as usize;
        &self.shards[h % SHARDS]
    }

    /// Look up `key`, computing and inserting with `compute` on a miss.
    /// `compute` runs without any lock held.
    pub fn get_or_insert_with(&self, key: &K, compute: impl FnOnce() -> V) -> V {
        {
            let mut shard = self
                .shard(key)
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(v) = shard.map.get(key).cloned() {
                shard.hits += 1;
                return v;
            }
            shard.misses += 1;
        }
        let value = compute();
        let mut shard = self
            .shard(key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Evict in bulk when the shard is full: drop every other entry in
        // one `retain` sweep (amortized O(1) per insert). Evicting single
        // arbitrary victims instead would re-scan the table's growing
        // empty prefix on every insert at capacity — quadratic over a
        // fixpoint run.
        if shard.map.len() >= self.per_shard_cap {
            let before = shard.map.len();
            let mut i = 0u64;
            shard.map.retain(|_, _| {
                i += 1;
                i.is_multiple_of(2)
            });
            shard.evictions += (before - shard.map.len()) as u64;
        }
        shard.map.insert(key.clone(), value.clone());
        value
    }

    /// Aggregate counters across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
        }
        total
    }

    /// Drop all entries and zero the counters (used between benchmark runs
    /// so hit rates are attributable to one workload).
    pub fn reset(&self) {
        for shard in &self.shards {
            let mut s = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            s.map.clear();
            s.hits = 0;
            s.misses = 0;
            s.evictions = 0;
        }
    }

    /// Entries currently cached (across all shards).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .map
                    .len()
            })
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Counters of the dense-order satisfiability memo cache, which no longer
/// exists: the dense-order kernel keeps its verdict in
/// [`crate::sat::SatState`] and memoizes nothing, so this always returns
/// [`CacheStats::default()`]. It stays only because the `perfbench`
/// harness reports it as `core.sat_cache.*`; the next benchmark change
/// removes it together with those metrics.
pub fn sat_cache_stats() -> CacheStats {
    CacheStats::default()
}

/// Does nothing; see [`sat_cache_stats`] for why it remains.
pub fn reset_sat_cache() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoizes_and_counts() {
        let cache: MemoCache<u32, u32> = MemoCache::with_capacity(1024);
        let mut calls = 0;
        for _ in 0..3 {
            let v = cache.get_or_insert_with(&7, || {
                calls += 1;
                42
            });
            assert_eq!(v, 42);
        }
        assert_eq!(calls, 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_entries_and_counters() {
        let cache: MemoCache<u32, u32> = MemoCache::with_capacity(1024);
        cache.get_or_insert_with(&1, || 1);
        assert_eq!(cache.len(), 1);
        cache.reset();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn capacity_is_honored_per_shard_exactly() {
        let capacity = 4 * SHARDS; // four entries per shard
        let cache: MemoCache<u64, u64> = MemoCache::with_capacity(capacity);
        let inserts = 2000u64;
        for i in 0..inserts {
            cache.get_or_insert_with(&i, || i);
            // Insert-count watermark: the cache never holds more than its
            // configured capacity, at any point.
            assert!(
                cache.len() <= capacity,
                "watermark exceeded at insert {i}: {} > {capacity}",
                cache.len()
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, inserts);
        // Every evicted entry is counted exactly once, so the resident
        // count is inserts minus evictions — whole shards are never
        // dropped.
        assert_eq!(stats.evictions, inserts - cache.len() as u64);
    }

    #[test]
    fn eviction_keeps_cache_bounded() {
        let cache: MemoCache<u64, u64> = MemoCache::with_capacity(SHARDS); // one per shard
        for i in 0..1000u64 {
            cache.get_or_insert_with(&i, || i);
        }
        assert!(cache.len() <= SHARDS);
        assert!(cache.stats().evictions > 0);
    }
}
