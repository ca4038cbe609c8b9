//! # dco-obs — observability for the serving stack
//!
//! Three pieces, all dependency-free and std-only:
//!
//! * [`metrics`] — a low-overhead metrics registry: sharded atomic
//!   [`Counter`]s, [`Gauge`]s, and fixed-bucket log-scale latency
//!   [`Histogram`]s with mergeable [`HistogramSnapshot`]s, rendered as
//!   Prometheus-style text exposition under stable dotted names
//!   (`server.queue_wait`, `store.wal.fsync`, …);
//! * [`trace`] — per-query structured tracing: a span tree
//!   (queue-wait → preflight → plan → eval) built on the evaluating
//!   thread, with per-[`ProbeSite`](PROBE_SITES) aggregates fanned out
//!   from the guard layer's existing probes — at zero cost when no
//!   trace is active;
//! * [`slowlog`] — a bounded ring of [`SlowQueryEntry`]s: any query
//!   whose total latency exceeds a configurable threshold is recorded
//!   with its rendered span tree and its EXPLAIN plan.
//!
//! ## Unit conventions
//!
//! Histograms record raw `u64` values. Latency histograms record
//! **nanoseconds**; the replication-lag histogram records **commit
//! seqs**. Bucket bounds are powers of two, so a quantile estimate is
//! always within one bucket bound (a factor of two) of the true value.
//!
//! ## The kill switch
//!
//! [`set_enabled`]`(false)` turns every counter increment, gauge store,
//! histogram record, and trace begin into an early return — the way to
//! measure the cost of the default configuration against a run of the
//! same workload with recording off.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod metrics;
pub mod slowlog;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use slowlog::{SlowLog, SlowQueryEntry};
pub use trace::{ProbeAggs, TraceRecord, TraceRing};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Canonical names of the guard layer's probe sites, in the index order
/// [`trace::probe_hit`] expects. The guard layer (`dco_core::guard`)
/// maps its `ProbeSite` enum onto these indices; a unit test over there
/// keeps the two in lockstep.
pub const PROBE_SITES: [&str; 10] = [
    "dnf_insert",
    "quantifier_elim",
    "cell_split",
    "fourier_motzkin",
    "fixpoint_stage",
    "wal_append",
    "wal_fsync",
    "snapshot_write",
    "group_commit_fsync",
    "shard_publish",
];

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enable or disable all recording (metrics, traces, slow-query
/// log).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recording is globally enabled (the default).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide default registry, for instrumentation points with no
/// natural owner (e.g. the datalog engine). Components with a lifecycle
/// of their own (a store, a server) own their own [`Registry`] instead,
/// so concurrent instances never share counters.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}
