//! Evaluation configuration and data-parallel helpers.
//!
//! Every hot operation of the constraint algebra — pairwise conjunction in
//! [`crate::relation::GeneralizedRelation::intersect`], the distribution
//! step of the syntactic complement, per-disjunct quantifier elimination —
//! is a map over an independent vector of generalized tuples, so it
//! parallelizes embarrassingly. This module provides the scoped-thread
//! fork/join primitives those operations use, gated by a process-wide
//! [`EvalConfig`] so small relations never pay thread-spawn overhead.
//!
//! The helpers are built on [`std::thread::scope`] rather than an external
//! work-stealing runtime: operations here are chunky (each tuple costs a
//! satisfiability decision, not nanoseconds), so static chunking over
//! scoped threads captures the available speedup without any dependency.
//!
//! Configuration is resolved in this order:
//!
//! 1. a thread-local override installed by [`with_eval_config`] (used by
//!    the `checked_*` entry points, whose static cost pass picks a config
//!    per query);
//! 2. the process-wide default, set by [`set_eval_config`].
//!
//! Worker threads never parallelize further ([`should_parallelize`] is
//! `false` inside a worker), so nesting is bounded: an operation running
//! inside a parallel region executes its own sub-operations sequentially.
//!
//! Workers also inherit the spawning thread's [`crate::guard::EvalGuard`],
//! so deadlines, budgets and cancellation are global to the evaluation,
//! and worker panics are *contained*: a panicked chunk is retried once
//! sequentially on the parent thread (transient faults recover invisibly,
//! modulo a `worker_retries` counter), and only a second failure is
//! reported — as a typed `WorkerPanicked` fault under a guard, or by
//! propagating the panic as the seed did when unguarded.

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use crate::guard;

/// Tuning knobs for the parallel evaluation layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// Worker threads for data-parallel operations. `0` means "use
    /// [`std::thread::available_parallelism`]"; `1` disables parallelism.
    pub threads: usize,
    /// Total entries a memo cache holds before eviction kicks in
    /// (see [`crate::cache`]).
    pub cache_capacity: usize,
    /// Minimum number of work units (tuple pairs, disjuncts) an operation
    /// must have before it forks; below this everything stays sequential.
    pub parallel_threshold: usize,
    /// Carry the order-graph closure forward inside each tuple
    /// ([`crate::sat::SatState`]), making satisfiability an O(1) flag read
    /// instead of a per-call graph rebuild. Off reproduces the seed
    /// kernel's batch decision procedure (with memoization).
    pub incremental_sat: bool,
    /// Skip tuple pairs with disjoint per-variable bounding boxes in
    /// `intersect`/`difference`/`select` and the Datalog delta join before
    /// any conjoin. Sound: disjoint boxes imply an unsatisfiable
    /// conjunction, which the unpruned path would discard anyway.
    pub prune_boxes: bool,
}

impl Default for EvalConfig {
    fn default() -> EvalConfig {
        EvalConfig {
            threads: 0,
            cache_capacity: 1 << 16,
            parallel_threshold: 192,
            incremental_sat: true,
            prune_boxes: true,
        }
    }
}

impl EvalConfig {
    /// A configuration that never spawns threads (caching still applies).
    pub fn sequential() -> EvalConfig {
        EvalConfig {
            threads: 1,
            ..EvalConfig::default()
        }
    }

    /// A configuration with an explicit thread count.
    pub fn with_threads(threads: usize) -> EvalConfig {
        EvalConfig {
            threads,
            ..EvalConfig::default()
        }
    }

    /// The seed kernel: batch satisfiability (memoized order-graph rebuild
    /// per decision) and no bounding-box pruning. The reference side of
    /// the kernel property tests (`crates/core/tests/kernel_properties.rs`,
    /// `crates/fo/tests/properties.rs`), which require the fast paths of
    /// [`EvalConfig::interned_kernel`] to give identical relations.
    pub fn seed_kernel() -> EvalConfig {
        EvalConfig {
            incremental_sat: false,
            prune_boxes: false,
            ..EvalConfig::default()
        }
    }

    /// The interned kernel: incremental [`crate::sat::SatState`]
    /// satisfiability plus bounding-box pruning (the default). The kernel
    /// property tests check it against [`EvalConfig::seed_kernel`].
    pub fn interned_kernel() -> EvalConfig {
        EvalConfig::default()
    }

    /// Pick a configuration from a static cost estimate (the analyzer's
    /// predicted cell-decomposition size, or any comparable work measure):
    /// cheap queries run sequentially so they never pay fork overhead,
    /// expensive ones get the full machine.
    pub fn for_predicted_cost(cost: u128) -> EvalConfig {
        let base = eval_config();
        if cost < 10_000 {
            EvalConfig { threads: 1, ..base }
        } else {
            EvalConfig { threads: 0, ..base }
        }
    }

    /// The concrete worker count this configuration resolves to.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

static GLOBAL_CONFIG: RwLock<EvalConfig> = RwLock::new(EvalConfig {
    threads: 0,
    cache_capacity: 1 << 16,
    parallel_threshold: 192,
    incremental_sat: true,
    prune_boxes: true,
});

/// Bumped on every [`set_eval_config`] so per-thread snapshots of the
/// global configuration can be validated with one relaxed atomic load
/// instead of taking the `RwLock` on every tuple construction.
static CONFIG_GENERATION: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static OVERRIDE: Cell<Option<EvalConfig>> = const { Cell::new(None) };
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// `(generation, snapshot)` of the global config; generation
    /// `u64::MAX` marks the snapshot as never taken.
    static GLOBAL_SNAPSHOT: Cell<(u64, EvalConfig)> = const {
        Cell::new((
            u64::MAX,
            EvalConfig {
                threads: 0,
                cache_capacity: 1 << 16,
                parallel_threshold: 192,
                incremental_sat: true,
                prune_boxes: true,
            },
        ))
    };
}

/// Set the process-wide default configuration.
pub fn set_eval_config(cfg: EvalConfig) {
    *GLOBAL_CONFIG.write().expect("config lock poisoned") = cfg;
    CONFIG_GENERATION.fetch_add(1, Ordering::Release);
}

/// The configuration in effect on this thread.
///
/// This sits on the tuple-construction hot path, so the global default is
/// cached per thread and revalidated with a single atomic generation load;
/// the `RwLock` is only taken when [`set_eval_config`] has run since the
/// last read on this thread.
pub fn eval_config() -> EvalConfig {
    if let Some(cfg) = OVERRIDE.with(Cell::get) {
        return cfg;
    }
    let generation = CONFIG_GENERATION.load(Ordering::Acquire);
    let (cached_generation, cached) = GLOBAL_SNAPSHOT.with(Cell::get);
    if cached_generation == generation {
        return cached;
    }
    let cfg = *GLOBAL_CONFIG.read().expect("config lock poisoned");
    GLOBAL_SNAPSHOT.with(|s| s.set((generation, cfg)));
    cfg
}

/// Run `f` with `cfg` in effect on the current thread (and in any parallel
/// regions it forks), restoring the previous configuration afterwards —
/// panic-safe, so a failing evaluation cannot leak its override.
pub fn with_eval_config<R>(cfg: EvalConfig, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<EvalConfig>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(cfg))));
    f()
}

/// Whether an operation with `work` independent units should fork.
///
/// Always `false` inside a worker thread: nested operations run
/// sequentially, bounding the total thread count.
pub fn should_parallelize(work: usize) -> bool {
    if IN_WORKER.with(Cell::get) {
        return false;
    }
    let cfg = eval_config();
    cfg.effective_threads() > 1 && work >= cfg.parallel_threshold
}

/// Map `f` over `items`, forking iff [`should_parallelize`] says the item
/// count warrants it. Output order always matches input order, so parallel
/// and sequential runs build byte-identical results.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    par_map_when(should_parallelize(items.len()), items, f)
}

/// [`par_map`] with the fork decision made by the caller — used when the
/// real work measure is not the item count (e.g. `intersect` forks on the
/// *pair* count while mapping over the left operand's tuples).
pub fn par_map_when<T: Sync, R: Send>(
    parallel: bool,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    if !parallel || items.len() < 2 {
        return items.iter().map(f).collect();
    }
    // Workers are fresh threads with no thread-local override, so the
    // caller's effective configuration (which may be a `with_eval_config`
    // override) and active guard are captured here and installed in each
    // worker — parallel regions always run under the same config and the
    // same deadline/budget as the sequential path.
    let cfg = eval_config();
    let active_guard = guard::current();
    let threads = cfg.effective_threads().min(items.len());
    let chunk = items.len().div_ceil(threads);
    let mut out: Vec<R> = Vec::with_capacity(items.len());
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| {
                let g = active_guard.clone();
                let sink = dco_obs::trace::probe_sink();
                let handle = s.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    OVERRIDE.with(|o| o.set(Some(cfg)));
                    guard::install_for_worker(g);
                    dco_obs::trace::adopt_probe_sink(sink);
                    c.iter().map(f).collect::<Vec<R>>()
                });
                (c, handle)
            })
            .collect();
        join_contained(handles, f, &mut out);
    });
    out
}

/// Join scoped worker chunks with panic containment: a panicked chunk is
/// retried once sequentially on the calling thread (the caller already has
/// the right config override and guard installed); only a second failure
/// is reported — recorded on the active guard as a `WorkerPanicked` fault,
/// or propagated as a plain panic when unguarded, matching the seed. A
/// guard-abort sentinel from any chunk re-raises after all chunks are
/// drained, so the `run_guarded` boundary sees exactly one unwind.
fn join_contained<'scope, T: Sync, R: Send>(
    parts: Vec<(&[T], std::thread::ScopedJoinHandle<'scope, Vec<R>>)>,
    f: &(impl Fn(&T) -> R + Sync),
    out: &mut Vec<R>,
) {
    let mut abort = false;
    for (c, h) in parts {
        match h.join() {
            Ok(part) => out.extend(part),
            Err(payload) => {
                if payload.is::<guard::GuardAbort>() {
                    abort = true;
                    continue;
                }
                if abort {
                    // The evaluation already has a recorded fault; a retry
                    // would abort at its first probe anyway.
                    continue;
                }
                let retried = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    c.iter().map(f).collect::<Vec<R>>()
                }));
                match retried {
                    Ok(part) => {
                        guard::note_worker_retry();
                        out.extend(part);
                    }
                    Err(retry) => {
                        // Short-circuit order matters: `trip_worker_panic` has
                        // side effects (records the fault, raises cancel) that
                        // must not fire for a guard-abort sentinel.
                        if retry.is::<guard::GuardAbort>()
                            || guard::trip_worker_panic(guard::panic_message(retry.as_ref()))
                        {
                            abort = true;
                        } else {
                            std::panic::resume_unwind(retry);
                        }
                    }
                }
            }
        }
    }
    if abort {
        std::panic::panic_any(guard::GuardAbort);
    }
}

/// Map over coarse work units (e.g. whole Datalog rule bodies) that are
/// themselves big enough to justify a thread each: forks whenever there
/// are at least two items and more than one thread, ignoring
/// `parallel_threshold`. Unlike [`par_map`] the workers keep their
/// "top-level" status, so the heavy algebra *inside* each unit may still
/// fork its own regions.
pub fn par_map_coarse<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let cfg = eval_config();
    let parallel = !IN_WORKER.with(Cell::get) && cfg.effective_threads() > 1 && items.len() >= 2;
    if !parallel {
        return items.iter().map(f).collect();
    }
    let active_guard = guard::current();
    let threads = cfg.effective_threads().min(items.len());
    let chunk = items.len().div_ceil(threads);
    let mut out: Vec<R> = Vec::with_capacity(items.len());
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| {
                let g = active_guard.clone();
                let sink = dco_obs::trace::probe_sink();
                let handle = s.spawn(move || {
                    OVERRIDE.with(|o| o.set(Some(cfg)));
                    guard::install_for_worker(g);
                    dco_obs::trace::adopt_probe_sink(sink);
                    c.iter().map(f).collect::<Vec<R>>()
                });
                (c, handle)
            })
            .collect();
        join_contained(handles, f, &mut out);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree_and_preserve_order() {
        let items: Vec<u64> = (0..1000).collect();
        let seq = par_map_when(false, &items, |x| x * x);
        let par = par_map_when(true, &items, |x| x * x);
        assert_eq!(seq, par);
        assert_eq!(seq[17], 17 * 17);
    }

    #[test]
    fn override_scopes_and_restores() {
        let before = eval_config();
        let inside = with_eval_config(EvalConfig::sequential(), eval_config);
        assert_eq!(inside, EvalConfig::sequential());
        assert_eq!(eval_config(), before);
    }

    #[test]
    fn override_restored_on_panic() {
        let before = eval_config();
        let result = std::panic::catch_unwind(|| {
            with_eval_config(EvalConfig::with_threads(7), || panic!("boom"))
        });
        assert!(result.is_err());
        assert_eq!(eval_config(), before);
    }

    #[test]
    fn workers_do_not_fork_again() {
        let items: Vec<usize> = (0..8).collect();
        let nested: Vec<bool> = par_map_when(true, &items, |_| should_parallelize(usize::MAX));
        assert!(nested.iter().all(|&b| !b));
    }

    #[test]
    fn workers_inherit_thread_local_override() {
        // A caller running under with_eval_config must see its override in
        // the scoped worker threads too, or config-sensitive kernels (box
        // pruning, incremental sat) would silently diverge between the
        // sequential and parallel paths.
        let items: Vec<usize> = (0..8).collect();
        let seen: Vec<EvalConfig> = with_eval_config(
            EvalConfig {
                threads: 3,
                cache_capacity: 12345,
                prune_boxes: false,
                ..EvalConfig::default()
            },
            || par_map_when(true, &items, |_| eval_config()),
        );
        assert!(seen
            .iter()
            .all(|cfg| cfg.cache_capacity == 12345 && !cfg.prune_boxes));
    }

    #[test]
    fn panicked_worker_chunk_is_retried_once() {
        use std::sync::atomic::AtomicBool;
        static TRIPPED: AtomicBool = AtomicBool::new(false);
        TRIPPED.store(false, Ordering::SeqCst);
        let items: Vec<usize> = (0..64).collect();
        let guarded = crate::guard::run_guarded(crate::guard::GuardLimits::none(), || {
            par_map_when(true, &items, |&x| {
                // First visit to item 13 panics; the sequential retry of its
                // chunk succeeds.
                if x == 13 && !TRIPPED.swap(true, Ordering::SeqCst) {
                    panic!("transient worker fault");
                }
                x * 2
            })
        })
        .expect("retry must recover the transient fault");
        assert_eq!(
            guarded.value,
            items.iter().map(|x| x * 2).collect::<Vec<_>>()
        );
        assert_eq!(guarded.stats.worker_retries, 1);
    }

    #[test]
    fn persistent_worker_panic_is_typed_under_guard() {
        let items: Vec<usize> = (0..8).collect();
        let err = crate::guard::run_guarded(crate::guard::GuardLimits::none(), || {
            par_map_when(true, &items, |&x| {
                if x == 3 {
                    panic!("persistent worker fault");
                }
                x
            })
        })
        .unwrap_err();
        let crate::guard::EvalErrorKind::WorkerPanicked(msg) = err.kind else {
            panic!("expected WorkerPanicked, got {:?}", err.kind);
        };
        assert!(msg.contains("persistent"));
    }

    #[test]
    fn threshold_gates_forking() {
        with_eval_config(
            EvalConfig {
                threads: 4,
                parallel_threshold: 10,
                ..EvalConfig::default()
            },
            || {
                assert!(!should_parallelize(9));
                assert!(should_parallelize(10));
            },
        );
    }
}
