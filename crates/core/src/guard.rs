//! Runtime resource governor: deadlines, budgets, cancellation, and panic
//! containment for every evaluation hot path.
//!
//! The static cost pass (`dco-analysis`) rejects queries whose *predicted*
//! cell count is absurd, but prediction is not a guarantee: dense-order QE
//! and inflationary fixpoints have instances whose intermediate DNFs blow
//! up combinatorially even when the final answer is small. A production
//! engine must degrade *gracefully* on such instances — return a typed
//! error with partial-progress statistics, never abort the process, never
//! wedge a thread, never leave a memo cache poisoned.
//!
//! The design is cooperative: an [`EvalGuard`] holds a deadline, tuple and
//! atom budgets, and a cancellation flag, and the algebra calls [`probe`]
//! at cheap, semantically idle points —
//!
//! | site | where |
//! |---|---|
//! | [`ProbeSite::DnfInsert`] | every disjunct insert into a [`crate::relation::GeneralizedRelation`] (union, intersect, complement distribution) |
//! | [`ProbeSite::QuantifierElim`] | each single-variable dense-order QE step ([`GeneralizedTuple::eliminate`](crate::relation::Conjunction::eliminate)) |
//! | [`ProbeSite::CellSplit`] | each cell produced by [`crate::cell::CellSpace::enumerate`] |
//! | [`ProbeSite::FourierMotzkin`] | each Fourier–Motzkin pivot in `dco-linear` |
//! | [`ProbeSite::FixpointStage`] | each stage boundary of the Datalog engines |
//!
//! When a probe finds a limit exceeded (or the cancel flag set) it records
//! the fault and unwinds with a private sentinel payload. The unwinding is
//! *contained*: [`run_guarded`] (used by every `try_*` entry point in
//! `dco-fo`, `dco-linear`, `dco-datalog` and `dco`) catches it at the
//! boundary and converts it into a typed [`EvalError`] carrying a
//! [`GuardStats`] snapshot of the work completed. Code that never installs
//! a guard never pays more than one thread-local flag read per probe and
//! keeps the seed behaviour bit for bit.
//!
//! Worker threads spawned by [`crate::par`] inherit the installing
//! thread's guard, so a budget is global to the evaluation, not per
//! thread; a fault tripped in one worker raises the shared cancel flag and
//! the sibling workers stop at their next probe.
//!
//! The [`faults`] submodule is a deterministic fault-injection harness:
//! a seeded [`faults::FaultPlan`] arms exactly one synthetic fault
//! (overflow, panic, delay, or cancellation) at the Nth matching probe
//! hit, which is how the chaos property suite drives every abort path
//! without randomness or timing dependence.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once, OnceLock};
use std::time::{Duration, Instant};

/// The classes of probe points threaded through the evaluation hot paths.
///
/// Used both for fault targeting (a [`faults::FaultPlan`] can restrict
/// itself to one site) and for attributing probe counts in [`GuardStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeSite {
    /// Disjunct insertion into a generalized relation's DNF.
    DnfInsert,
    /// A single-variable dense-order quantifier-elimination step.
    QuantifierElim,
    /// One cell emitted by order-type cell decomposition.
    CellSplit,
    /// One Fourier–Motzkin variable-elimination pivot.
    FourierMotzkin,
    /// One stage boundary of a Datalog fixpoint engine.
    FixpointStage,
    /// Mid-append in the store's write-ahead log: the record header is on
    /// disk but the payload/trailer is not. A fault here leaves a torn
    /// record for crash recovery to discard (`dco-store`).
    WalAppend,
    /// Immediately before the WAL durability point (`fsync`): the record
    /// bytes are complete but not yet forced to disk.
    WalFsync,
    /// Mid-write of a store snapshot file, before the atomic rename that
    /// publishes it. A fault here abandons the temporary file.
    SnapshotWrite,
    /// After a group-commit batch's records are fully written to the WAL
    /// but before the single batch fsync: the durability point for every
    /// committer waiting on the batch (`dco-store`).
    GroupCommitFsync,
    /// Between the per-shard generation swaps that publish a durable
    /// batch to readers. A fault here leaves a seq-prefix of the batch
    /// visible — never a torn interleaving (`dco-store`).
    ShardPublish,
}

impl ProbeSite {
    /// Index of this site in [`dco_obs::PROBE_SITES`] — the contract
    /// between the guard's probe fan-out and the tracing layer's
    /// per-site aggregates (a unit test pins the two orderings).
    pub fn obs_index(self) -> usize {
        match self {
            ProbeSite::DnfInsert => 0,
            ProbeSite::QuantifierElim => 1,
            ProbeSite::CellSplit => 2,
            ProbeSite::FourierMotzkin => 3,
            ProbeSite::FixpointStage => 4,
            ProbeSite::WalAppend => 5,
            ProbeSite::WalFsync => 6,
            ProbeSite::SnapshotWrite => 7,
            ProbeSite::GroupCommitFsync => 8,
            ProbeSite::ShardPublish => 9,
        }
    }
}

impl fmt::Display for ProbeSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProbeSite::DnfInsert => "dnf-insert",
            ProbeSite::QuantifierElim => "quantifier-elim",
            ProbeSite::CellSplit => "cell-split",
            ProbeSite::FourierMotzkin => "fourier-motzkin",
            ProbeSite::FixpointStage => "fixpoint-stage",
            ProbeSite::WalAppend => "wal-append",
            ProbeSite::WalFsync => "wal-fsync",
            ProbeSite::SnapshotWrite => "snapshot-write",
            ProbeSite::GroupCommitFsync => "group-commit-fsync",
            ProbeSite::ShardPublish => "shard-publish",
        };
        f.write_str(s)
    }
}

/// Which budget a [`EvalErrorKind::BudgetExceeded`] fault exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// Generalized tuples (disjuncts) materialized.
    Tuples,
    /// Atoms (constraints) materialized.
    Atoms,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetKind::Tuples => f.write_str("tuple"),
            BudgetKind::Atoms => f.write_str("atom"),
        }
    }
}

/// The typed fault taxonomy of the guard layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalErrorKind {
    /// Rational arithmetic overflowed `i128` on the evaluation path.
    Overflow(&'static str),
    /// The guarded deadline elapsed before the evaluation finished.
    DeadlineExceeded {
        /// Wall time elapsed when the fault tripped, in milliseconds.
        elapsed_ms: u64,
        /// The configured deadline, in milliseconds.
        limit_ms: u64,
    },
    /// A materialization budget was exhausted.
    BudgetExceeded {
        /// Which budget.
        budget: BudgetKind,
        /// Its configured limit.
        limit: u64,
    },
    /// The evaluation was cancelled via a [`CancelToken`] (or an injected
    /// cancellation fault).
    Cancelled,
    /// A worker (or the evaluation itself) panicked with a non-guard
    /// payload, and the one-shot sequential retry panicked again.
    WorkerPanicked(String),
}

impl fmt::Display for EvalErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalErrorKind::Overflow(at) => write!(f, "arithmetic overflow: {at}"),
            EvalErrorKind::DeadlineExceeded {
                elapsed_ms,
                limit_ms,
            } => write!(
                f,
                "deadline exceeded: {elapsed_ms} ms elapsed of {limit_ms} ms allowed"
            ),
            EvalErrorKind::BudgetExceeded { budget, limit } => {
                write!(f, "{budget} budget exceeded: limit {limit}")
            }
            EvalErrorKind::Cancelled => f.write_str("evaluation cancelled"),
            EvalErrorKind::WorkerPanicked(msg) => write!(f, "worker panicked: {msg}"),
        }
    }
}

/// Partial-progress counters, snapshotted both on success and on fault.
///
/// Counters are process-wide per guarded evaluation (workers share the
/// installing thread's guard), updated with relaxed atomics: exact in
/// sequential runs, lower-bound-accurate under concurrency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Total probe hits across all sites.
    pub probes: u64,
    /// Disjuncts materialized (DNF inserts).
    pub tuples_materialized: u64,
    /// Atoms materialized across those disjuncts.
    pub atoms_materialized: u64,
    /// Fixpoint stages completed.
    pub stages_completed: u64,
    /// Parallel workers that panicked and were retried sequentially.
    pub worker_retries: u64,
    /// Wall time from guard installation to the snapshot, in milliseconds.
    pub elapsed_ms: u64,
}

/// A guard-layer failure: the typed fault plus how far evaluation got.
///
/// Memo caches are left *consistent* on this path: cache values are
/// computed before insertion and never mutated in place, so an aborted
/// evaluation can only have added correct entries (see the chaos suite's
/// cache-consistency property).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// What went wrong.
    pub kind: EvalErrorKind,
    /// Work completed before the fault.
    pub stats: GuardStats,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (after {} probes, {} tuples, {} stages, {} ms)",
            self.kind,
            self.stats.probes,
            self.stats.tuples_materialized,
            self.stats.stages_completed,
            self.stats.elapsed_ms
        )
    }
}

impl std::error::Error for EvalError {}

/// Resource limits for a guarded evaluation. `None` everywhere (the
/// default) means the guard only provides cancellation, statistics and
/// panic containment.
#[derive(Debug, Clone, Default)]
pub struct GuardLimits {
    /// Wall-clock deadline for the whole evaluation.
    pub deadline: Option<Duration>,
    /// Maximum disjuncts materialized across the evaluation.
    pub max_tuples: Option<u64>,
    /// Maximum atoms materialized across the evaluation.
    pub max_atoms: Option<u64>,
    /// Deterministic fault to inject (chaos testing only; `None` in
    /// production).
    pub fault_plan: Option<Arc<faults::FaultPlan>>,
}

impl GuardLimits {
    /// No limits: containment and statistics only.
    pub fn none() -> GuardLimits {
        GuardLimits::default()
    }

    /// Set the wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> GuardLimits {
        self.deadline = Some(d);
        self
    }

    /// Set the materialized-tuple budget.
    pub fn with_max_tuples(mut self, n: u64) -> GuardLimits {
        self.max_tuples = Some(n);
        self
    }

    /// Set the materialized-atom budget.
    pub fn with_max_atoms(mut self, n: u64) -> GuardLimits {
        self.max_atoms = Some(n);
        self
    }

    /// Arm a deterministic fault (see [`faults`]).
    pub fn with_fault(mut self, plan: faults::FaultPlan) -> GuardLimits {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Intersect with another limit set: the result enforces *both* —
    /// the minimum of each pair of limits, with `None` meaning
    /// unbounded on that axis. This is how a server combines the
    /// client's requested deadline/budgets with its own caps: a client
    /// can only ever tighten what the server would have enforced. The
    /// fault plan is taken from `self` (fault injection is never
    /// client-requestable).
    pub fn tightened(self, other: &GuardLimits) -> GuardLimits {
        fn min_opt<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            }
        }
        GuardLimits {
            deadline: min_opt(self.deadline, other.deadline),
            max_tuples: min_opt(self.max_tuples, other.max_tuples),
            max_atoms: min_opt(self.max_atoms, other.max_atoms),
            fault_plan: self.fault_plan,
        }
    }
}

/// Shared state behind an [`EvalGuard`] / [`CancelToken`].
struct GuardShared {
    started: Instant,
    deadline: Option<Instant>,
    limits: GuardLimits,
    cancel: AtomicBool,
    /// First fault wins; later trips see it set and unwind quietly.
    tripped: OnceLock<EvalErrorKind>,
    probes: AtomicU64,
    tuples: AtomicU64,
    atoms: AtomicU64,
    stages: AtomicU64,
    retries: AtomicU64,
}

/// A live resource governor for one evaluation.
///
/// Cheap to clone (an `Arc`); workers spawned by [`crate::par`] share the
/// installing thread's guard, so budgets and cancellation are global to
/// the evaluation.
#[derive(Clone)]
pub struct EvalGuard {
    shared: Arc<GuardShared>,
}

impl fmt::Debug for EvalGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EvalGuard")
            .field("stats", &self.stats())
            .field("tripped", &self.shared.tripped.get())
            .finish()
    }
}

impl EvalGuard {
    /// Create a guard with the given limits; the deadline clock starts now.
    pub fn new(limits: GuardLimits) -> EvalGuard {
        let started = Instant::now();
        EvalGuard {
            shared: Arc::new(GuardShared {
                started,
                deadline: limits.deadline.map(|d| started + d),
                limits,
                cancel: AtomicBool::new(false),
                tripped: OnceLock::new(),
                probes: AtomicU64::new(0),
                tuples: AtomicU64::new(0),
                atoms: AtomicU64::new(0),
                stages: AtomicU64::new(0),
                retries: AtomicU64::new(0),
            }),
        }
    }

    /// A snapshot of the progress counters.
    pub fn stats(&self) -> GuardStats {
        let s = &self.shared;
        GuardStats {
            probes: s.probes.load(Ordering::Relaxed),
            tuples_materialized: s.tuples.load(Ordering::Relaxed),
            atoms_materialized: s.atoms.load(Ordering::Relaxed),
            stages_completed: s.stages.load(Ordering::Relaxed),
            worker_retries: s.retries.load(Ordering::Relaxed),
            elapsed_ms: s.started.elapsed().as_millis() as u64,
        }
    }

    /// A cancellation handle that can be sent to another thread.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken {
            shared: Arc::downgrade(&self.shared),
        }
    }

    /// Request cooperative cancellation: the evaluation stops at its next
    /// probe with [`EvalErrorKind::Cancelled`].
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::Release);
    }

    /// The fault recorded so far, if any.
    pub fn fault(&self) -> Option<EvalErrorKind> {
        self.shared.tripped.get().cloned()
    }
}

/// A clonable, `Send` handle that cancels a guarded evaluation from
/// outside (another thread, a timeout reactor, a request handler noticing
/// the client went away). Holding a token does not keep the evaluation's
/// state alive; cancelling a finished evaluation is a no-op.
#[derive(Clone)]
pub struct CancelToken {
    shared: std::sync::Weak<GuardShared>,
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CancelToken")
    }
}

impl CancelToken {
    /// Request cancellation; returns `false` if the evaluation is already
    /// gone.
    pub fn cancel(&self) -> bool {
        match self.shared.upgrade() {
            Some(s) => {
                s.cancel.store(true, Ordering::Release);
                true
            }
            None => false,
        }
    }
}

thread_local! {
    /// Fast-path flag mirroring `ACTIVE.is_some()` so an unguarded probe
    /// costs one `Cell` read and no `RefCell` bookkeeping.
    static GUARDED: Cell<bool> = const { Cell::new(false) };
    static ACTIVE: RefCell<Option<EvalGuard>> = const { RefCell::new(None) };
}

/// The guard active on this thread, if any. Used by [`crate::par`] to
/// propagate the guard into scoped workers.
pub fn current() -> Option<EvalGuard> {
    if !GUARDED.with(Cell::get) {
        return None;
    }
    ACTIVE.with(|a| a.borrow().clone())
}

/// Install `guard` (or clear with `None`) on this thread, returning the
/// previous value. Callers must restore the previous value — use
/// [`ScopedGuard`] unless you are the worker-spawn path.
fn swap_current(guard: Option<EvalGuard>) -> Option<EvalGuard> {
    GUARDED.with(|g| g.set(guard.is_some()));
    ACTIVE.with(|a| a.replace(guard))
}

/// RAII installation of a guard on the current thread.
pub struct ScopedGuard {
    prev: Option<EvalGuard>,
}

impl ScopedGuard {
    /// Install `guard` until the returned value is dropped (panic-safe).
    pub fn install(guard: EvalGuard) -> ScopedGuard {
        ScopedGuard {
            prev: swap_current(Some(guard)),
        }
    }
}

impl Drop for ScopedGuard {
    fn drop(&mut self) {
        swap_current(self.prev.take());
    }
}

/// The sentinel unwind payload used for guard aborts. Private to the
/// crate: [`run_guarded`] and the parallel layer are the only code that
/// inspects payloads, and the quiet panic hook suppresses its backtrace.
pub(crate) struct GuardAbort;

/// Suppress the default "thread panicked" stderr noise for the two
/// sentinel payloads the guard layer unwinds with; real panics keep the
/// previous hook's behaviour.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().is::<GuardAbort>() || info.payload().is::<faults::InjectedPanic>() {
                return;
            }
            prev(info);
        }));
    });
}

/// Record `kind` as the evaluation's fault (first trip wins), raise the
/// shared cancel flag so sibling workers stop at their next probe, and
/// unwind to the [`run_guarded`] boundary.
fn trip_and_abort(shared: &GuardShared, kind: EvalErrorKind) -> ! {
    let _ = shared.tripped.set(kind);
    shared.cancel.store(true, Ordering::Release);
    panic::panic_any(GuardAbort);
}

/// Install `guard` on a fresh worker thread. No restore is needed: the
/// worker's thread-locals die with it at the end of the scoped region.
pub(crate) fn install_for_worker(guard: Option<EvalGuard>) {
    if guard.is_some() {
        let _ = swap_current(guard);
    }
}

/// Record a worker-panic fault on the active guard, if any. Returns
/// whether a guard was active (so the caller knows the abort sentinel
/// will be understood at a boundary).
pub(crate) fn trip_worker_panic(message: String) -> bool {
    match current() {
        Some(g) => {
            let _ = g.shared.tripped.set(EvalErrorKind::WorkerPanicked(message));
            g.shared.cancel.store(true, Ordering::Release);
            true
        }
        None => false,
    }
}

/// Note a successful one-shot sequential retry of a panicked worker.
pub(crate) fn note_worker_retry() {
    if let Some(g) = current() {
        g.shared.retries.fetch_add(1, Ordering::Relaxed);
    }
}

/// A probe point: no-op when unguarded, otherwise count the hit, charge
/// the budgets, and check fault conditions (injection, cancellation,
/// deadline, budgets) in that order.
#[inline]
pub fn probe(site: ProbeSite) {
    probe_charge(site, 0, 0);
}

/// [`probe`] plus budget charges for `tuples` disjuncts and `atoms` atoms
/// materialized at this point.
#[inline]
pub fn probe_charge(site: ProbeSite, tuples: u64, atoms: u64) {
    if !GUARDED.with(Cell::get) {
        return;
    }
    probe_slow(site, tuples, atoms);
}

#[cold]
fn probe_slow(site: ProbeSite, tuples: u64, atoms: u64) {
    let Some(guard) = ACTIVE.with(|a| a.borrow().clone()) else {
        return;
    };
    let s = &guard.shared;
    s.probes.fetch_add(1, Ordering::Relaxed);
    let tuple_count = if tuples > 0 {
        s.tuples.fetch_add(tuples, Ordering::Relaxed) + tuples
    } else {
        s.tuples.load(Ordering::Relaxed)
    };
    let atom_count = if atoms > 0 {
        s.atoms.fetch_add(atoms, Ordering::Relaxed) + atoms
    } else {
        s.atoms.load(Ordering::Relaxed)
    };
    // Trace fan-out: charge the active query trace's per-site aggregates
    // (one thread-local read when no trace is active). Before the fault
    // checks on purpose — a probe that trips still shows in the trace.
    dco_obs::trace::probe_hit(site.obs_index(), tuples, atoms);
    // Deterministic fault injection first, so an armed fault fires even
    // when real limits would trip at the same probe.
    if let Some(plan) = &s.limits.fault_plan {
        faults::maybe_inject(plan, site, s);
    }
    if s.cancel.load(Ordering::Acquire) {
        trip_and_abort(s, EvalErrorKind::Cancelled);
    }
    if let Some(deadline) = s.deadline {
        let now = Instant::now();
        if now > deadline {
            trip_and_abort(
                s,
                EvalErrorKind::DeadlineExceeded {
                    elapsed_ms: (now - s.started).as_millis() as u64,
                    limit_ms: s.limits.deadline.map(|d| d.as_millis() as u64).unwrap_or(0),
                },
            );
        }
    }
    if let Some(limit) = s.limits.max_tuples {
        if tuple_count > limit {
            trip_and_abort(
                s,
                EvalErrorKind::BudgetExceeded {
                    budget: BudgetKind::Tuples,
                    limit,
                },
            );
        }
    }
    if let Some(limit) = s.limits.max_atoms {
        if atom_count > limit {
            trip_and_abort(
                s,
                EvalErrorKind::BudgetExceeded {
                    budget: BudgetKind::Atoms,
                    limit,
                },
            );
        }
    }
}

/// Mark a fixpoint stage as completed (called at stage boundaries, after
/// the stage's [`probe`]).
pub fn stage_completed() {
    if let Some(g) = current() {
        g.shared.stages.fetch_add(1, Ordering::Relaxed);
    }
}

/// Raise an arithmetic-overflow fault if a guard is active; otherwise
/// panic exactly like the seed's unchecked operators did. All `Rational`
/// operator impls route their overflow path through here, which is what
/// turns engine-path arithmetic overflow into a typed [`EvalError`] at
/// every `try_*` boundary.
pub fn raise_overflow(context: &'static str) -> ! {
    if let Some(g) = current() {
        trip_and_abort(&g.shared, EvalErrorKind::Overflow(context));
    }
    panic!("rational arithmetic overflow: {context}");
}

/// A guarded evaluation's successful outcome: the value plus the final
/// progress counters.
#[derive(Debug, Clone)]
pub struct Guarded<T> {
    /// The computed value, identical to an unguarded run's.
    pub value: T,
    /// Final progress counters.
    pub stats: GuardStats,
}

/// Run `f` under a fresh [`EvalGuard`] with `limits`, containing every
/// abort path:
///
/// * a tripped limit, cancellation, or overflow returns its typed
///   [`EvalError`];
/// * any other panic out of `f` (after the parallel layer's one-shot
///   retry) is caught and reported as [`EvalErrorKind::WorkerPanicked`];
/// * on success the result is structurally identical to an unguarded run
///   (probes observe, they never alter the computation).
///
/// Returns the guard's final statistics in both outcomes.
pub fn run_guarded<T>(limits: GuardLimits, f: impl FnOnce() -> T) -> Result<Guarded<T>, EvalError> {
    run_with_guard(EvalGuard::new(limits), f)
}

/// [`run_guarded`] with a caller-created guard, e.g. to hand out a
/// [`CancelToken`] before the evaluation starts.
pub fn run_with_guard<T>(guard: EvalGuard, f: impl FnOnce() -> T) -> Result<Guarded<T>, EvalError> {
    install_quiet_hook();
    let scoped = ScopedGuard::install(guard.clone());
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    drop(scoped);
    let stats = guard.stats();
    match outcome {
        Ok(value) => Ok(Guarded { value, stats }),
        Err(payload) => {
            let kind = if payload.is::<GuardAbort>() {
                // The fault was recorded before the sentinel unwind began;
                // Cancelled covers the only raceless gap (a sibling set the
                // cancel flag and this thread unwound before recording).
                guard.fault().unwrap_or(EvalErrorKind::Cancelled)
            } else {
                EvalErrorKind::WorkerPanicked(panic_message(payload.as_ref()))
            };
            Err(EvalError { kind, stats })
        }
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if payload.is::<faults::InjectedPanic>() {
        "injected panic (fault harness)".to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Deterministic, seeded fault injection for chaos testing.
///
/// A [`FaultPlan`](faults::FaultPlan) arms exactly one synthetic fault — overflow, panic,
/// delay, or cancellation — at the `at`-th probe hit matching its site
/// filter. Plans are one-shot: after firing, the evaluation continues (or
/// unwinds) exactly as a real fault of that class would, which lets the
/// chaos suite assert the invariant *typed error or exact result, never
/// an abort* at every probe point without wall-clock or scheduling
/// nondeterminism.
///
/// Injection sites compile away outside test builds: the check is gated
/// on `debug_assertions` (which `cargo test` enables) or the explicit
/// `fault-injection` feature for release-mode chaos runs.
pub mod faults {
    use super::*;

    /// The payload type of an injected panic. Distinct from the guard's
    /// abort sentinel on purpose: an injected panic must look like a
    /// *genuine* worker panic to exercise the containment and retry paths.
    pub(crate) struct InjectedPanic;

    /// The synthetic fault classes the harness can arm.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum InjectedFault {
        /// Behave as if rational arithmetic overflowed at the probe.
        Overflow,
        /// Panic with a non-guard payload (exercises containment/retry).
        Panic,
        /// Sleep for the given duration (exercises deadlines).
        Delay(Duration),
        /// Raise the cooperative cancel flag.
        Cancel,
    }

    /// A one-shot fault armed at the `at`-th matching probe hit.
    #[derive(Debug)]
    #[cfg_attr(
        not(any(debug_assertions, feature = "fault-injection")),
        allow(dead_code) // only `maybe_inject` reads these, and it is a stub here
    )]
    pub struct FaultPlan {
        site: Option<ProbeSite>,
        at: u64,
        fault: InjectedFault,
        hits: AtomicU64,
        fired: AtomicBool,
    }

    impl FaultPlan {
        /// Arm `fault` at the `at`-th probe hit (1-based) matching `site`
        /// (`None` = any site).
        pub fn new(site: Option<ProbeSite>, at: u64, fault: InjectedFault) -> FaultPlan {
            FaultPlan {
                site,
                at: at.max(1),
                fault,
                hits: AtomicU64::new(0),
                fired: AtomicBool::new(false),
            }
        }

        /// Whether the plan has fired.
        pub fn has_fired(&self) -> bool {
            self.fired.load(Ordering::Acquire)
        }
    }

    /// Whether injection sites are compiled into this build.
    pub fn injection_enabled() -> bool {
        cfg!(any(debug_assertions, feature = "fault-injection"))
    }

    #[cfg(any(debug_assertions, feature = "fault-injection"))]
    pub(super) fn maybe_inject(plan: &FaultPlan, site: ProbeSite, shared: &GuardShared) {
        if let Some(want) = plan.site {
            if want != site {
                return;
            }
        }
        if plan.fired.load(Ordering::Acquire) {
            return;
        }
        let hit = plan.hits.fetch_add(1, Ordering::Relaxed) + 1;
        if hit != plan.at || plan.fired.swap(true, Ordering::AcqRel) {
            return;
        }
        match plan.fault {
            InjectedFault::Overflow => {
                trip_and_abort(shared, EvalErrorKind::Overflow("injected fault"));
            }
            InjectedFault::Panic => panic::panic_any(InjectedPanic),
            InjectedFault::Delay(d) => std::thread::sleep(d),
            InjectedFault::Cancel => shared.cancel.store(true, Ordering::Release),
        }
    }

    #[cfg(not(any(debug_assertions, feature = "fault-injection")))]
    pub(super) fn maybe_inject(_plan: &FaultPlan, _site: ProbeSite, _shared: &GuardShared) {}
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn unguarded_probes_are_noops() {
        probe(ProbeSite::DnfInsert);
        probe_charge(ProbeSite::DnfInsert, 10, 100);
        stage_completed();
        assert!(current().is_none());
    }

    /// Pins the contract between [`ProbeSite::obs_index`] and
    /// [`dco_obs::PROBE_SITES`]: every variant maps to a distinct,
    /// in-range index whose registered name matches the variant.
    #[test]
    fn obs_index_matches_probe_site_names() {
        let expected = [
            (ProbeSite::DnfInsert, "dnf_insert"),
            (ProbeSite::QuantifierElim, "quantifier_elim"),
            (ProbeSite::CellSplit, "cell_split"),
            (ProbeSite::FourierMotzkin, "fourier_motzkin"),
            (ProbeSite::FixpointStage, "fixpoint_stage"),
            (ProbeSite::WalAppend, "wal_append"),
            (ProbeSite::WalFsync, "wal_fsync"),
            (ProbeSite::SnapshotWrite, "snapshot_write"),
            (ProbeSite::GroupCommitFsync, "group_commit_fsync"),
            (ProbeSite::ShardPublish, "shard_publish"),
        ];
        assert_eq!(expected.len(), dco_obs::PROBE_SITES.len());
        let mut seen = [false; 10];
        for (site, name) in expected {
            let idx = site.obs_index();
            assert!(idx < dco_obs::PROBE_SITES.len(), "{name} out of range");
            assert!(!seen[idx], "duplicate obs index {idx}");
            seen[idx] = true;
            assert_eq!(dco_obs::PROBE_SITES[idx], name);
        }
    }

    #[test]
    fn guarded_run_counts_and_succeeds() {
        let out = run_guarded(GuardLimits::none(), || {
            for _ in 0..5 {
                probe_charge(ProbeSite::DnfInsert, 1, 3);
            }
            stage_completed();
            42
        })
        .unwrap();
        assert_eq!(out.value, 42);
        assert_eq!(out.stats.probes, 5);
        assert_eq!(out.stats.tuples_materialized, 5);
        assert_eq!(out.stats.atoms_materialized, 15);
        assert_eq!(out.stats.stages_completed, 1);
    }

    #[test]
    fn tuple_budget_trips_typed() {
        let err = run_guarded(GuardLimits::none().with_max_tuples(3), || {
            for _ in 0..10 {
                probe_charge(ProbeSite::DnfInsert, 1, 0);
            }
            unreachable!("budget must trip first")
        })
        .unwrap_err();
        assert_eq!(
            err.kind,
            EvalErrorKind::BudgetExceeded {
                budget: BudgetKind::Tuples,
                limit: 3
            }
        );
        assert_eq!(err.stats.tuples_materialized, 4);
    }

    #[test]
    fn deadline_trips_typed() {
        let err = run_guarded(
            GuardLimits::none().with_deadline(Duration::from_millis(5)),
            || loop {
                std::thread::sleep(Duration::from_millis(2));
                probe(ProbeSite::FixpointStage);
            },
        )
        .unwrap_err();
        assert!(matches!(err.kind, EvalErrorKind::DeadlineExceeded { .. }));
    }

    #[test]
    fn cancel_token_from_another_thread() {
        let guard = EvalGuard::new(GuardLimits::none());
        let token = guard.cancel_token();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            token.cancel()
        });
        let err = run_with_guard(guard, || loop {
            std::thread::sleep(Duration::from_millis(1));
            probe(ProbeSite::DnfInsert);
        })
        .unwrap_err();
        assert_eq!(err.kind, EvalErrorKind::Cancelled);
        assert!(handle.join().expect("cancel thread"));
    }

    #[test]
    fn foreign_panic_contained_as_worker_panicked() {
        let err = run_guarded(GuardLimits::none(), || {
            probe(ProbeSite::DnfInsert);
            panic!("boom at probe 1");
        })
        .unwrap_err();
        let EvalErrorKind::WorkerPanicked(msg) = err.kind else {
            panic!("expected WorkerPanicked, got {:?}", err.kind);
        };
        assert!(msg.contains("boom"));
    }

    #[test]
    fn guard_restored_after_failure() {
        assert!(current().is_none());
        let _ = run_guarded(GuardLimits::none().with_max_tuples(1), || {
            probe_charge(ProbeSite::DnfInsert, 5, 0);
        });
        assert!(current().is_none());
    }

    #[test]
    fn overflow_raise_is_typed_under_guard() {
        let err = run_guarded(GuardLimits::none(), || -> u32 {
            raise_overflow("test site")
        })
        .unwrap_err();
        assert_eq!(err.kind, EvalErrorKind::Overflow("test site"));
    }

    #[test]
    fn injected_fault_fires_once_at_nth_probe() {
        if !faults::injection_enabled() {
            return;
        }
        let plan = faults::FaultPlan::new(
            Some(ProbeSite::DnfInsert),
            3,
            faults::InjectedFault::Overflow,
        );
        let limits = GuardLimits::none().with_fault(plan);
        let plan_ref = limits.fault_plan.clone().expect("armed");
        let err = run_guarded(limits, || {
            for i in 0..10 {
                probe(ProbeSite::QuantifierElim); // wrong site: never fires
                probe(ProbeSite::DnfInsert);
                assert!(i < 2, "must fault at the 3rd DnfInsert probe");
            }
        })
        .unwrap_err();
        assert_eq!(err.kind, EvalErrorKind::Overflow("injected fault"));
        assert!(plan_ref.has_fired());
    }

    #[test]
    fn nested_guards_scope_correctly() {
        let outer = run_guarded(GuardLimits::none(), || {
            probe(ProbeSite::DnfInsert);
            let inner = run_guarded(GuardLimits::none().with_max_tuples(1), || {
                probe_charge(ProbeSite::DnfInsert, 2, 0);
            });
            assert!(inner.is_err());
            // Outer guard is re-installed after the inner boundary.
            probe(ProbeSite::DnfInsert);
            7
        })
        .unwrap();
        assert_eq!(outer.value, 7);
        assert_eq!(outer.stats.probes, 2);
    }

    #[test]
    fn tightened_takes_the_minimum_on_every_axis() {
        let server = GuardLimits::none()
            .with_deadline(Duration::from_millis(500))
            .with_max_tuples(1000);
        let client = GuardLimits::none()
            .with_deadline(Duration::from_millis(200))
            .with_max_atoms(64);
        let both = server.clone().tightened(&client);
        assert_eq!(both.deadline, Some(Duration::from_millis(200)));
        assert_eq!(both.max_tuples, Some(1000), "unset on one side: kept");
        assert_eq!(both.max_atoms, Some(64));
        // A client cannot loosen the server's limits.
        let loose = GuardLimits::none().with_deadline(Duration::from_secs(3600));
        assert_eq!(
            server.tightened(&loose).deadline,
            Some(Duration::from_millis(500))
        );
        assert!(GuardLimits::none()
            .tightened(&GuardLimits::none())
            .deadline
            .is_none());
    }
}
