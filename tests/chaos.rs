//! Chaos property suite for the guard layer (`dco_core::guard`).
//!
//! Drives every evaluator through the deterministic fault-injection
//! harness: a seeded case generator arms one synthetic fault — overflow,
//! panic, delay, or cancellation — at the Nth probe hit of one probe site,
//! then asserts the guard layer's core invariant for every case:
//!
//! > A guarded evaluation either returns a result **identical** to the
//! > unguarded run, or a **typed** [`GuardError`] — never a process
//! > abort, never a wedged thread, never a poisoned memo cache.
//!
//! The suite is fully deterministic: cases derive from a fixed seed via a
//! splitmix-style generator (override with `DCO_CHAOS_SEED` to explore
//! other trajectories; CI pins the default). The paper's closed-form
//! evaluation gives the strong half of the contract — *fault-free* guarded
//! runs must be structurally identical, not merely equivalent-modulo-
//! timeout, because probes observe and never alter the computation.

use dco::core::guard::faults::{injection_enabled, FaultPlan, InjectedFault};
use dco::prelude::*;
use std::time::{Duration, Instant};

/// Number of seeded injection cases; keep in sync with the CI chaos job.
const CASES: u64 = 128;

/// Per-case wall-clock ceiling: the armed delay (50 ms) plus the deadline
/// (25 ms) plus the acceptance margin of one second.
const CASE_CEILING: Duration = Duration::from_secs(5);

const DELAY: Duration = Duration::from_millis(50);
const DELAY_DEADLINE: Duration = Duration::from_millis(25);

/// Sites each scenario's evaluation actually reaches (measured; a plan
/// armed on an unreached site never fires and the run must then complete
/// with the exact baseline result — also worth testing, via `None`).
fn site_pool(s: Scenario) -> &'static [Option<ProbeSite>] {
    match s {
        Scenario::Fo => &[
            Some(ProbeSite::DnfInsert),
            Some(ProbeSite::QuantifierElim),
            None,
        ],
        Scenario::Linear => &[Some(ProbeSite::FourierMotzkin), None],
        Scenario::Datalog => &[
            Some(ProbeSite::DnfInsert),
            Some(ProbeSite::FixpointStage),
            None,
        ],
        Scenario::Geo => &[Some(ProbeSite::CellSplit), Some(ProbeSite::DnfInsert), None],
    }
}

fn seed() -> u64 {
    std::env::var("DCO_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xDC0DB)
}

/// splitmix64: tiny, deterministic, and good enough to scatter cases.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fo_db() -> Database {
    let r = GeneralizedRelation::from_points(
        2,
        vec![
            vec![rat(1, 1), rat(2, 1)],
            vec![rat(2, 1), rat(3, 1)],
            vec![rat(3, 1), rat(1, 1)],
        ],
    );
    Database::new(Schema::new().with("R", 2)).with("R", r)
}

fn datalog_db() -> Database {
    let e = GeneralizedRelation::from_points(
        2,
        (1..6)
            .map(|i| vec![rat(i, 1), rat(i + 1, 1)])
            .collect::<Vec<_>>(),
    );
    Database::new(Schema::new().with("e", 2)).with("e", e)
}

const FO_SRC: &str = "exists y . (R(x, y) & !(exists z . (R(y, z) & z < x)))";
const LIN_SRC: &str = "forall x y . (x < y -> exists m . (m + m = x + y & x < m & m < y))";
const DATALOG_SRC: &str = "tc(x, y) :- e(x, y).\ntc(x, y) :- tc(x, z), e(z, y).\n";

#[derive(Clone, Copy, Debug)]
enum Scenario {
    Fo,
    Linear,
    Datalog,
    Geo,
}

const SCENARIOS: [Scenario; 4] = [
    Scenario::Fo,
    Scenario::Linear,
    Scenario::Datalog,
    Scenario::Geo,
];

/// Two disjoint closed boxes: cell decomposition plus union-find, i.e. the
/// Theorem 4.3 query. Exercises the `CellSplit` probe site.
fn geo_region() -> dco::geo::Region {
    dco::geo::Region::closed_box(0, 1, 0, 1).union(&dco::geo::Region::closed_box(3, 4, 3, 4))
}

/// Run one scenario under `limits`; `Ok(true)` means the guarded result is
/// structurally identical to the unguarded baseline.
fn run_scenario(s: Scenario, limits: GuardLimits) -> Result<bool, GuardError> {
    match s {
        Scenario::Fo => {
            let db = fo_db();
            let formula = parse_formula(FO_SRC).expect("fo scenario parses");
            let baseline = dco::fo::eval(&db, &formula).expect("fo baseline");
            match dco::fo::try_eval_with(&db, &formula, limits) {
                Ok(g) => Ok(g.value.relation.equivalent(&baseline.relation)
                    && g.value.columns == baseline.columns),
                Err(dco::fo::TryEvalError::Fault(f)) => Err(f),
                Err(e) => panic!("fo scenario is semantically valid, got {e}"),
            }
        }
        Scenario::Linear => {
            let db = Database::new(Schema::new());
            let formula = parse_formula(LIN_SRC).expect("linear scenario parses");
            let baseline = eval_linear(&db, &formula).expect("linear baseline");
            match dco::linear::try_eval_linear_with(&db, &formula, limits) {
                Ok(g) => Ok(g.value.as_bool() == baseline.as_bool()),
                Err(dco::fo::TryEvalError::Fault(f)) => Err(f),
                Err(e) => panic!("linear scenario is semantically valid, got {e}"),
            }
        }
        Scenario::Datalog => {
            let db = datalog_db();
            let program = parse_program(DATALOG_SRC).expect("datalog scenario parses");
            let baseline = run_datalog(&program, &db).expect("datalog baseline");
            match dco::datalog::try_run_with(
                &program,
                &db,
                &dco::datalog::EngineConfig::default(),
                limits,
            ) {
                Ok(g) => Ok(g.value.database.equivalent(&baseline.database)
                    && g.value.stats.stages == baseline.stats.stages),
                Err(dco::datalog::TryRunError::Fault(f)) => Err(f),
                Err(e) => panic!("datalog scenario is semantically valid, got {e}"),
            }
        }
        Scenario::Geo => {
            let region = geo_region();
            let baseline = dco::geo::component_count(&region);
            match run_guarded(limits, || dco::geo::component_count(&region)) {
                Ok(g) => Ok(g.value == baseline),
                Err(f) => Err(f),
            }
        }
    }
}

/// Fault-free guarded runs must be structurally identical to unguarded
/// runs: probes observe, they never alter the computation.
#[test]
fn fault_free_guarded_runs_match_unguarded() {
    for s in SCENARIOS {
        let identical = run_scenario(s, GuardLimits::none())
            .unwrap_or_else(|f| panic!("{s:?} must not fault without limits: {f}"));
        assert!(identical, "{s:?}: guarded result diverged from unguarded");
    }
}

/// The 128-case seeded injection sweep: every (scenario × site × fault ×
/// Nth-hit) combination the generator lands on must either finish with the
/// exact unguarded result or trip a typed fault — and do so promptly.
#[test]
fn seeded_injection_sweep() {
    if !injection_enabled() {
        eprintln!(
            "fault injection compiled out (release without the fault-injection feature); skipping"
        );
        return;
    }
    let mut state = seed();
    let mut outcomes = [0u64; 3]; // [identical result, typed fault, fault never fired]
    for case in 0..CASES {
        let s = SCENARIOS[(splitmix(&mut state) % SCENARIOS.len() as u64) as usize];
        let pool = site_pool(s);
        let site = pool[(splitmix(&mut state) % pool.len() as u64) as usize];
        let fault = match splitmix(&mut state) % 4 {
            0 => InjectedFault::Overflow,
            1 => InjectedFault::Panic,
            2 => InjectedFault::Delay(DELAY),
            _ => InjectedFault::Cancel,
        };
        let at = 1 + splitmix(&mut state) % 8;
        let plan = FaultPlan::new(site, at, fault);
        let mut limits = GuardLimits::none().with_fault(plan);
        if matches!(fault, InjectedFault::Delay(_)) {
            // A delay only becomes a fault through a deadline.
            limits = limits.with_deadline(DELAY_DEADLINE);
        }
        let plan_ref = limits.fault_plan.clone().expect("armed");

        let started = Instant::now();
        let outcome = run_scenario(s, limits);
        let elapsed = started.elapsed();
        assert!(
            elapsed < CASE_CEILING,
            "case {case} ({s:?} {site:?} {fault:?}@{at}) took {elapsed:?}: wedged?"
        );

        match outcome {
            Ok(identical) => {
                assert!(
                    identical,
                    "case {case} ({s:?} {site:?} {fault:?}@{at}): survived injection \
                     but result diverged from the unguarded baseline"
                );
                // An injected overflow or panic always unwinds (a panic is
                // not retried); surviving it means the plan cannot have
                // fired.
                if matches!(fault, InjectedFault::Overflow | InjectedFault::Panic) {
                    assert!(
                        !plan_ref.has_fired(),
                        "case {case}: {fault:?} fired yet evaluation succeeded"
                    );
                }
                outcomes[if plan_ref.has_fired() { 0 } else { 2 }] += 1;
            }
            Err(f) => {
                // Typed fault: the kind must be consistent with what was
                // armed (or with the deadline the delay case sets).
                let ok = match fault {
                    InjectedFault::Overflow => {
                        matches!(f.kind, GuardErrorKind::Overflow(_))
                    }
                    InjectedFault::Panic => matches!(f.kind, GuardErrorKind::WorkerPanicked(_)),
                    InjectedFault::Delay(_) => {
                        matches!(f.kind, GuardErrorKind::DeadlineExceeded { .. })
                    }
                    InjectedFault::Cancel => matches!(f.kind, GuardErrorKind::Cancelled),
                };
                assert!(
                    ok,
                    "case {case} ({s:?} {site:?} {fault:?}@{at}): unexpected fault kind {:?}",
                    f.kind
                );
                assert!(
                    f.stats.probes > 0,
                    "case {case}: fault carries no progress stats"
                );
                outcomes[1] += 1;
            }
        }
    }
    // The sweep is only meaningful if both halves of the invariant are
    // actually exercised.
    assert!(outcomes[1] > 0, "no case tripped a fault: {outcomes:?}");
    assert!(
        outcomes[0] + outcomes[2] > 0,
        "no case completed: {outcomes:?}"
    );
    eprintln!(
        "chaos sweep (seed {:#x}): {} identical-after-fire, {} typed faults, {} never fired",
        seed(),
        outcomes[0],
        outcomes[1],
        outcomes[2]
    );
}

/// An aborted evaluation must not poison the memo cache it was filling.
/// Cancel the linear scenario mid-elimination, then re-run on the warm,
/// partially populated Fourier–Motzkin cache and compare against a
/// cold-cache run.
#[test]
fn aborted_evaluation_leaves_memo_cache_consistent() {
    if !injection_enabled() {
        return;
    }
    let db = Database::new(Schema::new());
    let formula = parse_formula(LIN_SRC).expect("parses");
    let cache = dco::linear::tuple::lin_sat_cache();

    cache.reset();
    let plan = FaultPlan::new(Some(ProbeSite::FourierMotzkin), 2, InjectedFault::Cancel);
    let aborted =
        dco::linear::try_eval_linear_with(&db, &formula, GuardLimits::none().with_fault(plan));
    assert!(
        matches!(
            aborted,
            Err(dco::fo::TryEvalError::Fault(GuardError {
                kind: GuardErrorKind::Cancelled,
                ..
            }))
        ),
        "mid-elimination cancellation must trip: {aborted:?}"
    );
    // Otherwise the warm run below would start from an empty cache and the
    // test would check nothing.
    assert!(
        cache.stats().misses > 0,
        "the aborted run decided no satisfiability through the cache"
    );

    // Warm run on whatever the aborted evaluation left in the cache.
    let warm = eval_linear(&db, &formula).expect("warm run");
    // Cold run with the cache wiped.
    cache.reset();
    let cold = eval_linear(&db, &formula).expect("cold run");
    assert!(
        warm.relation.equivalent(&cold.relation),
        "aborted evaluation poisoned the memo cache"
    );
}

/// A cancellation token fired from another thread terminates a guarded
/// fixpoint promptly with the typed `Cancelled` fault.
#[test]
fn external_cancellation_terminates_promptly() {
    let db = datalog_db();
    let program = parse_program(DATALOG_SRC).expect("parses");
    // Arm a delay so the evaluation is still in flight when the token
    // fires; without injection support just exercise the token path on a
    // completed evaluation.
    let guard = EvalGuard::new(GuardLimits::none());
    let token = guard.cancel_token();
    token.cancel();
    let started = Instant::now();
    let out = dco::core::guard::run_with_guard(guard, || dco::datalog::run(&program, &db));
    assert!(
        matches!(
            out,
            Err(GuardError {
                kind: GuardErrorKind::Cancelled,
                ..
            })
        ),
        "pre-cancelled guard must trip at the first probe"
    );
    assert!(started.elapsed() < CASE_CEILING);
}
