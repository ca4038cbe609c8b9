//! Fault-tolerant Datalog¬ evaluation: `try_*` entry points that run the
//! fixpoint engine under a `dco_core::guard::EvalGuard`.
//!
//! Same contract as `dco_fo::guarded` (which FO+ shares): a
//! fault-free guarded run returns a fixpoint structurally identical to the
//! unguarded [`crate::run`]; any resource trip, overflow, cancellation, or
//! contained worker panic comes back as a typed [`GuardError`] carrying
//! partial-progress statistics (including `stages_completed`, which counts
//! fixpoint stages that finished before the trip).

use crate::ast::{Literal, Program};
use crate::engine::{run_with, EngineConfig, EngineError, FixpointResult};
use crate::stratified::{run_stratified_with, StratifiedResult, StratifyError};
use dco_core::guard::{run_guarded, EvalError as GuardError, GuardLimits, Guarded};
use dco_core::prelude::Database;
use dco_logic::Formula;
use std::fmt;

/// Why a fault-tolerant Datalog run did not produce a fixpoint.
#[derive(Debug)]
pub enum TryRunError {
    /// A semantic error independent of resources (bad input, stage limit).
    Invalid(EngineError),
    /// Stratification failure (stratified entry points only).
    Unstratifiable(StratifyError),
    /// The guard tripped or a panic was contained.
    Fault(GuardError),
}

impl fmt::Display for TryRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRunError::Invalid(e) => write!(f, "invalid program or input: {e}"),
            TryRunError::Unstratifiable(e) => write!(f, "{e}"),
            TryRunError::Fault(e) => write!(f, "evaluation fault: {e}"),
        }
    }
}

impl std::error::Error for TryRunError {}

/// Shorthand for the result of the inflationary `try_*` entry points.
pub type TryRunResult = Result<Guarded<FixpointResult>, TryRunError>;

/// Analyzer-suggested default budgets for a program over a database: the
/// static cost model's predicted cell count over the combined constant set,
/// with the widest rule body's variable count.
pub fn default_limits(program: &Program, input: &Database) -> GuardLimits {
    let mut constants = input.constants();
    let mut widest = 0usize;
    for r in &program.rules {
        let body = Formula::And(r.body.iter().map(Literal::to_formula).collect());
        constants.extend(dco_analysis::cost::constants_of_formula(&body));
        widest = widest.max(
            dco_analysis::cost::all_vars(&body)
                .len()
                .max(r.head_vars.len()),
        );
    }
    dco_analysis::cost::suggested_limits(constants.len(), widest)
}

/// Run the inflationary engine under the analyzer-suggested default budgets.
pub fn try_run(program: &Program, input: &Database) -> TryRunResult {
    try_run_with(
        program,
        input,
        &EngineConfig::default(),
        default_limits(program, input),
    )
}

/// Run the inflationary engine under explicit guard limits.
pub fn try_run_with(
    program: &Program,
    input: &Database,
    config: &EngineConfig,
    limits: GuardLimits,
) -> TryRunResult {
    match run_guarded(limits, || run_with(program, input, config)) {
        Ok(guarded) => match guarded.value {
            Ok(value) => Ok(Guarded {
                value,
                stats: guarded.stats,
            }),
            Err(e) => Err(TryRunError::Invalid(e)),
        },
        Err(fault) => Err(TryRunError::Fault(fault)),
    }
}

/// Shorthand for the result of the stratified `try_*` entry points.
pub type TryStratifiedResult = Result<Guarded<StratifiedResult>, TryRunError>;

/// Run under stratified semantics with the analyzer-suggested budgets.
pub fn try_run_stratified(program: &Program, input: &Database) -> TryStratifiedResult {
    try_run_stratified_with(
        program,
        input,
        &EngineConfig::default(),
        default_limits(program, input),
    )
}

/// Run under stratified semantics with explicit guard limits.
pub fn try_run_stratified_with(
    program: &Program,
    input: &Database,
    config: &EngineConfig,
    limits: GuardLimits,
) -> TryStratifiedResult {
    match run_guarded(limits, || run_stratified_with(program, input, config)) {
        Ok(guarded) => match guarded.value {
            Ok(value) => Ok(Guarded {
                value,
                stats: guarded.stats,
            }),
            Err(StratifyError::Engine(e)) => Err(TryRunError::Invalid(e)),
            Err(e) => Err(TryRunError::Unstratifiable(e)),
        },
        Err(fault) => Err(TryRunError::Fault(fault)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use dco_core::guard::EvalErrorKind;
    use dco_core::prelude::*;
    use std::time::Duration;

    fn tc() -> Program {
        parse_program(
            "tc(x, y) :- e(x, y).\n\
             tc(x, y) :- tc(x, z), e(z, y).\n",
        )
        .unwrap()
    }

    fn chain_db(n: i64) -> Database {
        let e = GeneralizedRelation::from_points(
            2,
            (1..n)
                .map(|i| vec![rat(i as i128, 1), rat((i + 1) as i128, 1)])
                .collect::<Vec<_>>(),
        );
        Database::new(Schema::new().with("e", 2)).with("e", e)
    }

    #[test]
    fn fault_free_guarded_run_matches_unguarded() {
        let db = chain_db(6);
        let unguarded = crate::run(&tc(), &db).unwrap();
        let guarded = try_run(&tc(), &db).unwrap();
        assert!(guarded.value.database.equivalent(&unguarded.database));
        assert_eq!(guarded.value.stats.stages, unguarded.stats.stages);
        assert!(guarded.stats.probes > 0, "fixpoint stages must hit probes");
        assert!(guarded.stats.stages_completed > 0);
    }

    #[test]
    fn tuple_budget_trips_with_partial_progress() {
        let db = chain_db(10);
        let limits = GuardLimits::none().with_max_tuples(3);
        let err = try_run_with(&tc(), &db, &EngineConfig::default(), limits).unwrap_err();
        let TryRunError::Fault(f) = err else {
            panic!("expected a fault");
        };
        assert!(matches!(f.kind, EvalErrorKind::BudgetExceeded { .. }));
        assert!(f.stats.tuples_materialized >= 3);
    }

    #[test]
    fn deadline_trips_as_typed_fault() {
        let db = chain_db(10);
        let limits = GuardLimits::none().with_deadline(Duration::ZERO);
        let err = try_run_with(&tc(), &db, &EngineConfig::default(), limits).unwrap_err();
        assert!(matches!(
            err,
            TryRunError::Fault(GuardError {
                kind: EvalErrorKind::DeadlineExceeded { .. },
                ..
            })
        ));
    }

    #[test]
    fn semantic_errors_stay_typed() {
        let p = parse_program("p(x) :- q(x).\n").unwrap();
        let db = Database::new(Schema::new());
        let err = try_run(&p, &db).unwrap_err();
        assert!(matches!(err, TryRunError::Invalid(_)));
    }

    #[test]
    fn stratified_guarded_matches_unguarded() {
        let p = parse_program(
            "r(x, y) :- e(x, y).\n\
             r(x, y) :- r(x, z), e(z, y).\n\
             unreach(x, y) :- v(x), v(y), not r(x, y).\n",
        )
        .unwrap();
        let v = GeneralizedRelation::from_points(
            1,
            (1..=3).map(|i| vec![rat(i, 1)]).collect::<Vec<_>>(),
        );
        let db = Database::new(Schema::new().with("e", 2).with("v", 1))
            .with(
                "e",
                GeneralizedRelation::from_points(
                    2,
                    vec![vec![rat(1, 1), rat(2, 1)], vec![rat(2, 1), rat(3, 1)]],
                ),
            )
            .with("v", v);
        let unguarded = crate::run_stratified(&p, &db).unwrap();
        let guarded = try_run_stratified(&p, &db).unwrap();
        assert!(guarded.value.database.equivalent(&unguarded.database));
    }

    #[test]
    fn unstratifiable_is_not_a_fault() {
        let p = parse_program(
            "a(x) :- v(x), not b(x).\n\
             b(x) :- v(x), not a(x).\n",
        )
        .unwrap();
        let v = GeneralizedRelation::from_points(1, vec![vec![rat(1, 1)]]);
        let db = Database::new(Schema::new().with("v", 1)).with("v", v);
        let err = try_run_stratified(&p, &db).unwrap_err();
        assert!(matches!(err, TryRunError::Unstratifiable(_)));
    }
}
