//! The guarded entry point: [`evaluate`] runs a program to its fixpoint,
//! inflationary or stratified, under a `dco_core::guard::EvalGuard`.
//!
//! Same contract as `dco_fo::evaluate`: a fault-free guarded run returns
//! a fixpoint structurally identical to the unguarded [`crate::run`]; any
//! resource trip, overflow, cancellation, or contained panic comes back as
//! a typed [`GuardError`] carrying partial-progress statistics (including
//! `stages_completed`, which counts fixpoint stages that finished before
//! the trip).

use crate::ast::{Literal, Program};
use crate::engine::{run_with, EngineConfig, EngineError, FixpointResult};
use crate::stratified::{run_stratified, StratifyError};
use dco_core::guard::{run_guarded, EvalError as GuardError, GuardLimits, Guarded};
use dco_core::prelude::Database;
use dco_logic::Formula;
use std::fmt;

/// Why a guarded Datalog run did not produce a fixpoint.
#[derive(Debug)]
pub enum TryRunError {
    /// A semantic error independent of resources (bad input, stage limit).
    Invalid(EngineError),
    /// Stratification failure (stratified semantics only).
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

/// Which fixpoint [`evaluate`] computes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Semantics {
    /// §4's inflationary semantics: negation reads the current stage.
    #[default]
    Inflationary,
    /// Stratum by stratum: a negation reads its predicate's fixpoint.
    Stratified,
}

/// How [`evaluate`] runs a program.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Inflationary or stratified.
    pub semantics: Semantics,
    /// The guard's limits; `None` means [`default_limits`], with no
    /// deadline.
    pub limits: Option<GuardLimits>,
    /// The engine's configuration.
    pub engine: EngineConfig,
}

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

/// Run `program` on `input` to the fixpoint `options.semantics` names,
/// under the guard.
pub fn evaluate(
    program: &Program,
    input: &Database,
    options: &Options,
) -> Result<Guarded<FixpointResult>, TryRunError> {
    let limits = options
        .limits
        .clone()
        .unwrap_or_else(|| default_limits(program, input));
    let guarded = run_guarded(limits, || match options.semantics {
        Semantics::Inflationary => {
            run_with(program, input, &options.engine).map_err(TryRunError::Invalid)
        }
        Semantics::Stratified => run_stratified(program, input, &options.engine),
    })
    .map_err(TryRunError::Fault)?;
    Ok(Guarded {
        value: guarded.value?,
        stats: guarded.stats,
    })
}

/// [`evaluate`] with inflationary semantics under explicit limits. Kept
/// for the benchmark adapter, which calls it; it goes when the adapter
/// moves to [`evaluate`].
pub fn try_run_with(
    program: &Program,
    input: &Database,
    config: &EngineConfig,
    limits: GuardLimits,
) -> Result<Guarded<FixpointResult>, TryRunError> {
    let options = Options {
        semantics: Semantics::Inflationary,
        limits: Some(limits),
        engine: config.clone(),
    };
    evaluate(program, input, &options)
}

/// [`evaluate`] with stratified semantics under explicit limits. Kept for
/// the benchmark adapter, which calls it; it goes when the adapter moves
/// to [`evaluate`].
pub fn try_run_stratified_with(
    program: &Program,
    input: &Database,
    config: &EngineConfig,
    limits: GuardLimits,
) -> Result<Guarded<FixpointResult>, TryRunError> {
    let options = Options {
        semantics: Semantics::Stratified,
        limits: Some(limits),
        engine: config.clone(),
    };
    evaluate(program, input, &options)
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

    fn limited(limits: GuardLimits) -> Options {
        Options {
            limits: Some(limits),
            ..Options::default()
        }
    }

    fn stratified() -> Options {
        Options {
            semantics: Semantics::Stratified,
            ..Options::default()
        }
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
        let guarded = evaluate(&tc(), &db, &Options::default()).unwrap();
        assert!(guarded.value.database.equivalent(&unguarded.database));
        assert_eq!(guarded.value.stats, unguarded.stats);
        assert!(guarded.stats.probes > 0, "fixpoint stages must hit probes");
        assert!(guarded.stats.stages_completed > 0);
    }

    #[test]
    fn tuple_budget_trips_with_partial_progress() {
        let db = chain_db(10);
        let limits = GuardLimits::none().with_max_tuples(3);
        let err = evaluate(&tc(), &db, &limited(limits)).unwrap_err();
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
        let err = evaluate(&tc(), &db, &limited(limits)).unwrap_err();
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
        let err = evaluate(&p, &db, &Options::default()).unwrap_err();
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
        let unguarded = run_stratified(&p, &db, &EngineConfig::default()).unwrap();
        let guarded = evaluate(&p, &db, &stratified()).unwrap();
        assert!(guarded.value.database.equivalent(&unguarded.database));
        assert_eq!(guarded.value.stats.len(), 2, "one entry per stratum");
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
        let err = evaluate(&p, &db, &stratified()).unwrap_err();
        assert!(matches!(err, TryRunError::Unstratifiable(_)));
    }
}
