//! Fault-tolerant FO evaluation: `try_*` entry points that run the
//! bottom-up evaluator under a `dco_core::guard::EvalGuard`.
//!
//! Static analysis (`dco_analysis::preflight_formula`) *predicts* which
//! queries are hopeless; this module *enforces*: the evaluation runs with
//! a deadline, tuple/atom budgets, and a cancellation token, and
//! every failure mode — budget trip, deadline, external cancellation,
//! arithmetic overflow, even a worker panic — is contained at this
//! boundary and returned as a typed [`GuardError`] carrying
//! partial-progress statistics. A fault-free guarded run returns a result
//! structurally identical to the unguarded [`crate::eval::eval`].
//!
//! By default the budgets come from the analyzer's cost pass
//! ([`dco_analysis::cost::suggested_limits_for_formula`]); callers that
//! own a wall clock add a deadline on top.

use crate::eval::{eval, EvalError, QueryResult};
use dco_core::guard::{run_guarded, EvalError as GuardError, GuardLimits, Guarded};
use dco_logic::{parse_formula, Formula, ParseError};
use std::fmt;

/// Why a fault-tolerant evaluation did not produce a result.
#[derive(Debug)]
pub enum TryEvalError {
    /// The query text did not parse (string entry point only).
    Parse(ParseError),
    /// A semantic error independent of resources (unknown predicate,
    /// arity mismatch, not in the dense-order fragment).
    Invalid(EvalError),
    /// The guard tripped or a panic was contained; carries the typed fault
    /// and the partial-progress statistics.
    Fault(GuardError),
}

impl fmt::Display for TryEvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryEvalError::Parse(e) => write!(f, "parse error: {e}"),
            TryEvalError::Invalid(e) => write!(f, "invalid query: {e}"),
            TryEvalError::Fault(e) => write!(f, "evaluation fault: {e}"),
        }
    }
}

impl std::error::Error for TryEvalError {}

/// Evaluate under the analyzer-suggested default budgets.
pub fn try_eval(db: &dco_core::prelude::Database, formula: &Formula) -> TryResult {
    try_eval_with(db, formula, default_limits(db, formula))
}

/// Shorthand for the result of the `try_*` entry points.
pub type TryResult = Result<Guarded<QueryResult>, TryEvalError>;

/// Evaluate under explicit guard limits.
pub fn try_eval_with(
    db: &dco_core::prelude::Database,
    formula: &Formula,
    limits: GuardLimits,
) -> TryResult {
    match run_guarded(limits, || eval(db, formula)) {
        Ok(guarded) => match guarded.value {
            Ok(value) => Ok(Guarded {
                value,
                stats: guarded.stats,
            }),
            Err(e) => Err(TryEvalError::Invalid(e)),
        },
        Err(fault) => Err(TryEvalError::Fault(fault)),
    }
}

/// Parse, then evaluate under the analyzer-suggested default budgets.
pub fn try_eval_str(db: &dco_core::prelude::Database, src: &str) -> TryResult {
    let formula = parse_formula(src).map_err(TryEvalError::Parse)?;
    try_eval(db, &formula)
}

/// The default guard limits for `formula` over `db`: budgets from the
/// static cost pass, no deadline.
pub fn default_limits(db: &dco_core::prelude::Database, formula: &Formula) -> GuardLimits {
    dco_analysis::cost::suggested_limits_for_formula(formula, db.constants())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_core::guard::EvalErrorKind;
    use dco_core::prelude::*;
    use std::time::Duration;

    fn db() -> Database {
        let tri = GeneralizedRelation::from_raw(
            2,
            vec![
                RawAtom::new(Term::cst(rat(0, 1)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Le, Term::var(1)),
                RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(10, 1))),
            ],
        );
        Database::new(Schema::new().with("R", 2)).with("R", tri)
    }

    #[test]
    fn fault_free_guarded_run_matches_unguarded() {
        let src = "exists y . (R(x, y) & x < y)";
        let unguarded = crate::eval_str(&db(), src).unwrap();
        let guarded = try_eval_str(&db(), src).unwrap();
        assert_eq!(guarded.value.columns, unguarded.columns);
        assert_eq!(guarded.value.relation, unguarded.relation);
        assert!(guarded.stats.probes > 0, "evaluation must hit probes");
    }

    #[test]
    fn tight_budget_returns_typed_error_with_stats() {
        let formula = dco_logic::parse_formula("!(R(x, y) | R(y, x) | x < y)").unwrap();
        let err =
            try_eval_with(&db(), &formula, GuardLimits::none().with_max_tuples(1)).unwrap_err();
        let TryEvalError::Fault(f) = err else {
            panic!("expected a guard fault");
        };
        assert!(matches!(f.kind, EvalErrorKind::BudgetExceeded { .. }));
        assert!(f.stats.tuples_materialized >= 2);
    }

    #[test]
    fn zero_deadline_trips_fast() {
        let formula = dco_logic::parse_formula("!(R(x, y) | R(y, x))").unwrap();
        let err = try_eval_with(
            &db(),
            &formula,
            GuardLimits::none().with_deadline(Duration::ZERO),
        )
        .unwrap_err();
        let TryEvalError::Fault(f) = err else {
            panic!("expected a guard fault");
        };
        assert!(matches!(f.kind, EvalErrorKind::DeadlineExceeded { .. }));
    }

    #[test]
    fn semantic_errors_stay_typed_not_faults() {
        let err = try_eval_str(&db(), "Zap(x)").unwrap_err();
        assert!(matches!(
            err,
            TryEvalError::Invalid(EvalError::UnknownPredicate(_))
        ));
    }
}
