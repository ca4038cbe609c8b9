//! The guarded entry point: [`evaluate`] runs the bottom-up evaluator
//! under a `dco_core::guard::EvalGuard`.
//!
//! Static analysis (`dco_analysis::preflight_formula`) *predicts* which
//! queries are hopeless; this module *enforces*: the evaluation runs with
//! a deadline, tuple/atom budgets, and a cancellation token, and
//! every failure mode — budget trip, deadline, external cancellation,
//! arithmetic overflow, even a panic — is contained at this boundary and
//! returned as a typed [`GuardError`] carrying partial-progress
//! statistics. A fault-free guarded run returns a result structurally
//! identical to the unguarded [`eval`](crate::eval()).
//!
//! Preflight and planning stay the caller's steps
//! (`dco_analysis::{preflight_formula, plan_formula}`): `evaluate` runs
//! the formula as given.

use crate::eval::{eval_explained, Domain, EvalError, Evaluation};
use dco_analysis::cost::suggested_limits_for_formula;
use dco_analysis::stats::DbStats;
use dco_core::guard::{run_guarded, EvalError as GuardError, GuardLimits, Guarded};
use dco_core::prelude::{Database, Relation};
use dco_logic::Formula;
use std::fmt;

/// Why a guarded evaluation did not produce a result.
#[derive(Debug)]
pub enum TryEvalError {
    /// A semantic error independent of resources (unknown predicate,
    /// arity mismatch, not in the domain's fragment).
    Invalid(EvalError),
    /// The guard tripped or a panic was contained; carries the typed fault
    /// and the partial-progress statistics.
    Fault(GuardError),
}

impl fmt::Display for TryEvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryEvalError::Invalid(e) => write!(f, "invalid query: {e}"),
            TryEvalError::Fault(e) => write!(f, "evaluation fault: {e}"),
        }
    }
}

impl std::error::Error for TryEvalError {}

/// How [`evaluate`] runs a formula.
#[derive(Debug, Clone, Default)]
pub struct Options<'s> {
    /// The guard's limits; `None` means the analyzer's default budgets for
    /// the formula over the database's constants, with no deadline.
    pub limits: Option<GuardLimits>,
    /// Record the measured plan ([`Evaluation::plan`]), each node's
    /// estimate taken under these statistics (the store passes the
    /// snapshot it planned with).
    pub explain: Option<&'s DbStats>,
}

/// Evaluate `formula` over the constraint domain `D` under the guard:
/// FO is `evaluate::<GeneralizedTuple>`, FO+ `evaluate::<LinTuple>`.
pub fn evaluate<D: Domain>(
    db: &Database,
    formula: &Formula,
    options: &Options<'_>,
) -> Result<Guarded<Evaluation<Relation<D>>>, TryEvalError> {
    let limits = options
        .limits
        .clone()
        .unwrap_or_else(|| suggested_limits_for_formula(formula, db.constants()));
    let guarded = run_guarded(limits, || eval_explained(db, formula, options.explain))
        .map_err(TryEvalError::Fault)?;
    Ok(Guarded {
        value: guarded.value.map_err(TryEvalError::Invalid)?,
        stats: guarded.stats,
    })
}

/// [`evaluate`] of a dense-order formula under explicit limits. Kept for
/// the benchmark adapter, which calls it; it goes when the adapter moves
/// to [`evaluate`].
pub fn try_eval_with(
    db: &Database,
    formula: &Formula,
    limits: GuardLimits,
) -> Result<Guarded<Evaluation>, TryEvalError> {
    let options = Options {
        limits: Some(limits),
        explain: None,
    };
    evaluate(db, formula, &options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval;
    use dco_core::guard::EvalErrorKind;
    use dco_core::prelude::*;
    use dco_logic::parse_formula;
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

    fn fault(formula: &str, limits: GuardLimits) -> GuardError {
        let formula = parse_formula(formula).unwrap();
        let options = Options {
            limits: Some(limits),
            explain: None,
        };
        match evaluate::<GeneralizedTuple>(&db(), &formula, &options) {
            Err(TryEvalError::Fault(f)) => f,
            other => panic!("expected a guard fault, got {other:?}"),
        }
    }

    fn explained(db: &Database, formula: &str) -> Result<Evaluation, TryEvalError> {
        let stats = DbStats::of_database(db);
        let options = Options {
            limits: None,
            explain: Some(&stats),
        };
        evaluate(db, &parse_formula(formula).unwrap(), &options).map(|g| g.value)
    }

    #[test]
    fn fault_free_guarded_run_matches_unguarded() {
        let f = parse_formula("exists y . (R(x, y) & x < y)").unwrap();
        let unguarded: Evaluation = eval(&db(), &f).unwrap();
        let guarded = evaluate::<GeneralizedTuple>(&db(), &f, &Options::default()).unwrap();
        assert_eq!(guarded.value.columns, unguarded.columns);
        assert_eq!(guarded.value.relation, unguarded.relation);
        assert!(guarded.value.plan.is_none());
        assert!(guarded.stats.probes > 0, "evaluation must hit probes");
    }

    #[test]
    fn tight_budget_returns_typed_error_with_stats() {
        let f = fault(
            "!(R(x, y) | R(y, x) | x < y)",
            GuardLimits::none().with_max_tuples(1),
        );
        assert!(matches!(f.kind, EvalErrorKind::BudgetExceeded { .. }));
        assert!(f.stats.tuples_materialized >= 2);
    }

    #[test]
    fn zero_deadline_trips_fast() {
        let limits = GuardLimits::none().with_deadline(Duration::ZERO);
        let f = fault("!(R(x, y) | R(y, x))", limits);
        assert!(matches!(f.kind, EvalErrorKind::DeadlineExceeded { .. }));
    }

    #[test]
    fn semantic_errors_stay_typed_not_faults() {
        let f = parse_formula("Zap(x)").unwrap();
        let err = evaluate::<GeneralizedTuple>(&db(), &f, &Options::default()).unwrap_err();
        assert!(matches!(
            err,
            TryEvalError::Invalid(EvalError::UnknownPredicate(_))
        ));
    }

    #[test]
    fn every_node_carries_actual_cardinality() {
        let ex = explained(&db(), "forall y . (R(x, y) -> y >= 5)").unwrap();
        let plan = ex.plan.expect("explained");
        assert!(
            plan.root.fully_measured(),
            "unmeasured node in:\n{}",
            plan.render()
        );
        for line in plan.render().lines().skip(1) {
            assert!(line.contains("est=") && line.contains("act="), "{line}");
        }
    }

    #[test]
    fn negated_conjunct_keeps_its_not_node() {
        // `A ∧ ¬B` evaluates as `A ∖ B`; the plan still shows `not` over
        // its operand, measured as the width left after the subtraction.
        let plan = explained(&db(), "R(x, y) & !(x < 3)")
            .unwrap()
            .plan
            .unwrap();
        let root = &plan.root;
        assert_eq!(root.label, "and");
        let labels: Vec<&str> = root.children.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["pred", "not"]);
        let not = &root.children[1];
        assert_eq!(not.children.len(), 1);
        assert_eq!(not.children[0].label, "compare");
        assert_eq!(not.actual, root.actual);
        assert!(root.fully_measured(), "{}", plan.render());
    }

    #[test]
    fn explain_errors_match_eval_errors() {
        let db = Database::new(Schema::new());
        assert!(matches!(
            explained(&db, "Zap(x)"),
            Err(TryEvalError::Invalid(EvalError::UnknownPredicate(_)))
        ));
    }
}
