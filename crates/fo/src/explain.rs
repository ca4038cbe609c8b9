//! EXPLAIN for the FO evaluator: plan a formula, then evaluate it with
//! plan capture on, so every connective reports the planner's estimated
//! cardinality next to the *actual* width of the relation the evaluator
//! built there.
//!
//! There is no second evaluator here: [`explain_planned`] runs the same
//! recursion as [`eval_in_ctx`](crate::eval::eval_in_ctx), handing it a
//! sink for the plan nodes, so the measured cardinalities are the ones a
//! plain evaluation of the planned formula pays. [`explain_domain`] does
//! the same over another constraint domain (FO+).

use crate::eval::{eval_node, Domain, EvalError, PlanSink, QueryResult};
use dco_analysis::explain::QueryPlan;
use dco_analysis::planner::plan_formula;
use dco_analysis::stats::DbStats;
use dco_core::prelude::*;
use dco_logic::Formula;

/// An explained evaluation: the query result plus the measured plan.
#[derive(Debug, Clone)]
pub struct Explained<R = GeneralizedRelation> {
    /// The evaluation result (identical to `eval` of the planned formula).
    pub result: QueryResult<R>,
    /// The plan tree with estimated and actual cardinality per node.
    pub plan: QueryPlan,
}

/// Plan `formula` under statistics collected from `db`, then evaluate the
/// planned formula with plan capture on.
pub fn explain(db: &Database, formula: &Formula) -> Result<Explained, EvalError> {
    explain_domain(db, formula)
}

/// [`explain`] over the constraint domain `D`.
pub fn explain_domain<D: Domain>(
    db: &Database,
    formula: &Formula,
) -> Result<Explained<Relation<D>>, EvalError> {
    let stats = DbStats::of_database(db);
    explain_planned_in(db, &plan_formula(formula, &stats), &stats)
}

/// Evaluate an already-planned formula as written, recording a plan node
/// per connective with its estimate under `stats` (the store passes its
/// per-generation snapshot, the one it planned with).
pub fn explain_planned(
    db: &Database,
    planned: &Formula,
    stats: &DbStats,
) -> Result<Explained, EvalError> {
    explain_planned_in(db, planned, stats)
}

fn explain_planned_in<D: Domain>(
    db: &Database,
    planned: &Formula,
    stats: &DbStats,
) -> Result<Explained<Relation<D>>, EvalError> {
    let columns: Vec<String> = planned.free_vars().into_iter().collect();
    let mut sink = PlanSink::new(stats);
    let relation = eval_node(db, planned, &columns, Some(&mut sink))?;
    let root = sink
        .nodes
        .pop()
        .expect("an evaluation with capture on records its root node");
    Ok(Explained {
        result: QueryResult { columns, relation },
        plan: QueryPlan {
            planned: planned.to_string(),
            root,
        },
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use dco_logic::parse_formula;

    fn triangle_db() -> Database {
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
    fn every_node_carries_actual_cardinality() {
        let db = triangle_db();
        let f = parse_formula("forall y . (R(x, y) -> y >= 5)").unwrap();
        let ex = explain(&db, &f).unwrap();
        assert!(
            ex.plan.root.fully_measured(),
            "unmeasured node in:\n{}",
            ex.plan.render()
        );
        let text = ex.plan.render();
        for line in text.lines().skip(1) {
            assert!(line.contains("est=") && line.contains("act="), "{line}");
        }
    }

    #[test]
    fn negated_conjunct_keeps_its_not_node() {
        // `A ∧ ¬B` evaluates as `A ∖ B`; the plan still shows `not` over
        // its operand, measured as the width left after the subtraction.
        let db = triangle_db();
        let f = parse_formula("R(x, y) & !(x < 3)").unwrap();
        let ex = explain_planned(&db, &f, &DbStats::of_database(&db)).unwrap();
        let root = &ex.plan.root;
        assert_eq!(root.label, "and");
        let labels: Vec<&str> = root.children.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["pred", "not"]);
        let not = &root.children[1];
        assert_eq!(not.children.len(), 1);
        assert_eq!(not.children[0].label, "compare");
        assert_eq!(not.actual, root.actual);
        assert!(root.fully_measured(), "{}", ex.plan.render());
    }

    #[test]
    fn explain_errors_match_eval_errors() {
        let db = Database::new(Schema::new());
        let f = parse_formula("Zap(x)").unwrap();
        assert!(matches!(
            explain(&db, &f),
            Err(EvalError::UnknownPredicate(_))
        ));
    }
}
