//! FO+ — first-order logic with linear constraints — evaluated bottom-up.
//!
//! FO+ adds a built-in addition to FO; by \[Tar51\] it can still be evaluated
//! bottom-up in closed form, which in the linear fragment means each
//! connective maps to the [`LinRelation`] algebra and `∃` to Fourier–Motzkin
//! elimination. §4 of the paper shows FO+ has NC data complexity in general
//! and uniform AC⁰ over inputs defined with integers (Theorem 4.1); the E1
//! experiment measures the latter's scaling shape on this evaluator.
//!
//! There is no FO+ recursion or entry point here: [`LinTuple`] is a
//! [`Domain`] of `dco-fo`'s evaluator, so FO+ is
//! `dco_fo::evaluate::<LinTuple>` (and `dco_fo::eval::<LinTuple>`
//! unguarded), with the planner's conjunct order, EXPLAIN, the guard and
//! `A ∧ ¬B` as `A ∖ B`. This module supplies the two hooks: a comparison
//! compiles to one linear atom (two for `≠`), and a stored dense-order
//! tuple lifts atom by atom.
//!
//! The paper also notes FO+ mappings need not be *queries* (closed under
//! automorphisms of Q) — e.g. `x + y = 1` is not automorphism-invariant;
//! the genericity harness of `dco-fo` exposes this on concrete formulas.

use crate::atom::{LinAtom, NormalizedAtom};
use crate::relation::{lift_dense, LinRelation};
use crate::tuple::LinTuple;
use dco_core::prelude::{CompOp, Conjunction, GeneralizedTuple, Rational, RawOp};
use dco_fo::Domain;
use dco_logic::LinExpr;

impl Domain for LinTuple {
    /// `l op r` as `l - r op 0`: one linear atom, two for `≠`. Every
    /// comparison is in FO+.
    fn compare(l: &LinExpr, op: RawOp, r: &LinExpr, ctx: &[String]) -> Option<LinRelation> {
        let k = ctx.len() as u32;
        let col = |v: &String| ctx.iter().position(|x| x == v).expect("free var in ctx");
        // l - r (op) 0
        let mut coeffs = vec![Rational::ZERO; ctx.len()];
        for (v, c) in &l.coeffs {
            coeffs[col(v)] = &coeffs[col(v)] + c;
        }
        for (v, c) in &r.coeffs {
            coeffs[col(v)] = &coeffs[col(v)] - c;
        }
        let constant = l.constant - r.constant;
        // The comparison on `l - r` and on `r - l`: `l > r` is `r - l < 0`,
        // and `l ≠ r` is `l - r < 0 ∨ r - l < 0`.
        let (ahead, behind) = match op {
            RawOp::Lt => (Some(CompOp::Lt), None),
            RawOp::Le => (Some(CompOp::Le), None),
            RawOp::Eq => (Some(CompOp::Eq), None),
            RawOp::Gt => (None, Some(CompOp::Lt)),
            RawOp::Ge => (None, Some(CompOp::Le)),
            RawOp::Ne => (Some(CompOp::Lt), Some(CompOp::Lt)),
        };
        let negated: Vec<Rational> = coeffs.iter().map(|c| -*c).collect();
        let sides = [(coeffs, constant, ahead), (negated, -constant, behind)];
        let tuples =
            sides.into_iter().filter_map(|(coeffs, constant, op)| {
                match LinAtom::normalize(coeffs, constant, op?) {
                    NormalizedAtom::True => Some(LinTuple::top(k)),
                    NormalizedAtom::False => None,
                    NormalizedAtom::Atom(a) => Some(LinTuple::from_atoms(k, [a])),
                }
            });
        Some(LinRelation::from_tuples(k, tuples))
    }

    fn lift(t: GeneralizedTuple) -> LinTuple {
        lift_dense(&t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::to_dense;
    use dco_analysis::DbStats;
    use dco_core::prelude::*;
    use dco_fo::{eval, evaluate, EvalError, Evaluation, Options, TryEvalError};
    use dco_logic::parse_formula;

    fn pt(v: &[i64]) -> Vec<Rational> {
        v.iter().map(|&x| rat(x as i128, 1)).collect()
    }

    fn run(db: &Database, src: &str) -> Evaluation<LinRelation> {
        eval(db, &parse_formula(src).unwrap()).unwrap()
    }

    fn guarded(
        db: &Database,
        src: &str,
        limits: Option<GuardLimits>,
    ) -> Result<Guarded<Evaluation<LinRelation>>, TryEvalError> {
        let options = Options {
            limits,
            explain: None,
        };
        evaluate(db, &parse_formula(src).unwrap(), &options)
    }

    fn empty_db() -> Database {
        Database::new(Schema::new())
    }

    #[test]
    fn linear_atom_halfplane() {
        let q = run(&empty_db(), "x + y < 1");
        assert!(q.relation.contains_point(&pt(&[0, 0])));
        assert!(!q.relation.contains_point(&pt(&[1, 1])));
    }

    #[test]
    fn midpoint_definable_in_foplus() {
        // m is the midpoint of x and y: m + m = x + y
        let q = run(&empty_db(), "m + m = x + y");
        assert_eq!(q.columns, vec!["m", "x", "y"]);
        assert!(q.relation.contains_point(&pt(&[1, 0, 2])));
        assert!(!q.relation.contains_point(&pt(&[2, 0, 2])));
    }

    #[test]
    fn exists_midpoint_always_true() {
        let q = run(&empty_db(), "forall x y . exists m . m + m = x + y");
        assert_eq!(q.as_bool(), Some(true));
    }

    #[test]
    fn predicate_over_dense_input() {
        let tri = GeneralizedRelation::from_raw(
            2,
            vec![
                RawAtom::new(Term::cst(rat(0, 1)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Le, Term::var(1)),
                RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(10, 1))),
            ],
        );
        let db = Database::new(Schema::new().with("R", 2)).with("R", tri);
        // sum-bounded part of the triangle
        let q = run(&db, "R(x, y) & x + y <= 5");
        assert!(q.relation.contains_point(&pt(&[1, 2])));
        assert!(!q.relation.contains_point(&pt(&[3, 4]))); // in R but sum > 5
        assert!(!q.relation.contains_point(&pt(&[4, 3]))); // not in R
    }

    #[test]
    fn ne_splits() {
        let q = run(&empty_db(), "x + x != 2");
        assert!(!q.relation.contains_point(&pt(&[1])));
        assert!(q.relation.contains_point(&pt(&[0])));
        assert!(q.relation.contains_point(&pt(&[2])));
    }

    #[test]
    fn forall_with_arithmetic() {
        // "every x is strictly below x + 1" — true
        let q = run(&empty_db(), "forall x . x < x + 1");
        assert_eq!(q.as_bool(), Some(true));
        // "some x equals x + 1" — false
        let q = run(&empty_db(), "exists x . x = x + 1");
        assert_eq!(q.as_bool(), Some(false));
    }

    #[test]
    fn scaling_coefficients() {
        let q = run(&empty_db(), "2*x <= y & y <= 3*x");
        assert!(q.relation.contains_point(&pt(&[1, 2])));
        assert!(q.relation.contains_point(&pt(&[1, 3])));
        assert!(!q.relation.contains_point(&pt(&[1, 4])));
        assert!(!q.relation.contains_point(&pt(&[1, 1])));
    }

    #[test]
    fn fo_fragment_agrees_with_fo_evaluator() {
        // An order query evaluated by both engines must agree.
        let tri = GeneralizedRelation::from_raw(
            2,
            vec![
                RawAtom::new(Term::cst(rat(0, 1)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Le, Term::var(1)),
                RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(10, 1))),
            ],
        );
        let db = Database::new(Schema::new().with("R", 2)).with("R", tri);
        let src = "exists y . (R(x, y) & x < y)";
        let lin = to_dense(&run(&db, src).relation).expect("order query");
        let fo: GeneralizedRelation = eval(&db, &parse_formula(src).unwrap()).unwrap().relation;
        assert!(lin.equivalent(&fo));
    }

    #[test]
    fn unknown_pred_error() {
        let f = parse_formula("Zap(x)").unwrap();
        assert!(matches!(
            eval::<LinTuple>(&empty_db(), &f),
            Err(EvalError::UnknownPredicate(_))
        ));
    }

    #[test]
    fn fault_free_guarded_run_matches_unguarded() {
        let src = "forall x y . exists m . m + m = x + y";
        let unguarded = run(&empty_db(), src);
        let guarded = guarded(&empty_db(), src, None).unwrap();
        assert_eq!(guarded.value.as_bool(), unguarded.as_bool());
        assert!(guarded.stats.probes > 0, "FM steps must hit probes");
    }

    #[test]
    fn overflow_is_a_typed_fault_not_a_panic() {
        // Repeated doubling through Fourier–Motzkin substitution: each
        // equality x_{i+1} = big * x_i multiplies the running coefficient,
        // overflowing i128 well before 30 steps.
        let big = i64::MAX / 3;
        let mut src = format!("x1 = {big} & x2 = {big} * x1");
        for i in 3..=8 {
            src.push_str(&format!(" & x{i} = {big} * x{}", i - 1));
        }
        match guarded(&empty_db(), &src, Some(GuardLimits::none())) {
            Err(TryEvalError::Fault(f)) => {
                assert!(
                    matches!(f.kind, GuardErrorKind::Overflow(_)),
                    "{:?}",
                    f.kind
                );
            }
            Ok(_) => panic!("expected the doubling chain to overflow i128"),
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn semantic_errors_stay_typed() {
        let err = guarded(&empty_db(), "Zap(x)", None).unwrap_err();
        assert!(matches!(
            err,
            TryEvalError::Invalid(EvalError::UnknownPredicate(_))
        ));
    }

    /// R = the triangle 0 ≤ x ≤ y ≤ 10, S = the interval [2, 4].
    fn triangle_and_interval_db() -> Database {
        let tri = GeneralizedRelation::from_raw(
            2,
            vec![
                RawAtom::new(Term::cst(rat(0, 1)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Le, Term::var(1)),
                RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(10, 1))),
            ],
        );
        let s = GeneralizedRelation::from_raw(
            1,
            vec![
                RawAtom::new(Term::cst(rat(2, 1)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat(4, 1))),
            ],
        );
        Database::new(Schema::new().with("R", 2).with("S", 1))
            .with("R", tri)
            .with("S", s)
    }

    #[test]
    fn explain_records_a_linear_plan_with_subtraction() {
        let db = triangle_and_interval_db();
        let f = parse_formula("exists y . (R(x, y) & x + y <= 3 & not S(x))").unwrap();
        let stats = DbStats::of_database(&db);
        let options = Options {
            limits: None,
            explain: Some(&stats),
        };
        let ex = evaluate::<LinTuple>(&db, &f, &options).unwrap().value;
        let plan = ex.plan.expect("explained");
        let root = &plan.root;
        assert!(root.fully_measured(), "{}", plan.render());
        assert_eq!(root.actual, Some(ex.relation.len() as u64));
        // `∃y` over the conjunction; its `not` conjunct is the subtraction
        // step, measured as the width left after it.
        assert_eq!(root.label, "exists");
        let and = &root.children[0];
        assert_eq!(and.label, "and");
        let not = and
            .children
            .iter()
            .find(|c| c.label == "not")
            .expect("the negated conjunct keeps its node");
        assert_eq!(not.children[0].label, "pred");
        assert_eq!(not.actual, and.actual);
        // x ∈ [0, 3/2] (so y ≥ x fits under x + y ≤ 3) minus [2, 4].
        let answer = &ex.relation;
        assert!(answer.contains_point(&pt(&[1])));
        assert!(!answer.contains_point(&pt(&[2])));
        assert!(!answer.contains_point(&pt(&[-1])));
        assert!(answer.equivalent(&eval::<LinTuple>(&db, &f).unwrap().relation));
    }
}
