//! Static unsatisfiability of dense-order constraint conjunctions.
//!
//! The order comparisons of a conjunction are decided by the core kernel:
//! they become one [`GeneralizedTuple`], whose incremental solver rejects
//! any cycle `t₁ ≤ t₂ ≤ … ≤ t₁` through a strict edge (the constants'
//! total order included). Each disequality `u ≠ v` is then decided on its
//! own: it contradicts the conjunction exactly when the tuple entails
//! `u = v`. Over a dense order that is exact — the tuple's points form a
//! convex set, and finitely many hyperplanes `u = v` that each miss part
//! of it cannot cover it. Disequalities are kept out of the tuple, where
//! each would split it into `u < v ∨ v < u` and `m` of them into `2^m`
//! alternatives.
//!
//! The check is *conservative*: non-simple sides (genuine linear
//! arithmetic like `2x + y`) are skipped, so "unsat" always means
//! genuinely unsatisfiable, while "sat" may just mean "not provably unsat
//! here".

use crate::diagnostic::{Diagnostic, Span};
use dco_core::prelude::{Atom, CompOp, Conjunction, GeneralizedTuple, RawAtom, RawOp, Term};
use dco_logic::datalog::{Literal, Rule};
use dco_logic::{Formula, LinExpr};

/// Whether the simple comparisons `l op r` among `comparisons` are jointly
/// unsatisfiable; comparisons with a non-simple side are skipped.
fn comparisons_are_unsat<'a>(
    comparisons: impl IntoIterator<Item = (&'a LinExpr, RawOp, &'a LinExpr)>,
) -> bool {
    // Simple variables are numbered by first appearance.
    let mut names: Vec<&str> = Vec::new();
    let mut term = |e: &'a LinExpr| -> Option<Term> {
        if let Some(v) = e.as_simple_var() {
            let i = names.iter().position(|n| *n == v).unwrap_or_else(|| {
                names.push(v);
                names.len() - 1
            });
            Some(Term::var(i as u32))
        } else {
            e.as_const().map(Term::cst)
        }
    };
    let mut order = Vec::new();
    let mut disequal = Vec::new();
    for (l, op, r) in comparisons {
        let (Some(u), Some(v)) = (term(l), term(r)) else {
            continue;
        };
        match op {
            RawOp::Ne => disequal.push((u, v)),
            op => order.push(RawAtom::new(u, op, v)),
        }
    }
    let Some(t) = GeneralizedTuple::from_raw(names.len() as u32, order).pop() else {
        return true;
    };
    disequal.into_iter().any(|(u, v)| {
        // `None`: `u = v` is trivially false (distinct constants), so
        // `u ≠ v` holds everywhere.
        Atom::normalized(u, CompOp::Eq, v).is_some_and(|eq| eq.iter().all(|a| t.entails(a)))
    })
}

/// Whether a formula, viewed as a conjunction, is provably unsatisfiable.
///
/// Flattens nested [`Formula::And`] nodes and decides the comparison
/// conjuncts together; other conjuncts (disjunctions, predicates,
/// quantifiers) are ignored, which only ever *weakens* the conjunction — so
/// `true` here really means the formula has no models.
pub fn conjunction_is_unsat(formula: &Formula) -> bool {
    let mut comparisons = Vec::new();
    let mut stack = vec![formula];
    while let Some(f) = stack.pop() {
        match f {
            Formula::False => return true,
            Formula::And(fs) => stack.extend(fs.iter()),
            Formula::Compare(l, op, r) => comparisons.push((l, *op, r)),
            _ => {}
        }
    }
    comparisons_are_unsat(comparisons)
}

/// Whether a rule body's constraint literals are jointly unsatisfiable
/// (the rule can never fire).
pub fn rule_body_is_unsat(rule: &Rule) -> bool {
    comparisons_are_unsat(rule.body.iter().filter_map(|lit| match lit {
        Literal::Constraint(l, op, r) => Some((l, *op, r)),
        _ => None,
    }))
}

/// Report dead subformulas (DCO402): the formula itself if it is an
/// unsatisfiable conjunction, and every statically-unsat disjunct of every
/// disjunction. These are warnings — the query still evaluates, just
/// provably to less than it says.
pub fn check_formula(formula: &Formula) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if conjunction_is_unsat(formula) {
        diags.push(Diagnostic::warning(
            "DCO402",
            "the formula is a statically unsatisfiable conjunction: the \
             result is always empty",
            Span::Unknown,
        ));
        return diags;
    }
    formula.walk(&mut |f| {
        let Formula::Or(fs) = f else { return };
        for (i, d) in fs.iter().enumerate() {
            if conjunction_is_unsat(d) {
                diags.push(Diagnostic::warning(
                    "DCO402",
                    format!(
                        "disjunct {} (`{d}`) is statically unsatisfiable and \
                         contributes nothing",
                        i + 1
                    ),
                    Span::Unknown,
                ));
            }
        }
    });
    diags
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use dco_core::prelude::rat;

    fn var(name: &str) -> LinExpr {
        LinExpr::var(name)
    }

    fn cst(n: i128, d: i128) -> LinExpr {
        LinExpr::cst(rat(n, d))
    }

    fn sat(constraints: &[(&LinExpr, RawOp, &LinExpr)]) -> bool {
        !comparisons_are_unsat(constraints.iter().map(|&(l, op, r)| (l, op, r)))
    }

    #[test]
    fn strict_cycle_is_unsat() {
        let (x, y, z) = (var("x"), var("y"), var("z"));
        assert!(!sat(&[
            (&x, RawOp::Lt, &y),
            (&y, RawOp::Lt, &z),
            (&z, RawOp::Lt, &x),
        ]));
    }

    #[test]
    fn nonstrict_cycle_is_sat() {
        let (x, y) = (var("x"), var("y"));
        assert!(sat(&[(&x, RawOp::Le, &y), (&y, RawOp::Le, &x)]));
    }

    #[test]
    fn equality_cycle_with_disequality_is_unsat() {
        let (x, y) = (var("x"), var("y"));
        assert!(!sat(&[
            (&x, RawOp::Le, &y),
            (&y, RawOp::Le, &x),
            (&x, RawOp::Ne, &y),
        ]));
    }

    #[test]
    fn contradictory_bounds_via_constants() {
        // x < 1 ∧ x > 2 — the constants' order closes the strict cycle.
        let x = var("x");
        assert!(!sat(&[
            (&x, RawOp::Lt, &cst(1, 1)),
            (&x, RawOp::Gt, &cst(2, 1)),
        ]));
        // x < 2 ∧ x > 1 is fine (dense domain).
        assert!(sat(&[
            (&x, RawOp::Lt, &cst(2, 1)),
            (&x, RawOp::Gt, &cst(1, 1)),
        ]));
    }

    #[test]
    fn equal_bounds_strictness_matters() {
        let x = var("x");
        // 1 ≤ x ≤ 1 is x = 1; adding x ≠ 1 kills it.
        assert!(sat(&[
            (&cst(1, 1), RawOp::Le, &x),
            (&x, RawOp::Le, &cst(1, 1)),
        ]));
        assert!(!sat(&[
            (&cst(1, 1), RawOp::Le, &x),
            (&x, RawOp::Le, &cst(1, 1)),
            (&x, RawOp::Ne, &cst(1, 1)),
        ]));
        // 1 ≤ x < 1 is empty.
        assert!(!sat(&[
            (&cst(1, 1), RawOp::Le, &x),
            (&x, RawOp::Lt, &cst(1, 1)),
        ]));
    }

    #[test]
    fn constant_comparisons_evaluate() {
        assert!(!sat(&[(&cst(3, 1), RawOp::Lt, &cst(2, 1))]));
        assert!(sat(&[(&cst(2, 1), RawOp::Lt, &cst(3, 1))]));
        assert!(!sat(&[(&cst(1, 2), RawOp::Eq, &cst(1, 3))]));
        assert!(!sat(&[(&cst(1, 2), RawOp::Ne, &cst(1, 2))]));
    }

    #[test]
    fn self_comparison() {
        let x = var("x");
        assert!(!sat(&[(&x, RawOp::Lt, &x)]));
        assert!(!sat(&[(&x, RawOp::Ne, &x)]));
        assert!(sat(&[(&x, RawOp::Le, &x)]));
    }

    #[test]
    fn formula_conjunction_detection() {
        let f = dco_logic::parse_formula("x < y & y < z & z < x").unwrap();
        assert!(conjunction_is_unsat(&f));
        let g = dco_logic::parse_formula("x < y & y < z").unwrap();
        assert!(!conjunction_is_unsat(&g));
        // Non-comparison conjuncts weaken, never strengthen.
        let h = dco_logic::parse_formula("R(x) & x < y & y < x").unwrap();
        assert!(conjunction_is_unsat(&h));
    }

    #[test]
    fn rule_body_strict_cycle() {
        let p = dco_logic::parse_program("p(x, y) :- e(x, y), x < y, y < x.\n").unwrap();
        assert!(rule_body_is_unsat(&p.rules[0]));
        let q = dco_logic::parse_program("p(x, y) :- e(x, y), x < y.\n").unwrap();
        assert!(!rule_body_is_unsat(&q.rules[0]));
    }

    #[test]
    fn dead_disjunct_warned() {
        let f = dco_logic::parse_formula("(x < 1 & x > 2) | x = 0").unwrap();
        let diags = check_formula(&f);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "DCO402");
        assert!(diags[0].message.contains("disjunct 1"));
    }

    #[test]
    fn nonsimple_sides_are_ignored() {
        // `2x < x ∧ 0 < x` has no solution, but its first conjunct is
        // linear arithmetic the order-level test skips.
        let two_x = var("x").scale(&rat(2, 1));
        let x = var("x");
        assert!(sat(&[(&two_x, RawOp::Lt, &x), (&cst(0, 1), RawOp::Lt, &x)]));
        assert!(!sat(&[(&two_x, RawOp::Lt, &x), (&x, RawOp::Lt, &x)]));
    }

    #[test]
    fn many_disequalities_stay_one_tuple() {
        // All 21 pairwise disequalities over x0 … x6: were each split into
        // `<` or `>`, the order part would have 2^21 alternatives.
        let mut diseq = Vec::new();
        for i in 0..7 {
            for j in i + 1..7 {
                diseq.push(format!("x{i} != x{j}"));
            }
        }
        let diseq = diseq.join(" & ");
        let chain = dco_logic::parse_formula(&format!("{diseq} & x0 < x1 & x1 < x2")).unwrap();
        assert!(!conjunction_is_unsat(&chain));
        let equal = dco_logic::parse_formula(&format!("{diseq} & x0 <= x1 & x1 <= x0")).unwrap();
        assert!(conjunction_is_unsat(&equal));
    }
}
