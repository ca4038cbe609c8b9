//! Property-based tests of the FO+ layer: Fourier–Motzkin soundness and
//! completeness, algebra laws on linear relations, and agreement with the
//! dense-order engine on the order fragment.

use dco_core::prelude::{
    rat, CompOp, GeneralizedRelation, GeneralizedTuple, Rational, RawAtom, RawOp, Term,
};
use dco_linear::{LinAtom, LinRelation, LinTuple, NormalizedAtom};
use proptest::prelude::*;

/// A random linear atom over `arity` columns with small coefficients.
fn arb_lin_atom(arity: usize) -> impl Strategy<Value = Option<LinAtom>> {
    (
        prop::collection::vec(-3i64..=3, arity),
        -6i64..=6,
        prop_oneof![Just(CompOp::Lt), Just(CompOp::Le), Just(CompOp::Eq)],
    )
        .prop_map(|(coeffs, k, op)| {
            let coeffs: Vec<Rational> = coeffs.into_iter().map(|c| rat(c as i128, 1)).collect();
            match LinAtom::normalize(coeffs, rat(k as i128, 1), op) {
                NormalizedAtom::Atom(a) => Some(a),
                _ => None,
            }
        })
}

fn arb_lin_tuple(arity: usize) -> impl Strategy<Value = LinTuple> {
    prop::collection::vec(arb_lin_atom(arity), 0..4)
        .prop_map(move |atoms| LinTuple::from_atoms(arity as u32, atoms.into_iter().flatten()))
}

fn arb_lin_relation(arity: usize) -> impl Strategy<Value = LinRelation> {
    prop::collection::vec(arb_lin_tuple(arity), 0..3)
        .prop_map(move |ts| LinRelation::from_tuples(arity as u32, ts))
}

/// A single-column bound `±x_i op k` — the atoms that feed a tuple's
/// bounding box.
fn arb_bound_atom(arity: usize) -> impl Strategy<Value = Option<LinAtom>> {
    (
        0..arity,
        prop_oneof![Just(1i128), Just(-1i128)],
        -2i64..=2,
        prop_oneof![Just(CompOp::Lt), Just(CompOp::Le), Just(CompOp::Eq)],
    )
        .prop_map(move |(i, sign, k, op)| {
            let mut coeffs = vec![rat(0, 1); arity];
            coeffs[i] = rat(sign, 1);
            match LinAtom::normalize(coeffs, rat(k as i128, 1), op) {
                NormalizedAtom::Atom(a) => Some(a),
                _ => None,
            }
        })
}

/// Relations whose tuples are mostly bounded boxes, so that box-disjoint
/// pairs are common.
fn arb_boxy_relation(arity: usize) -> impl Strategy<Value = LinRelation> {
    let atom = prop_oneof![3 => arb_bound_atom(arity), 1 => arb_lin_atom(arity)];
    let tuple = prop::collection::vec(atom, 0..4)
        .prop_map(move |atoms| LinTuple::from_atoms(arity as u32, atoms.into_iter().flatten()));
    prop::collection::vec(tuple, 0..4)
        .prop_map(move |ts| LinRelation::from_tuples(arity as u32, ts))
}

/// Intersection without the bounding-box pre-filter: conjoin every pair,
/// prune, keep the satisfiable ones and insert them in the order
/// `intersect` does.
fn all_pairs_intersect(a: &LinRelation, b: &LinRelation) -> LinRelation {
    let mut r = LinRelation::empty(a.arity());
    for x in a.tuples() {
        for y in b.tuples() {
            let t = x.conjoin(y).pruned();
            if t.is_satisfiable() {
                r.insert_satisfiable(t);
            }
        }
    }
    r
}

fn arb_point(arity: usize) -> impl Strategy<Value = Vec<Rational>> {
    prop::collection::vec(
        prop_oneof![
            (-8i64..8).prop_map(|c| rat(c as i128, 1)),
            (-16i64..16, 2i64..5).prop_map(|(n, d)| rat(n as i128, d as i128)),
        ],
        arity..=arity,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ---- Fourier–Motzkin ---------------------------------------------

    #[test]
    fn fm_elimination_is_sound(t in arb_lin_tuple(2), p in arb_point(2)) {
        // if (p0, p1) satisfies t, then p satisfies ∃x1.t
        if let Some(e) = t.eliminate(1) {
            if t.contains_point(&p) {
                prop_assert!(e.contains_point(&p), "FM lost a point");
            }
        } else {
            // elimination says unsatisfiable — then no point satisfies t
            prop_assert!(!t.contains_point(&p));
        }
    }

    #[test]
    fn fm_satisfiability_agrees_with_elimination(t in arb_lin_tuple(3)) {
        // eliminating all variables must agree with is_satisfiable
        let mut cur = Some(t.clone());
        for j in 0..3 {
            cur = cur.and_then(|c| c.eliminate(j));
        }
        prop_assert_eq!(cur.is_some(), t.is_satisfiable());
    }

    #[test]
    fn pruning_preserves_semantics(t in arb_lin_tuple(2), p in arb_point(2)) {
        prop_assert_eq!(t.pruned().contains_point(&p), t.contains_point(&p));
    }

    // ---- algebra laws --------------------------------------------------

    #[test]
    fn lin_union_pointwise(a in arb_lin_relation(2), b in arb_lin_relation(2), p in arb_point(2)) {
        prop_assert_eq!(
            a.union(&b).contains_point(&p),
            a.contains_point(&p) || b.contains_point(&p)
        );
    }

    #[test]
    fn lin_intersect_pointwise(a in arb_lin_relation(2), b in arb_lin_relation(2), p in arb_point(2)) {
        prop_assert_eq!(
            a.intersect(&b).contains_point(&p),
            a.contains_point(&p) && b.contains_point(&p)
        );
    }

    #[test]
    fn lin_complement_pointwise(a in arb_lin_relation(1), p in arb_point(1)) {
        prop_assert_eq!(a.complement().contains_point(&p), !a.contains_point(&p));
    }

    #[test]
    fn lin_projection_contains_shadow(a in arb_lin_relation(2), p in arb_point(2)) {
        if a.contains_point(&p) {
            prop_assert!(a.project_out(1).contains_point(&p));
        }
    }

    // ---- order-fragment conversions ------------------------------------

    #[test]
    fn from_dense_preserves_membership(p in arb_point(2)) {
        let tri = GeneralizedRelation::from_raw(
            2,
            vec![
                RawAtom::new(Term::cst(rat(0, 1)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Le, Term::var(1)),
                RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(10, 1))),
            ],
        );
        let lin = LinRelation::from_dense(&tri);
        prop_assert_eq!(lin.contains_point(&p), tri.contains_point(&p));
    }

    #[test]
    fn dense_roundtrip_on_random_order_relations(raws in prop::collection::vec(
        (
            prop_oneof![(0u32..2).prop_map(Term::var), (-5i64..5).prop_map(|c| Term::cst(rat(c as i128, 1)))],
            prop_oneof![Just(RawOp::Lt), Just(RawOp::Le), Just(RawOp::Eq)],
            prop_oneof![(0u32..2).prop_map(Term::var), (-5i64..5).prop_map(|c| Term::cst(rat(c as i128, 1)))],
        ).prop_map(|(l, op, r)| RawAtom::new(l, op, r)),
        0..3,
    ), p in arb_point(2)) {
        let mut rel = GeneralizedRelation::empty(2);
        for t in GeneralizedTuple::from_raw(2, raws) {
            rel.insert(t);
        }
        let lin = LinRelation::from_dense(&rel);
        prop_assert_eq!(lin.contains_point(&p), rel.contains_point(&p));
        if let Some(back) = lin.to_dense() {
            prop_assert_eq!(back.contains_point(&p), rel.contains_point(&p));
        }
    }
}

// Box pruning must be structurally invisible: the same tuples in the same
// order as conjoining every pair. Bounds are drawn from a small constant
// range so boxes often touch or overlap at an endpoint.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn box_pruned_intersect_matches_unpruned(a in arb_boxy_relation(2), b in arb_boxy_relation(2)) {
        prop_assert_eq!(a.intersect(&b).tuples(), all_pairs_intersect(&a, &b).tuples());
    }
}
