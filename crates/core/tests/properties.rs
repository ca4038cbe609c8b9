//! Property-based tests of the dense-order core: algebra laws, quantifier
//! elimination, canonical forms, witnesses — the invariants everything
//! downstream relies on, exercised on randomized relations.

use dco_core::prelude::*;
use proptest::prelude::*;

/// A random term over `arity` columns and small integer constants.
fn arb_term(arity: u32) -> impl Strategy<Value = Term> {
    prop_oneof![
        (0..arity).prop_map(Term::var),
        (-6i64..6).prop_map(|c| Term::cst(rat(c as i128, 1))),
        (-12i64..12, 2i64..5).prop_map(|(n, d)| Term::cst(rat(n as i128, d as i128))),
    ]
}

fn arb_rawop() -> impl Strategy<Value = RawOp> {
    prop_oneof![
        Just(RawOp::Lt),
        Just(RawOp::Le),
        Just(RawOp::Eq),
        Just(RawOp::Ne),
        Just(RawOp::Ge),
        Just(RawOp::Gt),
    ]
}

fn arb_tuple(arity: u32) -> impl Strategy<Value = Vec<RawAtom>> {
    prop::collection::vec(
        (arb_term(arity), arb_rawop(), arb_term(arity))
            .prop_map(|(l, op, r)| RawAtom::new(l, op, r)),
        0..4,
    )
}

/// A random generalized relation of the given arity.
fn arb_relation(arity: u32) -> impl Strategy<Value = GeneralizedRelation> {
    prop::collection::vec(arb_tuple(arity), 0..4).prop_map(move |tuples| {
        let mut rel = GeneralizedRelation::empty(arity);
        for raws in tuples {
            for t in GeneralizedTuple::from_raw(arity, raws) {
                rel.insert(t);
            }
        }
        rel
    })
}

/// A random probe point with constants overlapping the generator range.
fn arb_point(arity: u32) -> impl Strategy<Value = Vec<Rational>> {
    prop::collection::vec(
        prop_oneof![
            (-8i64..8).prop_map(|c| rat(c as i128, 1)),
            (-16i64..16, 2i64..5).prop_map(|(n, d)| rat(n as i128, d as i128)),
        ],
        arity as usize..=arity as usize,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- satisfiability and witnesses ------------------------------

    #[test]
    fn witness_satisfies_tuple(raws in arb_tuple(2)) {
        for t in GeneralizedTuple::from_raw(2, raws) {
            prop_assert!(t.is_satisfiable());
            let w = t.witness().expect("satisfiable tuple has a witness");
            prop_assert!(t.contains_point(&w), "witness {w:?} of {t}");
        }
    }

    #[test]
    fn membership_implies_satisfiable(raws in arb_tuple(2), p in arb_point(2)) {
        for t in GeneralizedTuple::from_raw(2, raws) {
            if t.contains_point(&p) {
                prop_assert!(t.is_satisfiable());
            }
        }
    }

    // ---- boolean algebra laws (checked pointwise) ------------------

    #[test]
    fn union_is_pointwise_or(a in arb_relation(2), b in arb_relation(2), p in arb_point(2)) {
        let u = a.union(&b);
        prop_assert_eq!(
            u.contains_point(&p),
            a.contains_point(&p) || b.contains_point(&p)
        );
    }

    #[test]
    fn intersection_is_pointwise_and(a in arb_relation(2), b in arb_relation(2), p in arb_point(2)) {
        let i = a.intersect(&b);
        prop_assert_eq!(
            i.contains_point(&p),
            a.contains_point(&p) && b.contains_point(&p)
        );
    }

    #[test]
    fn complement_is_pointwise_not(a in arb_relation(2), p in arb_point(2)) {
        let c = a.complement();
        prop_assert_eq!(c.contains_point(&p), !a.contains_point(&p));
    }

    #[test]
    fn difference_is_pointwise(a in arb_relation(2), b in arb_relation(2), p in arb_point(2)) {
        let d = a.subtract(&b);
        prop_assert_eq!(
            d.contains_point(&p),
            a.contains_point(&p) && !b.contains_point(&p)
        );
    }

    #[test]
    fn de_morgan(a in arb_relation(1), b in arb_relation(1)) {
        let lhs = a.union(&b).complement();
        let rhs = a.complement().intersect(&b.complement());
        prop_assert!(lhs.equivalent(&rhs));
    }

    #[test]
    fn double_complement_identity(a in arb_relation(1)) {
        prop_assert!(a.complement().complement().equivalent(&a));
    }

    // ---- quantifier elimination ------------------------------------

    #[test]
    fn projection_is_exact_exists(a in arb_relation(2), p in arb_point(2)) {
        // ∃x1. A — check both directions at the probe point:
        // membership of (p0, _) in the projection must equal "some y makes
        // (p0, y) ∈ A". The right-hand side is checked by sampling the
        // projection's defining property: if p ∈ A then (p0,*) ∈ proj; and
        // if (p0, p1) ∈ proj then the tuple with x1 eliminated must be
        // witnessable — verified through witnesses of the conjunction.
        let proj = a.project_out(Var(1));
        if a.contains_point(&p) {
            prop_assert!(proj.contains_point(&p), "A ⊆ ∃y.A at {p:?}");
        }
        // soundness: a point in the projection extends to a full point
        if proj.contains_point(&p) {
            // conjoin x0 = p0 to A and ask for a witness
            let pinned = a.select(RawAtom::new(Term::var(0), RawOp::Eq, Term::Const(p[0])));
            prop_assert!(
                !pinned.is_empty(),
                "projection claims x0={} extends, but A has no such point",
                p[0]
            );
            let w = pinned.witness().expect("nonempty");
            prop_assert!(a.contains_point(&w));
            prop_assert_eq!(w[0], p[0]);
        }
    }

    #[test]
    fn projection_monotone(a in arb_relation(2), b in arb_relation(2)) {
        let u = a.union(&b);
        let pa = a.project_out(Var(1));
        let pu = u.project_out(Var(1));
        prop_assert!(pa.is_subset(&pu));
    }

    // ---- canonical forms --------------------------------------------

    #[test]
    fn cell_canonicalization_roundtrips(a in arb_relation(2)) {
        let space = CellSpace::for_relations(2, [&a]);
        let form = space.canonicalize(&a);
        let back = space.realize(&form);
        prop_assert!(back.equivalent(&a));
    }

    #[test]
    fn cell_equivalence_matches_semantic(a in arb_relation(1), b in arb_relation(1)) {
        let space = CellSpace::new(
            1,
            a.constants().into_iter().chain(b.constants()),
        );
        prop_assert_eq!(space.equivalent(&a, &b), a.equivalent(&b));
    }

    // ---- simplification is semantics-preserving ---------------------

    #[test]
    fn simplify_preserves_semantics(a in arb_relation(2), p in arb_point(2)) {
        let s = a.simplify();
        prop_assert_eq!(s.contains_point(&p), a.contains_point(&p));
        prop_assert!(s.len() <= a.len().max(1));
    }

    // ---- automorphisms -----------------------------------------------

    #[test]
    fn automorphism_membership_transfers(a in arb_relation(2), p in arb_point(2), seed in 0u32..1000) {
        use dco_core::automorphism::rand_like::XorShift32;
        let consts: Vec<Rational> = a.constants().into_iter().collect();
        let mut rng = XorShift32::new(seed + 1);
        let f = Automorphism::random_over(&consts, &mut rng);
        let img = f.apply_relation(&a);
        prop_assert_eq!(
            a.contains_point(&p),
            img.contains_point(&f.apply_point(&p))
        );
    }

    #[test]
    fn automorphism_commutes_with_algebra(a in arb_relation(1), b in arb_relation(1), seed in 0u32..1000) {
        use dco_core::automorphism::rand_like::XorShift32;
        let consts: Vec<Rational> =
            a.constants().into_iter().chain(b.constants()).collect();
        let mut rng = XorShift32::new(seed + 1);
        let f = Automorphism::random_over(&consts, &mut rng);
        // π(A ∪ B) = π(A) ∪ π(B), and same for ∩ and complement
        prop_assert!(f
            .apply_relation(&a.union(&b))
            .equivalent(&f.apply_relation(&a).union(&f.apply_relation(&b))));
        prop_assert!(f
            .apply_relation(&a.intersect(&b))
            .equivalent(&f.apply_relation(&a).intersect(&f.apply_relation(&b))));
        prop_assert!(f
            .apply_relation(&a.complement())
            .equivalent(&f.apply_relation(&a).complement()));
    }
}

/// An arity in 1..=3 with two random relations of that arity.
fn arb_pair() -> impl Strategy<Value = (u32, GeneralizedRelation, GeneralizedRelation)> {
    prop_oneof![
        (arb_relation(1), arb_relation(1)).prop_map(|(a, b)| (1, a, b)),
        (arb_relation(2), arb_relation(2)).prop_map(|(a, b)| (2, a, b)),
        (arb_relation(3), arb_relation(3)).prop_map(|(a, b)| (3, a, b)),
    ]
}

// Subtraction is the one negation kernel (complement is `Q^k ∖ A`), so it
// is checked against the cell decomposition, not against other algebra:
// every relation over a constant set is a union of that set's cells, so
// one sample point per cell decides membership everywhere.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn subtract_is_pointwise_difference((k, a, b) in arb_pair()) {
        let d = a.subtract(&b);
        let space = CellSpace::new(k, a.constants().into_iter().chain(b.constants()));
        for cell in space.enumerate() {
            let p = space.sample(&cell);
            prop_assert_eq!(
                d.contains_point(&p),
                a.contains_point(&p) && !b.contains_point(&p),
                "({}) ∖ ({}) = ({}) at {:?}", a, b, d, p
            );
        }
    }

    #[test]
    fn complement_matches_cell_complement((k, a, _b) in arb_pair()) {
        let space = CellSpace::for_relations(k, [&a]);
        let c = GeneralizedRelation::universe(k).subtract(&a);
        let reference = space.complement(&a);
        prop_assert!(c.equivalent(&reference), "¬({}) = ({})", a, c);
        // `equivalent` itself subtracts; the cell canonical forms do not.
        prop_assert!(space.equivalent(&c, &reference), "¬({}) = ({})", a, c);
    }
}

// Subsumption pruning on insert drops disjuncts, never points.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pruned_construction_preserves_semantics(raws in prop::collection::vec(arb_tuple(2), 0..6)) {
        let tuples: Vec<GeneralizedTuple> = raws
            .into_iter()
            .flat_map(|r| GeneralizedTuple::from_raw(2, r))
            .collect();
        let pruned = GeneralizedRelation::from_tuples(2, tuples.iter().cloned());
        let unpruned = GeneralizedRelation::from_tuples_unpruned(2, tuples.iter().cloned());
        prop_assert!(pruned.len() <= unpruned.len());
        prop_assert!(pruned.equivalent(&unpruned));
    }
}
