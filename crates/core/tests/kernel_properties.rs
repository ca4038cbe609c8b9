//! Property tests for the tuple kernel's fast paths, each against a slow
//! reference: the incremental satisfiability verdict against the batch
//! order-graph solver, box-pruned intersection against conjoining every
//! pair, bounding boxes against satisfiability, and fingerprints against
//! structural equality.

use dco_core::prelude::*;
use proptest::prelude::*;

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

fn arb_raws(arity: u32) -> impl Strategy<Value = Vec<RawAtom>> {
    prop::collection::vec(
        (arb_term(arity), arb_rawop(), arb_term(arity))
            .prop_map(|(l, op, r)| RawAtom::new(l, op, r)),
        0..5,
    )
}

fn arb_relation(arity: u32) -> impl Strategy<Value = Vec<Vec<RawAtom>>> {
    prop::collection::vec(arb_raws(arity), 0..4)
}

/// Random *normalized* atoms — unlike [`GeneralizedTuple::from_raw`], a
/// sequence built this way is free to pass through unsatisfiable prefixes,
/// which is exactly what the incremental solver must detect.
fn arb_atoms(arity: u32) -> impl Strategy<Value = Vec<Atom>> {
    let op = prop_oneof![Just(CompOp::Lt), Just(CompOp::Le), Just(CompOp::Eq)];
    prop::collection::vec((arb_term(arity), op, arb_term(arity)), 0..6).prop_map(|triples| {
        triples
            .into_iter()
            .flat_map(|(l, op, r)| Atom::normalized(l, op, r).into_iter().flatten())
            .collect()
    })
}

fn build(arity: u32, raws: &[Vec<RawAtom>]) -> GeneralizedRelation {
    let mut rel = GeneralizedRelation::empty(arity);
    for rs in raws {
        for t in GeneralizedTuple::from_raw(arity, rs.clone()) {
            rel.insert(t);
        }
    }
    rel
}

/// Intersection without the bounding-box pre-filter: conjoin every pair
/// and insert the results in the order `intersect` does.
fn all_pairs_intersect(a: &GeneralizedRelation, b: &GeneralizedRelation) -> GeneralizedRelation {
    let mut r = GeneralizedRelation::empty(a.arity());
    for x in a.tuples() {
        for y in b.tuples() {
            r.insert(x.conjoin(y));
        }
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ---- incremental SatState ≡ batch solver on random prefixes ------

    #[test]
    fn incremental_verdict_matches_batch_on_prefixes(atoms in arb_atoms(3)) {
        let mut t = GeneralizedTuple::top(3);
        for atom in atoms {
            t.push(atom);
            prop_assert_eq!(
                t.is_satisfiable(),
                t.is_satisfiable_uncached(),
                "prefix {} disagrees with the batch solver",
                &t
            );
        }
    }

    // ---- box pruning never changes intersect results -----------------

    #[test]
    fn box_pruned_intersect_matches_unpruned(a in arb_relation(2), b in arb_relation(2)) {
        let (a, b) = (build(2, &a), build(2, &b));
        prop_assert_eq!(a.intersect(&b).tuples(), all_pairs_intersect(&a, &b).tuples());
    }

    // ---- boxes are sound over-approximations -------------------------

    #[test]
    fn box_disjoint_implies_empty_conjunction(a in arb_raws(2), b in arb_raws(2)) {
        for ta in GeneralizedTuple::from_raw(2, a.clone()) {
            for tb in GeneralizedTuple::from_raw(2, b.clone()) {
                if ta.box_disjoint(&tb) {
                    prop_assert!(
                        !ta.conjoin(&tb).is_satisfiable(),
                        "box-disjoint pair {} / {} is satisfiable together",
                        &ta, &tb
                    );
                }
            }
        }
    }

    // ---- fingerprints -------------------------------------------------

    #[test]
    fn equal_tuples_share_fingerprint_and_handle(raws in arb_raws(2)) {
        for t in GeneralizedTuple::from_raw(2, raws.clone()) {
            // Rebuild through other construction paths: atom replay, in
            // order and reversed.
            for rebuilt in [
                GeneralizedTuple::from_atoms(2, t.atoms().iter().copied()),
                GeneralizedTuple::from_atoms(2, t.atoms().iter().rev().copied()),
            ] {
                prop_assert_eq!(&rebuilt, &t);
                prop_assert_eq!(rebuilt.fingerprint(), t.fingerprint());
            }
        }
    }
}
