//! The parallel evaluation layer must be invisible: every operation run
//! under a forced multi-thread [`EvalConfig`] must return a *structurally
//! identical* DNF (`==`, not just equivalence) to the sequential run, and
//! subsumption-pruned construction must not change semantics.

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
        0..4,
    )
}

fn arb_relation(arity: u32) -> impl Strategy<Value = GeneralizedRelation> {
    prop::collection::vec(arb_raws(arity), 0..4).prop_map(move |tuples| {
        let mut rel = GeneralizedRelation::empty(arity);
        for raws in tuples {
            for t in GeneralizedTuple::from_raw(arity, raws) {
                rel.insert(t);
            }
        }
        rel
    })
}

/// Workers forced on with the fork threshold floored, so even the tiny
/// random instances take the parallel code paths.
fn forced() -> EvalConfig {
    EvalConfig {
        threads: 4,
        parallel_threshold: 1,
    }
}

fn seq<T>(f: impl FnOnce() -> T) -> T {
    with_eval_config(EvalConfig::sequential(), f)
}

fn par<T>(f: impl FnOnce() -> T) -> T {
    with_eval_config(forced(), f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn intersect_parallel_identical(a in arb_relation(2), b in arb_relation(2)) {
        prop_assert_eq!(seq(|| a.intersect(&b)), par(|| a.intersect(&b)));
    }

    #[test]
    fn complement_parallel_identical(a in arb_relation(2)) {
        prop_assert_eq!(seq(|| a.complement()), par(|| a.complement()));
    }

    #[test]
    fn difference_parallel_identical(a in arb_relation(2), b in arb_relation(2)) {
        prop_assert_eq!(seq(|| a.subtract(&b)), par(|| a.subtract(&b)));
    }

    #[test]
    fn project_out_parallel_identical(a in arb_relation(2)) {
        prop_assert_eq!(seq(|| a.project_out(Var(1))), par(|| a.project_out(Var(1))));
    }

    #[test]
    fn simplify_parallel_identical(a in arb_relation(2)) {
        prop_assert_eq!(seq(|| a.simplify()), par(|| a.simplify()));
    }

    #[test]
    fn is_subset_parallel_identical(a in arb_relation(1), b in arb_relation(1)) {
        prop_assert_eq!(seq(|| a.is_subset(&b)), par(|| a.is_subset(&b)));
    }

    #[test]
    fn pruned_construction_preserves_semantics(raws in prop::collection::vec(arb_raws(2), 0..6)) {
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
