//! Exactness of the static unsatisfiability pass against the core
//! normalizer: on simple dense-order constraints the analyzer declares a
//! conjunction unsatisfiable exactly when normalizing the same constraints
//! as a generalized tuple yields the empty alternative set.

use dco_analysis::unsat;
use dco_core::prelude::{rat, GeneralizedTuple, Rational, RawAtom, RawOp, Term};
use dco_logic::{Formula, LinExpr};
use proptest::prelude::*;

const VARS: u32 = 4;
const CONSTS: [(i128, i128); 5] = [(-1, 1), (0, 1), (1, 2), (1, 1), (2, 1)];
const OPS: [RawOp; 6] = [
    RawOp::Lt,
    RawOp::Le,
    RawOp::Eq,
    RawOp::Ne,
    RawOp::Ge,
    RawOp::Gt,
];

/// One side of a generated constraint.
#[derive(Debug, Clone, Copy)]
enum Side {
    Var(u32),
    Const(usize),
}

impl Side {
    fn rational(i: usize) -> Rational {
        let (n, d) = CONSTS[i];
        rat(n, d)
    }

    fn to_linexpr(self) -> LinExpr {
        match self {
            Side::Var(v) => LinExpr::var(&format!("x{v}")),
            Side::Const(i) => LinExpr::cst(Side::rational(i)),
        }
    }

    fn to_term(self) -> Term {
        match self {
            Side::Var(v) => Term::var(v),
            Side::Const(i) => Term::cst(Side::rational(i)),
        }
    }
}

fn side_strategy() -> BoxedStrategy<Side> {
    prop_oneof![
        (0u32..VARS).prop_map(Side::Var),
        (0usize..CONSTS.len()).prop_map(Side::Const),
    ]
    .boxed()
}

fn constraint_strategy() -> BoxedStrategy<(Side, usize, Side)> {
    (side_strategy(), 0usize..OPS.len(), side_strategy()).boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn analyzer_unsat_implies_empty_normalization(
        constraints in prop::collection::vec(constraint_strategy(), 1..8),
    ) {
        // The same conjunction, two ways.
        let mut conjuncts = Vec::new();
        let mut raws = Vec::new();
        for &(l, op_idx, r) in &constraints {
            let op = OPS[op_idx];
            conjuncts.push(Formula::Compare(l.to_linexpr(), op, r.to_linexpr()));
            raws.push(RawAtom::new(l.to_term(), op, r.to_term()));
        }
        let formula = Formula::And(conjuncts);

        // The analyzer keeps `≠` out of the tuple; the normalizer splits
        // it. Both must reach the same verdict.
        let alts = GeneralizedTuple::from_raw(VARS, raws);
        prop_assert_eq!(
            unsat::conjunction_is_unsat(&formula),
            alts.is_empty(),
            "analyzer and normalizer disagree on {:?} ({} alternative(s))",
            constraints,
            alts.len()
        );
    }
}
