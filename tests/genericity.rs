//! Definition 3.1 as a property test: every evaluator in the workspace
//! defines *queries* — mappings closed under order automorphisms of Q.

use dco::datalog::{parse_program, run as run_datalog};
use dco::fo::{check_generic, check_generic_fixing, eval, GenericityOutcome};
use dco::linear::to_dense;
use dco::prelude::*;

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
fn fo_queries_are_generic() {
    let db = triangle_db();
    for src in [
        "exists y . R(x, y)",
        "exists y . (R(x, y) & x < y)",
        "!R(x, x)",
    ] {
        let f = parse_formula(src).unwrap();
        let out = check_generic(&db, 6, 0xBEEF, |d| eval(d, &f).unwrap().relation);
        assert_eq!(out, GenericityOutcome::Generic, "query {src}");
    }
    // A query mentioning the constant 5 is C-generic: closed under
    // automorphisms FIXING 5 (and it is NOT closed under arbitrary ones —
    // both directions checked).
    let f = parse_formula("forall y . (R(x, y) -> y >= 5)").unwrap();
    let out = check_generic_fixing(&db, &[rat(5, 1)], 6, 0xBEEF, |d| {
        eval(d, &f).unwrap().relation
    });
    assert_eq!(out, GenericityOutcome::Generic, "C-generic query");
    let out = check_generic(&db, 8, 0xBEEF, |d| eval(d, &f).unwrap().relation);
    assert!(matches!(out, GenericityOutcome::Violation(_)));
}

#[test]
fn datalog_fixpoints_are_generic() {
    let program = parse_program(
        "tc(x, y) :- e(x, y).\n\
         tc(x, y) :- tc(x, z), e(z, y).\n",
    )
    .unwrap();
    let e = GeneralizedRelation::from_points(
        2,
        vec![
            vec![rat(1, 1), rat(2, 1)],
            vec![rat(2, 1), rat(3, 1)],
            vec![rat(5, 1), rat(3, 1)],
        ],
    );
    let db = Database::new(Schema::new().with("e", 2)).with("e", e);
    let out = check_generic(&db, 5, 7, |d| {
        run_datalog(&program, d)
            .expect("fixpoint")
            .database
            .get("tc")
            .expect("tc")
            .clone()
    });
    assert_eq!(out, GenericityOutcome::Generic);
}

#[test]
fn foplus_order_fragment_is_generic() {
    // An FO+ query that stays in the order fragment defines a query; the
    // linear evaluator must commute with automorphisms on it.
    let db = triangle_db();
    let f = parse_formula("exists y . (R(x, y) & x < y)").unwrap();
    let out = check_generic(&db, 5, 99, |d| {
        to_dense(&eval::<LinTuple>(d, &f).expect("evaluates").relation).expect("order fragment")
    });
    assert_eq!(out, GenericityOutcome::Generic);
}

#[test]
fn genuine_arithmetic_breaks_genericity() {
    // The paper: FO+ expresses mappings that are NOT queries. `x + x = 1`
    // pins x = 1/2, which automorphisms move — the harness must catch it.
    let db = triangle_db();
    let f = parse_formula("R(x, x) & x + x = 1").unwrap();
    let out = check_generic(&db, 10, 3, |d| {
        to_dense(&eval::<LinTuple>(d, &f).expect("evaluates").relation)
            .unwrap_or_else(|| GeneralizedRelation::from_points(1, vec![vec![rat(1, 2)]]))
    });
    assert!(matches!(out, GenericityOutcome::Violation(_)));
}

#[test]
fn parity_program_is_generic() {
    use dco::datalog::programs::cardinality_is_even;
    // parity must depend only on cardinality, not on values
    let sets = [
        vec![rat(1, 1), rat(2, 1), rat(3, 1)],
        vec![rat(-100, 1), rat(1, 3), rat(999, 1)],
    ];
    let answers: Vec<bool> = sets
        .iter()
        .map(|vals| {
            let s = GeneralizedRelation::from_points(
                1,
                vals.iter().map(|v| vec![*v]).collect::<Vec<_>>(),
            );
            cardinality_is_even(&s).unwrap()
        })
        .collect();
    assert_eq!(answers[0], answers[1]);
}
