//! Cross-engine agreement: FO vs FO+ on the order fragment, FO vs
//! Datalog¬ on non-recursive programs, C-CALC₀ vs FO, and C-CALC₁ vs
//! Datalog¬ on reachability.

use dco::complex::{CCalc, CFormula, RatTerm, SetRef};
use dco::datalog::run as run_datalog;
use dco::fo::eval;
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
fn fo_and_foplus_agree_on_order_queries() {
    let db = triangle_db();
    for src in [
        "exists y . R(x, y)",
        "exists y . (R(x, y) & x < y)",
        "forall y . (R(x, y) -> y >= 5)",
        "R(x, x) & !(x = 3)",
        "exists y z . (R(y, z) & y < x & x < z)",
    ] {
        let f = parse_formula(src).unwrap();
        let fo = eval::<GeneralizedTuple>(&db, &f).unwrap().relation;
        let lin = dco::linear::to_dense(&eval::<LinTuple>(&db, &f).unwrap().relation)
            .unwrap_or_else(|| panic!("{src}: FO+ left the order fragment"));
        assert!(fo.equivalent(&lin), "{src}: engines disagree");
    }
}

#[test]
fn fo_and_datalog_agree_on_nonrecursive_programs() {
    let db = triangle_db();
    // Datalog: q(x) :- R(x, y), y < 7.   FO: ∃y (R(x,y) ∧ y < 7)
    let program = parse_program("q(x) :- R(x, y), y < 7.\n").unwrap();
    let fix = run_datalog(&program, &db).unwrap();
    let datalog_q = fix.database.get("q").unwrap().clone();
    let fo_q =
        eval::<GeneralizedTuple>(&db, &parse_formula("exists y . (R(x, y) & y < 7)").unwrap())
            .unwrap()
            .relation
            .narrow(1);
    assert!(datalog_q.equivalent(&fo_q));
}

#[test]
fn ccalc_height0_agrees_with_fo_on_sentences() {
    // finite inputs: the C-CALC cell semantics is exact
    let e = GeneralizedRelation::from_points(
        2,
        vec![vec![rat(1, 1), rat(2, 1)], vec![rat(2, 1), rat(3, 1)]],
    );
    let db = Database::new(Schema::new().with("e", 2)).with("e", e);
    use CFormula as F;
    // ∃x∀y ¬e(y, x)  — "some vertex has no incoming edge"
    let ccalc = F::ExistsRat(
        "x".into(),
        Box::new(F::ForallRat(
            "y".into(),
            Box::new(F::Not(Box::new(F::Pred(
                "e".into(),
                vec![RatTerm::var("y"), RatTerm::var("x")],
            )))),
        )),
    );
    let mut ev = CCalc::new(&db);
    let c_answer = ev.eval_sentence(&ccalc).unwrap();
    let fo_answer = eval::<GeneralizedTuple>(
        &db,
        &parse_formula("exists x . forall y . !e(y, x)").unwrap(),
    )
    .unwrap()
    .as_bool()
    .unwrap();
    assert_eq!(c_answer, fo_answer);
    assert!(c_answer);
}

#[test]
fn ccalc1_reachability_agrees_with_datalog_tc() {
    let edges = [(1, 2), (2, 3), (5, 4)];
    let e = GeneralizedRelation::from_points(
        2,
        edges
            .iter()
            .map(|&(a, b)| vec![rat(a, 1), rat(b, 1)])
            .collect::<Vec<_>>(),
    );
    let db = Database::new(Schema::new().with("e", 2)).with("e", e);
    let program = parse_program(
        "tc(x, y) :- e(x, y).\n\
         tc(x, y) :- tc(x, z), e(z, y).\n",
    )
    .unwrap();
    let tc = run_datalog(&program, &db)
        .unwrap()
        .database
        .get("tc")
        .unwrap()
        .clone();

    use CFormula as F;
    let reach = |a: i64, b: i64| {
        let closed = F::ForallRat(
            "u".into(),
            Box::new(F::ForallRat(
                "v".into(),
                Box::new(CFormula::implies(
                    F::And(vec![
                        F::MemTuple(vec![RatTerm::var("u")], SetRef::Var("S".into())),
                        F::Pred("e".into(), vec![RatTerm::var("u"), RatTerm::var("v")]),
                    ]),
                    F::MemTuple(vec![RatTerm::var("v")], SetRef::Var("S".into())),
                )),
            )),
        );
        F::ForallSet(
            "S".into(),
            1,
            Box::new(CFormula::implies(
                F::And(vec![
                    F::MemTuple(
                        vec![RatTerm::cst(rat(a as i128, 1))],
                        SetRef::Var("S".into()),
                    ),
                    closed,
                ]),
                F::MemTuple(
                    vec![RatTerm::cst(rat(b as i128, 1))],
                    SetRef::Var("S".into()),
                ),
            )),
        )
    };
    for a in [1i64, 2, 3, 4, 5] {
        for b in [1i64, 2, 3, 4, 5] {
            if a == b {
                continue;
            }
            let mut ev = CCalc::new(&db);
            let c = ev.eval_sentence(&reach(a, b)).unwrap();
            let d = tc.contains_point(&[rat(a as i128, 1), rat(b as i128, 1)]);
            assert_eq!(c, d, "reach({a},{b})");
        }
    }
}

#[test]
fn parser_and_builder_formulas_agree() {
    let db = triangle_db();
    let parsed = parse_formula("exists y . (R(x, y) & x < y)").unwrap();
    let built = Formula::exists(
        &["y"],
        Formula::and(
            Formula::pred("R", &["x", "y"]),
            Formula::cmp_vars("x", RawOp::Lt, "y"),
        ),
    );
    let a = eval::<GeneralizedTuple>(&db, &parsed).unwrap().relation;
    let b = eval::<GeneralizedTuple>(&db, &built).unwrap().relation;
    assert!(a.equivalent(&b));
}
