//! Closure: every operation maps finitely representable databases to
//! finitely representable relations ([KKR90], recalled in §4) — checked by
//! re-encoding every output and decoding it back.

use dco::datalog::run as run_datalog;
use dco::encoding::{decode, encode};
use dco::fo::eval;
use dco::prelude::*;

fn reencode_roundtrip(rel: &GeneralizedRelation, name: &str) {
    let arity = rel.arity();
    let db = Database::new(Schema::new().with("Out", arity)).with("Out", rel.clone());
    let text = encode(&db);
    let back = decode(&text).unwrap_or_else(|e| panic!("{name}: decode failed: {e}"));
    assert!(
        back.get("Out").expect("Out").equivalent(rel),
        "{name}: re-encoded output differs"
    );
}

fn triangle() -> GeneralizedRelation {
    GeneralizedRelation::from_raw(
        2,
        vec![
            RawAtom::new(Term::cst(rat(0, 1)), RawOp::Le, Term::var(0)),
            RawAtom::new(Term::var(0), RawOp::Le, Term::var(1)),
            RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(10, 1))),
        ],
    )
}

#[test]
fn algebra_is_closed() {
    let t = triangle();
    let boxy = GeneralizedRelation::from_raw(
        2,
        vec![
            RawAtom::new(Term::cst(rat(2, 1)), RawOp::Lt, Term::var(0)),
            RawAtom::new(Term::var(1), RawOp::Lt, Term::cst(rat(7, 2))),
        ],
    );
    reencode_roundtrip(&t.union(&boxy), "union");
    reencode_roundtrip(&t.intersect(&boxy), "intersect");
    reencode_roundtrip(&t.complement(), "complement");
    reencode_roundtrip(&t.subtract(&boxy), "difference");
    reencode_roundtrip(&t.project_out(Var(1)), "projection");
    reencode_roundtrip(
        &t.product(&boxy)
            .project_out(Var(3))
            .project_out(Var(2))
            .narrow(2),
        "product+project",
    );
}

#[test]
fn fo_outputs_are_closed() {
    let db = Database::new(Schema::new().with("R", 2)).with("R", triangle());
    for src in [
        "exists y . R(x, y)",
        "forall y . (R(x, y) -> y >= 5)",
        "!(exists y . (R(x, y) & y < 3))",
    ] {
        let q = eval::<GeneralizedTuple>(&db, &parse_formula(src).unwrap()).unwrap();
        reencode_roundtrip(&q.relation, src);
    }
}

#[test]
fn datalog_outputs_are_closed() {
    let program = parse_program(
        "tc(x, y) :- e(x, y).\n\
         tc(x, y) :- tc(x, z), e(z, y).\n",
    )
    .unwrap();
    // infinite dense edges — the fixpoint must stay finitely representable
    let e = GeneralizedRelation::from_raw(
        2,
        vec![
            RawAtom::new(Term::cst(rat(0, 1)), RawOp::Le, Term::var(0)),
            RawAtom::new(Term::var(0), RawOp::Lt, Term::var(1)),
            RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(1, 1))),
        ],
    );
    let db = Database::new(Schema::new().with("e", 2)).with("e", e);
    let fix = run_datalog(&program, &db).unwrap();
    reencode_roundtrip(fix.database.get("tc").unwrap(), "datalog tc");
}

#[test]
fn no_new_constants_invented() {
    // Dense-order QE reuses constants: every output constant of an FO
    // query occurs in the input or the query — the finite-lattice fact the
    // Datalog termination proof rests on.
    let db = Database::new(Schema::new().with("R", 2)).with("R", triangle());
    let q = eval::<GeneralizedTuple>(&db, &parse_formula("exists y . (R(x, y) & y < 7)").unwrap())
        .unwrap();
    let mut allowed = db.constants();
    allowed.insert(rat(7, 1));
    for c in q.relation.constants() {
        assert!(allowed.contains(&c), "invented constant {c}");
    }
}
