//! Quickstart: finitely representable databases and first-order queries.
//!
//! Reproduces the flavor of §2–§4 of *Dense-Order Constraint Databases*
//! (Grumbach & Su, PODS 1995) end to end: build an infinite database from
//! constraints, query it with FO, watch closure and genericity in action.
//!
//! Run with: `cargo run --example quickstart`

use dco::fo::{check_generic, GenericityOutcome};
use dco::prelude::*;

/// Parse `src` and evaluate it over `db` under the default guard.
fn query(db: &Database, src: &str) -> Evaluation {
    let formula = parse_formula(src).unwrap();
    evaluate_fo(db, &formula, &FoOptions::default())
        .unwrap()
        .value
}

fn main() {
    // ------------------------------------------------------------------
    // 1. A generalized relation: the paper's triangle x ≤ y ∧ x ≥ 0 ∧ y ≤ 10
    //    — one "generalized tuple" denoting infinitely many points of Q².
    // ------------------------------------------------------------------
    let triangle = GeneralizedRelation::from_raw(
        2,
        vec![
            RawAtom::new(Term::var(0), RawOp::Le, Term::var(1)),
            RawAtom::new(Term::var(0), RawOp::Ge, Term::cst(rat(0, 1))),
            RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(10, 1))),
        ],
    );
    println!("R = {triangle}");
    println!(
        "  contains (1, 2)?    {}",
        triangle.contains_point(&[rat(1, 1), rat(2, 1)])
    );
    println!(
        "  contains (2, 1)?    {}",
        triangle.contains_point(&[rat(2, 1), rat(1, 1)])
    );
    println!("  a witness point:    {:?}", triangle.witness().unwrap());

    let db = Database::new(Schema::new().with("R", 2)).with("R", triangle);

    // ------------------------------------------------------------------
    // 2. FO queries, evaluated bottom-up in closed form [KKR90]: the answer
    //    is again a finitely representable relation.
    // ------------------------------------------------------------------
    for (desc, src) in [
        ("shadow of R on the x axis", "exists y . R(x, y)"),
        ("strict part of the shadow", "exists y . (R(x, y) & x < y)"),
        (
            "points whose whole R-row is above 5",
            "forall y . (R(x, y) -> y >= 5)",
        ),
    ] {
        let q = query(&db, src);
        println!("\n  {desc}:\n    {src}\n    = {}", q.relation);
    }

    // Boolean sentences (arity-0 answers):
    let dense = query(
        &db,
        "forall x y . ((R(x, x) & R(y, y) & x < y) -> exists z . (x < z & z < y))",
    );
    println!("\n  density sentence holds? {:?}", dense.as_bool());

    // ------------------------------------------------------------------
    // 3. Genericity (Definition 3.1): queries commute with every order
    //    automorphism of Q. The harness samples random piecewise-linear
    //    automorphisms and verifies Q(π(D)) = π(Q(D)).
    // ------------------------------------------------------------------
    let f = parse_formula("exists y . (R(x, y) & x < y)").unwrap();
    let outcome = check_generic(&db, 8, 42, |d| dco::fo::eval(d, &f).unwrap().relation);
    println!("\n  genericity check over 8 random automorphisms: {outcome:?}");
    assert_eq!(outcome, GenericityOutcome::Generic);

    // ------------------------------------------------------------------
    // 4. Closure feeding composition: use an answer as the next input.
    // ------------------------------------------------------------------
    let shadow = query(&db, "exists y . R(x, y)").relation.narrow(1);
    let db2 = Database::new(Schema::new().with("S", 1)).with("S", shadow);
    let filtered = query(&db2, "S(x) & x > 5");
    println!(
        "\n  composed query over the previous answer: {}",
        filtered.relation
    );

    println!("\nquickstart complete.");
}
