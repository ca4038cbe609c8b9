//! Recursion over infinite relations: inflationary Datalog¬ (Theorem 4.4).
//!
//! Runs transitive closure over a *finite* graph and over an *infinite*
//! dense edge relation, shows the inflationary-negation semantics, and the
//! order-based parity computation — all queries FO cannot express but
//! Datalog¬ (= PTIME, Theorem 4.4) can.
//!
//! Run with: `cargo run --example datalog_reachability`

use dco::datalog::programs::{cardinality_is_even, is_connected};
use dco::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // 1. Transitive closure of a finite path graph.
    // ------------------------------------------------------------------
    let program = parse_program(
        "tc(x, y) :- e(x, y).\n\
         tc(x, y) :- tc(x, z), e(z, y).\n",
    )
    .unwrap();
    let edges = GeneralizedRelation::from_points(
        2,
        (1..6)
            .map(|i| vec![rat(i, 1), rat(i + 1, 1)])
            .collect::<Vec<_>>(),
    );
    let db = Database::new(Schema::new().with("e", 2)).with("e", edges);
    let options = DatalogOptions::default();
    let fix = evaluate_datalog(&program, &db, &options).unwrap().value;
    println!("transitive closure of the 6-vertex path:");
    println!("  stages to fixpoint: {}", fix.stats[0].stages);
    println!("  body evaluations:   {}", fix.stats[0].body_evals);
    let tc = fix.database.get("tc").unwrap();
    println!(
        "  (1 → 6) derived? {}",
        tc.contains_point(&[rat(1, 1), rat(6, 1)])
    );
    println!(
        "  (6 → 1) derived? {}",
        tc.contains_point(&[rat(6, 1), rat(1, 1)])
    );

    // ------------------------------------------------------------------
    // 2. The same program over an INFINITE edge relation: e = the dense
    //    strip { (x, y) | 0 ≤ x < y ≤ x + 1 ≤ 10 }... here the simpler
    //    upper-triangle; the fixpoint is reached in closed form, on the
    //    finite representation — no enumeration of points.
    // ------------------------------------------------------------------
    let dense_edges = GeneralizedRelation::from_raw(
        2,
        vec![
            RawAtom::new(Term::cst(rat(0, 1)), RawOp::Le, Term::var(0)),
            RawAtom::new(Term::var(0), RawOp::Lt, Term::var(1)),
            RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(10, 1))),
        ],
    );
    let db = Database::new(Schema::new().with("e", 2)).with("e", dense_edges.clone());
    let fix = evaluate_datalog(&program, &db, &options).unwrap().value;
    let tc = fix.database.get("tc").unwrap();
    println!("\ntransitive closure of an infinite dense relation:");
    println!(
        "  converged in {} stages; closed form: {}",
        fix.stats[0].stages, tc
    );
    println!(
        "  equals the input (already transitive)? {}",
        tc.equivalent(&dense_edges)
    );

    // ------------------------------------------------------------------
    // 3. Graph connectivity — not FO (Theorem 4.2), easily Datalog¬.
    // ------------------------------------------------------------------
    let v =
        GeneralizedRelation::from_points(1, (1..=6).map(|i| vec![rat(i, 1)]).collect::<Vec<_>>());
    let path_edges = GeneralizedRelation::from_points(
        2,
        (1..6)
            .map(|i| vec![rat(i, 1), rat(i + 1, 1)])
            .collect::<Vec<_>>(),
    );
    let two_comp = GeneralizedRelation::from_points(
        2,
        vec![
            vec![rat(1, 1), rat(2, 1)],
            vec![rat(2, 1), rat(3, 1)],
            vec![rat(4, 1), rat(5, 1)],
            vec![rat(5, 1), rat(6, 1)],
        ],
    );
    println!("\ngraph connectivity via Datalog¬:");
    println!(
        "  path graph connected?        {}",
        is_connected(&v, &path_edges).unwrap()
    );
    println!(
        "  two-component graph?         {}",
        is_connected(&v, &two_comp).unwrap()
    );

    // ------------------------------------------------------------------
    // 4. Parity via the dense order — the other Theorem 4.2 query.
    // ------------------------------------------------------------------
    println!("\nparity of finite sets via order-successor chains:");
    for n in 1..=6 {
        let s = GeneralizedRelation::from_points(
            1,
            (0..n).map(|i| vec![rat(i * 7 - 3, 2)]).collect::<Vec<_>>(),
        );
        println!("  |S| = {n}: even? {}", cardinality_is_even(&s).unwrap());
    }

    println!("\ndatalog_reachability complete.");
}
