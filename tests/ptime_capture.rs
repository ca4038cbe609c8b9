//! Theorem 4.4's capture machinery, end-to-end: a PTIME relational query
//! computed by inflationary Datalog¬ over the *integer order encoding* of
//! a rational dense-order database, with the answer mapped back — the
//! constructive content of "Datalog¬ = PTIME over dense-order databases".

use dco::datalog::run as run_datalog;
use dco::encoding::integerize;
use dco::fo::eval;
use dco::prelude::*;

/// A rational-constant edge relation (a path through non-integer points).
fn rational_path(n: usize) -> Database {
    let e = GeneralizedRelation::from_points(
        2,
        (0..n - 1)
            .map(|i| {
                vec![
                    rat(2 * i as i128 + 1, 3), // (2i+1)/3
                    rat(2 * (i as i128 + 1) + 1, 3),
                ]
            })
            .collect::<Vec<_>>(),
    );
    Database::new(Schema::new().with("e", 2)).with("e", e)
}

#[test]
fn tc_through_the_integer_encoding() {
    let program = parse_program(
        "tc(x, y) :- e(x, y).\n\
         tc(x, y) :- tc(x, z), e(z, y).\n",
    )
    .unwrap();
    for n in [3usize, 5] {
        let db = rational_path(n);
        // direct run on the rational database
        let direct = run_datalog(&program, &db)
            .unwrap()
            .database
            .get("tc")
            .unwrap()
            .clone();
        // run on the integer encoding, decode back
        let (idb, map) = integerize(&db);
        assert!(dco::encoding::is_integer_defined(&idb));
        let encoded_run = run_datalog(&program, &idb)
            .unwrap()
            .database
            .get("tc")
            .unwrap()
            .clone();
        let decoded = map.inverse().to_automorphism().apply_relation(&encoded_run);
        assert!(
            decoded.equivalent(&direct),
            "n={n}: capture round-trip differs"
        );
    }
}

#[test]
fn fixpoint_stage_count_is_polynomial() {
    // stages grow linearly in path length (naive TC): the PTIME bound of
    // Theorem 4.4's easy direction, observed.
    let program = parse_program(
        "tc(x, y) :- e(x, y).\n\
         tc(x, y) :- tc(x, z), e(z, y).\n",
    )
    .unwrap();
    let mut stages = Vec::new();
    for n in [3usize, 5, 7, 9] {
        let db = rational_path(n);
        stages.push(run_datalog(&program, &db).unwrap().stats[0].stages);
    }
    // monotone, and bounded by n (not exponential)
    assert!(stages.windows(2).all(|w| w[0] <= w[1]));
    assert!(*stages.last().unwrap() <= 10);
}

#[test]
fn order_queries_survive_the_encoding() {
    // FO query agreement across the homeomorphism (the "harmless
    // restriction" remark of §4).
    let db = rational_path(4);
    let f = parse_formula("exists y . e(x, y)").unwrap();
    let direct = eval::<GeneralizedTuple>(&db, &f).unwrap().relation;
    let (idb, map) = integerize(&db);
    let encoded = eval::<GeneralizedTuple>(&idb, &f).unwrap().relation;
    let back = map.inverse().to_automorphism().apply_relation(&encoded);
    assert!(back.equivalent(&direct));
}

#[test]
fn parity_through_the_encoding() {
    use dco::datalog::programs::cardinality_is_even;
    // parity of a rational-constant set computed on its integer twin
    let s = GeneralizedRelation::from_points(
        1,
        vec![vec![rat(1, 3)], vec![rat(1, 2)], vec![rat(5, 7)]],
    );
    let db = Database::new(Schema::new().with("s", 1)).with("s", s.clone());
    let (idb, _) = integerize(&db);
    let direct = cardinality_is_even(&s).unwrap();
    let encoded = cardinality_is_even(idb.get("s").unwrap()).unwrap();
    assert_eq!(direct, encoded);
    assert!(!direct); // |s| = 3
}
