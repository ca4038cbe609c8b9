//! Property tests for the Datalog¬ engine: transitive closure against a
//! reference Floyd–Warshall implementation on random finite graphs, and
//! engine invariants (inflation, fixpoint stability, fast-path/symbolic
//! agreement).

use dco_core::prelude::*;
use dco_datalog::{parse_program, run, run_stratified};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn tc_program() -> dco_datalog::Program {
    parse_program(
        "tc(x, y) :- e(x, y).\n\
         tc(x, y) :- tc(x, z), e(z, y).\n",
    )
    .expect("static program parses")
}

fn arb_graph() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..7, 0i64..7), 0..12)
}

/// Reference transitive closure.
fn reference_tc(edges: &[(i64, i64)]) -> BTreeSet<(i64, i64)> {
    let nodes: BTreeSet<i64> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
    let mut reach: BTreeSet<(i64, i64)> = edges.iter().copied().collect();
    loop {
        let mut added = Vec::new();
        for &(a, b) in &reach {
            for &(c, d) in &reach {
                if b == c && !reach.contains(&(a, d)) {
                    added.push((a, d));
                }
            }
        }
        if added.is_empty() {
            break;
        }
        reach.extend(added);
    }
    let _ = nodes;
    reach
}

fn edge_relation(edges: &[(i64, i64)]) -> GeneralizedRelation {
    GeneralizedRelation::from_points(
        2,
        edges
            .iter()
            .map(|&(a, b)| vec![rat(a as i128, 1), rat(b as i128, 1)])
            .collect::<Vec<_>>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tc_matches_floyd_warshall(edges in arb_graph()) {
        let db = Database::new(Schema::new().with("e", 2)).with("e", edge_relation(&edges));
        let fix = run(&tc_program(), &db).expect("fixpoint");
        let tc = fix.database.get("tc").expect("tc");
        let expect = reference_tc(&edges);
        // every expected pair present
        for &(a, b) in &expect {
            prop_assert!(
                tc.contains_point(&[rat(a as i128, 1), rat(b as i128, 1)]),
                "missing ({a},{b})"
            );
        }
        // no spurious pairs (checked on the grid)
        for a in 0..7i64 {
            for b in 0..7i64 {
                if !expect.contains(&(a, b)) {
                    prop_assert!(
                        !tc.contains_point(&[rat(a as i128, 1), rat(b as i128, 1)]),
                        "spurious ({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn fixpoint_is_stable(edges in arb_graph()) {
        // running the program on its own fixpoint's EDB+tc as input derives
        // nothing new: feed tc back as edges and close again — idempotent
        // on the reachability relation.
        let db = Database::new(Schema::new().with("e", 2)).with("e", edge_relation(&edges));
        let tc1 = run(&tc_program(), &db).expect("fixpoint").database.get("tc").expect("tc").clone();
        let db2 = Database::new(Schema::new().with("e", 2)).with("e", tc1.clone());
        let tc2 = run(&tc_program(), &db2).expect("fixpoint").database.get("tc").expect("tc").clone();
        prop_assert!(tc2.equivalent(&tc1));
    }

    #[test]
    fn inflationary_output_contains_edb(edges in arb_graph()) {
        let e = edge_relation(&edges);
        let db = Database::new(Schema::new().with("e", 2)).with("e", e.clone());
        let fix = run(&tc_program(), &db).expect("fixpoint");
        prop_assert!(e.is_subset(fix.database.get("tc").expect("tc")));
    }

    #[test]
    fn stratified_agrees_with_inflationary_on_negation_free(edges in arb_graph()) {
        let db = Database::new(Schema::new().with("e", 2)).with("e", edge_relation(&edges));
        let inf = run(&tc_program(), &db).expect("fixpoint").database.get("tc").expect("tc").clone();
        let strat = run_stratified(&tc_program(), &db)
            .expect("stratified")
            .database
            .get("tc")
            .expect("tc")
            .clone();
        prop_assert!(inf.equivalent(&strat));
    }

    #[test]
    fn symbolic_path_agrees_with_point_fast_path(edges in arb_graph()) {
        // Force the generic symbolic path by wrapping each edge point in an
        // equivalent non-point tuple (x = a ∧ a <= x): as_points() fails,
        // so the engine uses FO evaluation — answers must match.
        let db_points =
            Database::new(Schema::new().with("e", 2)).with("e", edge_relation(&edges));
        let obfuscated = GeneralizedRelation::from_tuples(
            2,
            edges.iter().flat_map(|&(a, b)| {
                GeneralizedTuple::from_raw(
                    2,
                    vec![
                        RawAtom::new(Term::var(0), RawOp::Eq, Term::cst(rat(a as i128, 1))),
                        RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat(a as i128, 1))),
                        RawAtom::new(Term::var(1), RawOp::Eq, Term::cst(rat(b as i128, 1))),
                        RawAtom::new(Term::cst(rat(b as i128, 1)), RawOp::Ge, Term::var(1)),
                    ],
                )
            }),
        );
        let db_symbolic = Database::new(Schema::new().with("e", 2)).with("e", obfuscated);
        let fast = run(&tc_program(), &db_points).expect("fixpoint").database.get("tc").expect("tc").clone();
        let slow = run(&tc_program(), &db_symbolic).expect("fixpoint").database.get("tc").expect("tc").clone();
        prop_assert!(fast.equivalent(&slow));
    }
}

/// An equivalent non-point encoding of the edges (x = a ∧ a ≤ x …):
/// `as_points()` fails, so every engine stage runs the symbolic DNF
/// algebra — the path the parallel layer and the subsumption-filtered
/// deltas actually target.
fn obfuscated_edges(edges: &[(i64, i64)]) -> GeneralizedRelation {
    GeneralizedRelation::from_tuples(
        2,
        edges.iter().flat_map(|&(a, b)| {
            GeneralizedTuple::from_raw(
                2,
                vec![
                    RawAtom::new(Term::var(0), RawOp::Eq, Term::cst(rat(a as i128, 1))),
                    RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat(a as i128, 1))),
                    RawAtom::new(Term::var(1), RawOp::Eq, Term::cst(rat(b as i128, 1))),
                    RawAtom::new(Term::cst(rat(b as i128, 1)), RawOp::Ge, Term::var(1)),
                ],
            )
        }),
    )
}

// Parallel runs must reproduce the sequential fixpoint *structurally*
// (same canonical DNF, `==`), and the semi-naive delta engine must agree
// semantically with naive full stages. More cases than the semantic
// suite: no reference implementation runs here.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn parallel_fixpoint_identical_to_sequential(edges in arb_graph()) {
        let db = Database::new(Schema::new().with("e", 2)).with("e", obfuscated_edges(&edges));
        let seq = with_eval_config(EvalConfig::sequential(), || run(&tc_program(), &db))
            .expect("fixpoint");
        let par = with_eval_config(
            EvalConfig { threads: 4, parallel_threshold: 1 },
            || run(&tc_program(), &db),
        )
        .expect("fixpoint");
        prop_assert_eq!(seq.database, par.database);
    }

    #[test]
    fn delta_engine_agrees_with_naive(edges in arb_graph()) {
        use dco_datalog::{run_with, EngineConfig};
        let db = Database::new(Schema::new().with("e", 2)).with("e", obfuscated_edges(&edges));
        let naive = EngineConfig { use_deltas: false, ..EngineConfig::default() };
        let a = run_with(&tc_program(), &db, &EngineConfig::default()).expect("fixpoint");
        let b = run_with(&tc_program(), &db, &naive).expect("fixpoint");
        prop_assert!(a.database.equivalent(&b.database));
    }
}
