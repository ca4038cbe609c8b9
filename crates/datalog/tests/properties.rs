//! Property tests for the Datalog¬ engine: transitive closure against a
//! reference Floyd–Warshall implementation on random finite graphs, and
//! engine invariants (inflation, fixpoint stability, agreement between
//! point and non-point encodings of the same input).

use dco_core::prelude::*;
use dco_datalog::{evaluate, parse_program, run, EngineConfig, Options, Semantics};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The fixpoint of `program` over `db` under `semantics`, with or without
/// delta stages, run with no budgets.
fn fixpoint(
    program: &dco_datalog::Program,
    db: &Database,
    semantics: Semantics,
    use_deltas: bool,
) -> Database {
    let options = Options {
        semantics,
        limits: Some(GuardLimits::none()),
        engine: EngineConfig { use_deltas },
    };
    evaluate(program, db, &options)
        .expect("fixpoint")
        .value
        .database
}

fn tc_program() -> dco_datalog::Program {
    parse_program(
        "tc(x, y) :- e(x, y).\n\
         tc(x, y) :- tc(x, z), e(z, y).\n",
    )
    .expect("static program parses")
}

/// A stratified program whose second stratum recurses through negated
/// predicates of the first stratum and of the input.
fn negated_recursion_program() -> dco_datalog::Program {
    parse_program(
        "tc(x, y) :- e(x, y).\n\
         tc(x, y) :- tc(x, z), e(z, y).\n\
         far(x, y) :- tc(x, y), !e(x, y).\n\
         far(x, y) :- far(x, z), far(z, y), !tc(y, x).\n",
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
        let strat = fixpoint(&tc_program(), &db, Semantics::Stratified, true)
            .get("tc")
            .expect("tc")
            .clone();
        prop_assert!(inf.equivalent(&strat));
    }

    #[test]
    fn point_and_non_point_encodings_agree(edges in arb_graph()) {
        // The same edges as points and as three-atom tuples (see
        // `obfuscated_edges`): the answers must match.
        let points = edge_relation(&edges);
        let obfuscated = obfuscated_edges(&edges);
        prop_assert!(obfuscated.tuples().iter().all(|t| t.len() == 3), "{}", &obfuscated);
        let tc = |e: GeneralizedRelation| {
            let db = Database::new(Schema::new().with("e", 2)).with("e", e);
            run(&tc_program(), &db).expect("fixpoint").database.get("tc").expect("tc").clone()
        };
        prop_assert!(tc(points).equivalent(&tc(obfuscated)));
    }
}

/// The edges as non-point tuples: each point `(a, b)` with the comparison
/// of its two columns it implies (`x0 < x1`, `x0 = x1` or `x1 < x0`)
/// conjoined, an atom `push` keeps as written.
fn obfuscated_edges(edges: &[(i64, i64)]) -> GeneralizedRelation {
    GeneralizedRelation::from_tuples(
        2,
        edges.iter().flat_map(|&(a, b)| {
            let order = match a.cmp(&b) {
                std::cmp::Ordering::Less => RawOp::Lt,
                std::cmp::Ordering::Equal => RawOp::Eq,
                std::cmp::Ordering::Greater => RawOp::Gt,
            };
            GeneralizedTuple::from_raw(
                2,
                vec![
                    RawAtom::new(Term::var(0), RawOp::Eq, Term::cst(rat(a as i128, 1))),
                    RawAtom::new(Term::var(1), RawOp::Eq, Term::cst(rat(b as i128, 1))),
                    RawAtom::new(Term::var(0), order, Term::var(1)),
                ],
            )
        }),
    )
}

// The semi-naive delta engine must agree semantically with naive full
// stages. More cases than the semantic suite: no reference
// implementation runs here.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn delta_engine_agrees_with_naive(edges in arb_graph()) {
        let db = Database::new(Schema::new().with("e", 2)).with("e", obfuscated_edges(&edges));
        let a = fixpoint(&tc_program(), &db, Semantics::Inflationary, true);
        let b = fixpoint(&tc_program(), &db, Semantics::Inflationary, false);
        prop_assert!(a.equivalent(&b));
        // Negation inside a stratum names only predicates of earlier
        // strata, which that stratum's run reads as EDB: its recursive
        // `far` rules run on deltas, and must agree with naive stages.
        let a = fixpoint(&negated_recursion_program(), &db, Semantics::Stratified, true);
        let b = fixpoint(&negated_recursion_program(), &db, Semantics::Stratified, false);
        prop_assert!(a.equivalent(&b));
    }
}

/// `n` constraint edges `[i, i+1/2] × [i+1, i+3/2]`: genuine boxes, so
/// every stage of transitive closure works on intervals, not points
/// (intersect, project, and `absorb`'s subsumption tests).
fn box_chain(n: i128) -> GeneralizedRelation {
    GeneralizedRelation::from_tuples(
        2,
        (0..n).flat_map(|i| {
            let lo = 2 * i;
            GeneralizedTuple::from_raw(
                2,
                vec![
                    RawAtom::new(Term::cst(rat(lo, 2)), RawOp::Le, Term::var(0)),
                    RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat(lo + 1, 2))),
                    RawAtom::new(Term::cst(rat(lo + 2, 2)), RawOp::Le, Term::var(1)),
                    RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(lo + 3, 2))),
                ],
            )
        }),
    )
}

#[test]
fn delta_engine_agrees_with_naive_on_box_chains() {
    for n in [3, 5, 7] {
        let edges = box_chain(n);
        assert_eq!(edges.len(), n as usize, "every edge is a box of its own");
        let db = Database::new(Schema::new().with("e", 2)).with("e", edges);
        let a = fixpoint(&tc_program(), &db, Semantics::Inflationary, true);
        let b = fixpoint(&tc_program(), &db, Semantics::Inflationary, false);
        assert!(
            a.equivalent(&b),
            "box chain of {n}: semi-naive fixpoint not equivalent to naive"
        );
        // Box i reaches box j for every i < j: the corner point of each.
        let tc = a.get("tc").expect("tc");
        for i in 0..n {
            for j in 0..n {
                let p = [rat(2 * i, 2), rat(2 * j + 2, 2)];
                assert_eq!(
                    tc.contains_point(&p),
                    i <= j,
                    "box chain of {n}: ({i}, {j})"
                );
            }
        }
    }
}
