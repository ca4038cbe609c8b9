//! Property tests for the FO evaluator: the closed-form symbolic answer is
//! compared against a *reference semantics* — direct point-level evaluation
//! of the formula with quantifiers ranging over a sufficient sample set
//! (cell representatives, which is exact by genericity).

use dco_core::prelude::*;
use dco_fo::eval_in_ctx;
use dco_logic::{ArgTerm, Formula, LinExpr};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Random formulas over one binary predicate R and variables x, y (+ bound
/// z), depth-limited.
fn arb_formula(depth: u32) -> BoxedStrategy<Formula> {
    let atom = prop_oneof![
        Just(Formula::pred("R", &["x", "y"])),
        Just(Formula::pred("R", &["y", "x"])),
        Just(Formula::pred("R", &["x", "x"])),
        (-4i64..4).prop_map(|c| pred_with_const(c, "y", true)),
        (-4i64..4).prop_map(|c| pred_with_const(c, "x", false)),
        Just(Formula::cmp_vars("x", RawOp::Lt, "y")),
        Just(Formula::cmp_vars("y", RawOp::Le, "x")),
        (-4i64..4).prop_map(|c| Formula::cmp_const("x", RawOp::Lt, rat(c as i128, 1))),
        (-4i64..4).prop_map(|c| Formula::cmp_const("y", RawOp::Eq, rat(c as i128, 1))),
    ];
    if depth == 0 {
        return atom.boxed();
    }
    let sub = arb_formula(depth - 1);
    prop_oneof![
        4 => atom,
        2 => (sub.clone(), sub.clone()).prop_map(|(a, b)| Formula::and(a, b)),
        2 => (sub.clone(), sub.clone()).prop_map(|(a, b)| Formula::or(a, b)),
        2 => sub.clone().prop_map(Formula::not),
        1 => sub.clone().prop_map(|f| Formula::Exists(vec!["z".to_string()], Box::new(swap_var(&f, "y", "z")))),
        1 => sub.prop_map(|f| Formula::Forall(vec!["z".to_string()], Box::new(swap_var(&f, "x", "z")))),
    ]
    .boxed()
}

/// `R(c, v)` when `const_first`, else `R(v, c)`.
fn pred_with_const(c: i64, v: &str, const_first: bool) -> Formula {
    let c = ArgTerm::Const(rat(c as i128, 1));
    let v = ArgTerm::Var(v.to_string());
    let args = if const_first { vec![c, v] } else { vec![v, c] };
    Formula::Pred("R".to_string(), args)
}

/// Conjunctions with negated conjuncts — `A & !B & atom`, sometimes with
/// a second negated conjunct — in a random conjunct order: the shape the
/// evaluator turns into intersection followed by subtraction.
fn arb_subtraction() -> impl Strategy<Value = Formula> {
    (
        arb_formula(1),
        arb_formula(1),
        arb_formula(0),
        arb_formula(1),
        prop::bool::ANY,
        0usize..24,
    )
        .prop_map(|(a, b, atom, c, two, order)| {
            let mut parts = vec![a, Formula::not(b), atom];
            if two {
                parts.push(Formula::not(c));
            }
            // A seeded permutation: the planner may put any conjunct first.
            let mut rest = parts;
            let mut shuffled = Vec::new();
            let mut o = order;
            while !rest.is_empty() {
                shuffled.push(rest.remove(o % rest.len()));
                o /= 2;
            }
            Formula::And(shuffled)
        })
}

/// Rename free occurrences (crude but adequate for generated shapes).
fn swap_var(f: &Formula, from: &str, to: &str) -> Formula {
    match f {
        Formula::True => Formula::True,
        Formula::False => Formula::False,
        Formula::Compare(l, op, r) => {
            Formula::Compare(l.rename_var(from, to), *op, r.rename_var(from, to))
        }
        Formula::Pred(n, args) => Formula::Pred(
            n.clone(),
            args.iter()
                .map(|a| match a {
                    ArgTerm::Var(v) if v == from => ArgTerm::Var(to.to_string()),
                    o => o.clone(),
                })
                .collect(),
        ),
        Formula::Not(g) => Formula::not(swap_var(g, from, to)),
        Formula::And(gs) => Formula::And(gs.iter().map(|g| swap_var(g, from, to)).collect()),
        Formula::Or(gs) => Formula::Or(gs.iter().map(|g| swap_var(g, from, to)).collect()),
        Formula::Implies(a, b) => Formula::Implies(
            Box::new(swap_var(a, from, to)),
            Box::new(swap_var(b, from, to)),
        ),
        Formula::Iff(a, b) => Formula::Iff(
            Box::new(swap_var(a, from, to)),
            Box::new(swap_var(b, from, to)),
        ),
        Formula::Exists(vs, g) if !vs.iter().any(|v| v == from) => {
            Formula::Exists(vs.clone(), Box::new(swap_var(g, from, to)))
        }
        Formula::Forall(vs, g) if !vs.iter().any(|v| v == from) => {
            Formula::Forall(vs.clone(), Box::new(swap_var(g, from, to)))
        }
        other => other.clone(),
    }
}

/// A small random database over one binary relation.
fn arb_db() -> impl Strategy<Value = Database> {
    prop::collection::vec(
        (
            -4i64..4,
            1i64..3,
            -4i64..4,
            1i64..3,
            prop::bool::ANY, // wedge?
        ),
        0..3,
    )
    .prop_map(|parts| {
        let tuples = parts.into_iter().flat_map(|(x, w, y, h, wedge)| {
            let mut raws = vec![
                RawAtom::new(Term::cst(rat(x as i128, 1)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat((x + w) as i128, 1))),
                RawAtom::new(Term::cst(rat(y as i128, 1)), RawOp::Le, Term::var(1)),
                RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat((y + h) as i128, 1))),
            ];
            if wedge {
                raws.push(RawAtom::new(Term::var(0), RawOp::Lt, Term::var(1)));
            }
            GeneralizedTuple::from_raw(2, raws)
        });
        Database::new(Schema::new().with("R", 2))
            .with("R", GeneralizedRelation::from_tuples(2, tuples))
    })
}

/// Reference semantics: evaluate the formula at a full variable assignment,
/// with quantifiers ranging over 1-cell sample points of the combined
/// constant set — exact for generic (automorphism-closed) truths.
fn reference_eval(f: &Formula, db: &Database, env: &BTreeMap<String, Rational>) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Compare(l, op, r) => {
            let lv = eval_linexpr(l, env);
            let rv = eval_linexpr(r, env);
            op.eval(&lv, &rv)
        }
        Formula::Pred(name, args) => {
            let rel = db.get(name).expect("known predicate");
            let point: Vec<Rational> = args
                .iter()
                .map(|a| match a {
                    ArgTerm::Var(v) => env[v],
                    ArgTerm::Const(c) => *c,
                })
                .collect();
            rel.contains_point(&point)
        }
        Formula::Not(g) => !reference_eval(g, db, env),
        Formula::And(gs) => gs.iter().all(|g| reference_eval(g, db, env)),
        Formula::Or(gs) => gs.iter().any(|g| reference_eval(g, db, env)),
        Formula::Implies(a, b) => !reference_eval(a, db, env) || reference_eval(b, db, env),
        Formula::Iff(a, b) => reference_eval(a, db, env) == reference_eval(b, db, env),
        Formula::Exists(vs, g) => quantifier(vs, g, db, env, true),
        Formula::Forall(vs, g) => quantifier(vs, g, db, env, false),
    }
}

fn eval_linexpr(e: &LinExpr, env: &BTreeMap<String, Rational>) -> Rational {
    let mut acc = e.constant;
    for (v, c) in &e.coeffs {
        acc = acc + (c * &env[v]);
    }
    acc
}

/// Constants mentioned in a formula (compare sides and predicate args).
fn formula_consts(f: &Formula, out: &mut std::collections::BTreeSet<Rational>) {
    f.walk(&mut |g| match g {
        Formula::Compare(l, _, r) => {
            out.insert(l.constant);
            out.insert(r.constant);
        }
        Formula::Pred(_, args) => {
            for a in args {
                if let ArgTerm::Const(c) = a {
                    out.insert(*c);
                }
            }
        }
        _ => {}
    });
}

fn quantifier(
    vs: &[String],
    g: &Formula,
    db: &Database,
    env: &BTreeMap<String, Rational>,
    existential: bool,
) -> bool {
    if vs.is_empty() {
        return reference_eval(g, db, env);
    }
    let mut consts: std::collections::BTreeSet<Rational> = db
        .constants()
        .into_iter()
        .chain(env.values().copied())
        .collect();
    formula_consts(g, &mut consts);
    let space = CellSpace::new(1, consts);
    let samples: Vec<Rational> = space
        .enumerate()
        .iter()
        .map(|c| space.sample(c)[0])
        .collect();
    let rest = &vs[1..];
    for s in samples {
        let mut env2 = env.clone();
        env2.insert(vs[0].clone(), s);
        let v = quantifier(rest, g, db, &env2, existential);
        if v == existential {
            return existential;
        }
    }
    !existential
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn symbolic_matches_reference(f in arb_formula(2), db in arb_db(), px in -5i64..5, py in -5i64..5) {
        let ctx = vec!["x".to_string(), "y".to_string()];
        let rel = eval_in_ctx(&db, &f, &ctx).expect("dense-order formula evaluates");
        let p = vec![rat(px as i128, 1), rat(py as i128, 1)];
        let mut env = BTreeMap::new();
        env.insert("x".to_string(), p[0]);
        env.insert("y".to_string(), p[1]);
        let expect = reference_eval(&f, &db, &env);
        prop_assert_eq!(
            rel.contains_point(&p), expect,
            "formula {} at {:?} over {}", f, p, db
        );
    }

    #[test]
    fn subtraction_matches_reference(f in arb_subtraction(), db in arb_db()) {
        let ctx = vec!["x".to_string(), "y".to_string()];
        let rel = eval_in_ctx(&db, &f, &ctx).expect("dense-order formula evaluates");
        // One sample per cell of the constants involved decides the
        // answer everywhere.
        let mut consts: std::collections::BTreeSet<Rational> = db.constants().into_iter().collect();
        formula_consts(&f, &mut consts);
        let space = CellSpace::new(2, consts);
        for cell in space.enumerate() {
            let p = space.sample(&cell);
            let mut env = BTreeMap::new();
            env.insert("x".to_string(), p[0]);
            env.insert("y".to_string(), p[1]);
            prop_assert_eq!(
                rel.contains_point(&p), reference_eval(&f, &db, &env),
                "formula {} at {:?} over {}", f, p, db
            );
        }
    }

    #[test]
    fn predicate_arguments_match_reference(db in arb_db(), c in -5i64..5) {
        // Every argument shape a predicate atom can take — distinct,
        // swapped and repeated variables, a constant in either place —
        // checked at one sample point of every cell of the constants.
        let shapes = [
            Formula::pred("R", &["x", "y"]),
            Formula::pred("R", &["y", "x"]),
            Formula::pred("R", &["x", "x"]),
            Formula::pred("R", &["y", "y"]),
            pred_with_const(c, "y", true),
            pred_with_const(c, "x", false),
        ];
        let ctx = vec!["x".to_string(), "y".to_string()];
        for f in shapes {
            let rel = eval_in_ctx(&db, &f, &ctx).expect("dense-order formula evaluates");
            let mut consts: std::collections::BTreeSet<Rational> = db.constants().into_iter().collect();
            formula_consts(&f, &mut consts);
            let space = CellSpace::new(2, consts);
            for cell in space.enumerate() {
                let p = space.sample(&cell);
                let mut env = BTreeMap::new();
                env.insert("x".to_string(), p[0]);
                env.insert("y".to_string(), p[1]);
                prop_assert_eq!(
                    rel.contains_point(&p), reference_eval(&f, &db, &env),
                    "formula {} at {:?} over {}", f, p, db
                );
            }
        }
    }

    #[test]
    fn negation_is_complement(f in arb_formula(1), db in arb_db()) {
        let ctx = vec!["x".to_string(), "y".to_string()];
        let pos = eval_in_ctx(&db, &f, &ctx).expect("evaluates");
        let neg = eval_in_ctx(&db, &Formula::not(f), &ctx).expect("evaluates");
        prop_assert!(neg.equivalent(&pos.complement()));
    }

    #[test]
    fn nnf_preserves_semantics(f in arb_formula(2), db in arb_db()) {
        let ctx = vec!["x".to_string(), "y".to_string()];
        let base = eval_in_ctx(&db, &f, &ctx).expect("evaluates");
        let nnf = dco_logic::to_nnf(&f);
        let transformed = eval_in_ctx(&db, &nnf, &ctx).expect("evaluates");
        prop_assert!(transformed.equivalent(&base), "{f}  vs NNF  {nnf}");
    }

    #[test]
    fn prenex_preserves_semantics(f in arb_formula(2), db in arb_db()) {
        let ctx = vec!["x".to_string(), "y".to_string()];
        let base = eval_in_ctx(&db, &f, &ctx).expect("evaluates");
        let (prefix, matrix) = dco_logic::to_prenex(&f);
        let pf = dco_logic::from_prenex(&prefix, &matrix);
        let transformed = eval_in_ctx(&db, &pf, &ctx).expect("evaluates");
        prop_assert!(transformed.equivalent(&base), "{f}  vs prenex  {pf}");
    }

    #[test]
    fn excluded_middle(f in arb_formula(1), db in arb_db()) {
        let ctx = vec!["x".to_string(), "y".to_string()];
        let pos = eval_in_ctx(&db, &f, &ctx).expect("evaluates");
        let neg = eval_in_ctx(&db, &Formula::not(f.clone()), &ctx).expect("evaluates");
        prop_assert!(pos.union(&neg).equivalent(&GeneralizedRelation::universe(2)));
        prop_assert!(pos.intersect(&neg).is_empty());
    }
}

// The parallel layer must return the same canonical DNF as a sequential
// run — structural equality, not mere equivalence — for arbitrary
// formulas. Run with more cases than the semantic suite: these checks are
// cheap (two evaluations, no reference semantics).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn parallel_eval_identical_to_sequential(f in arb_formula(2), db in arb_db()) {
        let ctx = vec!["x".to_string(), "y".to_string()];
        let seq = with_eval_config(EvalConfig::sequential(), || eval_in_ctx(&db, &f, &ctx))
            .expect("evaluates");
        let par = with_eval_config(
            EvalConfig { threads: 4, parallel_threshold: 1 },
            || eval_in_ctx(&db, &f, &ctx),
        )
        .expect("evaluates");
        prop_assert_eq!(seq, par, "parallel DNF diverges for {}", f);
    }
}
