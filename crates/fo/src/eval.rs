//! Bottom-up, closed-form evaluation of FO over dense-order databases.
//!
//! Following \[KKR90\] (recalled in §4 of the paper), every FO formula over
//! `{=, ≤} ∪ Q` and database predicates can be evaluated *bottom-up*: each
//! subformula denotes a finitely representable relation over its context of
//! variables, and the logical connectives map to the constraint algebra —
//! `∧` to intersection, `∨` to union, `¬` to complement, `∃` to dense-order
//! quantifier elimination. The output is again a generalized relation
//! (*closure*), which is what gives FO its AC⁰ data complexity and makes it
//! a genuine query language in the sense of Definition 3.1.
//!
//! The evaluator works over an explicit *context*: an ordered list of
//! variable names, one per output column. Quantified variables extend the
//! context temporarily and are projected away; quantifier shadowing is
//! resolved by alpha-renaming.

use dco_analysis::explain::{operator, PlanNode};
use dco_analysis::planner::estimate_formula;
use dco_analysis::stats::DbStats;
use dco_core::prelude::*;
use dco_logic::{ArgTerm, Formula, LinExpr};
use std::collections::BTreeSet;
use std::fmt;

/// Errors during FO evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Formula uses a predicate the database does not declare.
    UnknownPredicate(String),
    /// Predicate used at a different arity than declared.
    ArityMismatch {
        /// Predicate name.
        name: String,
        /// Declared arity.
        declared: u32,
        /// Arity used in the formula.
        used: u32,
    },
    /// Formula contains genuine linear arithmetic — not in the FO
    /// (dense-order) fragment; use `dco-linear`'s FO+ evaluator instead.
    NotDenseOrder(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownPredicate(n) => write!(f, "unknown predicate {n}"),
            EvalError::ArityMismatch {
                name,
                declared,
                used,
            } => {
                write!(
                    f,
                    "predicate {name}: declared arity {declared}, used at {used}"
                )
            }
            EvalError::NotDenseOrder(at) => {
                write!(f, "formula is not in the dense-order fragment: {at}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// The result of evaluating a query: named output columns and the
/// generalized relation over them. Arity 0 encodes boolean queries
/// (universe = true, empty = false).
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output column names, in column order.
    pub columns: Vec<String>,
    /// The denoted relation.
    pub relation: GeneralizedRelation,
}

impl QueryResult {
    /// For boolean (sentence) queries: the truth value.
    pub fn as_bool(&self) -> Option<bool> {
        if self.columns.is_empty() {
            Some(!self.relation.is_empty())
        } else {
            None
        }
    }
}

/// Maximum number of disjuncts before intermediate results are simplified.
const SIMPLIFY_THRESHOLD: usize = 24;

/// Evaluate an FO formula against a database.
///
/// The output columns are the formula's free variables in sorted order.
pub fn eval(db: &Database, formula: &Formula) -> Result<QueryResult, EvalError> {
    let columns: Vec<String> = formula.free_vars().into_iter().collect();
    let relation = eval_in_ctx(db, formula, &columns)?;
    Ok(QueryResult { columns, relation })
}

/// Evaluate a formula string (parse + eval).
pub fn eval_str(db: &Database, src: &str) -> Result<QueryResult, Box<dyn std::error::Error>> {
    let f = dco_logic::parse_formula(src)?;
    Ok(eval(db, &f)?)
}

/// Evaluate `formula` over the given context (which must contain all its
/// free variables); the result has arity `ctx.len()` with columns in
/// context order.
pub fn eval_in_ctx(
    db: &Database,
    formula: &Formula,
    ctx: &[String],
) -> Result<GeneralizedRelation, EvalError> {
    eval_node(db, formula, ctx, None)
}

/// Where an evaluation with plan capture on records its [`PlanNode`]s:
/// the statistics the estimates come from, and the nodes recorded so far
/// under one parent, in evaluation order.
pub(crate) struct PlanSink<'s> {
    pub(crate) stats: &'s DbStats,
    pub(crate) nodes: Vec<PlanNode>,
}

impl<'s> PlanSink<'s> {
    pub(crate) fn new(stats: &'s DbStats) -> PlanSink<'s> {
        PlanSink {
            stats,
            nodes: Vec::new(),
        }
    }
}

/// The FO evaluator. With a `sink`, every connective it visits also
/// records one [`PlanNode`] there: the planner's estimate, the width of
/// the relation it produced, and the nodes its own operands recorded.
/// Without one, the only extra work is this branch.
pub(crate) fn eval_node(
    db: &Database,
    formula: &Formula,
    ctx: &[String],
    sink: Option<&mut PlanSink<'_>>,
) -> Result<GeneralizedRelation, EvalError> {
    let Some(sink) = sink else {
        return eval_connective(db, formula, ctx, None);
    };
    let estimated = estimate_formula(formula, sink.stats);
    let mut operands = PlanSink::new(sink.stats);
    let r = eval_connective(db, formula, ctx, Some(&mut operands))?;
    let (label, detail) = operator(formula);
    sink.nodes.push(
        PlanNode::new(label, detail, estimated)
            .with_actual(r.len() as u64)
            .with_children(operands.nodes),
    );
    Ok(r)
}

/// One bottom-up step: evaluate the operands of the connective at the root
/// of `formula` (through [`eval_node`]) and combine them.
fn eval_connective(
    db: &Database,
    formula: &Formula,
    ctx: &[String],
    mut sink: Option<&mut PlanSink<'_>>,
) -> Result<GeneralizedRelation, EvalError> {
    let k = ctx.len() as u32;
    let col = |name: &str| -> Option<u32> { ctx.iter().position(|c| c == name).map(|i| i as u32) };
    let mut sub = |f: &Formula, ctx: &[String]| eval_node(db, f, ctx, sink.as_deref_mut());
    match formula {
        Formula::True => Ok(GeneralizedRelation::universe(k)),
        Formula::False => Ok(GeneralizedRelation::empty(k)),
        Formula::Compare(l, op, r) => {
            let lt = simple_term(l, &col)
                .ok_or_else(|| EvalError::NotDenseOrder(formula.to_string()))?;
            let rt = simple_term(r, &col)
                .ok_or_else(|| EvalError::NotDenseOrder(formula.to_string()))?;
            Ok(GeneralizedRelation::from_raw(
                k,
                [RawAtom::new(lt, *op, rt)],
            ))
        }
        Formula::Pred(name, args) => eval_pred(db, name, args, ctx),
        Formula::Not(f) => {
            let r = sub(f, ctx)?;
            Ok(maybe_simplify(r.complement()))
        }
        Formula::And(fs) => {
            let mut acc = GeneralizedRelation::universe(k);
            for f in fs {
                acc = acc.intersect(&sub(f, ctx)?);
                acc = maybe_simplify(acc);
                if acc.is_empty() {
                    break;
                }
            }
            Ok(acc)
        }
        Formula::Or(fs) => {
            let mut acc = GeneralizedRelation::empty(k);
            for f in fs {
                acc = acc.union(&sub(f, ctx)?);
            }
            Ok(maybe_simplify(acc))
        }
        Formula::Implies(a, b) => {
            let na = sub(a, ctx)?.complement();
            let rb = sub(b, ctx)?;
            Ok(maybe_simplify(na.union(&rb)))
        }
        Formula::Iff(a, b) => {
            let ra = sub(a, ctx)?;
            let rb = sub(b, ctx)?;
            let both = ra.intersect(&rb);
            let neither = ra.complement().intersect(&rb.complement());
            Ok(maybe_simplify(both.union(&neither)))
        }
        Formula::Exists(vs, body) => {
            // Alpha-rename bound variables that collide with the context.
            let (fresh_vs, body) = freshen(vs, body, ctx);
            let mut ctx2: Vec<String> = ctx.to_vec();
            ctx2.extend(fresh_vs.iter().cloned());
            let mut r = sub(&body, &ctx2)?;
            for i in (ctx.len()..ctx2.len()).rev() {
                r = r.project_out(Var(i as u32));
            }
            Ok(maybe_simplify(r.narrow(k)))
        }
        Formula::Forall(vs, body) => {
            // ∀x.φ = ¬∃x.¬φ; with capture on, the rewrite shows as the
            // node's `exists` child.
            let inner = Formula::Exists(vs.clone(), Box::new(Formula::not((**body).clone())));
            let r = sub(&inner, ctx)?;
            Ok(maybe_simplify(r.complement()))
        }
    }
}

fn maybe_simplify(r: GeneralizedRelation) -> GeneralizedRelation {
    if r.len() > SIMPLIFY_THRESHOLD {
        r.simplify()
    } else {
        r
    }
}

/// Convert a simple linear expression to a core term over context columns.
fn simple_term(e: &LinExpr, col: &impl Fn(&str) -> Option<u32>) -> Option<Term> {
    if let Some(v) = e.as_simple_var() {
        // Free vars are always in ctx by construction; treat missing as a
        // caller bug surfaced as NotDenseOrder upstream.
        return col(v).map(Term::var);
    }
    e.as_const().map(Term::Const)
}

/// Evaluate a predicate atom into the context space.
///
/// The predicate's columns are appended as temporary columns, linked to the
/// context (or pinned to constants), and projected away.
fn eval_pred(
    db: &Database,
    name: &str,
    args: &[ArgTerm],
    ctx: &[String],
) -> Result<GeneralizedRelation, EvalError> {
    let rel = db
        .get(name)
        .ok_or_else(|| EvalError::UnknownPredicate(name.to_string()))?;
    let declared = rel.arity();
    if declared as usize != args.len() {
        return Err(EvalError::ArityMismatch {
            name: name.to_string(),
            declared,
            used: args.len() as u32,
        });
    }
    let k = ctx.len() as u32;
    let total = k + declared;
    // Place the predicate's columns at k..k+declared.
    let mut r = rel.rename(total, |v| Var(v.0 + k));
    // Link each argument.
    for (j, arg) in args.iter().enumerate() {
        let pred_col = Term::var(k + j as u32);
        match arg {
            ArgTerm::Const(c) => {
                r = r.select(RawAtom::new(pred_col, RawOp::Eq, Term::Const(*c)));
            }
            ArgTerm::Var(v) => {
                let i = ctx
                    .iter()
                    .position(|c| c == v)
                    .expect("free variable missing from context") as u32;
                r = r.select(RawAtom::new(pred_col, RawOp::Eq, Term::var(i)));
            }
        }
    }
    // Project away the temporaries.
    for j in (k..total).rev() {
        r = r.project_out(Var(j));
    }
    Ok(r.narrow(k))
}

/// Alpha-rename quantified variables that collide with the enclosing
/// context, rewriting the body accordingly.
fn freshen(vs: &[String], body: &Formula, ctx: &[String]) -> (Vec<String>, Formula) {
    let mut taken: BTreeSet<String> = ctx.iter().cloned().collect();
    let mut out_vs = Vec::with_capacity(vs.len());
    let mut out_body = body.clone();
    for v in vs {
        if taken.contains(v) {
            let mut i = 1;
            let fresh = loop {
                let cand = format!("{v}_{i}");
                if !taken.contains(&cand) && !vs.contains(&cand) {
                    break cand;
                }
                i += 1;
            };
            out_body = rename_free(&out_body, v, &fresh);
            taken.insert(fresh.clone());
            out_vs.push(fresh);
        } else {
            taken.insert(v.clone());
            out_vs.push(v.clone());
        }
    }
    (out_vs, out_body)
}

/// Rename free occurrences of `from` to `to` (capture-free because `to` is
/// chosen fresh).
fn rename_free(f: &Formula, from: &str, to: &str) -> Formula {
    match f {
        Formula::True => Formula::True,
        Formula::False => Formula::False,
        Formula::Compare(l, op, r) => {
            Formula::Compare(l.rename_var(from, to), *op, r.rename_var(from, to))
        }
        Formula::Pred(name, args) => Formula::Pred(
            name.clone(),
            args.iter()
                .map(|a| match a {
                    ArgTerm::Var(v) if v == from => ArgTerm::Var(to.to_string()),
                    other => other.clone(),
                })
                .collect(),
        ),
        Formula::Not(x) => Formula::not(rename_free(x, from, to)),
        Formula::And(fs) => Formula::And(fs.iter().map(|x| rename_free(x, from, to)).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(|x| rename_free(x, from, to)).collect()),
        Formula::Implies(a, b) => Formula::Implies(
            Box::new(rename_free(a, from, to)),
            Box::new(rename_free(b, from, to)),
        ),
        Formula::Iff(a, b) => Formula::Iff(
            Box::new(rename_free(a, from, to)),
            Box::new(rename_free(b, from, to)),
        ),
        Formula::Exists(vs, body) => {
            if vs.iter().any(|v| v == from) {
                f.clone()
            } else {
                Formula::Exists(vs.clone(), Box::new(rename_free(body, from, to)))
            }
        }
        Formula::Forall(vs, body) => {
            if vs.iter().any(|v| v == from) {
                f.clone()
            } else {
                Formula::Forall(vs.clone(), Box::new(rename_free(body, from, to)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_logic::parse_formula;

    fn interval_rel(lo: i64, hi: i64) -> GeneralizedRelation {
        GeneralizedRelation::from_raw(
            1,
            vec![
                RawAtom::new(Term::cst(rat(lo as i128, 1)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat(hi as i128, 1))),
            ],
        )
    }

    /// The paper's triangle 0 ≤ x ≤ y ≤ 10 as relation R.
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

    fn run(db: &Database, src: &str) -> QueryResult {
        eval(db, &parse_formula(src).unwrap()).unwrap()
    }

    #[test]
    fn atom_only() {
        let db = Database::new(Schema::new());
        let q = run(&db, "x < 1/2");
        assert_eq!(q.columns, vec!["x"]);
        assert!(q.relation.contains_point(&[rat(0, 1)]));
        assert!(!q.relation.contains_point(&[rat(1, 1)]));
    }

    #[test]
    fn predicate_projection() {
        let db = triangle_db();
        // shadow of the triangle: ∃y. R(x,y) = [0,10]
        let q = run(&db, "exists y . R(x, y)");
        assert!(q.relation.contains_point(&[rat(10, 1)]));
        assert!(q.relation.contains_point(&[rat(0, 1)]));
        assert!(!q.relation.contains_point(&[rat(11, 1)]));
    }

    #[test]
    fn predicate_with_constant_arg() {
        let db = triangle_db();
        // the slice R(3, y): 3 ≤ y ≤ 10
        let q = run(&db, "R(3, y)");
        assert_eq!(q.columns, vec!["y"]);
        assert!(q.relation.contains_point(&[rat(5, 1)]));
        assert!(!q.relation.contains_point(&[rat(2, 1)]));
    }

    #[test]
    fn predicate_with_repeated_var() {
        let db = triangle_db();
        // the diagonal of the triangle: R(x,x) = [0,10]
        let q = run(&db, "R(x, x)");
        assert!(q.relation.contains_point(&[rat(7, 1)]));
        assert!(!q.relation.contains_point(&[rat(-1, 1)]));
    }

    #[test]
    fn negation_complement() {
        let db = triangle_db();
        let q = run(&db, "!R(x, y)");
        assert!(q.relation.contains_point(&[rat(5, 1), rat(2, 1)]));
        assert!(!q.relation.contains_point(&[rat(2, 1), rat(5, 1)]));
    }

    #[test]
    fn forall_as_negated_exists() {
        let db = triangle_db();
        // points x such that forall y. R(x,y) -> y >= 5: upper slice
        let q = run(&db, "forall y . (R(x, y) -> y >= 5)");
        // x in [5,10]: then R(x,y) forces y >= x >= 5. true.
        assert!(q.relation.contains_point(&[rat(7, 1)]));
        // x = 0: R(0,0) holds but 0 < 5. false.
        assert!(!q.relation.contains_point(&[rat(0, 1)]));
        // x outside [0,10]: vacuously true.
        assert!(q.relation.contains_point(&[rat(20, 1)]));
    }

    #[test]
    fn boolean_sentence() {
        let db = triangle_db();
        let q = run(&db, "exists x y . R(x, y)");
        assert_eq!(q.as_bool(), Some(true));
        let q = run(&db, "exists x . R(x, 11)");
        assert_eq!(q.as_bool(), Some(false));
        let q = run(&db, "forall x y . (R(x, y) -> x <= y)");
        assert_eq!(q.as_bool(), Some(true));
    }

    #[test]
    fn shadowed_quantifier() {
        let db = Database::new(Schema::new());
        // outer x free; inner x bound — must not interfere
        let q = run(&db, "x < 1 & exists x . x > 5");
        assert_eq!(q.columns, vec!["x"]);
        assert!(q.relation.contains_point(&[rat(0, 1)]));
        assert!(!q.relation.contains_point(&[rat(2, 1)]));
    }

    #[test]
    fn iff_and_implies() {
        let db = Database::new(Schema::new());
        let q = run(&db, "(x < 0) <-> (x < 0)");
        assert!(q.relation.equivalent(&GeneralizedRelation::universe(1)));
        let q = run(&db, "(x < 0) -> (x < 1)");
        assert!(q.relation.equivalent(&GeneralizedRelation::universe(1)));
        let q = run(&db, "(x < 1) -> (x < 0)");
        assert!(!q.relation.contains_point(&[rat(1, 2)]));
        assert!(q.relation.contains_point(&[rat(5, 1)]));
    }

    #[test]
    fn unknown_predicate_is_error() {
        let db = Database::new(Schema::new());
        let f = parse_formula("Zap(x)").unwrap();
        assert!(matches!(eval(&db, &f), Err(EvalError::UnknownPredicate(_))));
    }

    #[test]
    fn arity_mismatch_is_error() {
        let db = triangle_db();
        let f = parse_formula("R(x)").unwrap();
        assert!(matches!(
            eval(&db, &f),
            Err(EvalError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn linear_atom_rejected() {
        let db = Database::new(Schema::new());
        let f = parse_formula("x + y < 1").unwrap();
        assert!(matches!(eval(&db, &f), Err(EvalError::NotDenseOrder(_))));
    }

    #[test]
    fn between_query_dense_density() {
        // "there is a point strictly between any two S points" — true over
        // any S because Q is dense: ∀x y.(S(x) & S(y) & x < y -> ∃z.(x < z & z < y))
        let db = Database::new(Schema::new().with("S", 1)).with("S", interval_rel(0, 4));
        let q = run(
            &db,
            "forall x y . ((S(x) & S(y) & x < y) -> exists z . (x < z & z < y))",
        );
        assert_eq!(q.as_bool(), Some(true));
    }

    #[test]
    fn output_closed_form_is_reusable() {
        // Feed an output relation back in as an input: closure in action.
        let db = triangle_db();
        let shadow = run(&db, "exists y . R(x, y)").relation.narrow(1);
        let db2 = Database::new(Schema::new().with("S", 1)).with("S", shadow);
        let q = run(&db2, "S(x) & x > 5");
        assert!(q.relation.contains_point(&[rat(6, 1)]));
        assert!(!q.relation.contains_point(&[rat(2, 1)]));
    }
}
