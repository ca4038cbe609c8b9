//! Static cost estimation.
//!
//! Closed-form evaluation of a dense-order query is exponential in the
//! quantifier structure, and its intermediate relations live in the cell
//! decomposition of Q^n induced by the constants of the query and database:
//! with `k` distinct constants there are `2k+1` order cells per axis, so at
//! most `(2k+1)^n` cells over `n` variables. The estimator bounds both the
//! quantifier alternation depth and this predicted cell count against a
//! configurable [`CostBudget`]; queries over budget are rejected before any
//! evaluation work is spent.

use crate::diagnostic::{Diagnostic, Span};
use dco_core::guard::GuardLimits;
use dco_core::prelude::Rational;
use dco_logic::datalog::{Literal, Rule};
use dco_logic::{ArgTerm, Formula, LinExpr};
use std::collections::BTreeSet;

/// Limits a query must stay within to pass the preflight (DCO501,
/// DCO502).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostBudget {
    /// Maximum quantifier alternation depth (number of maximal ∃/∀ groups
    /// along any path, with negation flipping the quantifier kind).
    pub max_quantifier_alternation: usize,
    /// Maximum predicted cell-decomposition size `(2k+1)^n`.
    pub max_predicted_cells: u128,
}

impl Default for CostBudget {
    fn default() -> CostBudget {
        CostBudget {
            max_quantifier_alternation: 32,
            max_predicted_cells: 1_000_000_000_000,
        }
    }
}

/// Quantifier alternation depth: the longest chain of quantifier groups of
/// alternating kind along any root-to-leaf path. `∃x∃y.φ` counts 1,
/// `∃x∀y∃z.φ` counts 3. Negation flips the effective kind (`¬∃ ≡ ∀¬`), as
/// does the antecedent of an implication.
pub fn alternation_depth(formula: &Formula) -> usize {
    depth(formula, true, None)
}

fn depth(f: &Formula, positive: bool, last_exists: Option<bool>) -> usize {
    match f {
        Formula::True | Formula::False | Formula::Compare(..) | Formula::Pred(..) => 0,
        Formula::Not(g) => depth(g, !positive, last_exists),
        Formula::And(fs) | Formula::Or(fs) => fs
            .iter()
            .map(|g| depth(g, positive, last_exists))
            .max()
            .unwrap_or(0),
        Formula::Implies(a, b) => {
            depth(a, !positive, last_exists).max(depth(b, positive, last_exists))
        }
        // φ ↔ ψ expands to two implications: each side occurs under both
        // polarities.
        Formula::Iff(a, b) => [a, b]
            .iter()
            .flat_map(|g| {
                [
                    depth(g, positive, last_exists),
                    depth(g, !positive, last_exists),
                ]
            })
            .max()
            .unwrap_or(0),
        Formula::Exists(_, g) | Formula::Forall(_, g) => {
            let exists = matches!(f, Formula::Exists(..)) == positive;
            let step = if last_exists == Some(exists) { 0 } else { 1 };
            step + depth(g, positive, Some(exists))
        }
    }
}

fn constants_of_expr(e: &LinExpr, out: &mut BTreeSet<Rational>) {
    if !e.constant.is_zero() {
        out.insert(e.constant);
    }
}

/// Distinct rational constants a formula mentions (comparison constant
/// terms and constant predicate arguments).
pub fn constants_of_formula(formula: &Formula) -> BTreeSet<Rational> {
    let mut out = BTreeSet::new();
    formula.walk(&mut |f| match f {
        Formula::Compare(l, _, r) => {
            constants_of_expr(l, &mut out);
            constants_of_expr(r, &mut out);
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
    out
}

/// All variable names of a formula, free and bound.
pub fn all_vars(formula: &Formula) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    formula.walk(&mut |f| match f {
        Formula::Compare(l, _, r) => {
            out.extend(l.vars().chain(r.vars()).map(|s| s.to_string()));
        }
        Formula::Pred(_, args) => {
            for a in args {
                if let ArgTerm::Var(v) = a {
                    out.insert(v.clone());
                }
            }
        }
        Formula::Exists(vs, _) | Formula::Forall(vs, _) => {
            out.extend(vs.iter().cloned());
        }
        _ => {}
    });
    out
}

/// Predicted cell-decomposition size: `(2k+1)^n` for `k` constants and `n`
/// variables, saturating at `u128::MAX`.
pub fn predicted_cells(constants: usize, vars: usize) -> u128 {
    let base = 2 * constants as u128 + 1;
    let Ok(exp) = u32::try_from(vars) else {
        return u128::MAX;
    };
    base.saturating_pow(exp)
}

/// Default runtime guard budgets derived from the static cost estimate —
/// the bridge between the *predictive* cost pass and the *enforcing* guard
/// layer (`dco_core::guard`).
///
/// The tuple budget is a generous multiple of the predicted cell count:
/// the cell-decomposition path materializes at most `cells` disjuncts per
/// operation, and the syntactic paths normally far fewer, so an evaluation
/// that charges past the multiple is genuinely off the predicted envelope
/// rather than merely unlucky. The atom budget scales from the tuple
/// budget (normalized dense-order tuples hold O(k²) atoms, and the bench
/// workloads sit well under 16 per disjunct). Budgets are floored so tiny
/// queries keep headroom for intermediate blowup, and capped so a
/// saturated estimate still yields an *enforceable* guard instead of an
/// unlimited one.
///
/// No deadline is set here: budgets are deterministic across machines,
/// wall clocks are not, so deadlines are left to callers that own one
/// (request handlers, the bench harness).
pub fn suggested_limits(constants: usize, vars: usize) -> GuardLimits {
    limits_for_cells(predicted_cells(constants, vars))
}

fn limits_for_cells(cells: u128) -> GuardLimits {
    let tuples = u64::try_from(cells.saturating_mul(64))
        .unwrap_or(u64::MAX)
        .clamp(100_000, 50_000_000);
    let atoms = tuples.saturating_mul(16);
    GuardLimits::none()
        .with_max_tuples(tuples)
        .with_max_atoms(atoms)
}

/// Cell-decomposition bailout work the kernel pays for the complements a
/// formula forces. Every `Not` node complements its operand's relation;
/// `Implies(a, b)` rewrites to `¬a ∨ b`; `Iff` complements both sides;
/// `Forall` is `¬∃¬` — two complements. When the operand's box structure
/// defeats the syntactic complement path, the kernel falls back to full
/// cell decomposition, whose size is `(2m+1)^n` cells refined by the
/// `fubini(n)` ordered-partition factor — that bailout is what each
/// complement is charged here, so budgets stop under-estimating negated
/// subformulas.
pub fn complement_charge(formula: &Formula) -> u128 {
    let mut total: u128 = 0;
    formula.walk(&mut |f| match f {
        Formula::Not(g) => total = total.saturating_add(bailout_cells(g)),
        Formula::Implies(a, _) => total = total.saturating_add(bailout_cells(a)),
        Formula::Iff(a, b) => {
            total = total
                .saturating_add(bailout_cells(a))
                .saturating_add(bailout_cells(b));
        }
        Formula::Forall(_, g) => {
            total = total
                .saturating_add(bailout_cells(g))
                .saturating_add(bailout_cells(f));
        }
        _ => {}
    });
    total
}

/// The kernel's complement-bailout estimate for one subformula: cell count
/// over its own constants and variables times the Fubini refinement
/// factor, floored at the kernel's minimum decomposition work.
fn bailout_cells(f: &Formula) -> u128 {
    let m = constants_of_formula(f).len();
    let n = all_vars(f).len().max(1);
    let fub = dco_core::cell::fubini(n).map_or(u128::MAX, |v| v as u128);
    predicted_cells(m, n).saturating_mul(fub).max(256)
}

/// [`suggested_limits`] computed from a formula and the database constants
/// it will run against, including the complement charge for its negated
/// subformulas.
pub fn suggested_limits_for_formula(
    formula: &Formula,
    db_constants: impl IntoIterator<Item = Rational>,
) -> GuardLimits {
    let mut constants = constants_of_formula(formula);
    constants.extend(db_constants);
    let cells = predicted_cells(constants.len(), all_vars(formula).len())
        .saturating_add(complement_charge(formula));
    limits_for_cells(cells)
}

/// Estimate-derived guard budgets: the statistics-driven refinement of
/// [`suggested_limits_for_formula`]. The planner's cardinality estimate
/// sizes the tuple budget directly; the heuristic cell-count budget stays
/// as a floor so an under-estimate can never *tighten* guards below what
/// the un-statted path would grant.
pub fn suggested_limits_with_stats(
    formula: &Formula,
    stats: &crate::stats::DbStats,
    db_constants: impl IntoIterator<Item = Rational>,
) -> GuardLimits {
    let heuristic = suggested_limits_for_formula(formula, db_constants);
    let est = crate::planner::estimate_formula(formula, stats);
    let est_tuples = u64::try_from((est as u128).saturating_mul(1024))
        .unwrap_or(u64::MAX)
        .clamp(100_000, 50_000_000);
    let tuples = heuristic
        .max_tuples
        .map_or(est_tuples, |t| t.max(est_tuples));
    GuardLimits::none()
        .with_max_tuples(tuples)
        .with_max_atoms(tuples.saturating_mul(16))
}

/// Project a wall-clock completion time from a planner cost estimate
/// and a calibrated nanoseconds-per-unit rate (the server maintains an
/// EWMA of `elapsed_ns / estimate` over completed queries). A rate of
/// zero means "not yet calibrated" and projects zero — admission
/// control then cannot shed on cost, only on queue depth, which is the
/// safe cold-start default (no false rejections before data exists).
pub fn projected_eval_time(cost_units: f64, ns_per_unit: u64) -> std::time::Duration {
    if ns_per_unit == 0 || !cost_units.is_finite() || cost_units <= 0.0 {
        return std::time::Duration::ZERO;
    }
    let ns = (cost_units * ns_per_unit as f64).min(u64::MAX as f64) as u64;
    std::time::Duration::from_nanos(ns)
}

/// Bound a formula's alternation depth and predicted cells (DCO501/DCO502).
pub fn check_formula(formula: &Formula, budget: &CostBudget) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let alt = alternation_depth(formula);
    if alt > budget.max_quantifier_alternation {
        diags.push(Diagnostic::error(
            "DCO501",
            format!(
                "quantifier alternation depth {alt} exceeds the budget of {}",
                budget.max_quantifier_alternation
            ),
            Span::Unknown,
        ));
    }
    let cells = predicted_cells(constants_of_formula(formula).len(), all_vars(formula).len());
    if cells > budget.max_predicted_cells {
        diags.push(Diagnostic::error(
            "DCO502",
            format!(
                "predicted cell-decomposition size {cells} exceeds the budget \
                 of {}",
                budget.max_predicted_cells
            ),
            Span::Unknown,
        ));
    }
    diags
}

/// Bound a rule's predicted cells (rule bodies are quantifier-free, so only
/// DCO502 applies).
pub fn check_rule(rule: &Rule, budget: &CostBudget) -> Option<Diagnostic> {
    let mut vars: BTreeSet<String> = rule.head_vars.iter().cloned().collect();
    let mut consts: BTreeSet<Rational> = BTreeSet::new();
    for lit in &rule.body {
        vars.extend(lit.vars());
        match lit {
            Literal::Pos(_, args) | Literal::Neg(_, args) => {
                for a in args {
                    if let ArgTerm::Const(c) = a {
                        consts.insert(*c);
                    }
                }
            }
            Literal::Constraint(l, _, r) => {
                constants_of_expr(l, &mut consts);
                constants_of_expr(r, &mut consts);
            }
        }
    }
    let cells = predicted_cells(consts.len(), vars.len());
    if cells > budget.max_predicted_cells {
        return Some(Diagnostic::error(
            "DCO502",
            format!(
                "rule for `{}` predicts cell-decomposition size {cells}, over \
                 the budget of {}",
                rule.head, budget.max_predicted_cells
            ),
            Span::of_rule(rule),
        ));
    }
    None
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use dco_logic::parse_formula;

    #[test]
    fn alternation_ignores_same_kind_blocks() {
        let f = parse_formula("exists x . exists y . x < y").unwrap();
        assert_eq!(alternation_depth(&f), 1);
        let g = parse_formula("exists x . forall y . exists z . x < z").unwrap();
        assert_eq!(alternation_depth(&g), 3);
    }

    #[test]
    fn negation_flips_quantifier_kind() {
        // ¬∃y inside ∃x is effectively ∃x∀y: depth 2.
        let f = parse_formula("exists x . !(exists y . y < x)").unwrap();
        assert_eq!(alternation_depth(&f), 2);
        // ¬∀y inside ∃x collapses to ∃x∃y: depth 1.
        let g = parse_formula("exists x . !(forall y . y < x)").unwrap();
        assert_eq!(alternation_depth(&g), 1);
    }

    #[test]
    fn predicted_cells_saturate() {
        assert_eq!(predicted_cells(1, 2), 9);
        assert_eq!(predicted_cells(0, 10), 1);
        assert_eq!(predicted_cells(u32::MAX as usize, 200), u128::MAX);
    }

    #[test]
    fn over_budget_is_rejected() {
        let f = parse_formula("exists x . forall y . exists z . x < z").unwrap();
        let tight = CostBudget {
            max_quantifier_alternation: 2,
            ..CostBudget::default()
        };
        let diags = check_formula(&f, &tight);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "DCO501");
        assert!(check_formula(&f, &CostBudget::default()).is_empty());
    }

    #[test]
    fn negated_subformulas_raise_budgets() {
        let pos = parse_formula("x < 1 & y < 2 & z < 3").unwrap();
        let neg = parse_formula("!(x < 1 & y < 2 & z < 3)").unwrap();
        assert_eq!(complement_charge(&pos), 0);
        assert!(complement_charge(&neg) >= 256);
        let lp = suggested_limits_for_formula(&pos, []);
        let ln = suggested_limits_for_formula(&neg, []);
        assert!(
            ln.max_tuples > lp.max_tuples,
            "complement must be charged: {:?} vs {:?}",
            ln.max_tuples,
            lp.max_tuples
        );
        // Forall pays the double complement of its ¬∃¬ rewrite.
        let fa = parse_formula("forall y . (x < 1 & y < 2 & z < 3)").unwrap();
        assert!(complement_charge(&fa) > complement_charge(&neg));
    }

    #[test]
    fn stats_limits_never_tighter_than_heuristic() {
        let f = parse_formula("e(x, y)").unwrap();
        let heuristic = suggested_limits_for_formula(&f, []);
        let statted = suggested_limits_with_stats(&f, &crate::stats::DbStats::default(), []);
        assert!(statted.max_tuples >= heuristic.max_tuples);
    }

    #[test]
    fn cell_budget_rejection() {
        // 3 constants, 3 variables: (2·3+1)³ = 343 cells.
        let f = parse_formula("x < 1 & y < 2 & z < 3").unwrap();
        let tight = CostBudget {
            max_predicted_cells: 100,
            ..CostBudget::default()
        };
        let diags = check_formula(&f, &tight);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "DCO502");
    }
}
