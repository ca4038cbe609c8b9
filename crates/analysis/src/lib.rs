//! # dco-analysis — static query analysis for dense-order constraint databases
//!
//! A multi-pass analyzer that runs *before* evaluation and reports
//! everything it finds as [`Diagnostic`]s instead of panicking or failing
//! mid-evaluation. Five passes:
//!
//! 1. **Schema conformance** ([`schema_check`]) — predicates exist, arities
//!    match the [`Schema`] and are consistent across a program, comparisons
//!    stay in the dense-order fragment (DCO101–DCO104).
//! 2. **Safety** ([`safety`]) — every head variable and negated-literal
//!    variable of a Datalog¬ rule is range-restricted (DCO201, DCO202).
//! 3. **Stratifiability** ([`depgraph`]) — the predicate dependency graph
//!    has no cycle through negation; violations report the full cycle path
//!    (DCO301).
//! 4. **Static unsatisfiability** ([`unsat`]) — rule bodies and conjunctions
//!    whose order constraints are infeasible over a dense domain (strict
//!    cycles, contradictory bounds) are flagged before any fixpoint work
//!    (DCO401, DCO402).
//! 5. **Cost bounding** ([`cost`]) — quantifier alternation depth and
//!    predicted cell-decomposition size are checked against a
//!    [`CostBudget`] (DCO501, DCO502).
//!
//! [`preflight_formula`] runs these passes on a query and refuses it when
//! any error-severity diagnostic is present; the store calls it before
//! every evaluation, ahead of the [`planner`] and the guarded evaluator.
//!
//! ```
//! use dco_analysis::{analyze_program, has_errors, AnalysisOptions};
//! use dco_logic::parse_program;
//!
//! let p = parse_program("p(x, y) :- e(x, y), x < y, y < x.\n").unwrap();
//! let diags = analyze_program(&p, None, &AnalysisOptions::default());
//! assert!(has_errors(&diags)); // DCO401: the body can never be satisfied
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod cost;
pub mod depgraph;
pub mod diagnostic;
pub mod explain;
pub mod planner;
pub mod safety;
pub mod schema_check;
pub mod stats;
pub mod unsat;

pub use cost::CostBudget;
pub use depgraph::{DepGraph, Polarity};
pub use diagnostic::{has_errors, Diagnostic, Severity, Span};
pub use explain::{PlanNode, QueryPlan};
pub use planner::{estimate_formula, plan_formula, plan_rule};
pub use stats::{ColumnStats, DbStats, RelStats};
pub use unsat::OrderSystem;

use dco_core::prelude::Schema;
use dco_logic::datalog::{Literal, Program};
use dco_logic::Formula;

/// Knobs for the analyzer. The defaults make every structural problem an
/// error (the strictest useful setting); evaluators relax individual
/// severities to match their own semantics — e.g. the inflationary engine
/// does not need stratification, so [`AnalysisOptions::inflationary`]
/// downgrades DCO301 to a warning.
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Report unstratifiable programs (DCO301) as errors rather than
    /// warnings.
    pub require_stratified: bool,
    /// Report non-dense-order comparisons (DCO104) as errors rather than
    /// warnings.
    pub require_dense_order: bool,
    /// Report statically-unsatisfiable rule bodies (DCO401) as errors
    /// rather than warnings.
    pub dead_rule_is_error: bool,
    /// Cost limits (DCO501, DCO502).
    pub budget: CostBudget,
}

impl Default for AnalysisOptions {
    fn default() -> AnalysisOptions {
        AnalysisOptions {
            require_stratified: true,
            require_dense_order: true,
            dead_rule_is_error: true,
            budget: CostBudget::default(),
        }
    }
}

impl AnalysisOptions {
    /// Options for the inflationary engine: unstratifiable programs and
    /// dead rules are warnings (the engine tolerates both).
    pub fn inflationary() -> AnalysisOptions {
        AnalysisOptions {
            require_stratified: false,
            dead_rule_is_error: false,
            ..AnalysisOptions::default()
        }
    }

    fn severity(&self, as_error: bool) -> Severity {
        if as_error {
            Severity::Error
        } else {
            Severity::Warning
        }
    }
}

/// Run every formula-level pass: schema conformance, dead-subformula
/// detection, and cost bounding.
pub fn analyze_formula(
    formula: &Formula,
    schema: Option<&Schema>,
    options: &AnalysisOptions,
) -> Vec<Diagnostic> {
    let mut diags = schema_check::check_formula(formula, schema, options.require_dense_order);
    diags.extend(unsat::check_formula(formula));
    diags.extend(cost::check_formula(formula, &options.budget));
    diags
}

/// Formula preflight for serving layers (the store's query server runs
/// this on every request before spending evaluation budget): run every
/// formula-level pass and partition the outcome. `Ok` carries the
/// non-blocking findings (warnings, notes); `Err` carries only the
/// blocking errors.
pub fn preflight_formula(
    formula: &Formula,
    schema: Option<&Schema>,
    options: &AnalysisOptions,
) -> Result<Vec<Diagnostic>, Vec<Diagnostic>> {
    let diags = analyze_formula(formula, schema, options);
    if has_errors(&diags) {
        Err(diags
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect())
    } else {
        Ok(diags)
    }
}

/// Run every program-level pass: schema conformance, safety,
/// stratifiability, per-rule unsatisfiability, and cost bounding.
pub fn analyze_program(
    program: &Program,
    schema: Option<&Schema>,
    options: &AnalysisOptions,
) -> Vec<Diagnostic> {
    let mut diags = schema_check::check_program(program, schema, options.require_dense_order);
    diags.extend(safety::check_program(program));

    let graph = DepGraph::of_program(program);
    if let Some(cycle) = graph.negative_cycle() {
        diags.push(Diagnostic {
            severity: options.severity(options.require_stratified),
            code: "DCO301",
            message: format!(
                "program is not stratifiable: negation cycle {}",
                cycle.join(" -> ")
            ),
            span: negative_edge_span(program, &cycle),
        });
    }

    for rule in &program.rules {
        if unsat::rule_body_is_unsat(rule) {
            diags.push(Diagnostic {
                severity: options.severity(options.dead_rule_is_error),
                code: "DCO401",
                message: format!(
                    "rule for `{}` has a statically unsatisfiable body and \
                     can never fire",
                    rule.head
                ),
                span: Span::of_rule(rule),
            });
        }
        if let Some(d) = cost::check_rule(rule, &options.budget) {
            diags.push(d);
        }
    }
    diags
}

/// The span of the rule providing the negative edge `cycle[0] → cycle[1]`.
fn negative_edge_span(program: &Program, cycle: &[String]) -> Span {
    let (Some(head), Some(dep)) = (cycle.first(), cycle.get(1)) else {
        return Span::Unknown;
    };
    for rule in &program.rules {
        if rule.head != *head {
            continue;
        }
        let negates = rule
            .body
            .iter()
            .any(|l| matches!(l, Literal::Neg(name, _) if name == dep));
        if negates {
            return Span::of_rule(rule);
        }
    }
    Span::Unknown
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use dco_logic::{parse_formula, parse_program};

    fn schema() -> Schema {
        Schema::new().with("e", 2).with("v", 1)
    }

    #[test]
    fn clean_program_has_no_diagnostics() {
        let p = parse_program(
            "tc(x, y) :- e(x, y).\n\
             tc(x, y) :- tc(x, z), e(z, y).\n",
        )
        .unwrap();
        assert!(analyze_program(&p, Some(&schema()), &AnalysisOptions::default()).is_empty());
    }

    #[test]
    fn arity_mismatch_is_rejected_with_span() {
        let p = parse_program("p(x) :- e(x, x, x).\n").unwrap();
        let diags = analyze_program(&p, Some(&schema()), &AnalysisOptions::default());
        assert!(has_errors(&diags));
        assert_eq!(diags[0].code, "DCO102");
        assert_eq!(diags[0].span, Span::Line(1));
    }

    #[test]
    fn unsafe_rule_is_rejected() {
        let p = parse_program("p(x, y) :- v(x), y < x.\n").unwrap();
        let diags = analyze_program(&p, Some(&schema()), &AnalysisOptions::default());
        assert!(has_errors(&diags));
        assert!(diags.iter().any(|d| d.code == "DCO201"));
    }

    #[test]
    fn unstratifiable_program_reports_full_cycle() {
        let p = parse_program(
            "a(x) :- b(x).\n\
             b(x) :- c(x).\n\
             c(x) :- v(x), not a(x).\n",
        )
        .unwrap();
        let diags = analyze_program(&p, Some(&schema()), &AnalysisOptions::default());
        let d = diags.iter().find(|d| d.code == "DCO301").unwrap();
        assert_eq!(d.severity, Severity::Error);
        for pred in ["a", "b", "c"] {
            assert!(d.message.contains(pred), "missing {pred}: {}", d.message);
        }
        assert_eq!(d.span, Span::Line(3), "the rule with the negation");
        // Inflationary options downgrade to a warning.
        let relaxed = analyze_program(&p, Some(&schema()), &AnalysisOptions::inflationary());
        assert!(!has_errors(&relaxed));
        assert!(relaxed.iter().any(|d| d.code == "DCO301"));
    }

    #[test]
    fn unsat_body_is_rejected_with_line() {
        let p = parse_program(
            "p(x, y) :- e(x, y).\n\
             p(x, y) :- e(x, y), x < y, y < x.\n",
        )
        .unwrap();
        let diags = analyze_program(&p, Some(&schema()), &AnalysisOptions::default());
        assert!(has_errors(&diags));
        let d = diags.iter().find(|d| d.code == "DCO401").unwrap();
        assert_eq!(d.span, Span::Line(2));
    }

    #[test]
    fn formula_passes_compose() {
        let f = parse_formula("exists y . (e(x, y) & x < y)").unwrap();
        assert!(analyze_formula(&f, Some(&schema()), &AnalysisOptions::default()).is_empty());
        let bad = parse_formula("missing(x) & x < 1 & x > 2").unwrap();
        let diags = analyze_formula(&bad, Some(&schema()), &AnalysisOptions::default());
        assert!(diags.iter().any(|d| d.code == "DCO101"));
        assert!(diags.iter().any(|d| d.code == "DCO402"));
    }

    #[test]
    fn cost_budget_rejects_formula() {
        let f = parse_formula("exists x . forall y . exists z . x < z").unwrap();
        let opts = AnalysisOptions {
            budget: CostBudget {
                max_quantifier_alternation: 2,
                ..CostBudget::default()
            },
            ..AnalysisOptions::default()
        };
        let diags = analyze_formula(&f, None, &opts);
        assert!(has_errors(&diags));
        assert_eq!(diags[0].code, "DCO501");
    }
}
