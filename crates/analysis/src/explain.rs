//! Typed EXPLAIN plans: the planner's view of a formula as a tree of
//! operator nodes, each carrying an estimated cardinality and — once an
//! evaluator has run the same shape — an actual one.
//!
//! The estimated side is produced here from [`DbStats`] alone (a pure
//! static analysis); the actual side is recorded by the FO evaluator
//! itself (`dco_fo::explain`), which, with plan capture on, notes the
//! width of every intermediate relation it builds. [`PlanNode::render`]
//! prints the tree with `est=` and `act=` on every line, which is also
//! the payload of the store's `EXPLAIN` protocol verb.

use crate::planner::estimate_formula;
use crate::stats::DbStats;
use dco_logic::Formula;
use std::fmt::Write as _;

/// One operator in an explained plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// Operator label (`and`, `exists`, `pred e`, …).
    pub label: String,
    /// Operator-specific detail (the atom text, bound variables, …).
    pub detail: String,
    /// Estimated result width in generalized tuples (DNF disjuncts).
    pub estimated: f64,
    /// Measured result width, when an evaluator has run this node.
    pub actual: Option<u64>,
    /// Child operators, in execution order.
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    /// A leaf/interior node with no actual measurement yet.
    pub fn new(label: impl Into<String>, detail: impl Into<String>, estimated: f64) -> PlanNode {
        PlanNode {
            label: label.into(),
            detail: detail.into(),
            estimated,
            actual: None,
            children: Vec::new(),
        }
    }

    /// Attach a measured cardinality.
    pub fn with_actual(mut self, actual: u64) -> PlanNode {
        self.actual = Some(actual);
        self
    }

    /// Attach children (execution order).
    pub fn with_children(mut self, children: Vec<PlanNode>) -> PlanNode {
        self.children = children;
        self
    }

    /// Render this subtree as an indented text plan. Every node prints
    /// both cardinalities: `est=<n>` and `act=<n|->`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let act = match self.actual {
            Some(n) => n.to_string(),
            None => "-".to_string(),
        };
        let _ = if self.detail.is_empty() {
            writeln!(out, "{} est={:.1} act={}", self.label, self.estimated, act)
        } else {
            writeln!(
                out,
                "{} {} est={:.1} act={}",
                self.label, self.detail, self.estimated, act
            )
        };
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }

    /// Total node count of the subtree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(PlanNode::size).sum::<usize>()
    }

    /// `true` when every node in the subtree carries a measured
    /// cardinality — the acceptance bar for engine-produced plans.
    pub fn fully_measured(&self) -> bool {
        self.actual.is_some() && self.children.iter().all(PlanNode::fully_measured)
    }
}

/// A complete explained query: the (possibly planner-reordered) formula
/// text plus the operator tree.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Display form of the formula the plan describes (post-planning).
    pub planned: String,
    /// Root operator.
    pub root: PlanNode,
}

impl QueryPlan {
    /// Render the whole plan: header line then the tree.
    pub fn render(&self) -> String {
        format!("plan: {}\n{}", self.planned, self.root.render())
    }

    /// Record the measured root cardinality on an estimates-only plan.
    /// Used by the slow-query log, which knows the final result width
    /// but did not re-run the evaluator to measure interior nodes.
    pub fn set_root_actual(&mut self, actual: u64) {
        self.root.actual = Some(actual);
    }
}

/// Build the estimates-only plan of `formula` under `stats` — no
/// evaluation, no actuals. The slow-query log sets the root's actual on
/// it; a full measured plan comes from `dco_fo::explain`.
pub fn explain_formula(formula: &Formula, stats: &DbStats) -> QueryPlan {
    QueryPlan {
        planned: formula.to_string(),
        root: node_of(formula, stats),
    }
}

/// The operator label and detail a plan node shows for the connective at
/// the root of `formula` — shared by the static plan and the evaluator's
/// recorded one, so the two always name nodes alike.
pub fn operator(formula: &Formula) -> (&'static str, String) {
    match formula {
        Formula::True => ("true", String::new()),
        Formula::False => ("false", String::new()),
        Formula::Compare(..) => ("compare", formula.to_string()),
        Formula::Pred(name, _) => ("pred", name.clone()),
        Formula::Not(_) => ("not", String::new()),
        Formula::And(_) => ("and", String::new()),
        Formula::Or(_) => ("or", String::new()),
        Formula::Implies(..) => ("implies", String::new()),
        Formula::Iff(..) => ("iff", String::new()),
        Formula::Exists(vs, _) => ("exists", vs.join(", ")),
        Formula::Forall(vs, _) => ("forall", vs.join(", ")),
    }
}

fn node_of(formula: &Formula, stats: &DbStats) -> PlanNode {
    let (label, detail) = operator(formula);
    let children = match formula {
        Formula::True | Formula::False | Formula::Compare(..) | Formula::Pred(..) => Vec::new(),
        Formula::Not(f) | Formula::Exists(_, f) | Formula::Forall(_, f) => vec![node_of(f, stats)],
        Formula::And(parts) | Formula::Or(parts) => {
            parts.iter().map(|p| node_of(p, stats)).collect()
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) => vec![node_of(a, stats), node_of(b, stats)],
    };
    PlanNode::new(label, detail, estimate_formula(formula, stats)).with_children(children)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use dco_logic::parse_formula;

    #[test]
    fn every_node_prints_both_cardinalities() {
        let f = parse_formula("exists y . (e(x, y) & not v(x))").unwrap();
        let plan = explain_formula(&f, &DbStats::default());
        let text = plan.render();
        for line in text.lines().skip(1) {
            assert!(line.contains("est="), "missing est: {line}");
            assert!(line.contains("act="), "missing act: {line}");
        }
        assert_eq!(plan.root.size(), 5); // exists / and / pred, not / pred
    }

    #[test]
    fn fully_measured_requires_every_node() {
        let mut n = PlanNode::new("and", "", 2.0)
            .with_children(vec![PlanNode::new("pred", "e", 1.0).with_actual(3)]);
        assert!(!n.fully_measured());
        n.actual = Some(4);
        assert!(n.fully_measured());
    }
}
