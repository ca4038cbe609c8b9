//! A composable constraint-relational-algebra plan layer.
//!
//! \[KKR90\]'s closed-form evaluation result is algebraic at heart: the
//! relational algebra operators — union, difference, selection, projection,
//! join, rename — all preserve finite representability over dense-order
//! constraints. This module exposes them as an explicit *plan* IR with an
//! executor and a small optimizer, the shape a real engine exposes to
//! query frontends (the FO evaluator of `dco-fo` is the calculus face of
//! the same algebra).
//!
//! ```
//! use dco_core::prelude::*;
//! use dco_core::algebra::Plan;
//!
//! let tri = GeneralizedRelation::from_raw(2, vec![
//!     RawAtom::new(Term::cst(rat(0, 1)), RawOp::Le, Term::var(0)),
//!     RawAtom::new(Term::var(0), RawOp::Le, Term::var(1)),
//!     RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(10, 1))),
//! ]);
//! let db = Database::new(Schema::new().with("R", 2)).with("R", tri);
//!
//! // σ_{x0 < 5} (π_{x0} R)
//! let plan = Plan::scan("R")
//!     .project(&[0])
//!     .select(RawAtom::new(Term::var(0), RawOp::Lt, Term::cst(rat(5, 1))));
//! let out = plan.execute(&db).unwrap();
//! assert!(out.contains_point(&[rat(1, 1)]));
//! assert!(!out.contains_point(&[rat(6, 1)]));
//! ```

use crate::atom::RawAtom;
use crate::database::Database;
use crate::relation::GeneralizedRelation;
use std::fmt;

/// A relational-algebra plan over named base relations.
#[derive(Clone, Debug, PartialEq)]
pub enum Plan {
    /// Scan a named relation.
    Scan(String),
    /// A constant relation.
    Literal(GeneralizedRelation),
    /// Selection σ: conjoin a constraint.
    Select(Box<Plan>, RawAtom),
    /// Projection π onto the listed columns (in the given order).
    Project(Box<Plan>, Vec<u32>),
    /// Cartesian product ×.
    Product(Box<Plan>, Box<Plan>),
    /// Equi-join on column pairs `(left, right)`.
    Join(Box<Plan>, Box<Plan>, Vec<(u32, u32)>),
    /// Union ∪.
    Union(Box<Plan>, Box<Plan>),
    /// Difference ∖.
    Difference(Box<Plan>, Box<Plan>),
    /// Complement wrt `Q^k`.
    Complement(Box<Plan>),
}

/// Errors during plan execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Unknown base relation.
    UnknownRelation(String),
    /// Arity mismatch between operands or column references.
    Arity(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownRelation(n) => write!(f, "unknown relation {n}"),
            PlanError::Arity(m) => write!(f, "arity error: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl Plan {
    /// Scan a base relation.
    pub fn scan(name: &str) -> Plan {
        Plan::Scan(name.to_string())
    }

    /// σ: filter by a constraint.
    pub fn select(self, atom: RawAtom) -> Plan {
        Plan::Select(Box::new(self), atom)
    }

    /// π: keep the listed columns (order defines the output layout).
    pub fn project(self, cols: &[u32]) -> Plan {
        Plan::Project(Box::new(self), cols.to_vec())
    }

    /// ×: cartesian product.
    pub fn product(self, other: Plan) -> Plan {
        Plan::Product(Box::new(self), Box::new(other))
    }

    /// Equi-join on `(left column, right column)` pairs.
    pub fn join_on(self, other: Plan, on: &[(u32, u32)]) -> Plan {
        Plan::Join(Box::new(self), Box::new(other), on.to_vec())
    }

    /// ∪.
    pub fn union(self, other: Plan) -> Plan {
        Plan::Union(Box::new(self), Box::new(other))
    }

    /// ∖.
    pub fn difference(self, other: Plan) -> Plan {
        Plan::Difference(Box::new(self), Box::new(other))
    }

    /// ¬ (wrt the full space of the operand's arity).
    pub fn complement(self) -> Plan {
        Plan::Complement(Box::new(self))
    }

    /// Execute against a database.
    pub fn execute(&self, db: &Database) -> Result<GeneralizedRelation, PlanError> {
        match self {
            Plan::Scan(name) => db
                .get(name)
                .cloned()
                .ok_or_else(|| PlanError::UnknownRelation(name.clone())),
            Plan::Literal(rel) => Ok(rel.clone()),
            Plan::Select(input, atom) => {
                let rel = input.execute(db)?;
                for v in atom.lhs.as_var().into_iter().chain(atom.rhs.as_var()) {
                    if v.0 >= rel.arity() {
                        return Err(PlanError::Arity(format!(
                            "selection column {} out of arity {}",
                            v.0,
                            rel.arity()
                        )));
                    }
                }
                Ok(rel.select(*atom))
            }
            Plan::Project(input, cols) => {
                let rel = input.execute(db)?;
                let arity = rel.arity();
                for &c in cols {
                    if c >= arity {
                        return Err(PlanError::Arity(format!(
                            "projection column {c} out of arity {arity}"
                        )));
                    }
                }
                Ok(rel.project_onto(cols))
            }
            Plan::Product(l, r) => {
                let lrel = l.execute(db)?;
                let rrel = r.execute(db)?;
                Ok(lrel.product(&rrel))
            }
            Plan::Join(l, r, on) => {
                let lrel = l.execute(db)?;
                let rrel = r.execute(db)?;
                let la = lrel.arity();
                let mut prod = lrel.product(&rrel);
                for &(lc, rc) in on {
                    if lc >= la || rc >= rrel.arity() {
                        return Err(PlanError::Arity(format!(
                            "join columns ({lc}, {rc}) out of arities ({la}, {})",
                            rrel.arity()
                        )));
                    }
                    prod = prod.select(RawAtom::new(
                        crate::atom::Term::var(lc),
                        crate::atom::RawOp::Eq,
                        crate::atom::Term::var(la + rc),
                    ));
                }
                Ok(prod)
            }
            Plan::Union(l, r) => {
                let lrel = l.execute(db)?;
                let rrel = r.execute(db)?;
                if lrel.arity() != rrel.arity() {
                    return Err(PlanError::Arity("union of different arities".to_string()));
                }
                Ok(lrel.union(&rrel))
            }
            Plan::Difference(l, r) => {
                let lrel = l.execute(db)?;
                let rrel = r.execute(db)?;
                if lrel.arity() != rrel.arity() {
                    return Err(PlanError::Arity(
                        "difference of different arities".to_string(),
                    ));
                }
                Ok(lrel.subtract(&rrel))
            }
            Plan::Complement(input) => Ok(input.execute(db)?.complement()),
        }
    }

    /// Push selections toward the leaves (below projections they commute
    /// with, through unions, into both product branches when the columns
    /// allow). A small but real optimizer — the experiments don't depend
    /// on it; tests assert plan equivalence.
    pub fn optimize(self) -> Plan {
        match self {
            Plan::Select(input, atom) => {
                let input = input.optimize();
                match input {
                    Plan::Union(l, r) => Plan::Union(
                        Box::new(Plan::Select(l, atom).optimize()),
                        Box::new(Plan::Select(r, atom).optimize()),
                    ),
                    Plan::Product(l, r) => {
                        // if the atom touches only left columns, push left
                        let l_arity = l.arity_hint();
                        let max_col = atom
                            .lhs
                            .as_var()
                            .into_iter()
                            .chain(atom.rhs.as_var())
                            .map(|v| v.0)
                            .max();
                        match (l_arity, max_col) {
                            (Some(la), Some(mc)) if mc < la => {
                                Plan::Product(Box::new(Plan::Select(l, atom).optimize()), r)
                            }
                            _ => Plan::Select(Box::new(Plan::Product(l, r)), atom),
                        }
                    }
                    other => Plan::Select(Box::new(other), atom),
                }
            }
            Plan::Project(input, cols) => Plan::Project(Box::new(input.optimize()), cols),
            Plan::Product(l, r) => Plan::Product(Box::new(l.optimize()), Box::new(r.optimize())),
            Plan::Join(l, r, on) => Plan::Join(Box::new(l.optimize()), Box::new(r.optimize()), on),
            Plan::Union(l, r) => Plan::Union(Box::new(l.optimize()), Box::new(r.optimize())),
            Plan::Difference(l, r) => {
                Plan::Difference(Box::new(l.optimize()), Box::new(r.optimize()))
            }
            Plan::Complement(p) => Plan::Complement(Box::new(p.optimize())),
            leaf => leaf,
        }
    }

    /// Propagate estimated disjunct counts bottom-up through the plan.
    ///
    /// `scan_rows` supplies the estimate for each base relation (the
    /// statistics layer of `dco-analysis` derives these from its per-
    /// relation summaries; `1.0` is a safe default for unknown names).
    /// The propagation rules mirror the DNF algebra: selection keeps at
    /// most the input width, product/join multiply widths, union adds,
    /// difference and complement can split tuples and are charged a
    /// conservative blowup.
    pub fn estimated_rows(&self, scan_rows: &impl Fn(&str) -> f64) -> f64 {
        match self {
            Plan::Scan(name) => scan_rows(name).max(0.0),
            Plan::Literal(rel) => rel.len() as f64,
            Plan::Select(p, _) => (p.estimated_rows(scan_rows) * 0.5).max(1.0),
            Plan::Project(p, _) => p.estimated_rows(scan_rows),
            Plan::Product(l, r) | Plan::Join(l, r, _) => {
                let base = l.estimated_rows(scan_rows) * r.estimated_rows(scan_rows);
                if let Plan::Join(..) = self {
                    (base * 0.5).max(1.0)
                } else {
                    base
                }
            }
            Plan::Union(l, r) => l.estimated_rows(scan_rows) + r.estimated_rows(scan_rows),
            Plan::Difference(l, r) => {
                l.estimated_rows(scan_rows) * (1.0 + r.estimated_rows(scan_rows))
            }
            Plan::Complement(p) => {
                let n = p.estimated_rows(scan_rows);
                (n * n + 1.0).min(1e12)
            }
        }
    }

    /// Cost-based optimization: selection pushdown (as [`Plan::optimize`])
    /// plus cost-driven re-association of product chains. Association of
    /// `×` preserves the flat column layout, so `(a × b) × c` may be
    /// rebracketed freely; the greedy pass repeatedly merges the adjacent
    /// pair with the smallest estimated intermediate, which minimizes the
    /// width of the DNF intermediates the executor materializes. Join
    /// nodes are left alone (their `on` columns are offsets into the left
    /// operand and would need rewriting).
    pub fn optimize_costed(self, scan_rows: &impl Fn(&str) -> f64) -> Plan {
        let plan = self.optimize();
        plan.reassociate_products(scan_rows)
    }

    fn reassociate_products(self, scan_rows: &impl Fn(&str) -> f64) -> Plan {
        match self {
            Plan::Product(..) => {
                let mut chain = Vec::new();
                self.flatten_products(&mut chain);
                let mut chain: Vec<Plan> = chain
                    .into_iter()
                    .map(|p| p.reassociate_products(scan_rows))
                    .collect();
                // Greedy adjacent-pair merge: always combine the cheapest
                // neighbouring pair first. Adjacency keeps column order.
                while chain.len() > 1 {
                    let mut best = 0;
                    let mut best_cost = f64::INFINITY;
                    for i in 0..chain.len() - 1 {
                        let cost = chain[i].estimated_rows(scan_rows)
                            * chain[i + 1].estimated_rows(scan_rows);
                        if cost < best_cost {
                            best_cost = cost;
                            best = i;
                        }
                    }
                    let right = chain.remove(best + 1);
                    let left = std::mem::replace(&mut chain[best], Plan::Scan(String::new()));
                    chain[best] = Plan::Product(Box::new(left), Box::new(right));
                }
                match chain.pop() {
                    Some(p) => p,
                    None => Plan::Literal(GeneralizedRelation::universe(0)),
                }
            }
            Plan::Select(p, atom) => {
                Plan::Select(Box::new(p.reassociate_products(scan_rows)), atom)
            }
            Plan::Project(p, cols) => {
                Plan::Project(Box::new(p.reassociate_products(scan_rows)), cols)
            }
            Plan::Join(l, r, on) => Plan::Join(
                Box::new(l.reassociate_products(scan_rows)),
                Box::new(r.reassociate_products(scan_rows)),
                on,
            ),
            Plan::Union(l, r) => Plan::Union(
                Box::new(l.reassociate_products(scan_rows)),
                Box::new(r.reassociate_products(scan_rows)),
            ),
            Plan::Difference(l, r) => Plan::Difference(
                Box::new(l.reassociate_products(scan_rows)),
                Box::new(r.reassociate_products(scan_rows)),
            ),
            Plan::Complement(p) => Plan::Complement(Box::new(p.reassociate_products(scan_rows))),
            leaf => leaf,
        }
    }

    /// Flatten a left/right-nested product tree into its ordered factor
    /// list (column order is the in-order traversal, which re-association
    /// must preserve).
    fn flatten_products(self, out: &mut Vec<Plan>) {
        match self {
            Plan::Product(l, r) => {
                l.flatten_products(out);
                r.flatten_products(out);
            }
            other => out.push(other),
        }
    }

    /// Static arity, when derivable without a database.
    fn arity_hint(&self) -> Option<u32> {
        match self {
            Plan::Scan(_) => None,
            Plan::Literal(rel) => Some(rel.arity()),
            Plan::Select(p, _) => p.arity_hint(),
            Plan::Project(_, cols) => Some(cols.len() as u32),
            Plan::Product(l, r) => Some(l.arity_hint()? + r.arity_hint()?),
            Plan::Join(l, r, _) => Some(l.arity_hint()? + r.arity_hint()?),
            Plan::Union(l, r) | Plan::Difference(l, r) => l.arity_hint().or(r.arity_hint()),
            Plan::Complement(p) => p.arity_hint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{RawOp, Term};
    use crate::database::Schema;
    use crate::rational::rat;

    fn db() -> Database {
        let tri = GeneralizedRelation::from_raw(
            2,
            vec![
                RawAtom::new(Term::cst(rat(0, 1)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Le, Term::var(1)),
                RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(10, 1))),
            ],
        );
        let s = GeneralizedRelation::from_points(1, vec![vec![rat(1, 1)], vec![rat(7, 1)]]);
        Database::new(Schema::new().with("R", 2).with("S", 1))
            .with("R", tri)
            .with("S", s)
    }

    #[test]
    fn scan_select() {
        let out = Plan::scan("R")
            .select(RawAtom::new(Term::var(0), RawOp::Gt, Term::cst(rat(5, 1))))
            .execute(&db())
            .unwrap();
        assert!(out.contains_point(&[rat(6, 1), rat(7, 1)]));
        assert!(!out.contains_point(&[rat(1, 1), rat(2, 1)]));
    }

    #[test]
    fn projection_reorders_columns() {
        // π_{1,0} R: swapped triangle
        let out = Plan::scan("R").project(&[1, 0]).execute(&db()).unwrap();
        assert_eq!(out.arity(), 2);
        assert!(out.contains_point(&[rat(2, 1), rat(1, 1)]));
        assert!(!out.contains_point(&[rat(1, 1), rat(2, 1)]));
    }

    #[test]
    fn projection_single_column_is_shadow() {
        let out = Plan::scan("R").project(&[0]).execute(&db()).unwrap();
        assert_eq!(out.arity(), 1);
        assert!(out.contains_point(&[rat(10, 1)]));
        assert!(!out.contains_point(&[rat(11, 1)]));
    }

    #[test]
    fn join_matches_fo_semantics() {
        // R ⋈_{R.1 = S.0}: pairs of the triangle whose y is in S
        let out = Plan::scan("R")
            .join_on(Plan::scan("S"), &[(1, 0)])
            .execute(&db())
            .unwrap();
        assert_eq!(out.arity(), 3);
        assert!(out.contains_point(&[rat(0, 1), rat(1, 1), rat(1, 1)]));
        assert!(out.contains_point(&[rat(3, 1), rat(7, 1), rat(7, 1)]));
        assert!(!out.contains_point(&[rat(0, 1), rat(2, 1), rat(2, 1)]));
    }

    #[test]
    fn union_difference_complement() {
        let s_all = Plan::scan("S");
        let low =
            Plan::scan("S").select(RawAtom::new(Term::var(0), RawOp::Lt, Term::cst(rat(5, 1))));
        let diff = s_all.clone().difference(low).execute(&db()).unwrap();
        assert!(diff.contains_point(&[rat(7, 1)]));
        assert!(!diff.contains_point(&[rat(1, 1)]));
        let comp = s_all.complement().execute(&db()).unwrap();
        assert!(comp.contains_point(&[rat(2, 1)]));
        assert!(!comp.contains_point(&[rat(1, 1)]));
    }

    #[test]
    fn errors_reported() {
        assert!(matches!(
            Plan::scan("Zap").execute(&db()),
            Err(PlanError::UnknownRelation(_))
        ));
        assert!(matches!(
            Plan::scan("S").project(&[3]).execute(&db()),
            Err(PlanError::Arity(_))
        ));
        assert!(matches!(
            Plan::scan("S").union(Plan::scan("R")).execute(&db()),
            Err(PlanError::Arity(_))
        ));
    }

    #[test]
    fn optimizer_preserves_semantics() {
        let plans = vec![
            Plan::scan("R")
                .product(Plan::Literal(GeneralizedRelation::universe(1)))
                .select(RawAtom::new(Term::var(0), RawOp::Lt, Term::cst(rat(5, 1)))),
            Plan::scan("S").union(Plan::scan("S")).select(RawAtom::new(
                Term::var(0),
                RawOp::Gt,
                Term::cst(rat(2, 1)),
            )),
            Plan::scan("R").project(&[0]).select(RawAtom::new(
                Term::var(0),
                RawOp::Le,
                Term::cst(rat(3, 1)),
            )),
        ];
        for plan in plans {
            let base = plan.execute(&db()).unwrap();
            let opt = plan.clone().optimize().execute(&db()).unwrap();
            assert!(opt.equivalent(&base), "optimize changed {plan:?}");
        }
    }

    #[test]
    fn optimizer_pushes_into_products() {
        // The literal has known arity, so selection on col 0 (< left arity
        // is unknown for scans) — use Literal on the left for the hint.
        let lit = Plan::Literal(GeneralizedRelation::universe(1));
        let plan = lit.product(Plan::scan("S")).select(RawAtom::new(
            Term::var(0),
            RawOp::Lt,
            Term::cst(rat(0, 1)),
        ));
        let opt = plan.clone().optimize();
        // selection sits inside the product now
        match &opt {
            Plan::Product(l, _) => assert!(matches!(**l, Plan::Select(..))),
            other => panic!("expected pushed product, got {other:?}"),
        }
        assert!(opt
            .execute(&db())
            .unwrap()
            .equivalent(&plan.execute(&db()).unwrap()));
    }
}
