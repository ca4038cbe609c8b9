//! Linear generalized relations: finite unions of linear tuples.
//!
//! The FO+ analogue of `dco-core`'s [`GeneralizedRelation`]: a DNF of linear
//! constraints, closed under the full algebra (union, intersection,
//! complement, projection via Fourier–Motzkin). Conversion to and from the
//! dense-order representation is provided for the order-definable fragment,
//! which is how the cross-language experiments compare FO and FO+ answers.

use crate::atom::{LinAtom, NormalizedAtom};
use crate::tuple::LinTuple;
use dco_core::par::{par_map, par_map_when, should_parallelize};
use dco_core::prelude::{Atom, GeneralizedRelation, GeneralizedTuple, Rational, Term};

use std::fmt;

/// A finite union of satisfiable linear tuples of fixed arity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LinRelation {
    arity: u32,
    tuples: Vec<LinTuple>,
}

impl LinRelation {
    /// The empty relation.
    pub fn empty(arity: u32) -> LinRelation {
        LinRelation {
            arity,
            tuples: Vec::new(),
        }
    }

    /// All of `Q^arity`.
    pub fn universe(arity: u32) -> LinRelation {
        LinRelation {
            arity,
            tuples: vec![LinTuple::top(arity)],
        }
    }

    /// Build from tuples, dropping unsatisfiable ones.
    pub fn from_tuples(arity: u32, tuples: impl IntoIterator<Item = LinTuple>) -> LinRelation {
        let mut r = LinRelation::empty(arity);
        for t in tuples {
            r.insert(t);
        }
        r
    }

    /// Number of columns.
    pub fn arity(&self) -> u32 {
        self.arity
    }

    /// The disjuncts.
    pub fn tuples(&self) -> &[LinTuple] {
        &self.tuples
    }

    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Denotes the empty set?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Representation size (atom count).
    pub fn size(&self) -> usize {
        self.tuples.iter().map(|t| t.len().max(1)).sum()
    }

    /// Insert a tuple if satisfiable, pruning by syntactic subsumption.
    pub fn insert(&mut self, t: LinTuple) {
        assert_eq!(t.arity(), self.arity);
        if t.is_satisfiable() {
            self.insert_satisfiable(t);
        }
    }

    /// Insert a tuple already known satisfiable, pruning disjuncts subsumed
    /// in either direction (syntactic check only — see
    /// [`LinTuple::subsumes_syntactic`]). Equal tuples subsume each other,
    /// so this also deduplicates.
    pub fn insert_satisfiable(&mut self, t: LinTuple) {
        debug_assert_eq!(t.arity(), self.arity);
        if self.tuples.iter().any(|u| u.subsumes_syntactic(&t)) {
            return;
        }
        self.tuples.retain(|u| !t.subsumes_syntactic(u));
        self.tuples.push(t);
    }

    /// Point membership.
    pub fn contains_point(&self, point: &[Rational]) -> bool {
        self.tuples.iter().any(|t| t.contains_point(point))
    }

    /// Union.
    pub fn union(&self, other: &LinRelation) -> LinRelation {
        assert_eq!(self.arity, other.arity);
        let mut r = self.clone();
        for t in &other.tuples {
            r.insert(t.clone());
        }
        r
    }

    /// Intersection. The pairwise conjoin-prune-decide work runs in
    /// parallel over `self`'s disjuncts when the pair count clears the
    /// configured threshold; the subsumption merge stays sequential and
    /// order-preserving.
    pub fn intersect(&self, other: &LinRelation) -> LinRelation {
        assert_eq!(self.arity, other.arity);
        let pairs = self.tuples.len().saturating_mul(other.tuples.len());
        let chunks = par_map_when(should_parallelize(pairs), &self.tuples, |a| {
            other
                .tuples
                .iter()
                // Box-disjoint pairs conjoin to an unsatisfiable tuple the
                // downstream filter would discard anyway; skip them before
                // paying for conjoin + Fourier–Motzkin.
                .filter(|b| !a.box_disjoint(b))
                .map(|b| a.conjoin(b).pruned())
                .filter(|t| t.is_satisfiable())
                .collect::<Vec<_>>()
        });
        let mut r = LinRelation::empty(self.arity);
        for t in chunks.into_iter().flatten() {
            r.insert_satisfiable(t);
        }
        r
    }

    /// Complement via incremental negation-distribution with satisfiability
    /// pruning (the linear counterpart of the dense-order complement).
    pub fn complement(&self) -> LinRelation {
        let mut acc: Vec<LinTuple> = vec![LinTuple::top(self.arity)];
        for t in &self.tuples {
            if t.is_empty() {
                return LinRelation::empty(self.arity);
            }
            let alts: Vec<LinAtom> = t.atoms().iter().flat_map(|a| a.negate()).collect();
            // Parallel distribution with satisfiability filtering, then a
            // sequential order-preserving subsumption merge (which also
            // deduplicates).
            let work = acc.len().saturating_mul(alts.len());
            let sat_cands = par_map_when(should_parallelize(work), &acc, |partial| {
                alts.iter()
                    .filter_map(|alt| {
                        let mut cand = partial.clone();
                        cand.push(alt.clone());
                        let cand = cand.pruned();
                        cand.is_satisfiable().then_some(cand)
                    })
                    .collect::<Vec<_>>()
            });
            let mut next: Vec<LinTuple> = Vec::new();
            for cand in sat_cands.into_iter().flatten() {
                if next.iter().any(|u| u.subsumes_syntactic(&cand)) {
                    continue;
                }
                next.retain(|u| !cand.subsumes_syntactic(u));
                next.push(cand);
            }
            acc = next;
            if acc.is_empty() {
                break;
            }
        }
        LinRelation {
            arity: self.arity,
            tuples: acc,
        }
    }

    /// Difference.
    pub fn difference(&self, other: &LinRelation) -> LinRelation {
        self.intersect(&other.complement())
    }

    /// Existential projection of one column (Fourier–Motzkin per disjunct;
    /// `∃` distributes over `∨`, so disjuncts eliminate independently and
    /// in parallel).
    pub fn project_out(&self, j: usize) -> LinRelation {
        let eliminated = par_map(&self.tuples, |t| {
            t.eliminate(j).filter(|e| e.is_satisfiable())
        });
        let mut r = LinRelation::empty(self.arity);
        for e in eliminated.into_iter().flatten() {
            r.insert_satisfiable(e);
        }
        r
    }

    /// Widen to a larger arity.
    pub fn widen(&self, new_arity: u32) -> LinRelation {
        LinRelation {
            arity: new_arity,
            tuples: self.tuples.iter().map(|t| t.widen(new_arity)).collect(),
        }
    }

    /// Rename columns into a target arity.
    pub fn rename(&self, new_arity: u32, f: impl Fn(u32) -> u32 + Copy) -> LinRelation {
        LinRelation::from_tuples(
            new_arity,
            self.tuples.iter().map(|t| t.rename(new_arity, f)),
        )
    }

    /// Drop trailing columns (which must be unconstrained — i.e. zero
    /// coefficients everywhere).
    pub fn narrow(&self, new_arity: u32) -> LinRelation {
        assert!(new_arity <= self.arity);
        let mut out = LinRelation::empty(new_arity);
        for t in &self.tuples {
            let atoms: Vec<LinAtom> = t
                .atoms()
                .iter()
                .map(|a| {
                    for j in new_arity as usize..self.arity as usize {
                        assert!(!a.mentions(j), "narrow would drop constrained column {j}");
                    }
                    a.rename(new_arity, |i| i)
                })
                .collect();
            out.insert(LinTuple::from_atoms(new_arity, atoms));
        }
        out
    }

    /// Inclusion `self ⊆ other`: syntactic single-disjunct cover first,
    /// complement-based refutation only for the leftover disjuncts.
    pub fn is_subset(&self, other: &LinRelation) -> bool {
        let leftover: Vec<LinTuple> = self
            .tuples
            .iter()
            .filter(|t| !other.tuples.iter().any(|u| u.subsumes_syntactic(t)))
            .cloned()
            .collect();
        if leftover.is_empty() {
            return true;
        }
        let rest = LinRelation {
            arity: self.arity,
            tuples: leftover,
        };
        rest.difference(other).is_empty()
    }

    /// Semantic equivalence.
    pub fn equivalent(&self, other: &LinRelation) -> bool {
        self.is_subset(other) && other.is_subset(self)
    }

    /// Convert a dense-order relation into linear form (always possible).
    pub fn from_dense(rel: &GeneralizedRelation) -> LinRelation {
        let arity = rel.arity();
        let term_expr = |t: &Term, coeffs: &mut Vec<Rational>, k: &mut Rational, sign: i64| match t
        {
            Term::Var(v) => {
                let c = coeffs[v.index()] + Rational::from_int(sign);
                coeffs[v.index()] = c;
            }
            Term::Const(c) => {
                *k = *k + (c * &Rational::from_int(sign));
            }
        };
        let mut out = LinRelation::empty(arity);
        for t in rel.tuples() {
            let mut atoms = Vec::new();
            for a in t.atoms() {
                // lhs - rhs (op) 0
                let mut coeffs = vec![Rational::ZERO; arity as usize];
                let mut k = Rational::ZERO;
                let (lhs, rhs) = (a.lhs(), a.rhs());
                term_expr(&lhs, &mut coeffs, &mut k, 1);
                term_expr(&rhs, &mut coeffs, &mut k, -1);
                match LinAtom::normalize(coeffs, k, a.op()) {
                    NormalizedAtom::True => {}
                    NormalizedAtom::False => {
                        atoms.clear();
                        break;
                    }
                    NormalizedAtom::Atom(la) => atoms.push(la),
                }
            }
            out.insert(LinTuple::from_atoms(arity, atoms));
        }
        out
    }

    /// Convert to a dense-order relation, if every atom is an order atom
    /// (coefficients in {0, ±1}, at most one variable per side). Returns
    /// `None` when genuine arithmetic is present.
    pub fn to_dense(&self) -> Option<GeneralizedRelation> {
        let mut out = GeneralizedRelation::empty(self.arity);
        for t in &self.tuples {
            let mut atoms: Vec<Atom> = Vec::new();
            for a in t.atoms() {
                if !a.is_order_atom() {
                    return None;
                }
                let nz: Vec<(usize, &Rational)> = a
                    .coeffs()
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| !c.is_zero())
                    .collect();
                let (lhs, rhs) = match nz.as_slice() {
                    [(i, c)] => {
                        // c·x_i + k (op) 0
                        if c.is_positive() {
                            // x_i op -k
                            (Term::var(*i as u32), Term::Const(-*a.constant()))
                        } else {
                            // -x_i + k op 0 → k op x_i... careful with Eq
                            (Term::Const(*a.constant()), Term::var(*i as u32))
                        }
                    }
                    [(i, ci), (j, _)] => {
                        if ci.is_positive() {
                            (Term::var(*i as u32), Term::var(*j as u32))
                        } else {
                            (Term::var(*j as u32), Term::var(*i as u32))
                        }
                    }
                    _ => return None,
                };
                match Atom::normalized(lhs, a.op(), rhs) {
                    None => {
                        atoms.clear();
                        break;
                    }
                    Some(v) => atoms.extend(v),
                }
            }
            out.insert(GeneralizedTuple::from_atoms(self.arity, atoms));
        }
        Some(out)
    }
}

impl fmt::Display for LinRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.tuples.is_empty() {
            return write!(f, "⊥/{}", self.arity);
        }
        let parts: Vec<String> = self.tuples.iter().map(|t| format!("({t})")).collect();
        write!(f, "{}", parts.join(" | "))
    }
}

// Re-export Var for callers that index columns.
pub use dco_core::prelude::Var as Column;

#[cfg(test)]
mod tests {
    use super::*;
    use dco_core::prelude::{rat, CompOp, RawAtom, RawOp};

    fn atom(coeffs: &[i64], k: i64, op: CompOp) -> LinAtom {
        LinAtom::new(
            coeffs.iter().map(|&c| rat(c as i128, 1)).collect(),
            rat(k as i128, 1),
            op,
        )
    }

    fn pt(v: &[i64]) -> Vec<Rational> {
        v.iter().map(|&x| rat(x as i128, 1)).collect()
    }

    fn halfplane() -> LinRelation {
        // x + y <= 1
        LinRelation::from_tuples(
            2,
            vec![LinTuple::from_atoms(2, vec![atom(&[1, 1], -1, CompOp::Le)])],
        )
    }

    #[test]
    fn complement_of_halfplane() {
        let h = halfplane();
        let c = h.complement();
        assert!(c.contains_point(&pt(&[1, 1])));
        assert!(!c.contains_point(&pt(&[0, 0])));
        assert!(c.complement().equivalent(&h));
    }

    #[test]
    fn projection_of_simplex() {
        // x >= 0, y >= 0, x + y <= 1; project y: [0, 1]
        let s = LinRelation::from_tuples(
            2,
            vec![LinTuple::from_atoms(
                2,
                vec![
                    atom(&[-1, 0], 0, CompOp::Le),
                    atom(&[0, -1], 0, CompOp::Le),
                    atom(&[1, 1], -1, CompOp::Le),
                ],
            )],
        );
        let p = s.project_out(1);
        assert!(p.contains_point(&pt(&[1, 99])));
        assert!(!p.contains_point(&pt(&[2, 0])));
    }

    #[test]
    fn inclusion_and_equivalence() {
        // {x+y <= 1} ⊆ {x+y <= 2}
        let small = halfplane();
        let big = LinRelation::from_tuples(
            2,
            vec![LinTuple::from_atoms(2, vec![atom(&[1, 1], -2, CompOp::Le)])],
        );
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
    }

    #[test]
    fn dense_roundtrip() {
        let tri = GeneralizedRelation::from_raw(
            2,
            vec![
                RawAtom::new(Term::cst(rat(0, 1)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Le, Term::var(1)),
                RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(10, 1))),
            ],
        );
        let lin = LinRelation::from_dense(&tri);
        assert!(lin.contains_point(&pt(&[1, 2])));
        assert!(!lin.contains_point(&pt(&[2, 1])));
        let back = lin.to_dense().expect("order fragment");
        assert!(back.equivalent(&tri));
    }

    #[test]
    fn to_dense_rejects_arithmetic() {
        let h = halfplane();
        assert!(h.to_dense().is_none());
    }

    #[test]
    fn diagonal_strip_requires_addition() {
        // |x - y| < 1 as two linear atoms; a genuinely linear (non-order) set?
        // x - y < 1 and y - x < 1 — these ARE order-expressible? No: x - y < 1
        // has constant 1 with two variables — not an order atom.
        let strip = LinRelation::from_tuples(
            2,
            vec![LinTuple::from_atoms(
                2,
                vec![
                    atom(&[1, -1], -1, CompOp::Lt),
                    atom(&[-1, 1], -1, CompOp::Lt),
                ],
            )],
        );
        assert!(strip.contains_point(&pt(&[5, 5])));
        assert!(!strip.contains_point(&pt(&[0, 2])));
        assert!(strip.to_dense().is_none());
    }

    #[test]
    fn union_dedup() {
        let a = halfplane();
        let b = halfplane();
        assert_eq!(a.union(&b).len(), 1);
    }
}
