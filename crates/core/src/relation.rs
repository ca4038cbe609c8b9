//! Generalized relations: finite unions of generalized tuples.
//!
//! A *k-ary finitely representable relation* (a "generalized relation" in
//! \[KKR90\]) is a finite set of k-ary generalized tuples; it denotes the union
//! of their point sets — a quantifier-free DNF formula over dense-order
//! constraints. This module implements the closed-form relational algebra
//! the paper's query languages compile to: union, intersection, complement,
//! difference, column projection (`∃`, via dense-order QE), selection and
//! renaming. *Closure* — every operation returns another finitely
//! representable relation — is the property Theorem 3 of \[KKR90\] (recalled in
//! §4) rests on, and it holds constructively here.

use crate::atom::{Atom, RawAtom, Var};
use crate::guard::{probe_charge, ProbeSite};
use crate::par::{par_map, par_map_when, should_parallelize};
use crate::rational::Rational;
use crate::tuple::GeneralizedTuple;

use std::collections::BTreeSet;
use std::fmt;

/// A finite union of satisfiable generalized tuples of a fixed arity.
///
/// Invariants: every stored tuple is satisfiable; no stored tuple is
/// syntactically equal to another. (Semantic overlap between tuples is
/// permitted — the denotation is the union.)
#[derive(Clone, PartialEq, Eq)]
pub struct GeneralizedRelation {
    arity: u32,
    tuples: Vec<GeneralizedTuple>,
}

/// How [`GeneralizedRelation::complement`] will evaluate, as decided by
/// [`GeneralizedRelation::complement_strategy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComplementStrategy {
    /// Negation distribution with satisfiability and subsumption pruning.
    /// `bailout` is the intermediate width at which the pass abandons its
    /// work in favour of cell decomposition; `None` when the cell space is
    /// too large to enumerate, so distribution must run unbounded.
    Syntactic {
        /// Maximum intermediate disjunct count before the cell fallback.
        bailout: Option<usize>,
    },
}

impl GeneralizedRelation {
    /// The empty k-ary relation.
    pub fn empty(arity: u32) -> GeneralizedRelation {
        GeneralizedRelation {
            arity,
            tuples: Vec::new(),
        }
    }

    /// The full space `Q^k`.
    pub fn universe(arity: u32) -> GeneralizedRelation {
        GeneralizedRelation {
            arity,
            tuples: vec![GeneralizedTuple::top(arity)],
        }
    }

    /// Build from tuples, dropping unsatisfiable ones.
    pub fn from_tuples(
        arity: u32,
        tuples: impl IntoIterator<Item = GeneralizedTuple>,
    ) -> GeneralizedRelation {
        let mut r = GeneralizedRelation::empty(arity);
        for t in tuples {
            r.insert(t);
        }
        r
    }

    /// Build from tuples *without* subsumption pruning: only unsatisfiable
    /// tuples and exact syntactic duplicates are dropped. The result denotes
    /// the same set as [`GeneralizedRelation::from_tuples`] but may carry
    /// redundant disjuncts — used as the reference representation when
    /// testing that pruning is semantics-preserving.
    pub fn from_tuples_unpruned(
        arity: u32,
        tuples: impl IntoIterator<Item = GeneralizedTuple>,
    ) -> GeneralizedRelation {
        let mut r = GeneralizedRelation::empty(arity);
        for t in tuples {
            assert_eq!(t.arity(), arity, "insert arity mismatch");
            if t.is_satisfiable() && !r.tuples.contains(&t) {
                r.tuples.push(t);
            }
        }
        r
    }

    /// Build a single-"row" relation from raw atoms (a conjunction; `≠`
    /// splits into several tuples).
    ///
    /// [`GeneralizedTuple::from_raw`] already decided satisfiability of
    /// each `≠`-split alternative, so the tuples go straight to
    /// [`GeneralizedRelation::insert_satisfiable`] — satisfiability is
    /// decided exactly once per tuple on this path.
    pub fn from_raw(arity: u32, raws: impl IntoIterator<Item = RawAtom>) -> GeneralizedRelation {
        let mut r = GeneralizedRelation::empty(arity);
        for t in GeneralizedTuple::from_raw(arity, raws) {
            r.insert_satisfiable(t);
        }
        r
    }

    /// A finite classical relation embedded as equality constraints.
    pub fn from_points(
        arity: u32,
        points: impl IntoIterator<Item = Vec<Rational>>,
    ) -> GeneralizedRelation {
        GeneralizedRelation::from_tuples(
            arity,
            points.into_iter().map(|p| {
                assert_eq!(p.len(), arity as usize, "point arity mismatch");
                GeneralizedTuple::point(&p)
            }),
        )
    }

    /// Number of columns.
    pub fn arity(&self) -> u32 {
        self.arity
    }

    /// The generalized tuples (disjuncts).
    pub fn tuples(&self) -> &[GeneralizedTuple] {
        &self.tuples
    }

    /// Number of disjuncts in the representation.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation denotes the empty set.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Total number of atoms across all tuples — the representation size the
    /// paper's "standard encoding" measures data complexity against.
    pub fn size(&self) -> usize {
        self.tuples.iter().map(|t| t.len().max(1)).sum()
    }

    /// Insert a tuple if satisfiable, pruning by syntactic subsumption.
    ///
    /// This is the single normalization point all construction paths go
    /// through: unsatisfiable tuples are dropped here (or were already
    /// dropped by the caller, which then uses
    /// [`GeneralizedRelation::insert_satisfiable`] directly).
    pub fn insert(&mut self, t: GeneralizedTuple) {
        assert_eq!(t.arity(), self.arity, "insert arity mismatch");
        if t.is_satisfiable() {
            self.insert_satisfiable(t);
        }
    }

    /// Insert a tuple already known satisfiable, pruning subsumed disjuncts
    /// in both directions: the new tuple is dropped if an existing disjunct
    /// syntactically subsumes it (its atoms are a subset of the new
    /// tuple's, so it denotes a superset), and existing disjuncts the new
    /// tuple subsumes are removed. Equal tuples subsume each other, so this
    /// also deduplicates. Only the linear-time syntactic check is used —
    /// semantic subsumption stays in [`GeneralizedRelation::simplify`],
    /// where its cost is paid once instead of per insert.
    pub fn insert_satisfiable(&mut self, t: GeneralizedTuple) {
        debug_assert_eq!(t.arity(), self.arity, "insert arity mismatch");
        // Guard probe: every DNF insert is a materialization step, charged
        // against the tuple/atom budgets whether or not subsumption keeps it.
        probe_charge(ProbeSite::DnfInsert, 1, t.len() as u64);
        if self.tuples.iter().any(|u| u.subsumes_syntactic(&t)) {
            return;
        }
        self.tuples.retain(|u| !t.subsumes_syntactic(u));
        self.tuples.push(t);
    }

    /// Membership of a concrete point.
    pub fn contains_point(&self, point: &[Rational]) -> bool {
        self.tuples.iter().any(|t| t.contains_point(point))
    }

    /// Some point in the relation, if nonempty.
    pub fn witness(&self) -> Option<Vec<Rational>> {
        self.tuples.iter().find_map(|t| t.witness())
    }

    /// If every disjunct is a classical point tuple, the finite list of
    /// points (the "equality-constraint" fragment — finite relational
    /// databases embedded as in §2 of the paper).
    pub fn as_points(&self) -> Option<Vec<Vec<Rational>>> {
        self.tuples.iter().map(|t| t.as_point()).collect()
    }

    /// All constants mentioned in the representation.
    pub fn constants(&self) -> BTreeSet<Rational> {
        self.tuples.iter().flat_map(|t| t.constants()).collect()
    }

    /// Set union.
    pub fn union(&self, other: &GeneralizedRelation) -> GeneralizedRelation {
        assert_eq!(self.arity, other.arity, "union arity mismatch");
        let mut r = self.clone();
        for t in &other.tuples {
            r.insert(t.clone());
        }
        r
    }

    /// Set intersection (pairwise conjunction of disjuncts).
    ///
    /// The conjoin-and-decide work over all tuple pairs runs in parallel
    /// when the pair count clears the configured threshold; the subsumption
    /// merge is sequential and order-preserving, so the result is identical
    /// to the sequential one.
    pub fn intersect(&self, other: &GeneralizedRelation) -> GeneralizedRelation {
        assert_eq!(self.arity, other.arity, "intersect arity mismatch");
        let pairs = self.tuples.len().saturating_mul(other.tuples.len());
        let chunks = par_map_when(should_parallelize(pairs), &self.tuples, |a| {
            other
                .tuples
                .iter()
                // Bounding-box pre-filter: pairs with provably disjoint
                // boxes conjoin to an unsatisfiable tuple, which the
                // filter below would discard anyway — skipping them here
                // changes nothing structurally, it only avoids the work.
                .filter(|b| !a.box_disjoint(b))
                .map(|b| a.conjoin(b))
                .filter(|t| t.is_satisfiable())
                .collect::<Vec<_>>()
        });
        let mut r = GeneralizedRelation::empty(self.arity);
        for t in chunks.into_iter().flatten() {
            r.insert_satisfiable(t);
        }
        r
    }

    /// Complement with respect to `Q^k`.
    ///
    /// Two strategies (see [`GeneralizedRelation::complement_strategy`]):
    ///
    /// * **syntactic** — incremental distribution of the negated DNF
    ///   (`¬(t₁ ∨ … ∨ tₙ) = ¬t₁ ∧ … ∧ ¬tₙ`) with unsatisfiability and
    ///   subsumption pruning; compact output, but worst-case exponential in
    ///   the number of disjuncts (e.g. complements of large finite point
    ///   sets);
    /// * **cell-based** — enumerate the order-type cells over the
    ///   relation's constants and keep the non-members; linear in the cell
    ///   count, which is polynomial for fixed arity.
    ///
    /// Static estimates of the syntactic width are wildly pessimistic
    /// (subsumption pruning usually collapses the distribution), so rather
    /// than choosing up front from the estimate, the syntactic pass runs
    /// first with a *bailout budget* derived from the cell count: if its
    /// intermediate width ever exceeds the budget — the genuinely
    /// exponential cases, like complements of large point sets — it
    /// abandons the partial work and the cell path takes over. When the
    /// cell space itself is too large to enumerate, the syntactic pass
    /// runs unbounded (it is the only option).
    pub fn complement(&self) -> GeneralizedRelation {
        match self.complement_strategy() {
            ComplementStrategy::Syntactic { bailout } => {
                match self.complement_syntactic_bounded(bailout) {
                    Some(r) => r,
                    None => {
                        let space = crate::cell::CellSpace::for_relations(self.arity, [self]);
                        space.complement(self)
                    }
                }
            }
        }
    }

    /// The strategy [`GeneralizedRelation::complement`] will use, decided
    /// from the cell-count estimate `(2m+1)^k · fubini(k)` (`m` constants,
    /// arity `k`). Exposed so the choice itself is testable.
    pub fn complement_strategy(&self) -> ComplementStrategy {
        const CELL_LIMIT: usize = 50_000;
        let m = self.constants().len();
        let k = self.arity as usize;
        let cells_estimate = (2 * m + 1)
            .checked_pow(self.arity)
            .and_then(|c| crate::cell::fubini(k).and_then(|f| c.checked_mul(f)));
        match cells_estimate {
            Some(cells) if cells <= CELL_LIMIT => ComplementStrategy::Syntactic {
                // The cell path would produce at most `cells` disjuncts; a
                // syntactic intermediate wider than that (with slack) is
                // evidence of genuine blowup, not pruning lag.
                bailout: Some(cells.max(256)),
            },
            _ => ComplementStrategy::Syntactic { bailout: None },
        }
    }

    /// The syntactic complement (see [`GeneralizedRelation::complement`]).
    pub fn complement_syntactic(&self) -> GeneralizedRelation {
        self.complement_syntactic_bounded(None)
            .expect("unbounded syntactic complement cannot bail out")
    }

    /// Syntactic complement with an optional budget: returns `None` as soon
    /// as the intermediate disjunct count exceeds `bailout`, or the
    /// *cumulative projected work* — candidates examined times the width of
    /// the subsumption-pruning scan each must pass — exceeds a multiple of
    /// it, signalling the caller to fall back to cell decomposition. The
    /// width check alone is not enough: on dense many-constant relations
    /// the distribution can stay narrow (subsumption pruning collapses it)
    /// while a single step still performs orders of magnitude more
    /// subsumption and satisfiability work than the cell path would spend
    /// enumerating cells — so the cost check runs *before* each step, on
    /// its projection, not after the damage is done.
    fn complement_syntactic_bounded(&self, bailout: Option<usize>) -> Option<GeneralizedRelation> {
        let mut cost_seen: usize = 0;
        let mut acc: Vec<GeneralizedTuple> = vec![GeneralizedTuple::top(self.arity)];
        for t in &self.tuples {
            if t.is_empty() {
                // ¬⊤ = ⊥
                return Some(GeneralizedRelation::empty(self.arity));
            }
            // ¬t as a list of single-atom alternatives.
            let mut alts: Vec<Atom> = Vec::new();
            for a in t.atoms() {
                for alt in a.negate() {
                    // Each alternative from Atom::negate is a (possibly
                    // empty) conjunction; for {<,≤,=} negation it is always
                    // a single atom or trivially true/false.
                    match alt.len() {
                        0 => {
                            // trivially true alternative: ¬t is ⊤, this
                            // tuple excludes nothing new... actually a true
                            // alternative makes the whole disjunct true;
                            // cannot happen for satisfiable normalized t.
                            unreachable!("negation of a normalized atom is never trivially true");
                        }
                        1 => alts.push(alt[0]),
                        _ => unreachable!("negation of a normalized atom is at most one atom"),
                    }
                }
            }
            // Distribute in parallel (satisfiability filter per candidate),
            // then merge sequentially in the same candidate order as the
            // sequential nested loop — the result is order-identical.
            let work = acc.len().saturating_mul(alts.len());
            if let Some(limit) = bailout {
                // Projected step cost: `work` candidates, each scanned
                // against up to `acc.len()` kept disjuncts for subsumption.
                // Two units of that per would-be cell before the cell path
                // is declared cheaper — roughly equal-cost, since a cell
                // costs a membership scan of the whole relation while a
                // candidate costs one subsumption scan of the accumulator.
                cost_seen = cost_seen.saturating_add(work.saturating_mul(acc.len()));
                if cost_seen > limit.saturating_mul(2) {
                    return None;
                }
            }
            let sat_cands = par_map_when(should_parallelize(work), &acc, |partial| {
                alts.iter()
                    .filter_map(|alt| {
                        let mut cand = partial.clone();
                        cand.push(*alt);
                        cand.is_satisfiable().then_some(cand)
                    })
                    .collect::<Vec<_>>()
            });
            let mut next: Vec<GeneralizedTuple> = Vec::new();
            for cand in sat_cands.into_iter().flatten() {
                // Guard probe: the distribution's own merge loop bypasses
                // `insert_satisfiable`, so it charges the budgets itself.
                probe_charge(ProbeSite::DnfInsert, 1, cand.len() as u64);
                // Subsumption pruning within `next`.
                if next.iter().any(|u| u.subsumes(&cand)) {
                    continue;
                }
                next.retain(|u| !cand.subsumes(u));
                next.push(cand);
            }
            acc = next;
            if acc.is_empty() {
                return Some(GeneralizedRelation::empty(self.arity));
            }
            if let Some(limit) = bailout {
                if acc.len() > limit {
                    return None;
                }
            }
        }
        Some(GeneralizedRelation {
            arity: self.arity,
            tuples: acc,
        })
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &GeneralizedRelation) -> GeneralizedRelation {
        self.intersect(&other.complement())
    }

    /// Existential projection of one column: `∃x_v. self`, still expressed
    /// over the same arity (the eliminated column becomes unconstrained).
    /// `∃` distributes over `∨`, so each tuple is eliminated independently —
    /// this is the closed-form bottom-up evaluation step of \[KKR90\].
    pub fn project_out(&self, v: Var) -> GeneralizedRelation {
        let eliminated = par_map(&self.tuples, |t| {
            t.eliminate(v).filter(|e| e.is_satisfiable())
        });
        let mut r = GeneralizedRelation::empty(self.arity);
        for e in eliminated.into_iter().flatten() {
            r.insert_satisfiable(e);
        }
        r
    }

    /// Selection: conjoin a raw atom (may split on `≠`).
    pub fn select(&self, atom: RawAtom) -> GeneralizedRelation {
        let cond = GeneralizedRelation::from_raw(self.arity, [atom]);
        self.intersect(&cond)
    }

    /// Apply an injective column renaming into a (possibly larger) arity.
    pub fn rename(&self, new_arity: u32, f: impl Fn(Var) -> Var + Copy) -> GeneralizedRelation {
        GeneralizedRelation::from_tuples(
            new_arity,
            self.tuples.iter().map(|t| t.rename(new_arity, f)),
        )
    }

    /// Widen to a larger arity; new columns are unconstrained
    /// (cylindrification).
    pub fn widen(&self, new_arity: u32) -> GeneralizedRelation {
        GeneralizedRelation {
            arity: new_arity,
            tuples: self.tuples.iter().map(|t| t.widen(new_arity)).collect(),
        }
    }

    /// Drop trailing unconstrained columns down to `new_arity`. Panics if a
    /// dropped column is still mentioned.
    pub fn narrow(&self, new_arity: u32) -> GeneralizedRelation {
        assert!(new_arity <= self.arity);
        for t in &self.tuples {
            for v in t.mentioned_vars() {
                assert!(
                    v.0 < new_arity,
                    "narrow would drop constrained column {}",
                    v.0
                );
            }
        }
        GeneralizedRelation::from_tuples(
            new_arity,
            self.tuples
                .iter()
                .map(|t| GeneralizedTuple::from_atoms(new_arity, t.atoms().iter().copied())),
        )
    }

    /// Cartesian product: the result has arity `self.arity + other.arity`,
    /// with `other`'s columns shifted up.
    pub fn product(&self, other: &GeneralizedRelation) -> GeneralizedRelation {
        let arity = self.arity + other.arity;
        let shifted = other.rename(arity, |v| Var(v.0 + self.arity));
        self.widen(arity).intersect(&shifted)
    }

    /// Inclusion test `self ⊆ other`.
    ///
    /// Fast path first: any disjunct of `self` subsumed by a single
    /// disjunct of `other` is certainly included; only the leftover
    /// disjuncts (which could still be covered by a *union* of `other`'s
    /// disjuncts) fall back to the complement-based refutation
    /// `leftover ∩ ¬other = ∅`. For the common case where each disjunct
    /// has a single covering disjunct this skips the complement entirely.
    pub fn is_subset(&self, other: &GeneralizedRelation) -> bool {
        let covered = par_map(&self.tuples, |t| other.tuples.iter().any(|u| u.subsumes(t)));
        let leftover: Vec<GeneralizedTuple> = self
            .tuples
            .iter()
            .zip(&covered)
            .filter(|&(_, c)| !c)
            .map(|(t, _)| t.clone())
            .collect();
        if leftover.is_empty() {
            return true;
        }
        let rest = GeneralizedRelation {
            arity: self.arity,
            tuples: leftover,
        };
        rest.difference(other).is_empty()
    }

    /// Semantic equivalence of the denoted point sets.
    pub fn equivalent(&self, other: &GeneralizedRelation) -> bool {
        self.is_subset(other) && other.is_subset(self)
    }

    /// Simplify the representation: minimize each tuple (in parallel — each
    /// minimization is a batch of independent entailment refutations) and
    /// drop disjuncts subsumed by other disjuncts. The stable sort and the
    /// sequential kept-loop make the output deterministic regardless of
    /// thread count.
    pub fn simplify(&self) -> GeneralizedRelation {
        let work: usize = self.tuples.iter().map(|t| t.len()).sum();
        let mut tuples: Vec<GeneralizedTuple> =
            par_map_when(should_parallelize(work), &self.tuples, |t| t.simplify());
        tuples.sort_by_key(|t| t.len());
        let mut kept: Vec<GeneralizedTuple> = Vec::new();
        for t in tuples {
            if !kept.iter().any(|k| k.subsumes(&t)) {
                kept.push(t);
            }
        }
        GeneralizedRelation {
            arity: self.arity,
            tuples: kept,
        }
    }

    /// Map all constants through a strictly monotone function (an order
    /// automorphism of Q); returns the image relation.
    pub fn map_consts(&self, f: &impl Fn(&Rational) -> Rational) -> GeneralizedRelation {
        GeneralizedRelation::from_tuples(self.arity, self.tuples.iter().map(|t| t.map_consts(f)))
    }
}

impl fmt::Debug for GeneralizedRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.tuples.is_empty() {
            return write!(f, "⊥/{}", self.arity);
        }
        let parts: Vec<String> = self.tuples.iter().map(|t| format!("({})", t)).collect();
        write!(f, "{}", parts.join(" | "))
    }
}

impl fmt::Display for GeneralizedRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{RawOp, Term};
    use crate::rational::rat;

    fn v(i: u32) -> Term {
        Term::var(i)
    }

    fn c(n: i64) -> Term {
        Term::cst(rat(n as i128, 1))
    }

    fn raw(l: impl Into<Term>, op: RawOp, r: impl Into<Term>) -> RawAtom {
        RawAtom::new(l, op, r)
    }

    fn interval(lo: i64, hi: i64) -> GeneralizedRelation {
        GeneralizedRelation::from_raw(
            1,
            vec![raw(c(lo), RawOp::Le, v(0)), raw(v(0), RawOp::Le, c(hi))],
        )
    }

    #[test]
    fn empty_and_universe() {
        assert!(GeneralizedRelation::empty(2).is_empty());
        assert!(GeneralizedRelation::universe(2).contains_point(&[rat(1, 1), rat(-7, 2)]));
        assert!(GeneralizedRelation::universe(0).contains_point(&[]));
    }

    #[test]
    fn union_and_intersect() {
        let a = interval(0, 10);
        let b = interval(5, 20);
        let u = a.union(&b);
        assert!(u.contains_point(&[rat(1, 1)]));
        assert!(u.contains_point(&[rat(15, 1)]));
        assert!(!u.contains_point(&[rat(25, 1)]));
        let i = a.intersect(&b);
        assert!(i.contains_point(&[rat(7, 1)]));
        assert!(!i.contains_point(&[rat(1, 1)]));
        assert!(!i.contains_point(&[rat(15, 1)]));
    }

    #[test]
    fn disjoint_intersection_is_empty() {
        let a = interval(0, 1);
        let b = interval(5, 6);
        assert!(a.intersect(&b).is_empty());
    }

    #[test]
    fn complement_of_interval() {
        let a = interval(0, 10);
        let comp = a.complement();
        assert!(!comp.contains_point(&[rat(5, 1)]));
        assert!(comp.contains_point(&[rat(-1, 1)]));
        assert!(comp.contains_point(&[rat(11, 1)]));
        assert!(!comp.contains_point(&[rat(0, 1)]));
        assert!(!comp.contains_point(&[rat(10, 1)]));
        // Complement twice is the original set.
        assert!(comp.complement().equivalent(&a));
    }

    #[test]
    fn complement_of_empty_and_universe() {
        assert!(GeneralizedRelation::empty(1)
            .complement()
            .equivalent(&GeneralizedRelation::universe(1)));
        assert!(GeneralizedRelation::universe(1).complement().is_empty());
    }

    #[test]
    fn complement_of_union() {
        // ¬([0,1] ∪ [2,3]) — three open gaps
        let r = interval(0, 1).union(&interval(2, 3));
        let comp = r.complement();
        assert!(comp.contains_point(&[rat(3, 2)]));
        assert!(comp.contains_point(&[rat(-1, 1)]));
        assert!(comp.contains_point(&[rat(4, 1)]));
        assert!(!comp.contains_point(&[rat(1, 2)]));
        assert!(!comp.contains_point(&[rat(5, 2)]));
        assert!(comp.complement().equivalent(&r));
    }

    #[test]
    fn difference() {
        let d = interval(0, 10).difference(&interval(3, 5));
        assert!(d.contains_point(&[rat(1, 1)]));
        assert!(d.contains_point(&[rat(7, 1)]));
        assert!(!d.contains_point(&[rat(4, 1)]));
        assert!(!d.contains_point(&[rat(3, 1)]));
    }

    #[test]
    fn projection_shadow() {
        // R = triangle 0 <= x <= y <= 10; ∃y.R = [0,10] on x
        let tri = GeneralizedRelation::from_raw(
            2,
            vec![
                raw(c(0), RawOp::Le, v(0)),
                raw(v(0), RawOp::Le, v(1)),
                raw(v(1), RawOp::Le, c(10)),
            ],
        );
        let shadow = tri.project_out(Var(1));
        assert!(shadow.contains_point(&[rat(5, 1), rat(999, 1)]));
        assert!(!shadow.contains_point(&[rat(11, 1), rat(0, 1)]));
        assert!(!shadow.contains_point(&[rat(-1, 1), rat(0, 1)]));
    }

    #[test]
    fn inclusion_and_equivalence() {
        let a = interval(0, 10);
        let b = interval(0, 20);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        // Syntactically different, semantically equal:
        let c1 = interval(0, 10).union(&interval(5, 20));
        let c2 = interval(0, 20);
        assert!(c1.equivalent(&c2));
    }

    #[test]
    fn select_splits_on_ne() {
        let r = GeneralizedRelation::universe(1).select(raw(v(0), RawOp::Ne, c(0)));
        assert!(r.contains_point(&[rat(1, 1)]));
        assert!(r.contains_point(&[rat(-1, 1)]));
        assert!(!r.contains_point(&[rat(0, 1)]));
    }

    #[test]
    fn product_and_rename() {
        let a = interval(0, 1);
        let b = interval(5, 6);
        let p = a.product(&b);
        assert_eq!(p.arity(), 2);
        assert!(p.contains_point(&[rat(1, 2), rat(11, 2)]));
        assert!(!p.contains_point(&[rat(11, 2), rat(1, 2)]));
        // swap columns
        let swapped = p.rename(2, |v| Var(1 - v.0));
        assert!(swapped.contains_point(&[rat(11, 2), rat(1, 2)]));
    }

    #[test]
    fn from_points_classical_relation() {
        let r = GeneralizedRelation::from_points(
            2,
            vec![vec![rat(1, 1), rat(2, 1)], vec![rat(3, 1), rat(4, 1)]],
        );
        assert!(r.contains_point(&[rat(1, 1), rat(2, 1)]));
        assert!(!r.contains_point(&[rat(1, 1), rat(4, 1)]));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn simplify_drops_subsumed() {
        let r = interval(0, 10).union(&interval(2, 3));
        let s = r.simplify();
        assert_eq!(s.len(), 1);
        assert!(s.equivalent(&interval(0, 10)));
    }

    #[test]
    fn narrow_after_projection() {
        let tri = GeneralizedRelation::from_raw(
            2,
            vec![raw(c(0), RawOp::Le, v(0)), raw(v(0), RawOp::Le, v(1))],
        );
        let shadow = tri.project_out(Var(1)).narrow(1);
        assert_eq!(shadow.arity(), 1);
        assert!(shadow.contains_point(&[rat(5, 1)]));
        assert!(!shadow.contains_point(&[rat(-1, 1)]));
    }

    #[test]
    fn map_consts_automorphism_image() {
        let a = interval(0, 10);
        // automorphism x ↦ 2x
        let img = a.map_consts(&|r: &Rational| r * &rat(2, 1));
        assert!(img.contains_point(&[rat(20, 1)]));
        assert!(!img.contains_point(&[rat(21, 1)]));
    }

    #[test]
    fn arity_5_strategy_uses_extended_fubini() {
        // Pure variable-order relation of arity 5: no constants, so the
        // cell estimate is fubini(5) = 541 — small enough to enumerate.
        // The seed's lookup table stopped at arity 4 and saturated to
        // usize::MAX here, wrongly forcing the unbounded syntactic path.
        let r = GeneralizedRelation::from_raw(
            5,
            vec![
                raw(v(0), RawOp::Lt, v(1)),
                raw(v(1), RawOp::Lt, v(2)),
                raw(v(2), RawOp::Lt, v(3)),
                raw(v(3), RawOp::Lt, v(4)),
            ],
        );
        match r.complement_strategy() {
            ComplementStrategy::Syntactic { bailout: Some(b) } => {
                assert!((541..=50_000).contains(&b), "budget {b} out of range")
            }
            s => panic!("expected cell-bounded syntactic strategy, got {s:?}"),
        }
        let comp = r.complement();
        assert!(comp.contains_point(&[rat(4, 1), rat(3, 1), rat(2, 1), rat(1, 1), rat(0, 1)]));
        assert!(!comp.contains_point(&[rat(0, 1), rat(1, 1), rat(2, 1), rat(3, 1), rat(4, 1)]));
    }

    #[test]
    fn point_set_complement_bails_out_to_cells() {
        // The complement of a finite point set is the classic syntactic
        // blowup: distribution doubles per point and pruning cannot help.
        // The bailout budget must kick in and hand over to the cell path,
        // still producing a correct complement.
        let pts: Vec<Vec<Rational>> = (0..8)
            .map(|i| vec![rat(3 * i, 1), rat(3 * i + 1, 1)])
            .collect();
        let r = GeneralizedRelation::from_points(2, pts);
        let comp = r.complement();
        assert!(comp.contains_point(&[rat(1, 1), rat(1, 1)]));
        assert!(!comp.contains_point(&[rat(0, 1), rat(1, 1)]));
        assert!(!comp.contains_point(&[rat(21, 1), rat(22, 1)]));
    }

    #[test]
    fn complement_binary_halfplane() {
        let lt = GeneralizedRelation::from_raw(2, vec![raw(v(0), RawOp::Lt, v(1))]);
        let comp = lt.complement();
        assert!(comp.contains_point(&[rat(1, 1), rat(1, 1)]));
        assert!(comp.contains_point(&[rat(2, 1), rat(1, 1)]));
        assert!(!comp.contains_point(&[rat(1, 1), rat(2, 1)]));
        assert!(comp.complement().equivalent(&lt));
    }
}
