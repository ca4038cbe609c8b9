//! Generalized relations: finite unions of generalized tuples.
//!
//! A *k-ary finitely representable relation* (a "generalized relation" in
//! \[KKR90\]) is a finite set of k-ary generalized tuples; it denotes the union
//! of their point sets — a quantifier-free DNF formula over a class of
//! constraints. This module implements the closed-form relational algebra
//! the paper's query languages compile to: union, intersection, complement,
//! difference, column projection (`∃`, via quantifier elimination),
//! selection and renaming. *Closure* — every operation returns another
//! finitely representable relation — is the property Theorem 3 of
//! \[KKR90\] (recalled in §4) rests on, and it holds constructively here.
//!
//! The algebra is written once, as [`Relation<T>`] over any
//! [`Conjunction`]: FO's dense-order tuples ([`GeneralizedRelation`]) and
//! FO+'s linear tuples (`dco-linear`) are two instantiations. What depends
//! on the constraint class — deciding a conjunction and eliminating one
//! variable from it — stays in the conjunction type.

use crate::atom::{RawAtom, Term, Var};
use crate::guard::{probe_charge, ProbeSite};
use crate::rational::Rational;
use crate::tuple::GeneralizedTuple;

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;

/// A conjunction of constraints over columns `0..arity`, as the relation
/// layer uses it: the operations [`Relation`]'s algebra is written in.
///
/// A conjunction need not be satisfiable; the relation layer decides that
/// with [`Conjunction::is_satisfiable`] before it stores one. The two
/// methods that depend on the constraint class are deciding a
/// conjunction and [`Conjunction::eliminate`] (one quantifier); the rest
/// is bookkeeping.
pub trait Conjunction: Clone + PartialEq {
    /// One atomic constraint.
    type Atom: Clone;

    /// The empty conjunction: all of `Q^arity`.
    fn top(arity: u32) -> Self;

    /// Number of columns.
    fn arity(&self) -> u32;

    /// The atoms of the conjunction.
    fn atoms(&self) -> &[Self::Atom];

    /// Conjoin one atom.
    fn push(&mut self, atom: Self::Atom);

    /// Conjoin two conjunctions of the same arity.
    fn conjoin(&self, other: &Self) -> Self;

    /// Whether some point satisfies the conjunction.
    fn is_satisfiable(&self) -> bool;

    /// A sound, cheap proof that `self ∧ other` is unsatisfiable (their
    /// per-column bounding boxes are disjoint); `false` proves nothing.
    fn box_disjoint(&self, other: &Self) -> bool;

    /// Whether every atom of `self` appears literally in `other`, which
    /// makes `other ⊆ self`. Sound but incomplete.
    fn subsumes_syntactic(&self, other: &Self) -> bool;

    /// The negation of an atom as a disjunction of atoms.
    fn negate(atom: &Self::Atom) -> Vec<Self::Atom>;

    /// The same point set in the tidier form subtraction keeps its pieces
    /// in (redundant bounds dropped). The provided method returns the
    /// conjunction as it is, for a type whose `push` already keeps it tidy.
    fn tidy(self) -> Self {
        self
    }

    /// `∃v. self` over the same arity (column `v` left unconstrained);
    /// `None` when elimination finds the conjunction unsatisfiable.
    fn eliminate(&self, v: Var) -> Option<Self>;

    /// Move into a context of `arity` columns: column `j` becomes
    /// `map[j]`, a context column or a constant. `None` once an atom turns
    /// trivially false; entries for columns no atom mentions are never
    /// read.
    fn instantiate(&self, arity: u32, map: &[Term]) -> Option<Self>;

    /// The atom `a = b` between two distinct columns of an `arity`-column
    /// conjunction.
    fn column_eq(arity: u32, a: Var, b: Var) -> Self::Atom;

    /// Membership of a concrete point.
    fn contains_point(&self, point: &[Rational]) -> bool;

    /// The conjunction of `atoms`.
    fn from_atoms(arity: u32, atoms: impl IntoIterator<Item = Self::Atom>) -> Self {
        let mut t = Self::top(arity);
        for a in atoms {
            t.push(a);
        }
        t
    }

    /// Whether `self ∧ atom` is satisfiable, with `self` left as it is.
    /// The provided method conjoins `atom` to a clone; dense order reads
    /// the answer off the order graph its tuples carry.
    fn admits(&self, atom: &Self::Atom) -> bool {
        let mut t = self.clone();
        t.push(atom.clone());
        t.is_satisfiable()
    }

    /// Does the conjunction entail `atom`? Decided by refutation: `self`
    /// admits no alternative of `¬atom`.
    fn entails(&self, atom: &Self::Atom) -> bool {
        Self::negate(atom).iter().all(|alt| !self.admits(alt))
    }

    /// Does this conjunction's point set include the other's
    /// (`other ⊆ self`)? The syntactic check first, then one entailment
    /// refutation per atom.
    fn subsumes(&self, other: &Self) -> bool {
        assert_eq!(self.arity(), other.arity());
        self.subsumes_syntactic(other) || self.atoms().iter().all(|a| other.entails(a))
    }

    /// Remove atoms entailed by the rest of the conjunction (greedy, so
    /// not guaranteed globally minimum, but stable).
    fn simplify(&self) -> Self {
        simplify_greedy(self)
    }
}

/// The provided [`Conjunction::simplify`]: in atom order, drop each atom
/// that the conjunction of the others still kept entails, rebuilding that
/// conjunction for every test.
pub(crate) fn simplify_greedy<T: Conjunction>(t: &T) -> T {
    let mut atoms = t.atoms().to_vec();
    let mut i = 0;
    while i < atoms.len() {
        let rest = atoms.iter().enumerate().filter(|&(j, _)| j != i);
        let rest = T::from_atoms(t.arity(), rest.map(|(_, x)| x.clone()));
        if rest.entails(&atoms[i]) {
            atoms.remove(i);
        } else {
            i += 1;
        }
    }
    T::from_atoms(t.arity(), atoms)
}

/// A finite union of satisfiable conjunctions of a fixed arity.
///
/// Invariants: every stored tuple is satisfiable; no stored tuple is
/// syntactically equal to another. (Semantic overlap between tuples is
/// permitted — the denotation is the union.)
#[derive(Clone, PartialEq, Eq)]
pub struct Relation<T> {
    arity: u32,
    tuples: Vec<T>,
}

/// A dense-order generalized relation: the relation of FO.
pub type GeneralizedRelation = Relation<GeneralizedTuple>;

impl<T: Conjunction> Relation<T> {
    /// The empty k-ary relation.
    pub fn empty(arity: u32) -> Relation<T> {
        Relation {
            arity,
            tuples: Vec::new(),
        }
    }

    /// The full space `Q^k`.
    pub fn universe(arity: u32) -> Relation<T> {
        Relation {
            arity,
            tuples: vec![T::top(arity)],
        }
    }

    /// Build from tuples, dropping unsatisfiable ones.
    pub fn from_tuples(arity: u32, tuples: impl IntoIterator<Item = T>) -> Relation<T> {
        let mut r = Relation::empty(arity);
        for t in tuples {
            r.insert(t);
        }
        r
    }

    /// Build from tuples *without* subsumption pruning: only unsatisfiable
    /// tuples and exact syntactic duplicates are dropped. The result denotes
    /// the same set as [`Relation::from_tuples`] but may carry redundant
    /// disjuncts — used as the reference representation when testing that
    /// pruning is semantics-preserving.
    pub fn from_tuples_unpruned(arity: u32, tuples: impl IntoIterator<Item = T>) -> Relation<T> {
        let mut r = Relation::empty(arity);
        for t in tuples {
            assert_eq!(t.arity(), arity, "insert arity mismatch");
            if t.is_satisfiable() && !r.tuples.contains(&t) {
                r.tuples.push(t);
            }
        }
        r
    }

    /// Number of columns.
    pub fn arity(&self) -> u32 {
        self.arity
    }

    /// The generalized tuples (disjuncts).
    pub fn tuples(&self) -> &[T] {
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
        self.tuples.iter().map(|t| t.atoms().len().max(1)).sum()
    }

    /// Insert a tuple if satisfiable, pruning by syntactic subsumption.
    ///
    /// This is the single normalization point all construction paths go
    /// through: unsatisfiable tuples are dropped here (or were already
    /// dropped by the caller, which then uses
    /// [`Relation::insert_satisfiable`] directly).
    pub fn insert(&mut self, t: T) {
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
    /// semantic subsumption stays in [`Relation::simplify`], where its cost
    /// is paid once instead of per insert.
    pub fn insert_satisfiable(&mut self, t: T) {
        debug_assert_eq!(t.arity(), self.arity, "insert arity mismatch");
        // Guard probe: every DNF insert is a materialization step, charged
        // against the tuple/atom budgets whether or not subsumption keeps it.
        probe_charge(ProbeSite::DnfInsert, 1, t.atoms().len() as u64);
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

    /// Set union.
    pub fn union(&self, other: &Relation<T>) -> Relation<T> {
        assert_eq!(self.arity, other.arity, "union arity mismatch");
        let mut r = self.clone();
        for t in &other.tuples {
            r.insert(t.clone());
        }
        r
    }

    /// Fold `delta` into `self` in place and return the part that was
    /// new: the tuples of `delta` that no tuple of `self` covers on its
    /// own, simplified, as they were inserted. A tuple covered only by a
    /// union of `self`'s tuples counts as new: the exact difference would
    /// splinter it into fragments, while this costs at most a wasted
    /// re-derivation. The fixpoint engine's stage step: the relation grew
    /// iff the result is nonempty, and the result is the next stage's
    /// delta.
    pub fn absorb(&mut self, delta: &Relation<T>) -> Relation<T> {
        assert_eq!(self.arity, delta.arity, "absorb arity mismatch");
        // Stored tuples are satisfiable, so one whose box misses `t`'s
        // cannot contain it: the entailment test is skipped for it.
        let fresh: Vec<T> = delta
            .tuples
            .iter()
            .filter(|t| {
                !self
                    .tuples
                    .iter()
                    .any(|u| !u.box_disjoint(t) && u.subsumes(t))
            })
            .map(|t| t.simplify())
            .collect();
        let mut added = Relation::empty(self.arity);
        for t in fresh {
            self.insert_satisfiable(t.clone());
            added.insert_satisfiable(t);
        }
        added
    }

    /// Set intersection (pairwise conjunction of disjuncts).
    pub fn intersect(&self, other: &Relation<T>) -> Relation<T> {
        assert_eq!(self.arity, other.arity, "intersect arity mismatch");
        let mut r = Relation::empty(self.arity);
        for a in &self.tuples {
            // Bounding-box pre-filter: pairs with provably disjoint boxes
            // conjoin to an unsatisfiable tuple, which the satisfiability
            // test would discard anyway — skipping them here changes
            // nothing structurally, it only avoids the work.
            for b in other.tuples.iter().filter(|b| !a.box_disjoint(b)) {
                let t = a.conjoin(b);
                if t.is_satisfiable() {
                    r.insert_satisfiable(t);
                }
            }
        }
        r
    }

    /// Complement with respect to `Q^k`: `universe − self`.
    pub fn complement(&self) -> Relation<T> {
        Relation::universe(self.arity).subtract(self)
    }

    /// Set difference `self ∖ other` — the one negation kernel:
    /// [`Relation::complement`] is `Q^k ∖ self`, and the FO evaluator maps
    /// `A ∧ ¬B` to `A ∖ B` without forming `¬B`.
    ///
    /// Each tuple of `self` is cut by the tuples of `other` in turn into
    /// pairwise disjoint pieces (see `cut`), so the cost follows the
    /// pieces produced, not the size of `¬other` over all of `Q^k`. Every
    /// piece created is charged to [`ProbeSite::DnfInsert`], so budgets
    /// and deadlines fire in the middle of a subtraction.
    pub fn subtract(&self, other: &Relation<T>) -> Relation<T> {
        assert_eq!(self.arity, other.arity, "subtract arity mismatch");
        let mut r = Relation::empty(self.arity);
        for t in &self.tuples {
            let pieces = other.tuples.iter().fold(vec![t.clone()], |pieces, u| {
                pieces.into_iter().flat_map(|p| cut(p, u)).collect()
            });
            for p in pieces {
                r.insert_satisfiable(p);
            }
        }
        r
    }

    /// Existential projection of one column: `∃x_v. self`, still expressed
    /// over the same arity (the eliminated column becomes unconstrained).
    /// `∃` distributes over `∨`, so each tuple is eliminated independently —
    /// this is the closed-form bottom-up evaluation step of \[KKR90\].
    pub fn project_out(&self, v: Var) -> Relation<T> {
        let mut r = Relation::empty(self.arity);
        for e in self.tuples.iter().filter_map(|t| t.eliminate(v)) {
            if e.is_satisfiable() {
                r.insert_satisfiable(e);
            }
        }
        r
    }

    /// Apply an injective column renaming into a (possibly larger) arity:
    /// one [`Conjunction::instantiate`] per tuple whose map holds only
    /// columns. Panics if a mentioned column lands outside `new_arity`.
    pub fn rename(&self, new_arity: u32, f: impl Fn(Var) -> Var) -> Relation<T> {
        let map: Vec<Term> = (0..self.arity).map(|j| Term::Var(f(Var(j)))).collect();
        Relation::from_tuples(
            new_arity,
            self.tuples.iter().map(|t| {
                t.instantiate(new_arity, &map)
                    .expect("an injective renaming turns no atom false")
            }),
        )
    }

    /// Widen to a larger arity; new columns are unconstrained
    /// (cylindrification).
    pub fn widen(&self, new_arity: u32) -> Relation<T> {
        assert!(new_arity >= self.arity, "widen must not shrink");
        self.rename(new_arity, |v| v)
    }

    /// Drop trailing unconstrained columns down to `new_arity`. Panics if a
    /// dropped column is still mentioned.
    pub fn narrow(&self, new_arity: u32) -> Relation<T> {
        assert!(new_arity <= self.arity);
        self.rename(new_arity, |v| v)
    }

    /// Projection onto `cols`: column `i` of the result is column
    /// `cols[i]` of `self`, and a column may be listed more than once. The
    /// columns not listed are projected out first (`∃`); then each tuple
    /// is moved by one [`Conjunction::instantiate`] pass, plus an equality
    /// for every repeated column.
    pub fn project_onto(&self, cols: &[u32]) -> Relation<T> {
        let out = cols.len() as u32;
        let mut projected = Cow::Borrowed(self);
        for j in (0..self.arity).rev().filter(|j| !cols.contains(j)) {
            projected = Cow::Owned(projected.project_out(Var(j)));
        }
        // Column `j` goes to the first position listing it. A projected-out
        // column is mentioned nowhere any more; its entry lies outside the
        // result's arity, so `push` would reject it.
        let first = |c: u32| cols.iter().position(|&x| x == c).unwrap_or(cols.len()) as u32;
        let map: Vec<Term> = (0..self.arity).map(|j| Term::var(first(j))).collect();
        // Position `i` equals the first position listing its column.
        let copies: Vec<T::Atom> = cols
            .iter()
            .zip(0..)
            .filter(|&(&c, i)| first(c) != i)
            .map(|(&c, i)| T::column_eq(out, Var(first(c)), Var(i)))
            .collect();
        Relation::from_tuples(
            out,
            projected
                .tuples
                .iter()
                .filter_map(|t| t.instantiate(out, &map))
                .map(|mut t| {
                    for a in &copies {
                        t.push(a.clone());
                    }
                    t
                }),
        )
    }

    /// Inclusion test `self ⊆ other`.
    ///
    /// Fast path first: any disjunct of `self` subsumed by a single
    /// disjunct of `other` is certainly included; only the leftover
    /// disjuncts (which could still be covered by a *union* of `other`'s
    /// disjuncts) fall back to the refutation `leftover ∖ other = ∅`. For
    /// the common case where each disjunct has a single covering disjunct
    /// this skips the subtraction entirely.
    pub fn is_subset(&self, other: &Relation<T>) -> bool {
        // A disjunct of `other` whose box misses `t`'s cannot cover the
        // (satisfiable) `t`, so the entailment test is skipped for it.
        let leftover: Vec<T> = self
            .tuples
            .iter()
            .filter(|t| {
                !other
                    .tuples
                    .iter()
                    .any(|u| !u.box_disjoint(t) && u.subsumes(t))
            })
            .cloned()
            .collect();
        if leftover.is_empty() {
            return true;
        }
        let rest = Relation {
            arity: self.arity,
            tuples: leftover,
        };
        rest.subtract(other).is_empty()
    }

    /// Semantic equivalence of the denoted point sets.
    pub fn equivalent(&self, other: &Relation<T>) -> bool {
        self.is_subset(other) && other.is_subset(self)
    }

    /// Simplify the representation: minimize each tuple and drop
    /// disjuncts subsumed by other disjuncts, shortest tuples first (a
    /// stable sort, so ties keep their order).
    pub fn simplify(&self) -> Relation<T> {
        let mut tuples: Vec<T> = self.tuples.iter().map(|t| t.simplify()).collect();
        tuples.sort_by_key(|t| t.atoms().len());
        let mut kept: Vec<T> = Vec::new();
        for t in tuples {
            // Stored tuples are satisfiable, so a kept tuple whose box is
            // disjoint from `t`'s cannot contain it: skip the entailment
            // test, which is quadratic in atoms.
            if !kept.iter().any(|k| !k.box_disjoint(&t) && k.subsumes(&t)) {
                kept.push(t);
            }
        }
        Relation {
            arity: self.arity,
            tuples: kept,
        }
    }
}

impl Relation<GeneralizedTuple> {
    /// Build a single-"row" relation from raw atoms (a conjunction; `≠`
    /// splits into several tuples).
    ///
    /// [`GeneralizedTuple::from_raw`] already decided satisfiability of
    /// each `≠`-split alternative, so the tuples go straight to
    /// [`Relation::insert_satisfiable`] — satisfiability is decided exactly
    /// once per tuple on this path.
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

    /// Some point in the relation, if nonempty.
    pub fn witness(&self) -> Option<Vec<Rational>> {
        self.tuples.iter().find_map(|t| t.witness())
    }

    /// All constants mentioned in the representation.
    pub fn constants(&self) -> BTreeSet<Rational> {
        self.tuples.iter().flat_map(|t| t.constants()).collect()
    }

    /// Selection: conjoin a raw atom (may split on `≠`).
    pub fn select(&self, atom: RawAtom) -> GeneralizedRelation {
        let cond = GeneralizedRelation::from_raw(self.arity, [atom]);
        self.intersect(&cond)
    }

    /// Cartesian product: the result has arity `self.arity + other.arity`,
    /// with `other`'s columns shifted up.
    pub fn product(&self, other: &GeneralizedRelation) -> GeneralizedRelation {
        let arity = self.arity + other.arity;
        let shifted = other.rename(arity, |v| Var(v.0 + self.arity));
        self.widen(arity).intersect(&shifted)
    }

    /// Map all constants through a strictly monotone function (an order
    /// automorphism of Q); returns the image relation.
    pub fn map_consts(&self, f: &impl Fn(&Rational) -> Rational) -> GeneralizedRelation {
        GeneralizedRelation::from_tuples(self.arity, self.tuples.iter().map(|t| t.map_consts(f)))
    }
}

/// `p ∖ u` for a satisfiable `p` and `u = a₁ ∧ … ∧ aₙ`, as the disjoint
/// pieces `p ∧ a₁ ∧ … ∧ aᵢ₋₁ ∧ ¬aᵢ` (two for `¬(x = y)`: `x < y` and
/// `y < x`), unsatisfiable ones dropped. If `p`'s box misses `u`'s, they
/// share no point (each box contains its tuple's points) and `p` stays
/// whole. If every alternative of `¬aᵢ` is unsatisfiable, `p` entails
/// `aᵢ`, which stays out of the prefix; if the prefix turns
/// unsatisfiable, `p ∧ u = ∅` and `p` stays whole. Kept pieces are
/// [`Conjunction::tidy`]. A dense-order piece is tidy as built, because
/// its `push` keeps one constant bound per column and side: a cut's bound
/// that the prefix implies leaves the piece as it was, and a tighter one
/// replaces the prefix's.
///
/// Each alternative is decided by [`Conjunction::admits`] on the prefix,
/// so only the pieces kept are built, and the prefix is cloned from `p`
/// only when a second atom needs it. Every alternative tried is still
/// charged as one tuple of the piece's size (a refused alternative is
/// never in the satisfiable prefix, so its piece would be one atom
/// longer).
fn cut<T: Conjunction>(p: T, u: &T) -> Vec<T> {
    if p.box_disjoint(u) {
        return vec![p];
    }
    if u.subsumes_syntactic(&p) {
        return Vec::new();
    }
    let mut pieces = Vec::new();
    let mut prefix = Cow::Borrowed(&p);
    let n = u.atoms().len();
    for (i, a) in u.atoms().iter().enumerate() {
        let mut entailed = true;
        for alt in T::negate(a) {
            if prefix.admits(&alt) {
                let mut piece = prefix.clone().into_owned();
                piece.push(alt);
                probe_charge(ProbeSite::DnfInsert, 1, piece.atoms().len() as u64);
                entailed = false;
                pieces.push(piece.tidy());
            } else {
                probe_charge(ProbeSite::DnfInsert, 1, prefix.atoms().len() as u64 + 1);
            }
        }
        if entailed {
            continue;
        }
        // The last atom only decides whether `p ∧ u` is empty.
        let satisfiable = if i + 1 == n {
            prefix.admits(a)
        } else {
            let prefix = prefix.to_mut();
            prefix.push(a.clone());
            prefix.is_satisfiable()
        };
        if !satisfiable {
            return vec![p];
        }
    }
    pieces
}

impl<T: fmt::Display> fmt::Debug for Relation<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.tuples.is_empty() {
            return write!(f, "⊥/{}", self.arity);
        }
        let parts: Vec<String> = self.tuples.iter().map(|t| format!("({})", t)).collect();
        write!(f, "{}", parts.join(" | "))
    }
}

impl<T: fmt::Display> fmt::Display for Relation<T> {
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
    fn absorb_returns_what_it_added() {
        let mut r = interval(0, 10);
        let added = r.absorb(&interval(2, 3).union(&interval(20, 30)));
        assert_eq!(added, interval(20, 30));
        assert!(r.equivalent(&interval(0, 10).union(&interval(20, 30))));
        assert!(r.absorb(&added).is_empty());
        // Covered only by the union of stored tuples: counted new.
        assert_eq!(r.absorb(&interval(10, 20)).len(), 1);
        assert_eq!(r.absorb(&interval(5, 25)), interval(5, 25));
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
        let d = interval(0, 10).subtract(&interval(3, 5));
        assert!(d.contains_point(&[rat(1, 1)]));
        assert!(d.contains_point(&[rat(7, 1)]));
        assert!(!d.contains_point(&[rat(4, 1)]));
        assert!(!d.contains_point(&[rat(3, 1)]));
        // Each piece keeps one constant bound per side, not the bounds of
        // every cut it went through.
        assert!(d.tuples().iter().all(|t| t.len() == 2), "{d}");
        // Closed bounds that meet become an equality: [0, 10] ∖ (0, 10).
        let open = GeneralizedRelation::from_raw(
            1,
            vec![raw(c(0), RawOp::Lt, v(0)), raw(v(0), RawOp::Lt, c(10))],
        );
        let ends = interval(0, 10).subtract(&open);
        let points = GeneralizedRelation::from_points(1, [vec![rat(0, 1)], vec![rat(10, 1)]]);
        assert_eq!(ends.len(), 2);
        assert!(
            ends.tuples().iter().all(|t| points.tuples().contains(t)),
            "{ends}"
        );
        // A tuple whose box misses every subtrahend stays whole.
        let a = interval(0, 1).union(&interval(5, 6));
        assert_eq!(a.subtract(&interval(2, 3)), a);
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
    fn project_onto_drops_reorders_and_repeats() {
        // x0 < x1 < x2 with x0 in [0, 1] and x2 in [5, 6].
        let r = GeneralizedRelation::from_raw(
            3,
            vec![
                raw(c(0), RawOp::Le, v(0)),
                raw(v(0), RawOp::Le, c(1)),
                raw(v(0), RawOp::Lt, v(1)),
                raw(v(1), RawOp::Lt, v(2)),
                raw(c(5), RawOp::Le, v(2)),
                raw(v(2), RawOp::Le, c(6)),
            ],
        );
        // (x2, x0, x2): the middle column is projected out, x2 is listed
        // twice.
        let p = r.project_onto(&[2, 0, 2]);
        assert_eq!(p.arity(), 3);
        let pt = |a: i128, b: i128, c: i128| [rat(a, 1), rat(b, 1), rat(c, 1)];
        assert!(p.contains_point(&pt(5, 1, 5)));
        assert!(!p.contains_point(&pt(5, 1, 6)));
        assert!(!p.contains_point(&pt(1, 5, 1)));
        let back = p.project_onto(&[1, 0]);
        assert!(back.equivalent(&r.project_out(Var(1)).project_onto(&[0, 2])));
        assert!(r
            .project_onto(&[])
            .equivalent(&GeneralizedRelation::universe(0)));
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
    fn arity_5_chain_complement_matches_cells() {
        // A pure variable order of arity 5: no constants, 541 cells.
        let r = GeneralizedRelation::from_raw(
            5,
            vec![
                raw(v(0), RawOp::Lt, v(1)),
                raw(v(1), RawOp::Lt, v(2)),
                raw(v(2), RawOp::Lt, v(3)),
                raw(v(3), RawOp::Lt, v(4)),
            ],
        );
        let comp = r.complement();
        assert!(comp.contains_point(&[rat(4, 1), rat(3, 1), rat(2, 1), rat(1, 1), rat(0, 1)]));
        assert!(!comp.contains_point(&[rat(0, 1), rat(1, 1), rat(2, 1), rat(3, 1), rat(4, 1)]));
        let cells = crate::cell::CellSpace::for_relations(5, [&r]);
        assert!(comp.equivalent(&cells.complement(&r)));
    }

    #[test]
    fn point_set_complement_stays_small() {
        // The complement of a finite point set blew up the old negation
        // distribution (it doubled per point). Subtraction cuts the
        // plane only where each point's box meets a piece, so the answer
        // grows linearly in the points.
        let pts: Vec<Vec<Rational>> = (0..8)
            .map(|i| vec![rat(3 * i, 1), rat(3 * i + 1, 1)])
            .collect();
        let r = GeneralizedRelation::from_points(2, pts);
        let comp = r.complement();
        assert!(comp.contains_point(&[rat(1, 1), rat(1, 1)]));
        assert!(!comp.contains_point(&[rat(0, 1), rat(1, 1)]));
        assert!(!comp.contains_point(&[rat(21, 1), rat(22, 1)]));
        assert!(comp.len() <= 4 * 8 + 1, "{} tuples", comp.len());
        let cells = crate::cell::CellSpace::for_relations(2, [&r]);
        assert!(comp.equivalent(&cells.complement(&r)));
    }

    #[test]
    fn subtract_budget_trips_typed() {
        use crate::guard::{run_guarded, BudgetKind, EvalErrorKind, GuardLimits};
        // The 32-point complement creates far more than 16 pieces; the
        // budget must stop it with a typed fault and no relation.
        let pts: Vec<Vec<Rational>> = (0..32)
            .map(|i| vec![rat(3 * i, 1), rat(3 * i + 1, 1)])
            .collect();
        let r = GeneralizedRelation::from_points(2, pts);
        let err = run_guarded(GuardLimits::none().with_max_tuples(16), || r.complement())
            .expect_err("16 tuples cannot hold the complement");
        assert_eq!(
            err.kind,
            EvalErrorKind::BudgetExceeded {
                budget: BudgetKind::Tuples,
                limit: 16
            }
        );
        assert_eq!(err.stats.tuples_materialized, 17);
        // Under a budget it fits, the guarded answer is the unguarded one.
        let ok = run_guarded(GuardLimits::none().with_max_tuples(100_000), || {
            r.complement()
        })
        .expect("fits the budget");
        assert_eq!(ok.value, r.complement());
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
