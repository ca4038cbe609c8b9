//! Generalized tuples: conjunctions of dense-order constraints.
//!
//! A *k-ary generalized tuple* [KKR90, §2 of the paper] is a conjunction of
//! atomic constraints over variables `x0 … x(k-1)`; it finitely represents the
//! (typically infinite) set of points of `Q^k` satisfying it. This module
//! provides the decision procedures the whole engine rests on:
//!
//! * **satisfiability** of a conjunction: its order graph over the
//!   variables must contain no cycle through a strict edge, and no
//!   variable's implied constant bounds may cross (the classic dense-order
//!   closure argument — density and lack of endpoints make this complete).
//!   Each tuple carries the graph and the bounds incrementally
//!   ([`crate::sat`]), the one dense-order solver of the workspace;
//! * **witness construction** (a concrete rational point satisfying the
//!   tuple): one column at a time, a point of its implied bounds, which
//!   are the exact projection of the tuple on that column;
//! * **single-variable quantifier elimination** (`∃x`), the dense-order QE
//!   step of \[CK73\]: substitute equalities, then combine every lower bound
//!   with every upper bound;
//! * **entailment and subsumption**, used to simplify relations.

use crate::atom::{Atom, CompOp, RawAtom, Term, Var};
use crate::intern::atom_fingerprint;
use crate::rational::Rational;
use crate::relation::{simplify_greedy, Conjunction};
use crate::sat::{SatState, VarBox};

use std::collections::BTreeSet;
use std::fmt;

/// A conjunction of normalized atoms over columns `0..arity`.
///
/// The empty conjunction represents all of `Q^arity`. Atoms are kept sorted
/// and deduplicated; the tuple is *not* guaranteed satisfiable — call
/// [`GeneralizedTuple::is_satisfiable`] — but trivially-decidable atoms never
/// appear (they are resolved during normalization). Each column has at most
/// one constant bound per side, or one equality with a constant: pushing a
/// bound that an existing one implies changes nothing, and pushing a
/// tighter one replaces it.
///
/// Alongside the atoms the tuple carries derived state maintained
/// incrementally by [`GeneralizedTuple::push`]:
///
/// * a 64-bit *fingerprint* — an order-independent combination of per-atom
///   hashes. `Hash` writes only the fingerprint (O(1) instead of rehashing
///   the atom vector) and `PartialEq` fast-paths on it; a fingerprint
///   collision falls through to the full structural compare, so verdicts
///   are never wrong;
/// * a [`SatState`] — the order graph over the variables and each
///   variable's implied constant bounds, extended atom by atom, giving
///   O(1) satisfiability and per-variable bounding boxes (see
///   [`crate::sat`]).
///
/// Equality, ordering and hashing are functions of `(arity, atoms)` only —
/// the derived state never influences comparisons.
#[derive(Clone)]
pub struct GeneralizedTuple {
    arity: u32,
    atoms: Vec<Atom>,
    fp: u64,
    sat: SatState,
}

impl PartialEq for GeneralizedTuple {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity && self.fp == other.fp && self.atoms == other.atoms
    }
}

impl Eq for GeneralizedTuple {}

impl PartialOrd for GeneralizedTuple {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GeneralizedTuple {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.arity, &self.atoms).cmp(&(other.arity, &other.atoms))
    }
}

impl std::hash::Hash for GeneralizedTuple {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint());
    }
}

impl GeneralizedTuple {
    /// Build a tuple from raw atoms, returning one tuple per `≠`-split
    /// alternative (the conjunction of raw atoms is equivalent to the
    /// disjunction of returned tuples). Unsatisfiable-by-normalization
    /// alternatives are dropped; the result may be empty (false).
    pub fn from_raw(arity: u32, raws: impl IntoIterator<Item = RawAtom>) -> Vec<GeneralizedTuple> {
        let mut alts = vec![GeneralizedTuple::top(arity)];
        for raw in raws {
            let Some(norm) = raw.normalize() else {
                return Vec::new();
            };
            let mut next = Vec::with_capacity(alts.len() * norm.len());
            for t in &alts {
                for alt in &norm {
                    let mut t2 = t.clone();
                    for a in alt {
                        t2.push(*a);
                    }
                    next.push(t2);
                }
            }
            alts = next;
        }
        alts.retain(|t| t.is_satisfiable());
        alts
    }

    /// A tuple pinning each column to the given constants — the classical
    /// relational tuple `(a, b, …)` as the paper embeds it (`x = a ∧ y = b`).
    pub fn point(values: &[Rational]) -> GeneralizedTuple {
        let atoms = values.iter().enumerate().filter_map(|(i, v)| {
            Atom::normalized(Term::var(i as u32), CompOp::Eq, Term::Const(*v))
                .and_then(|v| v.into_iter().next())
        });
        GeneralizedTuple::from_atoms(values.len() as u32, atoms)
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// The precomputed fingerprint: equal tuples (same arity and atoms)
    /// always have equal fingerprints; distinct tuples collide with
    /// probability ~2⁻⁶⁴. Stable across processes.
    pub fn fingerprint(&self) -> u64 {
        crate::intern::fold(self.fp, self.arity as u64)
    }

    /// Per-variable interval bounding box: the constant bounds implied on
    /// each column, which for a satisfiable tuple are exactly its
    /// projection on that column. Empty slice when no atom compares a
    /// variable with a constant.
    pub fn bounding_box(&self) -> &[VarBox] {
        self.sat.boxes()
    }

    /// Insert an atom into the sorted atom vector; whether it was new.
    fn insert(&mut self, atom: Atom) -> bool {
        let Err(pos) = self.atoms.binary_search(&atom) else {
            return false;
        };
        self.atoms.insert(pos, atom);
        // The fingerprint combines per-atom hashes with a wrapping sum —
        // commutative, so it is insertion-order independent and
        // maintainable in O(1) here.
        self.fp = self.fp.wrapping_add(atom_fingerprint(&atom));
        true
    }

    /// The direct box of column `x`: its variable-vs-constant atoms,
    /// folded.
    fn direct(&self, x: Var) -> VarBox {
        let mut b = VarBox::default();
        for (y, a) in self.atoms.iter().filter_map(VarBox::of_atom) {
            if y == x {
                b.meet(&a);
            }
        }
        b
    }

    /// Remove an atom of the tuple from the sorted atom vector.
    fn remove(&mut self, atom: Atom) {
        if let Ok(pos) = self.atoms.binary_search(&atom) {
            self.atoms.remove(pos);
            self.fp = self.fp.wrapping_sub(atom_fingerprint(&atom));
        }
    }

    /// Whether the conjunction is empty (represents all of `Q^arity`).
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// All rational constants mentioned.
    pub fn constants(&self) -> BTreeSet<Rational> {
        self.atoms.iter().flat_map(|a| a.consts()).collect()
    }

    /// Produce a rational point satisfying the tuple, if one exists.
    ///
    /// Column by column, left to right: with the values chosen for
    /// `x₀…xᵢ₋₁` substituted, the bounding box of `xᵢ` is exactly the
    /// values it may take (implied boxes are exact projections of a
    /// satisfiable tuple), so any point of it extends to the rest. `None`
    /// only for an unsatisfiable tuple or on rational overflow.
    pub fn witness(&self) -> Option<Vec<Rational>> {
        if !self.is_satisfiable() {
            return None;
        }
        let mut rest = self.clone();
        let mut point = Vec::with_capacity(self.arity as usize);
        for i in 0..self.arity {
            let interval = rest.bounding_box().get(i as usize).copied();
            let c = point_in(interval.unwrap_or_default())?;
            point.push(c);
            rest = rest.substitute(Var(i), Term::Const(c))?;
        }
        Some(point)
    }

    /// Substitute `v := t` and renormalize. Returns `None` if the result is
    /// trivially unsatisfiable.
    pub fn substitute(&self, v: Var, t: Term) -> Option<GeneralizedTuple> {
        let mut map: Vec<Term> = (0..self.arity).map(Term::var).collect();
        map[v.index()] = t;
        self.instantiate(self.arity, &map)
    }

    /// Map all constants through a strictly monotone function (an
    /// order-automorphism of `Q`); the resulting tuple represents the image
    /// of the point set under the automorphism.
    pub fn map_consts(&self, f: &impl Fn(&Rational) -> Rational) -> GeneralizedTuple {
        GeneralizedTuple::from_atoms(self.arity, self.atoms.iter().map(|a| a.map_consts(f)))
    }
}

impl Conjunction for GeneralizedTuple {
    type Atom = Atom;

    /// The tuple with no constraints: all of `Q^arity`.
    fn top(arity: u32) -> GeneralizedTuple {
        GeneralizedTuple {
            arity,
            atoms: Vec::new(),
            fp: 0,
            sat: SatState::new(arity),
        }
    }

    /// Number of columns.
    fn arity(&self) -> u32 {
        self.arity
    }

    /// The atoms of the conjunction.
    fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Insert an atom, keeping the sorted/deduplicated invariant and at
    /// most one constant bound per column and side: a bound the column's
    /// direct box already implies is dropped, and a tighter one replaces
    /// the bounds it implies (two weak bounds on one constant become an
    /// equality). The resulting atoms do not depend on the push order.
    fn push(&mut self, atom: Atom) {
        for v in atom.vars() {
            assert!(
                v.0 < self.arity,
                "atom mentions column {} outside arity {}",
                v.0,
                self.arity
            );
        }
        let Some((x, b)) = VarBox::of_atom(&atom) else {
            if self.insert(atom) {
                self.sat.assert_atom(&atom);
            }
            return;
        };
        let old = self.direct(x);
        let mut new = old;
        if !new.meet(&b) {
            return;
        }
        // The atom joins as it is when it sets only sides the column has
        // no bound on and does not close two weak bounds into a point.
        let fresh = (b.lo.is_none() || old.lo.is_none()) && (b.hi.is_none() || old.hi.is_none());
        if fresh && (b.is_point() || !new.is_point()) {
            self.insert(atom);
        } else {
            for a in old.atoms(x) {
                self.remove(a);
            }
            for a in new.atoms(x) {
                self.insert(a);
            }
        }
        self.sat.assert_atom(&atom);
    }

    /// Conjoin two tuples of the same arity. [`GeneralizedTuple::push`]
    /// keeps the tightest constant bound per column and side, so
    /// `0 ≤ x ≤ 10` conjoined with `5 < x` is `5 < x ≤ 10`.
    fn conjoin(&self, other: &GeneralizedTuple) -> GeneralizedTuple {
        assert_eq!(self.arity, other.arity, "conjoin arity mismatch");
        let mut t = self.clone();
        for a in &other.atoms {
            t.push(*a);
        }
        t
    }

    /// Decide satisfiability over `(Q, <)`: an O(1) read of the verdict the
    /// tuple's [`SatState`] maintained as its atoms were pushed.
    fn is_satisfiable(&self) -> bool {
        self.sat.verdict()
    }

    /// Whether `self ∧ atom` is satisfiable: a read of the order graph and
    /// the implied bounds ([`SatState::admits`]), with no clone of the
    /// tuple.
    fn admits(&self, atom: &Atom) -> bool {
        assert!(
            atom.vars().all(|v| v.0 < self.arity),
            "atom {atom} mentions a column outside arity {}",
            self.arity
        );
        self.sat.admits(atom)
    }

    /// Whether the bounding boxes prove `self ∧ other` empty — the cheap
    /// pre-filter used by `intersect`/`subtract`/`select`/`simplify` and
    /// the Datalog delta join to skip pairs before any conjoin or
    /// entailment test.
    fn box_disjoint(&self, other: &GeneralizedTuple) -> bool {
        self.sat.box_disjoint(&other.sat)
    }

    /// Syntactic subsumption fast path: if every atom of `self` appears
    /// literally in `other`, then `other` is `self` plus extra constraints,
    /// so `other ⊆ self`. Both atom vectors are sorted, so this is a single
    /// linear merge — no satisfiability calls. Sound but incomplete:
    /// `false` only means the cheap check failed, not that subsumption
    /// fails.
    fn subsumes_syntactic(&self, other: &GeneralizedTuple) -> bool {
        debug_assert_eq!(self.arity, other.arity);
        if self.atoms.len() > other.atoms.len() {
            return false;
        }
        // Fingerprint fast path: with equal atom counts, subset means
        // equal, which the fingerprints decide in O(1) (bar collisions,
        // which the structural compare then resolves).
        if self.atoms.len() == other.atoms.len() {
            return self.fp == other.fp && self.atoms == other.atoms;
        }
        let mut it = other.atoms.iter();
        'outer: for a in &self.atoms {
            for b in it.by_ref() {
                match b.cmp(a) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    fn negate(atom: &Atom) -> Vec<Atom> {
        atom.negate()
    }

    /// The greedy pass of the provided method, decided by
    /// `SatState::redundant` on one scratch state instead of one rebuilt
    /// tuple per atom; the atoms dropped are the same. A tuple with nothing
    /// to drop is returned as it is; an unsatisfiable one takes the
    /// provided path.
    fn simplify(&self) -> GeneralizedTuple {
        if !self.is_satisfiable() {
            return simplify_greedy(self);
        }
        let dropped = SatState::redundant(self.arity, &self.atoms);
        if !dropped.contains(&true) {
            return self.clone();
        }
        let kept = self.atoms.iter().zip(dropped).filter(|(_, d)| !d);
        GeneralizedTuple::from_atoms(self.arity, kept.map(|(a, _)| *a))
    }

    /// Dense-order quantifier elimination of a single variable: returns a
    /// tuple over the *same* arity whose constraints no longer mention `v`
    /// and which is equivalent to `∃v. self` (on the remaining columns).
    /// Like every tuple, the result keeps only the tightest constant bound
    /// per column and side: combining bounds, or substituting an equality,
    /// can make one redundant (`x0 <= 10` beside `x0 < 10`).
    ///
    /// Returns `None` when elimination discovers unsatisfiability.
    fn eliminate(&self, v: Var) -> Option<GeneralizedTuple> {
        // Guard probe: one hit per single-variable QE step.
        crate::guard::probe(crate::guard::ProbeSite::QuantifierElim);
        // Step 1: if some equality pins v to another term, substitute it.
        for a in &self.atoms {
            if a.op() == CompOp::Eq {
                if a.lhs() == Term::Var(v) && a.rhs() != Term::Var(v) {
                    return self.substitute(v, a.rhs());
                }
                if a.rhs() == Term::Var(v) && a.lhs() != Term::Var(v) {
                    return self.substitute(v, a.lhs());
                }
            }
        }
        // Step 2: collect bounds. lower: t (<|<=) v ; upper: v (<|<=) t.
        let mut rest = GeneralizedTuple::top(self.arity);
        let mut lowers: Vec<(Term, CompOp)> = Vec::new();
        let mut uppers: Vec<(Term, CompOp)> = Vec::new();
        for a in &self.atoms {
            if !a.mentions(v) {
                rest.push(*a);
            } else if a.rhs() == Term::Var(v) {
                lowers.push((a.lhs(), a.op()));
            } else {
                uppers.push((a.rhs(), a.op()));
            }
        }
        // Step 3: combine each lower with each upper. Density and absence of
        // endpoints make this sound and complete: the interval (max lower,
        // min upper) is nonempty iff all pairwise bound comparisons hold.
        for (l, lop) in &lowers {
            for (u, uop) in &uppers {
                let op = if lop.is_strict() || uop.is_strict() {
                    CompOp::Lt
                } else {
                    CompOp::Le
                };
                match Atom::normalized(*l, op, *u) {
                    None => return None,
                    Some(atoms) => {
                        for a in atoms {
                            rest.push(a);
                        }
                    }
                }
            }
        }
        Some(rest)
    }

    /// Instantiate the tuple into a context of `arity` columns: column `j`
    /// becomes `map[j]`, a context column or a constant, and every atom is
    /// renormalized. This is how a predicate atom `R(t₁…tₙ)` reads a
    /// stored tuple — a substitution, the equality step of dense-order QE,
    /// with no temporary columns to eliminate. Returns `None` as soon as an
    /// atom turns trivially false (`x0 < x1` read as `R(x, x)`); otherwise
    /// the result may still be unsatisfiable. Entries of `map` for columns
    /// no atom mentions are never read.
    fn instantiate(&self, arity: u32, map: &[Term]) -> Option<GeneralizedTuple> {
        assert_eq!(map.len(), self.arity as usize, "column map arity mismatch");
        let sub = |t: Term| match t {
            Term::Var(v) => map[v.index()],
            c => c,
        };
        let mut out = GeneralizedTuple::top(arity);
        for a in &self.atoms {
            for b in Atom::normalized(sub(a.lhs()), a.op(), sub(a.rhs()))? {
                out.push(b);
            }
        }
        Some(out)
    }

    fn column_eq(_arity: u32, a: Var, b: Var) -> Atom {
        Atom::normalized(Term::Var(a), CompOp::Eq, Term::Var(b))
            .and_then(|atoms| atoms.into_iter().next())
            .expect("an equality between distinct columns is one atom")
    }

    /// Evaluate membership of a point.
    fn contains_point(&self, point: &[Rational]) -> bool {
        assert_eq!(point.len(), self.arity as usize, "point arity mismatch");
        self.atoms.iter().all(|a| a.eval(point))
    }
}

impl fmt::Debug for GeneralizedTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "⊤/{}", self.arity);
        }
        let parts: Vec<String> = self.atoms.iter().map(|a| a.to_string()).collect();
        write!(f, "{}", parts.join(" & "))
    }
}

impl fmt::Display for GeneralizedTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A point of a nonempty interval: its endpoint if it is a single point,
/// else its midpoint, else one past its only bound, else `0`. `None` on
/// rational overflow.
fn point_in(b: VarBox) -> Option<Rational> {
    match (b.lo, b.hi) {
        (Some((l, _)), Some((h, _))) if l == h => Some(l),
        (Some((l, _)), Some((h, _))) => l.midpoint(&h).ok(),
        (Some((l, _)), None) => l.checked_add(&Rational::ONE).ok(),
        (None, Some((h, _))) => h.checked_sub(&Rational::ONE).ok(),
        (None, None) => Some(Rational::ZERO),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::RawOp;
    use crate::rational::rat;

    fn raw(l: impl Into<Term>, op: RawOp, r: impl Into<Term>) -> RawAtom {
        RawAtom::new(l, op, r)
    }

    fn v(i: u32) -> Term {
        Term::var(i)
    }

    fn c(n: i64) -> Term {
        Term::cst(rat(n as i128, 1))
    }

    fn single(arity: u32, raws: Vec<RawAtom>) -> GeneralizedTuple {
        let mut ts = GeneralizedTuple::from_raw(arity, raws);
        assert_eq!(ts.len(), 1);
        ts.pop().unwrap()
    }

    #[test]
    fn top_is_satisfiable_and_total() {
        let t = GeneralizedTuple::top(2);
        assert!(t.is_satisfiable());
        assert!(t.contains_point(&[rat(5, 1), rat(-3, 2)]));
        assert!(t.witness().is_some());
    }

    #[test]
    fn triangle_example_from_paper() {
        // (x <= y ∧ x >= 0 ∧ y <= 10): the paper's binary generalized tuple.
        let t = single(
            2,
            vec![
                raw(v(0), RawOp::Le, v(1)),
                raw(v(0), RawOp::Ge, c(0)),
                raw(v(1), RawOp::Le, c(10)),
            ],
        );
        assert!(t.is_satisfiable());
        assert!(t.contains_point(&[rat(1, 1), rat(2, 1)]));
        assert!(!t.contains_point(&[rat(2, 1), rat(1, 1)]));
        assert!(!t.contains_point(&[rat(-1, 1), rat(2, 1)]));
        let w = t.witness().unwrap();
        assert!(t.contains_point(&w), "witness {:?} not in tuple", w);
    }

    #[test]
    fn strict_cycle_unsat() {
        let ts = GeneralizedTuple::from_raw(
            3,
            vec![
                raw(v(0), RawOp::Lt, v(1)),
                raw(v(1), RawOp::Lt, v(2)),
                raw(v(2), RawOp::Lt, v(0)),
            ],
        );
        assert!(ts.is_empty());
    }

    #[test]
    fn weak_cycle_forces_equality_sat() {
        let t = single(
            2,
            vec![raw(v(0), RawOp::Le, v(1)), raw(v(1), RawOp::Le, v(0))],
        );
        assert!(t.is_satisfiable());
        let w = t.witness().unwrap();
        assert_eq!(w[0], w[1]);
    }

    #[test]
    fn weak_cycle_plus_strict_unsat() {
        let ts = GeneralizedTuple::from_raw(
            2,
            vec![
                raw(v(0), RawOp::Le, v(1)),
                raw(v(1), RawOp::Le, v(0)),
                raw(v(0), RawOp::Lt, v(1)),
            ],
        );
        assert!(ts.is_empty() || ts.iter().all(|t| !t.is_satisfiable()));
    }

    #[test]
    fn constants_inconsistent() {
        let ts = GeneralizedTuple::from_raw(
            1,
            vec![raw(v(0), RawOp::Eq, c(1)), raw(v(0), RawOp::Eq, c(2))],
        );
        assert!(ts.iter().all(|t| !t.is_satisfiable()));
    }

    #[test]
    fn constant_sandwich() {
        // 3 < x < 4 is satisfiable in Q (not in Z!)
        let t = single(
            1,
            vec![raw(c(3), RawOp::Lt, v(0)), raw(v(0), RawOp::Lt, c(4))],
        );
        assert!(t.is_satisfiable());
        let w = t.witness().unwrap();
        assert!(rat(3, 1) < w[0] && w[0] < rat(4, 1));
        // 3 < x < 3 is not
        let ts = GeneralizedTuple::from_raw(
            1,
            vec![raw(c(3), RawOp::Lt, v(0)), raw(v(0), RawOp::Lt, c(3))],
        );
        assert!(ts.is_empty() || ts.iter().all(|t| !t.is_satisfiable()));
    }

    #[test]
    fn eliminate_middle_variable() {
        // ∃x1. x0 < x1 ∧ x1 < x2  ≡  x0 < x2
        let t = single(
            3,
            vec![raw(v(0), RawOp::Lt, v(1)), raw(v(1), RawOp::Lt, v(2))],
        );
        let e = t.eliminate(Var(1)).unwrap();
        assert!(!e.atoms().iter().any(|a| a.mentions(Var(1))));
        assert!(e.contains_point(&[rat(0, 1), rat(99, 1), rat(1, 1)]));
        assert!(!e.contains_point(&[rat(1, 1), rat(99, 1), rat(0, 1)]));
    }

    #[test]
    fn eliminate_with_equality_substitutes() {
        // ∃x1. x1 = x0 ∧ x1 < 5  ≡  x0 < 5
        let t = single(
            2,
            vec![raw(v(1), RawOp::Eq, v(0)), raw(v(1), RawOp::Lt, c(5))],
        );
        let e = t.eliminate(Var(1)).unwrap();
        assert!(e.contains_point(&[rat(4, 1), rat(0, 1)]));
        assert!(!e.contains_point(&[rat(6, 1), rat(0, 1)]));
    }

    #[test]
    fn eliminate_unbounded_side_drops_constraint() {
        // ∃x1. x0 < x1  ≡  true (no endpoints)
        let t = single(2, vec![raw(v(0), RawOp::Lt, v(1))]);
        let e = t.eliminate(Var(1)).unwrap();
        assert!(e.is_empty());
    }

    #[test]
    fn eliminate_strictness_propagates() {
        // ∃x1. x0 <= x1 ∧ x1 <= x2  ≡  x0 <= x2 (weak)
        let t = single(
            3,
            vec![raw(v(0), RawOp::Le, v(1)), raw(v(1), RawOp::Le, v(2))],
        );
        let e = t.eliminate(Var(1)).unwrap();
        assert!(e.contains_point(&[rat(1, 1), rat(0, 1), rat(1, 1)]));
        // ∃x1. x0 < x1 ∧ x1 <= x2  ≡  x0 < x2 (strict)
        let t = single(
            3,
            vec![raw(v(0), RawOp::Lt, v(1)), raw(v(1), RawOp::Le, v(2))],
        );
        let e = t.eliminate(Var(1)).unwrap();
        assert!(!e.contains_point(&[rat(1, 1), rat(0, 1), rat(1, 1)]));
    }

    #[test]
    fn eliminate_keeps_only_the_tightest_constant_bound() {
        // ∃x1. 0 ≤ x0 ∧ x0 ≤ x1 ∧ x0 < x1 ∧ x1 ≤ 10: the lower × upper
        // combination yields both x0 ≤ 10 and x0 < 10; only the strict
        // one is kept.
        let t = single(
            2,
            vec![
                raw(c(0), RawOp::Le, v(0)),
                raw(v(0), RawOp::Le, v(1)),
                raw(v(0), RawOp::Lt, v(1)),
                raw(v(1), RawOp::Le, c(10)),
            ],
        );
        let e = t.eliminate(Var(1)).unwrap();
        let expect = single(
            2,
            vec![raw(c(0), RawOp::Le, v(0)), raw(v(0), RawOp::Lt, c(10))],
        );
        assert_eq!(e, expect);
        // ∃x1. x1 = x0 ∧ x1 < 5 ∧ x0 < 3: the substituted x0 < 5 is
        // dominated by x0 < 3.
        let t = single(
            2,
            vec![
                raw(v(1), RawOp::Eq, v(0)),
                raw(v(1), RawOp::Lt, c(5)),
                raw(v(0), RawOp::Lt, c(3)),
            ],
        );
        let e = t.eliminate(Var(1)).unwrap();
        assert_eq!(e, single(2, vec![raw(v(0), RawOp::Lt, c(3))]));
    }

    #[test]
    fn instantiate_substitutes_columns_and_constants() {
        // x0 < x1 ∧ x1 ≤ 10 read as R(z, 3) in a context (y, z).
        let t = single(
            2,
            vec![raw(v(0), RawOp::Lt, v(1)), raw(v(1), RawOp::Le, c(10))],
        );
        let r = t.instantiate(2, &[v(1), c(3)]).unwrap();
        assert_eq!(r, single(2, vec![raw(v(1), RawOp::Lt, c(3))]));
        // Read as R(x, x): x < x turns false at once.
        assert_eq!(t.instantiate(1, &[v(0), v(0)]), None);
        // Read as R(11, y): 11 < y ∧ y ≤ 10 survives as an atom pair but
        // is unsatisfiable.
        let r = t.instantiate(1, &[c(11), v(0)]).unwrap();
        assert!(!r.is_satisfiable());
        // A renaming is an instantiation whose map holds only columns.
        let renamed = crate::relation::GeneralizedRelation::from_tuples(2, [t.clone()])
            .rename(3, |x| Var(2 - x.0));
        assert_eq!(renamed.tuples(), [t.instantiate(3, &[v(2), v(1)]).unwrap()]);
    }

    #[test]
    fn entailment() {
        let t = single(
            2,
            vec![raw(v(0), RawOp::Lt, c(3)), raw(c(5), RawOp::Lt, v(1))],
        );
        let a = Atom::normalized(v(0), CompOp::Lt, v(1)).unwrap()[0];
        assert!(t.entails(&a));
        let b = Atom::normalized(v(1), CompOp::Lt, v(0)).unwrap()[0];
        assert!(!t.entails(&b));
        let le = Atom::normalized(v(0), CompOp::Le, c(3)).unwrap()[0];
        assert!(t.entails(&le));
    }

    #[test]
    fn subsumption() {
        let wide = single(1, vec![raw(v(0), RawOp::Lt, c(10))]);
        let narrow = single(1, vec![raw(v(0), RawOp::Lt, c(5))]);
        assert!(wide.subsumes(&narrow));
        assert!(!narrow.subsumes(&wide));
        assert!(GeneralizedTuple::top(1).subsumes(&narrow));
    }

    #[test]
    fn simplify_removes_redundant() {
        let t = single(
            1,
            vec![raw(v(0), RawOp::Lt, c(10)), raw(v(0), RawOp::Lt, c(5))],
        );
        let s = t.simplify();
        assert_eq!(s.len(), 1);
        assert!(s.contains_point(&[rat(4, 1)]));
        assert!(!s.contains_point(&[rat(6, 1)]));
    }

    #[test]
    fn point_tuple() {
        let t = GeneralizedTuple::point(&[rat(1, 2), rat(3, 1)]);
        assert!(t.contains_point(&[rat(1, 2), rat(3, 1)]));
        assert!(!t.contains_point(&[rat(1, 2), rat(4, 1)]));
        assert_eq!(t.witness().unwrap(), vec![rat(1, 2), rat(3, 1)]);
    }

    #[test]
    fn witness_respects_pins_and_order() {
        // 0 < x0, x0 < x1, x1 = 1/2 ⇒ need 0 < x0 < 1/2
        let t = single(
            2,
            vec![
                raw(c(0), RawOp::Lt, v(0)),
                raw(v(0), RawOp::Lt, v(1)),
                raw(v(1), RawOp::Eq, Term::cst(rat(1, 2))),
            ],
        );
        let w = t.witness().unwrap();
        assert!(t.contains_point(&w), "bad witness {:?}", w);
    }

    #[test]
    fn witness_of_arity_zero_is_the_empty_point() {
        assert_eq!(GeneralizedTuple::top(0).witness(), Some(vec![]));
    }

    #[test]
    fn witness_of_variable_chain() {
        // No constants at all: every bound comes from another column.
        let t = single(
            3,
            vec![raw(v(0), RawOp::Lt, v(1)), raw(v(1), RawOp::Lt, v(2))],
        );
        let w = t.witness().unwrap();
        assert!(t.contains_point(&w), "bad witness {:?}", w);
    }

    #[test]
    fn unsatisfiable_tuple_has_no_witness() {
        // x0 < x1 ∧ x1 ≤ x0: a strict cycle.
        let lt = Atom::normalized(v(0), CompOp::Lt, v(1)).unwrap()[0];
        let ge = Atom::normalized(v(1), CompOp::Le, v(0)).unwrap()[0];
        let t = GeneralizedTuple::from_atoms(2, [lt, ge]);
        assert!(!t.is_satisfiable());
        assert_eq!(t.witness(), None);
    }

    #[test]
    fn from_raw_ne_splits() {
        let ts = GeneralizedTuple::from_raw(1, vec![raw(v(0), RawOp::Ne, c(0))]);
        assert_eq!(ts.len(), 2);
        let covered = |p: &[Rational]| ts.iter().any(|t| t.contains_point(p));
        assert!(covered(&[rat(1, 1)]));
        assert!(covered(&[rat(-1, 1)]));
        assert!(!covered(&[rat(0, 1)]));
    }
}
