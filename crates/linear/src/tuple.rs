//! Conjunctions of linear atoms and Fourier–Motzkin elimination.
//!
//! FO+ can be evaluated bottom-up by \[Tar51\] (as the paper notes in §4);
//! restricted to the *linear* fragment, Tarski's method specializes to the
//! Fourier–Motzkin procedure implemented here: to eliminate `∃x` from a
//! conjunction of linear constraints, substitute any equality that pins `x`,
//! then combine every lower bound on `x` with every upper bound. Redundancy
//! pruning keeps the quadratic growth of each step in check.

use crate::atom::{LinAtom, NormalizedAtom};
use dco_core::intern::{fold, fold_rational};
use dco_core::prelude::{CompOp, MemoCache, Rational, VarBox};

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// Entries [`lin_sat_cache`] holds before eviction.
const LIN_SAT_CACHE_CAPACITY: usize = 1 << 16;

/// Process-wide memo cache for [`LinTuple::is_satisfiable`] — the
/// Fourier–Motzkin decision is far more expensive than the dense-order
/// order-graph check, so memoization pays off here.
pub fn lin_sat_cache() -> &'static MemoCache<LinTuple, bool> {
    static CACHE: OnceLock<MemoCache<LinTuple, bool>> = OnceLock::new();
    CACHE.get_or_init(|| MemoCache::with_capacity(LIN_SAT_CACHE_CAPACITY))
}

/// Order-independent fingerprint of a linear atom: a SplitMix64 chain over
/// the comparison op, the (fixed-length) coefficient vector, and the
/// constant. Mirrors [`dco_core::intern::atom_fingerprint`] for the linear
/// fragment.
pub fn lin_atom_fingerprint(a: &LinAtom) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    h = fold(
        h,
        match a.op() {
            CompOp::Lt => 1,
            CompOp::Le => 2,
            CompOp::Eq => 3,
        },
    );
    for c in a.coeffs() {
        h = fold_rational(h, c);
    }
    fold_rational(h, a.constant())
}

/// A satisfiability-undecided conjunction of linear atoms over
/// columns `0..arity`. The empty conjunction is all of `Q^arity`.
///
/// Carries a precomputed, order-independent fingerprint (wrapping sum of
/// per-atom hashes) so hashing is O(1) and equality fast-paths on one `u64`
/// compare, plus per-column interval bounding boxes derived from
/// single-variable atoms so join loops can skip box-disjoint pairs before
/// running Fourier–Motzkin. Both are maintained incrementally by
/// [`LinTuple::push`].
#[derive(Clone, Debug)]
pub struct LinTuple {
    arity: u32,
    atoms: Vec<LinAtom>,
    fp: u64,
    boxes: Vec<VarBox>,
}

impl PartialEq for LinTuple {
    fn eq(&self, other: &LinTuple) -> bool {
        // Fingerprint mismatch settles inequality in one compare; on a
        // match the full structural check guards against collisions.
        self.arity == other.arity && self.fp == other.fp && self.atoms == other.atoms
    }
}

impl Eq for LinTuple {}

impl PartialOrd for LinTuple {
    fn partial_cmp(&self, other: &LinTuple) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LinTuple {
    fn cmp(&self, other: &LinTuple) -> std::cmp::Ordering {
        (self.arity, &self.atoms).cmp(&(other.arity, &other.atoms))
    }
}

impl Hash for LinTuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint());
    }
}

impl LinTuple {
    /// The unconstrained tuple.
    pub fn top(arity: u32) -> LinTuple {
        LinTuple {
            arity,
            atoms: Vec::new(),
            fp: 0,
            boxes: Vec::new(),
        }
    }

    /// Build from atoms (deduplicating); `None` if some atom arity differs.
    pub fn from_atoms(arity: u32, atoms: impl IntoIterator<Item = LinAtom>) -> LinTuple {
        let mut t = LinTuple::top(arity);
        for a in atoms {
            t.push(a);
        }
        t
    }

    /// Number of columns.
    pub fn arity(&self) -> u32 {
        self.arity
    }

    /// The conjuncts.
    pub fn atoms(&self) -> &[LinAtom] {
        &self.atoms
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Is the conjunction empty (top)?
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Insert keeping sorted/dedup invariant; maintains the fingerprint and
    /// the per-column bounding boxes incrementally.
    pub fn push(&mut self, atom: LinAtom) {
        assert_eq!(atom.arity(), self.arity, "atom arity mismatch");
        match self.atoms.binary_search(&atom) {
            Ok(_) => {}
            Err(pos) => {
                self.fp = self.fp.wrapping_add(lin_atom_fingerprint(&atom));
                self.update_box(&atom);
                self.atoms.insert(pos, atom);
            }
        }
    }

    /// If `atom` constrains exactly one column, fold it into that column's
    /// bounding box: `c·x + k op 0` is `x op' -k/c` with the comparison
    /// flipped when `c < 0`.
    fn update_box(&mut self, atom: &LinAtom) {
        let mut solo: Option<usize> = None;
        for (j, c) in atom.coeffs().iter().enumerate() {
            if !c.is_zero() {
                if solo.is_some() {
                    return; // two columns involved: not a box constraint
                }
                solo = Some(j);
            }
        }
        let Some(j) = solo else { return };
        let c = atom.coeffs()[j];
        let bound = -(atom.constant() / &c);
        if self.boxes.is_empty() {
            self.boxes = vec![VarBox::default(); self.arity as usize];
        }
        match atom.op() {
            CompOp::Eq => {
                self.boxes[j].tighten_lo(bound, false);
                self.boxes[j].tighten_hi(bound, false);
            }
            op => {
                let strict = op == CompOp::Lt;
                if c.is_positive() {
                    self.boxes[j].tighten_hi(bound, strict);
                } else {
                    self.boxes[j].tighten_lo(bound, strict);
                }
            }
        }
    }

    /// Order-independent structural fingerprint (see [`lin_atom_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        fold(self.fp, self.arity as u64)
    }

    /// Per-column interval over-approximation derived from single-variable
    /// atoms; empty slice when no column has a direct bound.
    pub fn bounding_box(&self) -> &[VarBox] {
        &self.boxes
    }

    /// Whether some column's bounding boxes are disjoint — a sound proof
    /// that `self.conjoin(other)` is unsatisfiable, decided without running
    /// Fourier–Motzkin.
    pub fn box_disjoint(&self, other: &LinTuple) -> bool {
        self.boxes
            .iter()
            .zip(other.boxes.iter())
            .any(|(a, b)| a.disjoint(b))
    }

    /// Conjoin.
    pub fn conjoin(&self, other: &LinTuple) -> LinTuple {
        assert_eq!(self.arity, other.arity);
        let mut t = self.clone();
        for a in &other.atoms {
            t.push(a.clone());
        }
        t
    }

    /// Point membership.
    pub fn contains_point(&self, point: &[Rational]) -> bool {
        self.atoms.iter().all(|a| a.eval(point))
    }

    /// Eliminate `∃ x_j` by Fourier–Motzkin. Returns `None` if the
    /// conjunction is discovered unsatisfiable (a trivially-false atom
    /// appears during combination).
    pub fn eliminate(&self, j: usize) -> Option<LinTuple> {
        // Guard probe: one hit per Fourier–Motzkin pivot (variable
        // eliminated from one conjunction).
        dco_core::guard::probe(dco_core::guard::ProbeSite::FourierMotzkin);
        // 1. Equality substitution: if an equality mentions x_j, solve for it
        //    and substitute into every other atom.
        if let Some(eq) = self
            .atoms
            .iter()
            .find(|a| a.op() == CompOp::Eq && a.mentions(j))
        {
            let aj = *eq.coeff(j);
            let mut out = LinTuple::top(self.arity);
            for a in &self.atoms {
                if a == eq {
                    continue;
                }
                if !a.mentions(j) {
                    out.push(a.clone());
                    continue;
                }
                // a' = a - (a_j / e_j) * eq  — kills column j, preserves op.
                let factor = -(a.coeff(j) / &aj);
                match a.combine(eq, &factor, a.op()) {
                    NormalizedAtom::True => {}
                    NormalizedAtom::False => return None,
                    NormalizedAtom::Atom(n) => out.push(n),
                }
            }
            return Some(out);
        }
        // 2. Partition by the sign of the coefficient of x_j.
        let mut rest = LinTuple::top(self.arity);
        let mut lowers: Vec<&LinAtom> = Vec::new(); // coeff < 0: x_j >(=) bound
        let mut uppers: Vec<&LinAtom> = Vec::new(); // coeff > 0: x_j <(=) bound
        for a in &self.atoms {
            if !a.mentions(j) {
                rest.push(a.clone());
            } else if a.coeff(j).is_positive() {
                uppers.push(a);
            } else {
                lowers.push(a);
            }
        }
        // 3. Combine: for lower L (coeff l_j < 0) and upper U (coeff u_j > 0),
        //    the shadow constraint is  U/u_j + L/(-l_j)  ρ  0, i.e.
        //    combine(U, L, u_j / -l_j) rescaled — any positive multiple works:
        //    take U + (u_j / -l_j)·L, whose x_j coefficient vanishes.
        for l in &lowers {
            for u in &uppers {
                let factor = &(u.coeff(j) / &(-*l.coeff(j)));
                let op = if l.op().is_strict() || u.op().is_strict() {
                    CompOp::Lt
                } else {
                    CompOp::Le
                };
                match u.combine(l, factor, op) {
                    NormalizedAtom::True => {}
                    NormalizedAtom::False => return None,
                    NormalizedAtom::Atom(n) => rest.push(n),
                }
            }
        }
        Some(rest.pruned())
    }

    /// Decide satisfiability over Q, memoized in [`lin_sat_cache`]: atoms
    /// are kept sorted and deduplicated, so identical conjunctions arising
    /// in different operations run Fourier–Motzkin exactly once.
    pub fn is_satisfiable(&self) -> bool {
        if self.atoms.is_empty() {
            return true;
        }
        // An empty bounding box on any column refutes the conjunction
        // without touching the cache or Fourier–Motzkin.
        if self.boxes.iter().any(|b| b.disjoint(b)) {
            return false;
        }
        lin_sat_cache().get_or_insert_with(self, || self.is_satisfiable_uncached())
    }

    /// Decide satisfiability by eliminating every variable, without
    /// consulting the memo cache.
    pub fn is_satisfiable_uncached(&self) -> bool {
        let mut cur = self.clone();
        for j in 0..self.arity as usize {
            match cur.eliminate(j) {
                None => return false,
                Some(next) => cur = next,
            }
        }
        // All remaining atoms are variable-free and were decided during
        // normalization, so reaching here means satisfiable.
        debug_assert!(cur
            .atoms
            .iter()
            .all(|a| a.coeffs().iter().all(|c| c.is_zero())));
        true
    }

    /// Remove syntactically redundant atoms: among atoms with identical
    /// coefficient vectors, keep only the tightest bound.
    pub fn pruned(&self) -> LinTuple {
        let mut kept: Vec<LinAtom> = Vec::new();
        'outer: for a in &self.atoms {
            let mut i = 0;
            while i < kept.len() {
                match dominance(&kept[i], a) {
                    Some(true) => continue 'outer, // kept[i] implies a
                    Some(false) => {
                        kept.remove(i);
                    }
                    None => i += 1,
                }
            }
            kept.push(a.clone());
        }
        LinTuple::from_atoms(self.arity, kept)
    }

    /// Syntactic subsumption: if every atom of `self` appears literally in
    /// `other`, then `other` carries strictly more constraints, so
    /// `other ⊆ self` as point sets. A single linear merge over the sorted
    /// atom vectors; sound but incomplete.
    pub fn subsumes_syntactic(&self, other: &LinTuple) -> bool {
        debug_assert_eq!(self.arity, other.arity);
        if self.atoms.len() > other.atoms.len() {
            return false;
        }
        if self.atoms.len() == other.atoms.len() {
            // Equal length makes subsumption equality; fingerprints decide
            // it in one compare (full check on the rare collision).
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

    /// Widen to a larger arity. Rebuilds through [`LinTuple::from_atoms`]
    /// because the fingerprint folds the full coefficient vector, whose
    /// length changes with the arity.
    pub fn widen(&self, new_arity: u32) -> LinTuple {
        LinTuple::from_atoms(new_arity, self.atoms.iter().map(|a| a.widen(new_arity)))
    }

    /// Rename columns into a target arity.
    pub fn rename(&self, new_arity: u32, f: impl Fn(u32) -> u32 + Copy) -> LinTuple {
        LinTuple::from_atoms(new_arity, self.atoms.iter().map(|a| a.rename(new_arity, f)))
    }
}

/// If `a` implies `b` returns `Some(true)`; if `b` implies `a` returns
/// `Some(false)`; otherwise `None`. Only detects same-coefficient dominance.
fn dominance(a: &LinAtom, b: &LinAtom) -> Option<bool> {
    if a.coeffs() != b.coeffs() {
        return None;
    }
    // e + c1 (op1) 0 vs e + c2 (op2) 0: larger constant is tighter.
    use std::cmp::Ordering::*;
    match (a.op(), b.op()) {
        (CompOp::Eq, _) | (_, CompOp::Eq) => {
            // e + c1 = 0 implies e + c2 <= 0 iff c2 <= c1... but also depends
            // on op; keep it simple and only dedup exact equality.
            if a == b {
                Some(true)
            } else {
                None
            }
        }
        (aop, bop) => match a.constant().cmp(b.constant()) {
            Greater => Some(true), // a tighter
            Less => Some(false),   // b tighter
            Equal => match (aop, bop) {
                (CompOp::Lt, _) => Some(true), // strict implies weak
                (_, CompOp::Lt) => Some(false),
                _ => Some(true), // identical
            },
        },
    }
}

impl fmt::Display for LinTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "⊤/{}", self.arity);
        }
        let parts: Vec<String> = self.atoms.iter().map(|a| a.to_string()).collect();
        write!(f, "{}", parts.join(" & "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_core::prelude::rat;

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

    #[test]
    fn simplex_satisfiable() {
        // x >= 0, y >= 0, x + y <= 1
        let t = LinTuple::from_atoms(
            2,
            vec![
                atom(&[-1, 0], 0, CompOp::Le),
                atom(&[0, -1], 0, CompOp::Le),
                atom(&[1, 1], -1, CompOp::Le),
            ],
        );
        assert!(t.is_satisfiable());
        assert!(t.contains_point(&pt(&[0, 0])));
        assert!(!t.contains_point(&pt(&[1, 1])));
    }

    #[test]
    fn infeasible_system() {
        // x + y < 0 and x > 0 and y > 0
        let t = LinTuple::from_atoms(
            2,
            vec![
                atom(&[1, 1], 0, CompOp::Lt),
                atom(&[-1, 0], 0, CompOp::Lt),
                atom(&[0, -1], 0, CompOp::Lt),
            ],
        );
        assert!(!t.is_satisfiable());
    }

    #[test]
    fn strictness_matters() {
        // x <= 0 and x >= 0: sat (x = 0); x < 0 and x >= 0: unsat
        let sat = LinTuple::from_atoms(
            1,
            vec![atom(&[1], 0, CompOp::Le), atom(&[-1], 0, CompOp::Le)],
        );
        assert!(sat.is_satisfiable());
        let unsat = LinTuple::from_atoms(
            1,
            vec![atom(&[1], 0, CompOp::Lt), atom(&[-1], 0, CompOp::Le)],
        );
        assert!(!unsat.is_satisfiable());
    }

    #[test]
    fn elimination_projects_shadow() {
        // triangle x >= 0, y >= 0, x + 2y <= 4; eliminate y → 0 <= x <= 4
        let t = LinTuple::from_atoms(
            2,
            vec![
                atom(&[-1, 0], 0, CompOp::Le),
                atom(&[0, -1], 0, CompOp::Le),
                atom(&[1, 2], -4, CompOp::Le),
            ],
        );
        let e = t.eliminate(1).unwrap();
        assert!(e.contains_point(&pt(&[0, 99])));
        assert!(e.contains_point(&pt(&[4, 99])));
        assert!(!e.contains_point(&pt(&[5, 0])));
        assert!(!e.contains_point(&pt(&[-1, 0])));
    }

    #[test]
    fn equality_substitution() {
        // x = 2y ∧ x + y <= 3 ⇒ after ∃x: 3y <= 3 i.e. y <= 1
        let t = LinTuple::from_atoms(
            2,
            vec![atom(&[1, -2], 0, CompOp::Eq), atom(&[1, 1], -3, CompOp::Le)],
        );
        let e = t.eliminate(0).unwrap();
        assert!(e.contains_point(&pt(&[99, 1])));
        assert!(!e.contains_point(&pt(&[99, 2])));
    }

    #[test]
    fn contradictory_equalities_unsat() {
        // x = 1 ∧ x = 2
        let t = LinTuple::from_atoms(
            1,
            vec![atom(&[1], -1, CompOp::Eq), atom(&[1], -2, CompOp::Eq)],
        );
        assert!(!t.is_satisfiable());
    }

    #[test]
    fn pruning_keeps_tightest() {
        // x <= 5 and x <= 3 → keep x <= 3
        let t = LinTuple::from_atoms(
            1,
            vec![atom(&[1], -5, CompOp::Le), atom(&[1], -3, CompOp::Le)],
        )
        .pruned();
        assert_eq!(t.len(), 1);
        assert!(t.contains_point(&pt(&[3])));
        assert!(!t.contains_point(&pt(&[4])));
        // strict vs weak at same constant: strict wins
        let t = LinTuple::from_atoms(
            1,
            vec![atom(&[1], -3, CompOp::Le), atom(&[1], -3, CompOp::Lt)],
        )
        .pruned();
        assert_eq!(t.len(), 1);
        assert!(!t.contains_point(&pt(&[3])));
    }

    #[test]
    fn unbounded_elimination_drops_all() {
        // only a lower bound on y: ∃y. y >= x  ≡ true
        let t = LinTuple::from_atoms(2, vec![atom(&[1, -1], 0, CompOp::Le)]);
        let e = t.eliminate(1).unwrap();
        assert!(e.is_empty());
    }

    #[test]
    fn boxes_from_single_variable_atoms_detect_disjointness() {
        // x <= 1 (coeff +1) vs x >= 2 (coeff -1): boxes [..,1] and [2,..].
        let low = LinTuple::from_atoms(2, vec![atom(&[1, 0], -1, CompOp::Le)]);
        let high = LinTuple::from_atoms(2, vec![atom(&[-1, 0], 2, CompOp::Le)]);
        assert!(low.box_disjoint(&high));
        assert!(!low.conjoin(&high).is_satisfiable());
        // Two-column atoms contribute nothing to boxes: x + y <= 0 vs x + y >= 1
        // overlap as boxes (both unconstrained) even though unsat together.
        let a = LinTuple::from_atoms(2, vec![atom(&[1, 1], 0, CompOp::Le)]);
        let b = LinTuple::from_atoms(2, vec![atom(&[-1, -1], 1, CompOp::Le)]);
        assert!(!a.box_disjoint(&b));
        assert!(!a.conjoin(&b).is_satisfiable());
    }

    #[test]
    fn negative_coefficient_flips_box_side() {
        // -2x + 6 <= 0 is x >= 3: a lower bound despite the Le op.
        let t = LinTuple::from_atoms(1, vec![atom(&[-2], 6, CompOp::Le)]);
        let hi = LinTuple::from_atoms(1, vec![atom(&[1], -2, CompOp::Lt)]); // x < 2
        assert!(t.box_disjoint(&hi));
        assert!(t.contains_point(&pt(&[3])));
    }

    #[test]
    fn fingerprint_is_construction_order_independent() {
        let a = atom(&[1, 0], -1, CompOp::Le);
        let b = atom(&[0, 1], -2, CompOp::Lt);
        let ab = LinTuple::from_atoms(2, vec![a.clone(), b.clone()]);
        let ba = LinTuple::from_atoms(2, vec![b, a]);
        assert_eq!(ab, ba);
        assert_eq!(ab.fingerprint(), ba.fingerprint());
        // widen rebuilds the fingerprint over the padded coefficient vectors
        let w = ab.widen(3);
        assert_eq!(w, ab.widen(3));
        assert_ne!(w.fingerprint(), ab.fingerprint());
    }

    #[test]
    fn dense_rationals_admit_open_boxes() {
        // 0 < x < 1 is satisfiable over Q
        let t = LinTuple::from_atoms(
            1,
            vec![atom(&[-1], 0, CompOp::Lt), atom(&[1], -1, CompOp::Lt)],
        );
        assert!(t.is_satisfiable());
    }
}
