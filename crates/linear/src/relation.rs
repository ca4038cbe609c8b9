//! Linear generalized relations: finite unions of linear tuples.
//!
//! The FO+ instantiation of `dco-core`'s relation layer: [`LinRelation`] is
//! [`Relation`] over [`LinTuple`], a DNF of linear constraints closed under
//! the same algebra as dense order (union, intersection, subtraction and
//! complement, projection — here via Fourier–Motzkin). Conversion to and
//! from the dense-order representation covers the order-definable
//! fragment, which is how the cross-language experiments compare FO and
//! FO+ answers.

use crate::atom::{LinAtom, NormalizedAtom};
use crate::tuple::LinTuple;
use dco_core::prelude::{
    Atom, Conjunction, GeneralizedRelation, GeneralizedTuple, Rational, Relation, Term,
};

/// A finite union of satisfiable linear tuples of fixed arity.
pub type LinRelation = Relation<LinTuple>;

/// A dense-order tuple as a linear one (always possible): `l op r` becomes
/// `l - r op 0`.
pub(crate) fn lift_dense(t: &GeneralizedTuple) -> LinTuple {
    let arity = t.arity();
    let mut out = LinTuple::top(arity);
    for a in t.atoms() {
        let mut coeffs = vec![Rational::ZERO; arity as usize];
        let mut k = Rational::ZERO;
        for (term, sign) in [(a.lhs(), Rational::ONE), (a.rhs(), -Rational::ONE)] {
            match term {
                Term::Var(v) => coeffs[v.index()] = coeffs[v.index()] + sign,
                Term::Const(c) => k = k + (c * sign),
            }
        }
        // A normalized order atom mentions a variable and is not trivial,
        // so it stays one linear atom.
        if let NormalizedAtom::Atom(la) = LinAtom::normalize(coeffs, k, a.op()) {
            out.push(la);
        }
    }
    out
}

/// Convert a dense-order relation into linear form (always possible).
pub fn from_dense(rel: &GeneralizedRelation) -> LinRelation {
    LinRelation::from_tuples(rel.arity(), rel.tuples().iter().map(lift_dense))
}

/// Convert to a dense-order relation, if every atom is an order atom
/// (coefficients in {0, ±1}, at most one variable per side). Returns
/// `None` when genuine arithmetic is present.
pub fn to_dense(rel: &LinRelation) -> Option<GeneralizedRelation> {
    let mut out = GeneralizedRelation::empty(rel.arity());
    'tuples: for t in rel.tuples() {
        let mut dense = GeneralizedTuple::top(rel.arity());
        for a in t.atoms() {
            if !a.is_order_atom() {
                return None;
            }
            // `x_i - x_j op 0` is `x_i op x_j`, `x_i + k op 0` is
            // `x_i op -k`, and `-x_i + k op 0` is `k op x_i`.
            let side =
                |sign: Rational, k: Rational| match a.coeffs().iter().position(|c| *c == sign) {
                    Some(i) => Term::var(i as u32),
                    None => Term::Const(k),
                };
            let lhs = side(Rational::ONE, *a.constant());
            let rhs = side(-Rational::ONE, -*a.constant());
            let Some(atoms) = Atom::normalized(lhs, a.op(), rhs) else {
                continue 'tuples; // a false atom empties the tuple
            };
            for b in atoms {
                dense.push(b);
            }
        }
        out.insert(dense);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_core::prelude::{rat, CompOp, RawAtom, RawOp, Var};

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
        let p = s.project_out(Var(1));
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
        let lin = from_dense(&tri);
        assert!(lin.contains_point(&pt(&[1, 2])));
        assert!(!lin.contains_point(&pt(&[2, 1])));
        let back = to_dense(&lin).expect("order fragment");
        assert!(back.equivalent(&tri));
    }

    #[test]
    fn to_dense_rejects_arithmetic() {
        let h = halfplane();
        assert!(to_dense(&h).is_none());
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
        assert!(to_dense(&strip).is_none());
    }

    #[test]
    fn union_dedup() {
        let a = halfplane();
        let b = halfplane();
        assert_eq!(a.union(&b).len(), 1);
    }
}
