//! Linear atomic constraints `Σ aᵢ·xᵢ + c  ρ  0` with `ρ ∈ {<, ≤, =}`.
//!
//! FO+ (Section 4 of the paper) extends the dense-order language with a
//! built-in addition. Its atoms compare linear combinations of variables
//! with rational coefficients. We keep every atom in the homogeneous form
//! `expr ρ 0`; positive rescaling is factored out by normalization so that
//! syntactically equal atoms are logically equal.

use dco_core::prelude::{CompOp, Rational, Term};

use std::fmt;

/// A linear atom over columns `0..arity`: `Σ coeffs[i]·xᵢ + constant  op  0`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinAtom {
    /// Dense per-column coefficients (length = arity).
    coeffs: Vec<Rational>,
    /// Constant term.
    constant: Rational,
    /// Comparison against zero.
    op: CompOp,
}

/// Result of normalizing a candidate atom.
pub enum NormalizedAtom {
    /// Trivially true (e.g. `-1 < 0`).
    True,
    /// Trivially false (e.g. `1 ≤ 0`).
    False,
    /// A genuine constraint.
    Atom(LinAtom),
}

impl LinAtom {
    /// Normalize `Σ coeffs·x + constant op 0`.
    ///
    /// * decides variable-free atoms;
    /// * rescales by the absolute value of the first nonzero coefficient
    ///   (positive factor — preserves the relation);
    /// * for equalities additionally fixes the sign of the first nonzero
    ///   coefficient to be positive.
    pub fn normalize(coeffs: Vec<Rational>, constant: Rational, op: CompOp) -> NormalizedAtom {
        match coeffs.iter().find(|c| !c.is_zero()) {
            None => {
                let holds = match op {
                    CompOp::Lt => constant.is_negative(),
                    CompOp::Le => !constant.is_positive(),
                    CompOp::Eq => constant.is_zero(),
                };
                if holds {
                    NormalizedAtom::True
                } else {
                    NormalizedAtom::False
                }
            }
            Some(first) => {
                let scale = if op == CompOp::Eq {
                    *first
                } else {
                    first.abs()
                };
                let inv = scale.recip().expect("nonzero");
                let coeffs = coeffs.iter().map(|c| c * &inv).collect();
                let constant = constant * inv;
                NormalizedAtom::Atom(LinAtom {
                    coeffs,
                    constant,
                    op,
                })
            }
        }
    }

    /// Build (panicking on trivial truth/falsity — callers that may hit the
    /// trivial cases should use [`LinAtom::normalize`]).
    pub fn new(coeffs: Vec<Rational>, constant: Rational, op: CompOp) -> LinAtom {
        match LinAtom::normalize(coeffs, constant, op) {
            NormalizedAtom::Atom(a) => a,
            _ => panic!("trivial linear atom"),
        }
    }

    /// Per-column coefficients.
    pub fn coeffs(&self) -> &[Rational] {
        &self.coeffs
    }

    /// Constant term.
    pub fn constant(&self) -> &Rational {
        &self.constant
    }

    /// Comparison operator (against zero).
    pub fn op(&self) -> CompOp {
        self.op
    }

    /// Number of columns.
    pub fn arity(&self) -> u32 {
        self.coeffs.len() as u32
    }

    /// Evaluate at a point.
    pub fn eval(&self, point: &[Rational]) -> bool {
        let mut acc = self.constant;
        for (c, x) in self.coeffs.iter().zip(point) {
            if !c.is_zero() {
                acc = acc + (c * x);
            }
        }
        match self.op {
            CompOp::Lt => acc.is_negative(),
            CompOp::Le => !acc.is_positive(),
            CompOp::Eq => acc.is_zero(),
        }
    }

    /// Does the atom mention column `j`?
    pub fn mentions(&self, j: usize) -> bool {
        !self.coeffs[j].is_zero()
    }

    /// The coefficient of column `j`.
    pub fn coeff(&self, j: usize) -> &Rational {
        &self.coeffs[j]
    }

    /// Negations: `¬(e<0) = -e ≤ 0`, `¬(e≤0) = -e < 0`,
    /// `¬(e=0) = e < 0 ∨ -e < 0`. Returns the disjuncts.
    pub fn negate(&self) -> Vec<LinAtom> {
        let neg = |a: &LinAtom| -> (Vec<Rational>, Rational) {
            (a.coeffs.iter().map(|c| -*c).collect(), -a.constant)
        };
        match self.op {
            CompOp::Lt => {
                let (c, k) = neg(self);
                vec![LinAtom::new(c, k, CompOp::Le)]
            }
            CompOp::Le => {
                let (c, k) = neg(self);
                vec![LinAtom::new(c, k, CompOp::Lt)]
            }
            CompOp::Eq => {
                let (c, k) = neg(self);
                vec![
                    LinAtom::new(self.coeffs.clone(), self.constant, CompOp::Lt),
                    LinAtom::new(c, k, CompOp::Lt),
                ]
            }
        }
    }

    /// `self + factor·other` (same arity), used by Fourier–Motzkin and
    /// equality substitution. The operator of the result must be supplied.
    pub fn combine(&self, other: &LinAtom, factor: &Rational, op: CompOp) -> NormalizedAtom {
        let coeffs: Vec<Rational> = self
            .coeffs
            .iter()
            .zip(&other.coeffs)
            .map(|(a, b)| a + &(b * factor))
            .collect();
        let constant = self.constant + (&other.constant * factor);
        LinAtom::normalize(coeffs, constant, op)
    }

    /// Substitute `map[i]` — a column of an `arity`-column context or a
    /// constant — for every column `i` the atom mentions, then renormalize.
    /// Entries of `map` for columns with coefficient 0 are never read.
    pub fn instantiate(&self, arity: u32, map: &[Term]) -> NormalizedAtom {
        let mut coeffs = vec![Rational::ZERO; arity as usize];
        let mut constant = self.constant;
        for (c, t) in self.coeffs.iter().zip(map).filter(|(c, _)| !c.is_zero()) {
            match t {
                Term::Var(v) => coeffs[v.index()] = &coeffs[v.index()] + c,
                Term::Const(k) => constant = constant + (c * k),
            }
        }
        LinAtom::normalize(coeffs, constant, self.op)
    }

    /// Is this a pure order atom (at most two nonzero coefficients, each
    /// ±1 and opposite, or a single ±1)? Such atoms are expressible in the
    /// dense-order fragment.
    pub fn is_order_atom(&self) -> bool {
        let nz: Vec<&Rational> = self.coeffs.iter().filter(|c| !c.is_zero()).collect();
        match nz.len() {
            1 => nz[0].abs() == Rational::ONE,
            2 => {
                nz[0].abs() == Rational::ONE
                    && nz[1].abs() == Rational::ONE
                    && *nz[0] == -*nz[1]
                    && self.constant.is_zero()
            }
            _ => false,
        }
    }
}

impl fmt::Display for LinAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, c) in self.coeffs.iter().enumerate() {
            if c.is_zero() {
                continue;
            }
            if first {
                if *c == Rational::ONE {
                    write!(f, "x{i}")?;
                } else if *c == Rational::from_int(-1) {
                    write!(f, "-x{i}")?;
                } else {
                    write!(f, "{c}*x{i}")?;
                }
                first = false;
            } else if c.is_negative() {
                let a = c.abs();
                if a == Rational::ONE {
                    write!(f, " - x{i}")?;
                } else {
                    write!(f, " - {a}*x{i}")?;
                }
            } else if *c == Rational::ONE {
                write!(f, " + x{i}")?;
            } else {
                write!(f, " + {c}*x{i}")?;
            }
        }
        if self.constant.is_positive() {
            write!(f, " + {}", self.constant)?;
        } else if self.constant.is_negative() {
            write!(f, " - {}", self.constant.abs())?;
        }
        write!(f, " {} 0", self.op)
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

    #[test]
    fn trivial_atoms_decided() {
        assert!(matches!(
            LinAtom::normalize(vec![rat(0, 1)], rat(-1, 1), CompOp::Lt),
            NormalizedAtom::True
        ));
        assert!(matches!(
            LinAtom::normalize(vec![rat(0, 1)], rat(0, 1), CompOp::Lt),
            NormalizedAtom::False
        ));
        assert!(matches!(
            LinAtom::normalize(vec![rat(0, 1)], rat(0, 1), CompOp::Le),
            NormalizedAtom::True
        ));
    }

    #[test]
    fn normalization_rescales() {
        // 2x + 4 <= 0  and  x + 2 <= 0 are the same atom
        let a = atom(&[2], 4, CompOp::Le);
        let b = atom(&[1], 2, CompOp::Le);
        assert_eq!(a, b);
        // equalities also fix the sign: -x + 1 = 0 ≡ x - 1 = 0
        let c = atom(&[-1], 1, CompOp::Eq);
        let d = atom(&[1], -1, CompOp::Eq);
        assert_eq!(c, d);
        // inequalities must NOT flip sign: -x < 0 ≠ x < 0
        let e = atom(&[-1], 0, CompOp::Lt);
        let f = atom(&[1], 0, CompOp::Lt);
        assert_ne!(e, f);
    }

    #[test]
    fn eval_halfplane() {
        // x + y - 1 < 0
        let a = atom(&[1, 1], -1, CompOp::Lt);
        assert!(a.eval(&[rat(0, 1), rat(0, 1)]));
        assert!(!a.eval(&[rat(1, 2), rat(1, 2)]));
        assert!(!a.eval(&[rat(1, 1), rat(1, 1)]));
    }

    #[test]
    fn negation_complements() {
        let a = atom(&[1, -2], 3, CompOp::Le);
        let neg = a.negate();
        for p in [
            [rat(0, 1), rat(0, 1)],
            [rat(0, 1), rat(2, 1)],
            [rat(-3, 1), rat(0, 1)],
            [rat(1, 1), rat(2, 1)],
        ] {
            let v = a.eval(&p);
            let nv = neg.iter().any(|n| n.eval(&p));
            assert_eq!(v, !nv, "{p:?}");
        }
        // equality negation has two disjuncts
        let e = atom(&[1], -1, CompOp::Eq);
        assert_eq!(e.negate().len(), 2);
    }

    #[test]
    fn order_atom_detection() {
        assert!(atom(&[1, -1], 0, CompOp::Lt).is_order_atom()); // x < y
        assert!(atom(&[1, 0], -3, CompOp::Le).is_order_atom()); // x <= 3
        assert!(!atom(&[1, 1], 0, CompOp::Lt).is_order_atom()); // x + y < 0
        assert!(!atom(&[2, -1], 0, CompOp::Lt).is_order_atom()); // 2x < y
        assert!(!atom(&[1, -1], 1, CompOp::Lt).is_order_atom()); // x < y - 1
    }

    #[test]
    fn rename_and_widen() {
        let a = atom(&[1, -1], 0, CompOp::Lt); // x0 < x1
        let inst = |arity, map: &[Term]| match a.instantiate(arity, map) {
            NormalizedAtom::Atom(b) => b,
            _ => panic!("a renaming keeps the atom"),
        };
        let w = inst(4, &[Term::var(0), Term::var(1)]);
        assert_eq!(w.arity(), 4);
        assert!(w.eval(&[rat(0, 1), rat(1, 1), rat(9, 1), rat(9, 1)]));
        let r = inst(2, &[Term::var(1), Term::var(0)]); // x1 < x0
        assert!(r.eval(&[rat(1, 1), rat(0, 1)]));
        assert!(!r.eval(&[rat(0, 1), rat(1, 1)]));
        // Constants fold into the constant term, and may decide the atom.
        let pinned = inst(1, &[Term::var(0), Term::cst(rat(3, 1))]); // x0 < 3
        assert!(pinned.eval(&[rat(2, 1)]) && !pinned.eval(&[rat(3, 1)]));
        assert!(matches!(
            a.instantiate(0, &[Term::cst(rat(1, 1)), Term::cst(rat(1, 1))]),
            NormalizedAtom::False
        ));
    }
}
