//! Atomic dense-order constraints.
//!
//! Following \[KKR90\] as recalled in Section 2 of the paper, an atomic
//! constraint compares two *terms* — variables (columns of a generalized
//! relation) or rational constants — with one of `<, ≤, =, ≠, ≥, >`.
//!
//! Internally every atom is kept in a normal form over the operators
//! `{<, ≤, =}` only: `>` and `≥` are flipped at construction, and `≠` is
//! *split* into the disjunction `< ∨ >` when a [`RawAtom`] is lowered into
//! tuples (see [`crate::tuple`]). Constant-vs-constant comparisons evaluate
//! immediately to ⊤/⊥. This normal form is what makes dense-order quantifier
//! elimination a pure bound-combination step.

use crate::rational::Rational;

use std::fmt;

/// A variable, identified by its column index within a generalized relation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// The column index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A term of the dense-order language: a variable or a rational constant.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A column variable.
    Var(Var),
    /// A rational constant.
    Const(Rational),
}

impl Term {
    /// Shorthand for a variable term.
    pub fn var(i: u32) -> Term {
        Term::Var(Var(i))
    }

    /// Shorthand for a constant term.
    pub fn cst(r: impl Into<Rational>) -> Term {
        Term::Const(r.into())
    }

    /// The variable, if this term is one.
    pub fn as_var(&self) -> Option<Var> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }

    /// The constant, if this term is one.
    pub fn as_const(&self) -> Option<Rational> {
        match self {
            Term::Const(c) => Some(*c),
            Term::Var(_) => None,
        }
    }

    /// Evaluate under a point (assignment to all columns).
    pub fn eval(&self, point: &[Rational]) -> Rational {
        match self {
            Term::Var(v) => point[v.index()],
            Term::Const(c) => *c,
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{}", v),
            Term::Const(c) => write!(f, "{}", c),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Term {
        Term::Var(v)
    }
}

impl From<Rational> for Term {
    fn from(c: Rational) -> Term {
        Term::Const(c)
    }
}

/// The full comparison vocabulary accepted at the API surface.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RawOp {
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `≥`
    Ge,
    /// `>`
    Gt,
}

impl RawOp {
    /// Evaluate the comparison on two rationals.
    pub fn eval(self, a: &Rational, b: &Rational) -> bool {
        match self {
            RawOp::Lt => a < b,
            RawOp::Le => a <= b,
            RawOp::Eq => a == b,
            RawOp::Ne => a != b,
            RawOp::Ge => a >= b,
            RawOp::Gt => a > b,
        }
    }

    /// The comparison with operands swapped (`a op b` ⟺ `b op.flip() a`).
    pub fn flip(self) -> RawOp {
        match self {
            RawOp::Lt => RawOp::Gt,
            RawOp::Le => RawOp::Ge,
            RawOp::Eq => RawOp::Eq,
            RawOp::Ne => RawOp::Ne,
            RawOp::Ge => RawOp::Le,
            RawOp::Gt => RawOp::Lt,
        }
    }

    /// The logical negation (`¬(a op b)` ⟺ `a op.negate() b`).
    pub fn negate(self) -> RawOp {
        match self {
            RawOp::Lt => RawOp::Ge,
            RawOp::Le => RawOp::Gt,
            RawOp::Eq => RawOp::Ne,
            RawOp::Ne => RawOp::Eq,
            RawOp::Ge => RawOp::Lt,
            RawOp::Gt => RawOp::Le,
        }
    }
}

impl fmt::Display for RawOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RawOp::Lt => "<",
            RawOp::Le => "<=",
            RawOp::Eq => "=",
            RawOp::Ne => "!=",
            RawOp::Ge => ">=",
            RawOp::Gt => ">",
        };
        f.write_str(s)
    }
}

/// The normalized comparison operators stored inside generalized tuples.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CompOp {
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `=`
    Eq,
}

impl CompOp {
    /// Evaluate the comparison on two rationals.
    pub fn eval(self, a: &Rational, b: &Rational) -> bool {
        match self {
            CompOp::Lt => a < b,
            CompOp::Le => a <= b,
            CompOp::Eq => a == b,
        }
    }

    /// Whether the operator is a strict inequality.
    pub fn is_strict(self) -> bool {
        matches!(self, CompOp::Lt)
    }
}

impl fmt::Display for CompOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompOp::Lt => "<",
            CompOp::Le => "<=",
            CompOp::Eq => "=",
        };
        f.write_str(s)
    }
}

/// A raw (unnormalized) atomic constraint `lhs op rhs`, as written by users
/// or produced by formula translation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RawAtom {
    /// Left operand.
    pub lhs: Term,
    /// Comparison operator (any of the six).
    pub op: RawOp,
    /// Right operand.
    pub rhs: Term,
}

impl RawAtom {
    /// Construct a raw atom.
    pub fn new(lhs: impl Into<Term>, op: RawOp, rhs: impl Into<Term>) -> RawAtom {
        RawAtom {
            lhs: lhs.into(),
            op,
            rhs: rhs.into(),
        }
    }

    /// Evaluate at a point.
    pub fn eval(&self, point: &[Rational]) -> bool {
        self.op.eval(&self.lhs.eval(point), &self.rhs.eval(point))
    }

    /// Lower into disjunctive normal form over normalized atoms:
    /// the result is a list of alternatives, each a list of [`Atom`]s, whose
    /// disjunction is equivalent to this raw atom. `≠` produces two
    /// alternatives, everything else one (or zero atoms if trivially true).
    /// Returns `None` if the atom is trivially false.
    pub fn normalize(&self) -> Option<Vec<Vec<Atom>>> {
        match self.op {
            RawOp::Ne => {
                // a ≠ b ⟺ a < b ∨ b < a
                let mut alts = Vec::new();
                if let Some(alt) = Atom::normalized(self.lhs, CompOp::Lt, self.rhs) {
                    alts.push(alt.into_iter().collect());
                }
                if let Some(alt) = Atom::normalized(self.rhs, CompOp::Lt, self.lhs) {
                    alts.push(alt.into_iter().collect());
                }
                if alts.is_empty() {
                    None
                } else {
                    Some(alts)
                }
            }
            RawOp::Gt => Atom::normalized(self.rhs, CompOp::Lt, self.lhs).map(|a| vec![a]),
            RawOp::Ge => Atom::normalized(self.rhs, CompOp::Le, self.lhs).map(|a| vec![a]),
            RawOp::Lt => Atom::normalized(self.lhs, CompOp::Lt, self.rhs).map(|a| vec![a]),
            RawOp::Le => Atom::normalized(self.lhs, CompOp::Le, self.rhs).map(|a| vec![a]),
            RawOp::Eq => Atom::normalized(self.lhs, CompOp::Eq, self.rhs).map(|a| vec![a]),
        }
    }
}

impl fmt::Display for RawAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// A normalized atomic constraint: `lhs op rhs` with `op ∈ {<, ≤, =}`,
/// guaranteed not to be a decidable constant comparison and not reflexive.
///
/// Orientation convention: for `=`, the smaller term (in the arbitrary
/// `Term` order, variables before constants) is on the left, so syntactic
/// equality of atoms coincides with logical equality of equations.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Atom {
    lhs: Term,
    op: CompOp,
    rhs: Term,
}

impl Atom {
    /// Normalize `lhs op rhs`. Returns:
    /// * `Some(vec![])` if the atom is trivially true (e.g. `1 < 2`, `x ≤ x`),
    /// * `Some(vec![atom])` for a genuine constraint,
    /// * `None` if the atom is trivially false (e.g. `2 < 1`, `x < x`).
    pub fn normalized(lhs: Term, op: CompOp, rhs: Term) -> Option<Vec<Atom>> {
        // Constant-constant: decide now.
        if let (Term::Const(a), Term::Const(b)) = (lhs, rhs) {
            return if op.eval(&a, &b) { Some(vec![]) } else { None };
        }
        // Reflexive.
        if lhs == rhs {
            return match op {
                CompOp::Lt => None,
                CompOp::Le | CompOp::Eq => Some(vec![]),
            };
        }
        // Orient equalities canonically.
        let (lhs, rhs) = if op == CompOp::Eq && rhs < lhs {
            (rhs, lhs)
        } else {
            (lhs, rhs)
        };
        Some(vec![Atom { lhs, op, rhs }])
    }

    /// The left operand.
    pub fn lhs(&self) -> Term {
        self.lhs
    }

    /// The operator.
    pub fn op(&self) -> CompOp {
        self.op
    }

    /// The right operand.
    pub fn rhs(&self) -> Term {
        self.rhs
    }

    /// Evaluate at a point.
    pub fn eval(&self, point: &[Rational]) -> bool {
        self.op.eval(&self.lhs.eval(point), &self.rhs.eval(point))
    }

    /// Whether the atom mentions the given variable.
    pub fn mentions(&self, v: Var) -> bool {
        self.lhs == Term::Var(v) || self.rhs == Term::Var(v)
    }

    /// All variables mentioned.
    pub fn vars(&self) -> impl Iterator<Item = Var> {
        [self.lhs.as_var(), self.rhs.as_var()].into_iter().flatten()
    }

    /// All constants mentioned.
    pub fn consts(&self) -> impl Iterator<Item = Rational> {
        [self.lhs.as_const(), self.rhs.as_const()]
            .into_iter()
            .flatten()
    }

    /// Substitute `v := t`, renormalizing (the result may be trivial).
    pub fn substitute(&self, v: Var, t: Term) -> Option<Vec<Atom>> {
        let sub = |term: Term| if term == Term::Var(v) { t } else { term };
        Atom::normalized(sub(self.lhs), self.op, sub(self.rhs))
    }

    /// Negate: `¬(a < b) = b ≤ a`, `¬(a ≤ b) = b < a`,
    /// `¬(a = b) = a < b ∨ b < a` — the alternatives of a disjunction, each
    /// one atom (a normalized atom's negation is never trivial).
    pub fn negate(&self) -> Vec<Atom> {
        let alts = match self.op {
            CompOp::Lt => vec![(self.rhs, CompOp::Le, self.lhs)],
            CompOp::Le => vec![(self.rhs, CompOp::Lt, self.lhs)],
            CompOp::Eq => vec![
                (self.lhs, CompOp::Lt, self.rhs),
                (self.rhs, CompOp::Lt, self.lhs),
            ],
        };
        alts.into_iter()
            .filter_map(|(l, op, r)| Atom::normalized(l, op, r))
            .flatten()
            .collect()
    }

    /// Map constants through a monotone function (used for automorphisms).
    pub fn map_consts(&self, f: &impl Fn(&Rational) -> Rational) -> Atom {
        let map = |t: Term| match t {
            Term::Const(c) => Term::Const(f(&c)),
            v => v,
        };
        Atom {
            lhs: map(self.lhs),
            op: self.op,
            rhs: map(self.rhs),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::rat;

    fn v(i: u32) -> Term {
        Term::var(i)
    }

    fn c(n: i64) -> Term {
        Term::cst(rat(n as i128, 1))
    }

    #[test]
    fn constant_comparisons_decide() {
        assert_eq!(Atom::normalized(c(1), CompOp::Lt, c(2)), Some(vec![]));
        assert_eq!(Atom::normalized(c(2), CompOp::Lt, c(1)), None);
        assert_eq!(Atom::normalized(c(2), CompOp::Eq, c(2)), Some(vec![]));
    }

    #[test]
    fn reflexive_atoms_decide() {
        assert_eq!(Atom::normalized(v(0), CompOp::Lt, v(0)), None);
        assert_eq!(Atom::normalized(v(0), CompOp::Le, v(0)), Some(vec![]));
        assert_eq!(Atom::normalized(v(0), CompOp::Eq, v(0)), Some(vec![]));
    }

    #[test]
    fn equality_orientation_canonical() {
        let a = Atom::normalized(v(1), CompOp::Eq, v(0)).unwrap();
        let b = Atom::normalized(v(0), CompOp::Eq, v(1)).unwrap();
        assert_eq!(a, b);
        let a = Atom::normalized(c(3), CompOp::Eq, v(0)).unwrap();
        let b = Atom::normalized(v(0), CompOp::Eq, c(3)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn raw_op_negate_flip() {
        for op in [
            RawOp::Lt,
            RawOp::Le,
            RawOp::Eq,
            RawOp::Ne,
            RawOp::Ge,
            RawOp::Gt,
        ] {
            for (a, b) in [
                (rat(1, 1), rat(2, 1)),
                (rat(2, 1), rat(2, 1)),
                (rat(3, 1), rat(2, 1)),
            ] {
                assert_eq!(op.eval(&a, &b), !op.negate().eval(&a, &b), "{op:?} {a} {b}");
                assert_eq!(op.eval(&a, &b), op.flip().eval(&b, &a), "{op:?} {a} {b}");
            }
        }
    }

    #[test]
    fn ne_normalizes_to_two_alternatives() {
        let raw = RawAtom::new(v(0), RawOp::Ne, c(5));
        let alts = raw.normalize().unwrap();
        assert_eq!(alts.len(), 2);
    }

    #[test]
    fn ne_on_equal_constants_is_false() {
        let raw = RawAtom::new(c(5), RawOp::Ne, c(5));
        assert!(raw.normalize().is_none());
    }

    #[test]
    fn negate_roundtrip_semantics() {
        let atom = Atom::normalized(v(0), CompOp::Le, v(1)).unwrap()[0];
        let neg = atom.negate();
        // semantics check on sample points
        for p in [
            vec![rat(0, 1), rat(1, 1)],
            vec![rat(1, 1), rat(0, 1)],
            vec![rat(1, 1), rat(1, 1)],
        ] {
            let val = atom.eval(&p);
            let negval = neg.iter().any(|a| a.eval(&p));
            assert_eq!(val, !negval);
        }
    }

    #[test]
    fn substitution_renormalizes() {
        // x0 < x1, substitute x1 := 3  =>  x0 < 3
        let atom = Atom::normalized(v(0), CompOp::Lt, v(1)).unwrap()[0];
        let result = atom.substitute(Var(1), c(3)).unwrap();
        assert_eq!(result.len(), 1);
        assert!(result[0].eval(&[rat(2, 1), rat(0, 1)]));
        assert!(!result[0].eval(&[rat(4, 1), rat(0, 1)]));
        // x0 < x1, substitute x0 := x1 => false
        assert_eq!(atom.substitute(Var(0), v(1)), None);
    }
}
