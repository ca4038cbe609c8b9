//! The compact rectangle encoding of §2.
//!
//! "It is important to note that these particular shaped objects can be
//! represented by four constants along with a flag indicating the shape
//! (and boundary conditions). This lead\[s\] to efficient encoding of
//! dense-order constraint databases."
//!
//! A binary generalized tuple whose constraints only bound each coordinate
//! by constants denotes an axis-aligned rectangle (possibly unbounded or
//! degenerate). [`BoxEncoding`] stores exactly the paper's compact form —
//! four optional constants plus boundary flags — and converts losslessly to
//! and from such tuples. [`compress`] encodes a whole relation, falling
//! back to the generic representation for non-box tuples, and reports the
//! size ratio the paper alludes to (measured by experiment E7).

use dco_core::prelude::*;

/// One side of a box: unbounded, open at a constant, or closed at one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Side {
    /// No bound.
    Unbounded,
    /// Strict bound (endpoint excluded).
    Open(Rational),
    /// Weak bound (endpoint included).
    Closed(Rational),
}

/// An axis-aligned rectangle: the paper's "four constants along with a
/// flag indicating the shape (and boundary conditions)".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BoxEncoding {
    /// Lower x bound.
    pub x_lo: Side,
    /// Upper x bound.
    pub x_hi: Side,
    /// Lower y bound.
    pub y_lo: Side,
    /// Upper y bound.
    pub y_hi: Side,
}

impl BoxEncoding {
    /// The closed box `[x0, x1] × [y0, y1]`.
    pub fn closed(x0: i64, x1: i64, y0: i64, y1: i64) -> BoxEncoding {
        BoxEncoding {
            x_lo: Side::Closed(Rational::from_int(x0)),
            x_hi: Side::Closed(Rational::from_int(x1)),
            y_lo: Side::Closed(Rational::from_int(y0)),
            y_hi: Side::Closed(Rational::from_int(y1)),
        }
    }

    /// Convert to a generalized tuple over columns (x, y) = (0, 1).
    pub fn to_tuple(&self) -> GeneralizedTuple {
        let mut raws = Vec::new();
        let mut bound = |var: u32, side: &Side, lower: bool| match side {
            Side::Unbounded => {}
            Side::Open(c) => raws.push(if lower {
                RawAtom::new(Term::Const(*c), RawOp::Lt, Term::var(var))
            } else {
                RawAtom::new(Term::var(var), RawOp::Lt, Term::Const(*c))
            }),
            Side::Closed(c) => raws.push(if lower {
                RawAtom::new(Term::Const(*c), RawOp::Le, Term::var(var))
            } else {
                RawAtom::new(Term::var(var), RawOp::Le, Term::Const(*c))
            }),
        };
        bound(0, &self.x_lo, true);
        bound(0, &self.x_hi, false);
        bound(1, &self.y_lo, true);
        bound(1, &self.y_hi, false);
        let mut ts = GeneralizedTuple::from_raw(2, raws);
        assert!(ts.len() <= 1, "box constraints never split");
        ts.pop().unwrap_or_else(|| {
            // Empty box (contradictory bounds): represent as an
            // unsatisfiable tuple.
            GeneralizedTuple::from_atoms(
                2,
                Atom::normalized(Term::var(0), CompOp::Lt, Term::var(0)).unwrap_or_default(),
            )
        })
    }

    /// Try to recover a box from a generalized tuple. Returns `None` when
    /// the tuple involves variable-variable constraints (like the triangle
    /// `x ≤ y`) — those are not axis-aligned boxes.
    pub fn from_tuple(t: &GeneralizedTuple) -> Option<BoxEncoding> {
        if t.arity() != 2 {
            return None;
        }
        let mut b = BoxEncoding {
            x_lo: Side::Unbounded,
            x_hi: Side::Unbounded,
            y_lo: Side::Unbounded,
            y_hi: Side::Unbounded,
        };
        for a in t.atoms() {
            let (var, c, is_lower, strict) = match (a.lhs(), a.rhs(), a.op()) {
                (Term::Var(v), Term::Const(c), CompOp::Lt) => (v, c, false, true),
                (Term::Var(v), Term::Const(c), CompOp::Le) => (v, c, false, false),
                (Term::Const(c), Term::Var(v), CompOp::Lt) => (v, c, true, true),
                (Term::Const(c), Term::Var(v), CompOp::Le) => (v, c, true, false),
                (Term::Var(v), Term::Const(c), CompOp::Eq)
                | (Term::Const(c), Term::Var(v), CompOp::Eq) => {
                    // x = c: both bounds closed at c
                    let side = Side::Closed(c);
                    match v.0 {
                        0 => {
                            b.x_lo = tighten(b.x_lo, side, true)?;
                            b.x_hi = tighten(b.x_hi, side, false)?;
                        }
                        1 => {
                            b.y_lo = tighten(b.y_lo, side, true)?;
                            b.y_hi = tighten(b.y_hi, side, false)?;
                        }
                        _ => return None,
                    }
                    continue;
                }
                _ => return None, // var-var atom: not a box
            };
            let side = if strict {
                Side::Open(c)
            } else {
                Side::Closed(c)
            };
            match (var.0, is_lower) {
                (0, true) => b.x_lo = tighten(b.x_lo, side, true)?,
                (0, false) => b.x_hi = tighten(b.x_hi, side, false)?,
                (1, true) => b.y_lo = tighten(b.y_lo, side, true)?,
                (1, false) => b.y_hi = tighten(b.y_hi, side, false)?,
                _ => return None,
            }
        }
        Some(b)
    }
}

fn side_key(s: &Side) -> Option<(Rational, bool)> {
    match s {
        Side::Unbounded => None,
        Side::Open(c) => Some((*c, true)),
        Side::Closed(c) => Some((*c, false)),
    }
}

/// Tighten a bound: keep the more restrictive of two sides.
fn tighten(cur: Side, new: Side, lower: bool) -> Option<Side> {
    let result = match (side_key(&cur), side_key(&new)) {
        (None, _) => new,
        (_, None) => cur,
        (Some((a, sa)), Some((b, sb))) => {
            let pick_new = if lower {
                b > a || (b == a && sb && !sa)
            } else {
                b < a || (b == a && sb && !sa)
            };
            if pick_new {
                new
            } else {
                cur
            }
        }
    };
    Some(result)
}

/// A compressed relation: boxes where possible, raw tuples elsewhere.
#[derive(Clone, Debug, PartialEq)]
pub struct CompressedRelation {
    /// Box-encoded disjuncts.
    pub boxes: Vec<BoxEncoding>,
    /// Disjuncts that are not boxes, kept in generic form.
    pub residual: Vec<GeneralizedTuple>,
}

impl CompressedRelation {
    /// Decompress back to a generalized relation.
    pub fn to_relation(&self) -> GeneralizedRelation {
        GeneralizedRelation::from_tuples(
            2,
            self.boxes
                .iter()
                .map(|b| b.to_tuple())
                .chain(self.residual.iter().cloned()),
        )
    }

    /// Size measure: boxes count 4 (four constants + flag ≈ O(1) beyond the
    /// constants), residual tuples count their atom count.
    pub fn size(&self) -> usize {
        self.boxes.len() * 4 + self.residual.iter().map(|t| t.len().max(1)).sum::<usize>()
    }
}

/// Compress a binary relation into box form where possible.
pub fn compress(rel: &GeneralizedRelation) -> CompressedRelation {
    assert_eq!(rel.arity(), 2, "box compression is for binary relations");
    let mut boxes = Vec::new();
    let mut residual = Vec::new();
    for t in rel.tuples() {
        match BoxEncoding::from_tuple(&t.simplify()) {
            Some(b) => boxes.push(b),
            None => residual.push(t.clone()),
        }
    }
    CompressedRelation { boxes, residual }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_box_roundtrip() {
        let b = BoxEncoding::closed(0, 2, 1, 3);
        let t = b.to_tuple();
        assert!(t.contains_point(&[rat(1, 1), rat(2, 1)]));
        assert!(t.contains_point(&[rat(0, 1), rat(1, 1)]));
        assert!(!t.contains_point(&[rat(3, 1), rat(2, 1)]));
        let back = BoxEncoding::from_tuple(&t).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn open_and_unbounded_sides() {
        let b = BoxEncoding {
            x_lo: Side::Open(rat(0, 1)),
            x_hi: Side::Unbounded,
            y_lo: Side::Unbounded,
            y_hi: Side::Closed(rat(5, 1)),
        };
        let t = b.to_tuple();
        assert!(t.contains_point(&[rat(1, 1), rat(5, 1)]));
        assert!(!t.contains_point(&[rat(0, 1), rat(5, 1)]));
        assert!(t.contains_point(&[rat(100, 1), rat(-100, 1)]));
        assert_eq!(BoxEncoding::from_tuple(&t).unwrap(), b);
    }

    #[test]
    fn point_is_a_degenerate_box() {
        let t = GeneralizedTuple::point(&[rat(3, 1), rat(4, 1)]);
        let b = BoxEncoding::from_tuple(&t).unwrap();
        assert_eq!(b.x_lo, Side::Closed(rat(3, 1)));
        assert_eq!(b.x_hi, Side::Closed(rat(3, 1)));
        let back = b.to_tuple();
        assert!(back.contains_point(&[rat(3, 1), rat(4, 1)]));
        assert!(!back.contains_point(&[rat(3, 1), rat(5, 1)]));
    }

    #[test]
    fn triangle_is_not_a_box() {
        let tri = GeneralizedTuple::from_raw(
            2,
            vec![RawAtom::new(Term::var(0), RawOp::Le, Term::var(1))],
        )
        .pop()
        .unwrap();
        assert!(BoxEncoding::from_tuple(&tri).is_none());
    }

    #[test]
    fn compress_mixed_relation() {
        let boxy = BoxEncoding::closed(0, 1, 0, 1).to_tuple();
        let tri = GeneralizedTuple::from_raw(
            2,
            vec![RawAtom::new(Term::var(0), RawOp::Le, Term::var(1))],
        )
        .pop()
        .unwrap();
        let rel = GeneralizedRelation::from_tuples(2, vec![boxy, tri]);
        let c = compress(&rel);
        assert_eq!(c.boxes.len(), 1);
        assert_eq!(c.residual.len(), 1);
        assert!(c.to_relation().equivalent(&rel));
    }

    #[test]
    fn redundant_bounds_tighten() {
        // x <= 5 ∧ x <= 3 ∧ x >= 0: box with x_hi = 3
        let t = GeneralizedTuple::from_raw(
            2,
            vec![
                RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat(5, 1))),
                RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat(3, 1))),
                RawAtom::new(Term::cst(rat(0, 1)), RawOp::Le, Term::var(0)),
            ],
        )
        .pop()
        .unwrap();
        let b = BoxEncoding::from_tuple(&t).unwrap();
        assert_eq!(b.x_hi, Side::Closed(rat(3, 1)));
    }
}
