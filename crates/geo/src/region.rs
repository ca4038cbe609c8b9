//! Planar regions as binary dense-order relations.
//!
//! §2 of the paper motivates dense-order constraint databases with
//! geographical pointsets: planar regions finitely represented by order
//! constraints. Over `(Q, ≤)` the definable regions are exactly the finite
//! unions of axis-aligned "order cells" — boxes, segments, points, and the
//! order wedges (`x ≤ y`-style half-planes). This module wraps binary
//! generalized relations with region constructors and predicates.

use dco_core::prelude::*;

/// A planar region: a binary generalized relation with set semantics.
#[derive(Clone, Debug, PartialEq)]
pub struct Region {
    relation: GeneralizedRelation,
}

impl Region {
    /// The empty region.
    pub fn empty() -> Region {
        Region {
            relation: GeneralizedRelation::empty(2),
        }
    }

    /// The whole plane.
    pub fn plane() -> Region {
        Region {
            relation: GeneralizedRelation::universe(2),
        }
    }

    /// Wrap an existing binary relation.
    pub fn from_relation(relation: GeneralizedRelation) -> Region {
        assert_eq!(relation.arity(), 2, "regions are binary");
        Region { relation }
    }

    /// The closed box `[x0, x1] × [y0, y1]`.
    pub fn closed_box(
        x0: impl Into<Rational>,
        x1: impl Into<Rational>,
        y0: impl Into<Rational>,
        y1: impl Into<Rational>,
    ) -> Region {
        let (x0, x1, y0, y1) = (x0.into(), x1.into(), y0.into(), y1.into());
        Region {
            relation: GeneralizedRelation::from_raw(
                2,
                vec![
                    RawAtom::new(Term::Const(x0), RawOp::Le, Term::var(0)),
                    RawAtom::new(Term::var(0), RawOp::Le, Term::Const(x1)),
                    RawAtom::new(Term::Const(y0), RawOp::Le, Term::var(1)),
                    RawAtom::new(Term::var(1), RawOp::Le, Term::Const(y1)),
                ],
            ),
        }
    }

    /// The open box `(x0, x1) × (y0, y1)`.
    pub fn open_box(
        x0: impl Into<Rational>,
        x1: impl Into<Rational>,
        y0: impl Into<Rational>,
        y1: impl Into<Rational>,
    ) -> Region {
        let (x0, x1, y0, y1) = (x0.into(), x1.into(), y0.into(), y1.into());
        Region {
            relation: GeneralizedRelation::from_raw(
                2,
                vec![
                    RawAtom::new(Term::Const(x0), RawOp::Lt, Term::var(0)),
                    RawAtom::new(Term::var(0), RawOp::Lt, Term::Const(x1)),
                    RawAtom::new(Term::Const(y0), RawOp::Lt, Term::var(1)),
                    RawAtom::new(Term::var(1), RawOp::Lt, Term::Const(y1)),
                ],
            ),
        }
    }

    /// A single point.
    pub fn point(x: impl Into<Rational>, y: impl Into<Rational>) -> Region {
        Region {
            relation: GeneralizedRelation::from_points(2, vec![vec![x.into(), y.into()]]),
        }
    }

    /// The underlying relation.
    pub fn relation(&self) -> &GeneralizedRelation {
        &self.relation
    }

    /// Union.
    pub fn union(&self, other: &Region) -> Region {
        Region {
            relation: self.relation.union(&other.relation),
        }
    }

    /// Intersection.
    pub fn intersect(&self, other: &Region) -> Region {
        Region {
            relation: self.relation.intersect(&other.relation),
        }
    }

    /// Complement.
    pub fn complement(&self) -> Region {
        Region {
            relation: self.relation.complement(),
        }
    }

    /// Set difference.
    pub fn difference(&self, other: &Region) -> Region {
        Region {
            relation: self.relation.subtract(&other.relation),
        }
    }

    /// Membership.
    pub fn contains(&self, x: impl Into<Rational>, y: impl Into<Rational>) -> bool {
        self.relation.contains_point(&[x.into(), y.into()])
    }

    /// Emptiness.
    pub fn is_empty(&self) -> bool {
        self.relation.is_empty()
    }

    /// Semantic equality.
    pub fn equivalent(&self, other: &Region) -> bool {
        self.relation.equivalent(&other.relation)
    }

    /// The paper's §2 figure: a staircase-shaped shaded region assembled
    /// from rectangles with marked points `(a₁,b₁) … (a₇,b₇)` on its
    /// boundary — reconstructed here as a concrete instance used by the
    /// examples and experiment E7.
    pub fn paper_figure() -> Region {
        Region::closed_box(0, 4, 0, 2)
            .union(&Region::closed_box(2, 6, 2, 4))
            .union(&Region::closed_box(4, 8, 4, 6))
            .union(&Region::point(1, 5))
            .union(&Region::point(7, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_membership() {
        let b = Region::closed_box(0, 2, 0, 2);
        assert!(b.contains(0, 0));
        assert!(b.contains(2, 2));
        assert!(b.contains(rat(1, 2), rat(3, 2)));
        assert!(!b.contains(3, 1));
        let o = Region::open_box(0, 2, 0, 2);
        assert!(!o.contains(0, 0));
        assert!(o.contains(1, 1));
    }

    #[test]
    fn boolean_algebra() {
        let a = Region::closed_box(0, 2, 0, 2);
        let b = Region::closed_box(1, 3, 1, 3);
        let u = a.union(&b);
        assert!(u.contains(0, 0) && u.contains(3, 3));
        let i = a.intersect(&b);
        assert!(i.contains(1, 1) && i.contains(2, 2));
        assert!(!i.contains(0, 0));
        let d = a.difference(&b);
        assert!(d.contains(0, 0));
        assert!(!d.contains(2, 2));
        assert!(a.complement().contains(5, 5));
        assert!(!a.complement().contains(1, 1));
    }

    #[test]
    fn paper_figure_shape() {
        let r = Region::paper_figure();
        assert!(r.contains(1, 1)); // first step
        assert!(r.contains(5, 3)); // second step
        assert!(r.contains(7, 5)); // third step
        assert!(r.contains(1, 5)); // isolated point
        assert!(!r.contains(1, 3)); // above first step, left of second
        assert!(!r.contains(rat(1, 1), rat(11, 2))); // near but not at the point
    }

    #[test]
    fn equivalence_is_semantic() {
        let a = Region::closed_box(0, 2, 0, 1).union(&Region::closed_box(1, 3, 0, 1));
        let b = Region::closed_box(0, 3, 0, 1);
        assert!(a.equivalent(&b));
    }
}
