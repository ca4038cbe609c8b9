//! Order-type cells and canonical forms.
//!
//! Fix a finite set of constants `c₁ < … < c_m ⊂ Q` and an arity `k`. A
//! **cell** is a maximal subset of `Q^k` on which the complete order type of
//! `(x₁, …, x_k, c₁, …, c_m)` is constant: each coordinate either equals a
//! specific constant or lies in a specific open gap between consecutive
//! constants (including the two unbounded gaps), and coordinates sharing a
//! gap carry a fixed weak order among themselves.
//!
//! Cells are the dense-order analogue of the cylindrical cells of [Col75,
//! KY85] that Section 5 of the paper quantifies over. They give the engine
//! its canonical forms:
//!
//! * every relation definable with constants drawn from the cell space's
//!   constant set is a **finite union of cells** (it is closed under all
//!   automorphisms of Q fixing the constants pointwise);
//! * hence membership of a *single sample point* of a cell decides
//!   membership of the *whole* cell, giving an exact, cheap canonicalization
//!   `relation ↦ set of cell ids`;
//! * equivalence, inclusion and complement reduce to finite set operations
//!   on cell-id sets.
//!
//! The number of cells is `Σ` over assignments of coordinates to the `2m+1`
//! slots times ordered-set-partition counts per gap — exponential in `k` but
//! perfectly tractable for the arities query evaluation produces.

use crate::atom::{Atom, CompOp, Term};
use crate::rational::Rational;
use crate::relation::{Conjunction, GeneralizedRelation};
use crate::tuple::GeneralizedTuple;

use std::collections::BTreeSet;
use std::fmt;

/// Where a coordinate sits relative to the constants: on the `i`-th constant,
/// or in the `i`-th open gap (gap `0` is `(-∞, c₁)`, gap `m` is `(c_m, ∞)`),
/// at a given rank among the coordinates sharing that gap.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Position {
    /// Exactly the `i`-th constant (0-based into the sorted constant list).
    OnConst(usize),
    /// In open gap `i`, at rank `rank` (0-based, low to high) among the
    /// coordinates placed in that gap; equal coordinates share a rank.
    InGap {
        /// Which open gap (0 = below all constants, m = above all).
        gap: usize,
        /// Rank of this coordinate's equality-group within the gap.
        rank: usize,
    },
}

/// A single cell: one [`Position`] per coordinate.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Cell {
    positions: Vec<Position>,
}

impl Cell {
    /// Per-coordinate positions.
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }
}

/// The space of cells for a fixed constant set and arity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellSpace {
    constants: Vec<Rational>,
    arity: u32,
}

impl CellSpace {
    /// Build a cell space; constants are sorted and deduplicated.
    pub fn new(arity: u32, constants: impl IntoIterator<Item = Rational>) -> CellSpace {
        let set: BTreeSet<Rational> = constants.into_iter().collect();
        CellSpace {
            constants: set.into_iter().collect(),
            arity,
        }
    }

    /// Cell space covering everything a relation (or several) mentions.
    pub fn for_relations<'a>(
        arity: u32,
        rels: impl IntoIterator<Item = &'a GeneralizedRelation>,
    ) -> CellSpace {
        CellSpace::new(arity, rels.into_iter().flat_map(|r| r.constants()))
    }

    /// The sorted constant list.
    pub fn constants(&self) -> &[Rational] {
        &self.constants
    }

    /// The arity.
    pub fn arity(&self) -> u32 {
        self.arity
    }

    /// Number of open gaps (`m + 1`).
    pub fn gaps(&self) -> usize {
        self.constants.len() + 1
    }

    /// Enumerate every cell of the space.
    ///
    /// Enumeration order is deterministic: slot assignments in
    /// lexicographic order, then gap orderings.
    pub fn enumerate(&self) -> Vec<Cell> {
        let k = self.arity as usize;
        let m = self.constants.len();
        let nslots = 2 * m + 1; // even index = gap i/2; odd index = const (i-1)/2
        let mut cells = Vec::new();
        let mut slots = vec![0usize; k];
        loop {
            // Group variables by gap slot.
            let mut per_gap: Vec<Vec<usize>> = vec![Vec::new(); m + 1];
            for (var, &s) in slots.iter().enumerate() {
                if s % 2 == 0 {
                    per_gap[s / 2].push(var);
                }
            }
            // For each gap, enumerate ordered set partitions of its vars;
            // take the cartesian product across gaps.
            let partitions_per_gap: Vec<Vec<Vec<Vec<usize>>>> = per_gap
                .iter()
                .map(|vars| ordered_set_partitions(vars))
                .collect();
            let mut choice = vec![0usize; m + 1];
            loop {
                let mut positions = vec![Position::OnConst(0); k];
                for (var, &s) in slots.iter().enumerate() {
                    if s % 2 == 1 {
                        positions[var] = Position::OnConst((s - 1) / 2);
                    }
                }
                for gap in 0..=m {
                    let part = &partitions_per_gap[gap][choice[gap]];
                    for (rank, block) in part.iter().enumerate() {
                        for &var in block {
                            positions[var] = Position::InGap { gap, rank };
                        }
                    }
                }
                // Guard probe: one hit per cell split; cell decomposition
                // is the polynomial-but-large fallback path, so the tuple
                // budget also counts cells materialized here.
                crate::guard::probe_charge(crate::guard::ProbeSite::CellSplit, 1, 0);
                cells.push(Cell { positions });
                // advance choice
                let mut g = 0;
                loop {
                    if g > m {
                        break;
                    }
                    choice[g] += 1;
                    if choice[g] < partitions_per_gap[g].len() {
                        break;
                    }
                    choice[g] = 0;
                    g += 1;
                }
                if g > m {
                    break;
                }
            }
            // advance slots
            let mut i = 0;
            loop {
                if i >= k {
                    return cells;
                }
                slots[i] += 1;
                if slots[i] < nslots {
                    break;
                }
                slots[i] = 0;
                i += 1;
            }
            if k == 0 {
                return cells;
            }
        }
    }

    /// A sample point strictly inside the cell. Exactness of everything in
    /// this module rests on: a relation definable with constants in this
    /// space either contains all of a cell or none of it, so one sample
    /// decides the cell.
    pub fn sample(&self, cell: &Cell) -> Vec<Rational> {
        let m = self.constants.len();
        // For each gap, how many ranks are used?
        let mut ranks_used = vec![0usize; m + 1];
        for p in &cell.positions {
            if let Position::InGap { gap, rank } = p {
                ranks_used[*gap] = ranks_used[*gap].max(rank + 1);
            }
        }
        let gap_value = |gap: usize, rank: usize| -> Rational {
            let j = ranks_used[gap];
            debug_assert!(rank < j);
            if m == 0 {
                // single unbounded gap: use 1..=j
                return Rational::from_int(rank as i64 + 1);
            }
            if gap == 0 {
                // (-∞, c₁): c₁ - (j - rank)
                self.constants[0] - Rational::from_int((j - rank) as i64)
            } else if gap == m {
                // (c_m, ∞): c_m + rank + 1
                self.constants[m - 1] + Rational::from_int(rank as i64 + 1)
            } else {
                // (c_{gap-1}, c_{gap}) in 0-based: constants[gap-1], constants[gap]
                let lo = &self.constants[gap - 1];
                let hi = &self.constants[gap];
                let step = (hi - lo) / Rational::from_int(j as i64 + 1);
                lo + &(step * Rational::from_int(rank as i64 + 1))
            }
        };
        cell.positions
            .iter()
            .map(|p| match p {
                Position::OnConst(i) => self.constants[*i],
                Position::InGap { gap, rank } => gap_value(*gap, *rank),
            })
            .collect()
    }

    /// Express the cell as a generalized tuple (its defining constraints).
    pub fn to_tuple(&self, cell: &Cell) -> GeneralizedTuple {
        let m = self.constants.len();
        let mut atoms: Vec<Atom> = Vec::new();
        let mut push = |lhs: Term, op: CompOp, rhs: Term| {
            if let Some(v) = Atom::normalized(lhs, op, rhs) {
                atoms.extend(v);
            }
        };
        // Positions relative to constants.
        for (var, p) in cell.positions.iter().enumerate() {
            let x = Term::var(var as u32);
            match p {
                Position::OnConst(i) => {
                    push(x, CompOp::Eq, Term::Const(self.constants[*i]));
                }
                Position::InGap { gap, .. } => {
                    if *gap > 0 {
                        push(Term::Const(self.constants[gap - 1]), CompOp::Lt, x);
                    }
                    if *gap < m {
                        push(x, CompOp::Lt, Term::Const(self.constants[*gap]));
                    }
                }
            }
        }
        // Relative order within gaps.
        for i in 0..cell.positions.len() {
            for j in (i + 1)..cell.positions.len() {
                if let (
                    Position::InGap { gap: g1, rank: r1 },
                    Position::InGap { gap: g2, rank: r2 },
                ) = (&cell.positions[i], &cell.positions[j])
                {
                    if g1 == g2 {
                        let xi = Term::var(i as u32);
                        let xj = Term::var(j as u32);
                        match r1.cmp(r2) {
                            std::cmp::Ordering::Less => push(xi, CompOp::Lt, xj),
                            std::cmp::Ordering::Equal => push(xi, CompOp::Eq, xj),
                            std::cmp::Ordering::Greater => push(xj, CompOp::Lt, xi),
                        }
                    }
                }
            }
        }
        GeneralizedTuple::from_atoms(self.arity, atoms)
    }

    /// The cell containing a concrete point (positions and intra-gap ranks
    /// computed exactly).
    pub fn locate(&self, point: &[Rational]) -> Cell {
        assert_eq!(point.len(), self.arity as usize, "locate arity mismatch");
        let m = self.constants.len();
        // slot per coordinate: Ok(i) = on constant i, Err(g) = in gap g
        let coarse: Vec<Result<usize, usize>> = point
            .iter()
            .map(|x| {
                match self.constants.binary_search(x) {
                    Ok(i) => Ok(i),
                    Err(g) => Err(g), // number of constants below x = gap index
                }
            })
            .collect();
        // ranks within each gap: sort distinct values
        let mut positions = vec![Position::OnConst(0); point.len()];
        for g in 0..=m {
            let mut vals: Vec<Rational> = point
                .iter()
                .zip(&coarse)
                .filter(|(_, c)| **c == Err(g))
                .map(|(x, _)| *x)
                .collect();
            vals.sort();
            vals.dedup();
            for (i, c) in coarse.iter().enumerate() {
                if *c == Err(g) {
                    let rank = vals
                        .iter()
                        .position(|v| *v == point[i])
                        .expect("value present");
                    positions[i] = Position::InGap { gap: g, rank };
                }
            }
        }
        for (i, c) in coarse.iter().enumerate() {
            if let Ok(ci) = c {
                positions[i] = Position::OnConst(*ci);
            }
        }
        Cell { positions }
    }

    /// The index of a cell in [`CellSpace::enumerate`]'s deterministic
    /// order (linear scan — fine at experiment scales).
    pub fn index_of(&self, cell: &Cell) -> Option<usize> {
        self.enumerate().iter().position(|c| c == cell)
    }

    /// The canonical form of a relation over this space: the set of indices
    /// (into [`CellSpace::enumerate`]'s order) of cells contained in it.
    ///
    /// **Precondition**: every constant of `rel` is in this space (checked).
    pub fn canonicalize(&self, rel: &GeneralizedRelation) -> CanonicalForm {
        assert_eq!(rel.arity(), self.arity, "canonicalize arity mismatch");
        let consts: BTreeSet<Rational> = self.constants.iter().copied().collect();
        for c in rel.constants() {
            assert!(
                consts.contains(&c),
                "relation constant {} outside cell space",
                c
            );
        }
        let cells = self.enumerate();
        let mut members = BTreeSet::new();
        for (i, cell) in cells.iter().enumerate() {
            let p = self.sample(cell);
            if rel.contains_point(&p) {
                members.insert(i);
            }
        }
        CanonicalForm {
            members,
            total: cells.len(),
        }
    }

    /// Rebuild a relation from a canonical form (union of cell tuples).
    pub fn realize(&self, form: &CanonicalForm) -> GeneralizedRelation {
        let cells = self.enumerate();
        assert_eq!(
            cells.len(),
            form.total,
            "canonical form from a different space"
        );
        GeneralizedRelation::from_tuples(
            self.arity,
            form.members.iter().map(|&i| self.to_tuple(&cells[i])),
        )
    }

    /// Cell-based complement: exact for relations whose constants lie in
    /// this space. Its size is the cell count, so it serves as the
    /// reference [`GeneralizedRelation::complement`] is tested against.
    pub fn complement(&self, rel: &GeneralizedRelation) -> GeneralizedRelation {
        let form = self.canonicalize(rel);
        let inverted = CanonicalForm {
            members: (0..form.total)
                .filter(|i| !form.members.contains(i))
                .collect(),
            total: form.total,
        };
        self.realize(&inverted)
    }

    /// Cell-based inclusion test (`a ⊆ b`); both relations' constants must
    /// lie in this space.
    pub fn is_subset(&self, a: &GeneralizedRelation, b: &GeneralizedRelation) -> bool {
        let fa = self.canonicalize(a);
        let fb = self.canonicalize(b);
        fa.members.is_subset(&fb.members)
    }

    /// Cell-based equivalence test.
    pub fn equivalent(&self, a: &GeneralizedRelation, b: &GeneralizedRelation) -> bool {
        self.canonicalize(a) == self.canonicalize(b)
    }
}

/// A relation's canonical form: which cells of a [`CellSpace`] it contains.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CanonicalForm {
    members: BTreeSet<usize>,
    total: usize,
}

impl CanonicalForm {
    /// Indices of member cells.
    pub fn members(&self) -> &BTreeSet<usize> {
        &self.members
    }

    /// Total number of cells in the space this form was computed over.
    pub fn total(&self) -> usize {
        self.total
    }
}

impl fmt::Display for CanonicalForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} cells", self.members.len(), self.total)
    }
}

/// The `k`-th Fubini number (ordered Bell number): the number of ordered
/// set partitions of a `k`-element set — 1, 1, 3, 13, 75, 541, 4683, … —
/// i.e. the number of weak orders the cell decomposition distinguishes on
/// `k` variables within one constant gap.
///
/// Computed with the recurrence `a(k) = Σᵢ C(k,i)·a(k−i)` under checked
/// arithmetic; `None` means the value overflows `usize` (so any cost
/// estimate built on it is certainly out of budget).
pub fn fubini(k: usize) -> Option<usize> {
    let mut a: Vec<usize> = Vec::with_capacity(k + 1);
    a.push(1);
    // Pascal-style binomial row, extended as n grows.
    for n in 1..=k {
        let mut total: usize = 0;
        let mut binom: usize = 1; // C(n, 0)
        for i in 1..=n {
            // C(n, i) = C(n, i-1) * (n - i + 1) / i  (exact at every step)
            binom = binom.checked_mul(n - i + 1)? / i;
            total = total.checked_add(binom.checked_mul(a[n - i])?)?;
        }
        a.push(total);
    }
    Some(a[k])
}

/// All ordered set partitions of `items` (sequences of disjoint nonempty
/// blocks covering the set; the sequence order is the value order low→high).
/// The count is the Fubini number: 1, 1, 3, 13, 75, … for 0, 1, 2, 3, 4
/// items.
pub fn ordered_set_partitions(items: &[usize]) -> Vec<Vec<Vec<usize>>> {
    if items.is_empty() {
        return vec![vec![]];
    }
    // Recursive: choose the first block = any nonempty subset containing a
    // distinguished element? No — ordered partitions: choose first block as
    // any nonempty subset, recurse on the rest.
    let mut out = Vec::new();
    let n = items.len();
    // Enumerate nonempty subsets by bitmask; to avoid duplicates we take
    // every nonempty subset as the first block.
    for mask in 1u32..(1 << n) {
        let mut first = Vec::new();
        let mut rest = Vec::new();
        for (i, &it) in items.iter().enumerate() {
            if mask & (1 << i) != 0 {
                first.push(it);
            } else {
                rest.push(it);
            }
        }
        for mut tail in ordered_set_partitions(&rest) {
            let mut part = vec![first.clone()];
            part.append(&mut tail);
            out.push(part);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{RawAtom, RawOp};
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

    #[test]
    fn fubini_counts() {
        assert_eq!(ordered_set_partitions(&[]).len(), 1);
        assert_eq!(ordered_set_partitions(&[0]).len(), 1);
        assert_eq!(ordered_set_partitions(&[0, 1]).len(), 3);
        assert_eq!(ordered_set_partitions(&[0, 1, 2]).len(), 13);
        assert_eq!(ordered_set_partitions(&[0, 1, 2, 3]).len(), 75);
    }

    #[test]
    fn fubini_closed_form_matches_enumeration_and_extends() {
        for k in 0..=4usize {
            let items: Vec<usize> = (0..k).collect();
            assert_eq!(fubini(k), Some(ordered_set_partitions(&items).len()));
        }
        // Beyond the enumerable range: known ordered Bell numbers.
        assert_eq!(fubini(5), Some(541));
        assert_eq!(fubini(6), Some(4683));
        assert_eq!(fubini(7), Some(47293));
        // Far out the sequence overflows usize and must say so rather than
        // saturate silently.
        assert!(fubini(64).is_none());
    }

    #[test]
    fn unary_cell_count() {
        // m constants, arity 1: m point cells + (m+1) gap cells
        let space = CellSpace::new(1, vec![rat(0, 1), rat(5, 1)]);
        assert_eq!(space.enumerate().len(), 2 + 3);
    }

    #[test]
    fn binary_cell_count_no_constants() {
        // arity 2, no constants: cells = weak orders on 2 elements = 3
        let space = CellSpace::new(2, vec![]);
        assert_eq!(space.enumerate().len(), 3);
    }

    #[test]
    fn samples_lie_in_their_cells() {
        let space = CellSpace::new(2, vec![rat(0, 1), rat(1, 1), rat(7, 2)]);
        for cell in space.enumerate() {
            let t = space.to_tuple(&cell);
            let p = space.sample(&cell);
            assert!(
                t.contains_point(&p),
                "sample {:?} not in cell {:?}",
                p,
                cell
            );
        }
    }

    #[test]
    fn cells_partition_space() {
        // Every point belongs to exactly one cell.
        let space = CellSpace::new(2, vec![rat(0, 1), rat(2, 1)]);
        let cells = space.enumerate();
        let probes = vec![
            vec![rat(-1, 1), rat(-1, 1)],
            vec![rat(0, 1), rat(1, 1)],
            vec![rat(1, 1), rat(1, 1)],
            vec![rat(1, 2), rat(3, 2)],
            vec![rat(3, 1), rat(0, 1)],
            vec![rat(2, 1), rat(2, 1)],
        ];
        for p in probes {
            let n = cells
                .iter()
                .filter(|cell| space.to_tuple(cell).contains_point(&p))
                .count();
            assert_eq!(n, 1, "point {:?} in {} cells", p, n);
        }
    }

    #[test]
    fn canonicalize_interval() {
        let space = CellSpace::new(1, vec![rat(0, 1), rat(10, 1)]);
        let rel = GeneralizedRelation::from_raw(
            1,
            vec![raw(c(0), RawOp::Le, v(0)), raw(v(0), RawOp::Le, c(10))],
        );
        let form = space.canonicalize(&rel);
        // cells: (-∞,0), {0}, (0,10), {10}, (10,∞) — members: {0},(0,10),{10}
        assert_eq!(form.total(), 5);
        assert_eq!(form.members().len(), 3);
        // realize reproduces an equivalent relation
        let back = space.realize(&form);
        assert!(back.equivalent(&rel));
    }

    #[test]
    fn cell_complement_matches_syntactic() {
        let rel = GeneralizedRelation::from_raw(
            1,
            vec![raw(c(0), RawOp::Lt, v(0)), raw(v(0), RawOp::Le, c(3))],
        );
        let space = CellSpace::for_relations(1, [&rel]);
        let cc = space.complement(&rel);
        let sc = rel.complement();
        assert!(cc.equivalent(&sc));
    }

    #[test]
    fn cell_subset_and_equivalence() {
        let a = GeneralizedRelation::from_raw(
            1,
            vec![raw(c(0), RawOp::Le, v(0)), raw(v(0), RawOp::Le, c(5))],
        );
        let b = GeneralizedRelation::from_raw(
            1,
            vec![raw(c(0), RawOp::Le, v(0)), raw(v(0), RawOp::Le, c(10))],
        );
        let space = CellSpace::for_relations(1, [&a, &b]);
        assert!(space.is_subset(&a, &b));
        assert!(!space.is_subset(&b, &a));
        assert!(!space.equivalent(&a, &b));
        assert!(space.equivalent(&a, &a));
    }

    #[test]
    fn locate_agrees_with_sampling() {
        let space = CellSpace::new(2, vec![rat(0, 1), rat(2, 1)]);
        for cell in space.enumerate() {
            let p = space.sample(&cell);
            assert_eq!(space.locate(&p), cell, "locate(sample({cell:?}))");
        }
    }

    #[test]
    fn locate_specific_points() {
        let space = CellSpace::new(2, vec![rat(0, 1)]);
        // both coordinates in gap 1, x < y
        let c = space.locate(&[rat(1, 1), rat(2, 1)]);
        assert_eq!(
            c.positions(),
            &[
                Position::InGap { gap: 1, rank: 0 },
                Position::InGap { gap: 1, rank: 1 }
            ]
        );
        // equal coordinates share a rank
        let c = space.locate(&[rat(5, 1), rat(5, 1)]);
        assert_eq!(c.positions()[0], c.positions()[1]);
        // on the constant
        let c = space.locate(&[rat(0, 1), rat(-3, 1)]);
        assert_eq!(c.positions()[0], Position::OnConst(0));
        assert_eq!(c.positions()[1], Position::InGap { gap: 0, rank: 0 });
    }

    #[test]
    fn binary_diagonal_canonical() {
        let diag = GeneralizedRelation::from_raw(2, vec![raw(v(0), RawOp::Eq, v(1))]);
        let space = CellSpace::new(2, vec![rat(0, 1)]);
        let form = space.canonicalize(&diag);
        let back = space.realize(&form);
        assert!(back.equivalent(&diag));
    }
}
