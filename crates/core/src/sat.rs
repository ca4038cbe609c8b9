//! Incremental dense-order satisfiability and per-variable implied bounds.
//!
//! This is the workspace's one dense-order solver. Rather than rebuilding
//! anything on every decision, it carries its closure *forward*: a
//! [`SatState`] lives inside each [`crate::tuple::GeneralizedTuple`] and is
//! extended atom by atom as the tuple is built, so `is_satisfiable` is a
//! flag read. The verdict is tested against the cell decomposition
//! ([`crate::cell`]), which shares no logic with it.
//!
//! The state has two parts. The *order graph* has the variables as its
//! only nodes and one directed edge per variable-variable obligation
//! (`<` strict, `≤` weak, `=` a pair of weak edges). Next to it every
//! variable keeps its *implied box* ([`VarBox`]): the greatest lower and
//! least upper constant bound that reaches it along a path of the graph,
//! strict when the bound or any edge on the path is. Constants are never
//! nodes. In a dense order without endpoints a variable's feasible values
//! are exactly the interval between those bounds, so a conjunction of
//! normalized atoms is satisfiable iff
//!
//! * its graph has **no cycle through a strict edge**, and
//! * **no implied box is empty**.
//!
//! (In the classic graph with constants as chained nodes, a strict cycle
//! through a constant runs from a lower bound along variables to an upper
//! bound below it, or equal and strict somewhere: an empty box here.)
//! Both parts are kept incrementally. The graph grows one edge at a time
//! and starts cycle-free, so a new strict cycle passes through the newest
//! edge: one reachability query per edge. A new bound, or a new edge, only
//! tightens boxes downstream of it, and the tightening is carried along
//! out-edges (lower bounds) and in-edges (upper bounds) until nothing
//! changes. Unsatisfiability is detected at the exact atom that causes it.
//!
//! **The boxes are exact projections.** For a satisfiable state, every
//! value inside a variable's implied box extends to a point of the whole
//! conjunction, so the box *is* the projection of the tuple's point set on
//! that column. That makes the questions the relation layer asks reads:
//!
//! * whether `t ∧ (x ⋈ c)` is satisfiable ([`SatState::admits`]) is one box
//!   read: the implied box of `x` cut by the new bound must stay nonempty;
//! * whether `t ∧ (u ⋈ v)` is satisfiable is one path query (`u < v` is
//!   refused iff some path leads `v → u`, `u ≤ v` iff some path `v → u`
//!   holds a strict edge, `u = v` iff a strict path runs either way) plus
//!   one comparison of `u`'s lower bound with `v`'s upper bound;
//! * `t ⊨ a` is "every alternative of `¬a` is refused", and the greedy
//!   simplification of a tuple (`SatState::redundant`) asks it once per
//!   atom on a state rebuilt from the atoms still kept.
//!
//! The same boxes prune tuple pairs that cannot overlap in
//! [`crate::relation::GeneralizedRelation::intersect`],
//! [`crate::relation::GeneralizedRelation::subtract`], `simplify` and the
//! Datalog delta join, and give witnesses without quantifier elimination
//! ([`crate::tuple::GeneralizedTuple::witness`]).

use crate::atom::{Atom, CompOp, Term, Var};
use crate::rational::Rational;

use std::cell::RefCell;

/// Sentinel for "no entry" in the intrusive adjacency lists.
const NIL: u32 = u32::MAX;

/// An interval for one variable: a lower and an upper bound (`None` means
/// unbounded on that side; the `bool` is strictness).
///
/// A [`SatState`] keeps one per variable, the *implied* box: every
/// constant bound reaching the variable along the order graph. The
/// implied box of a satisfiable tuple is exactly its projection on that
/// column. The *direct* box of a variable folds only its own
/// variable-vs-constant atoms.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct VarBox {
    /// Tightest lower bound `(c, strict)`: `c < x` or `c ≤ x`.
    pub lo: Option<(Rational, bool)>,
    /// Tightest upper bound `(c, strict)`: `x < c` or `x ≤ c`.
    pub hi: Option<(Rational, bool)>,
}

impl VarBox {
    /// Tighten the lower bound with `c < x` (strict) or `c ≤ x`; whether
    /// the bound changed.
    pub fn tighten_lo(&mut self, c: Rational, strict: bool) -> bool {
        let stronger = match self.lo {
            None => true,
            Some((cur, cur_strict)) => c > cur || (c == cur && strict && !cur_strict),
        };
        if stronger {
            self.lo = Some((c, strict));
        }
        stronger
    }

    /// Tighten the upper bound with `x < c` (strict) or `x ≤ c`; whether
    /// the bound changed.
    pub fn tighten_hi(&mut self, c: Rational, strict: bool) -> bool {
        let stronger = match self.hi {
            None => true,
            Some((cur, cur_strict)) => c < cur || (c == cur && strict && !cur_strict),
        };
        if stronger {
            self.hi = Some((c, strict));
        }
        stronger
    }

    /// Intersect with `other`; whether this box changed.
    pub fn meet(&mut self, other: &VarBox) -> bool {
        let lo = other.lo.is_some_and(|(c, s)| self.tighten_lo(c, s));
        let hi = other.hi.is_some_and(|(c, s)| self.tighten_hi(c, s));
        lo || hi
    }

    /// The box of one variable-vs-constant atom, with its variable; `None`
    /// for an atom between two variables.
    pub(crate) fn of_atom(atom: &Atom) -> Option<(Var, VarBox)> {
        let (x, c, upper) = match (atom.lhs(), atom.rhs()) {
            (Term::Var(x), Term::Const(c)) => (x, c, true),
            (Term::Const(c), Term::Var(x)) => (x, c, false),
            _ => return None,
        };
        let bound = Some((c, atom.op().is_strict()));
        let b = match atom.op() {
            CompOp::Eq => VarBox {
                lo: bound,
                hi: bound,
            },
            _ if upper => VarBox {
                lo: None,
                hi: bound,
            },
            _ => VarBox {
                lo: bound,
                hi: None,
            },
        };
        Some((x, b))
    }

    /// Whether both sides are the same closed endpoint.
    pub(crate) fn is_point(&self) -> bool {
        matches!((self.lo, self.hi), (Some((l, false)), Some((h, false))) if l == h)
    }

    /// The box as atoms over column `v`: one equality when it is a point,
    /// else one atom per bounded side.
    pub(crate) fn atoms(&self, v: Var) -> Vec<Atom> {
        let x = Term::Var(v);
        let op = |strict| if strict { CompOp::Lt } else { CompOp::Le };
        let parts = match (self.lo, self.hi) {
            (Some((l, _)), _) if self.is_point() => vec![(x, CompOp::Eq, Term::Const(l))],
            (lo, hi) => lo
                .map(|(c, strict)| (Term::Const(c), op(strict), x))
                .into_iter()
                .chain(hi.map(|(c, strict)| (x, op(strict), Term::Const(c))))
                .collect(),
        };
        parts
            .into_iter()
            .filter_map(|(l, op, r)| Atom::normalized(l, op, r))
            .flatten()
            .collect()
    }

    /// Whether no value lies in the box.
    pub fn is_empty(&self) -> bool {
        crosses(self.lo, self.hi, false)
    }

    /// Whether the intersection of the two intervals is empty: one box is,
    /// or one box's lower bound crosses the other's upper. Since each box
    /// contains its tuple's projection, `true` implies the two tuples
    /// share no point on this coordinate.
    pub fn disjoint(&self, other: &VarBox) -> bool {
        crosses(self.lo, other.hi, false)
            || crosses(other.lo, self.hi, false)
            || self.is_empty()
            || other.is_empty()
    }
}

/// Whether a lower bound and an upper bound, joined by an obligation that
/// is strict when `strict` is, leave no value between them.
fn crosses(lo: Option<(Rational, bool)>, hi: Option<(Rational, bool)>, strict: bool) -> bool {
    match (lo, hi) {
        (Some((l, ls)), Some((h, hs))) => l > h || (l == h && (ls || hs || strict)),
        _ => false,
    }
}

/// One directed obligation `from → to` in the order graph, on the
/// intrusive out-list of `from` and in-list of `to`.
#[derive(Clone, Copy, Debug)]
struct Edge {
    from: u32,
    to: u32,
    next_out: u32,
    next_in: u32,
    strict: bool,
}

/// The incremental order graph and implied boxes of one generalized tuple.
///
/// Node ids are the variables `0..n_vars`. All storage is flat `Vec`s,
/// allocated on first use, so cloning a tuple clones its state with a few
/// `memcpy`s and no pointer chasing.
#[derive(Clone, Debug)]
pub struct SatState {
    unsat: bool,
    n_vars: u32,
    /// Heads of each variable's out- and in-edge lists (indices into
    /// `edges`), or `NIL`; empty until the first variable-variable atom.
    out_head: Vec<u32>,
    in_head: Vec<u32>,
    edges: Vec<Edge>,
    /// Per-variable implied bounds; empty until the first
    /// variable-vs-constant atom, then length `n_vars`.
    boxes: Vec<VarBox>,
}

impl SatState {
    /// A fresh state for a tuple of the given arity.
    pub fn new(arity: u32) -> SatState {
        SatState {
            unsat: false,
            n_vars: arity,
            out_head: Vec::new(),
            in_head: Vec::new(),
            edges: Vec::new(),
            boxes: Vec::new(),
        }
    }

    /// The incremental verdict: whether the atoms asserted so far are
    /// jointly satisfiable.
    pub fn verdict(&self) -> bool {
        !self.unsat
    }

    /// The per-variable implied boxes (empty slice when no
    /// variable-vs-constant atom has been seen). For a satisfiable state,
    /// box `i` is the projection of the point set on column `i`.
    pub fn boxes(&self) -> &[VarBox] {
        &self.boxes
    }

    /// The implied box of `v`.
    fn implied(&self, v: Var) -> VarBox {
        self.boxes.get(v.index()).copied().unwrap_or_default()
    }

    /// Whether the two states' boxes prove the underlying point sets
    /// disjoint on some coordinate.
    pub fn box_disjoint(&self, other: &SatState) -> bool {
        self.boxes
            .iter()
            .zip(&other.boxes)
            .any(|(a, b)| a.disjoint(b))
    }

    /// Extend the state with one normalized atom (called by
    /// `GeneralizedTuple::push` for each atom it keeps).
    pub fn assert_atom(&mut self, atom: &Atom) {
        if let Some((x, b)) = VarBox::of_atom(atom) {
            self.add_bound(x, &b);
            return;
        }
        let (Term::Var(u), Term::Var(v)) = (atom.lhs(), atom.rhs()) else {
            unreachable!("a normalized atom compares a variable")
        };
        match atom.op() {
            CompOp::Eq => {
                self.add_edge(u, v, false);
                self.add_edge(v, u, false);
            }
            op => self.add_edge(u, v, op.is_strict()),
        }
    }

    /// Whether `self ∧ atom` is satisfiable, decided without changing the
    /// state (see the module doc for the rule). An unsatisfiable state
    /// refuses every atom; a state with no atoms admits every normalized
    /// atom.
    pub fn admits(&self, atom: &Atom) -> bool {
        if self.unsat {
            return false;
        }
        if let Some((x, b)) = VarBox::of_atom(atom) {
            let mut implied = self.implied(x);
            implied.meet(&b);
            return !implied.is_empty();
        }
        let (Term::Var(u), Term::Var(v)) = (atom.lhs(), atom.rhs()) else {
            unreachable!("a normalized atom compares a variable")
        };
        let (bu, bv) = (self.implied(u), self.implied(v));
        match atom.op() {
            CompOp::Lt => !self.reaches(v, u, 1) && !crosses(bu.lo, bv.hi, true),
            CompOp::Le => !self.reaches(v, u, 2) && !crosses(bu.lo, bv.hi, false),
            CompOp::Eq => {
                !self.reaches(v, u, 2)
                    && !self.reaches(u, v, 2)
                    && !crosses(bu.lo, bv.hi, false)
                    && !crosses(bv.lo, bu.hi, false)
            }
        }
    }

    /// The greedy simplification of the satisfiable conjunction of
    /// `atoms`, in their order: `dropped[i]` is whether atom `i` is
    /// entailed by the atoms after it together with those before it that
    /// were kept. Each test runs on one scratch state rebuilt from those
    /// atoms, except for a variable's only constant bound on each side
    /// when no edge touches the variable: nothing else can imply it, so it
    /// is kept untested.
    pub(crate) fn redundant(arity: u32, atoms: &[Atom]) -> Vec<bool> {
        // Per variable: whether an edge touches it, and how many lower and
        // upper constant bounds it has (an equality counts on both sides).
        let mut shape = vec![(false, 0u32, 0u32); arity as usize];
        for a in atoms {
            match VarBox::of_atom(a) {
                Some((x, b)) => {
                    let (_, lo, hi) = &mut shape[x.index()];
                    *lo += u32::from(b.lo.is_some());
                    *hi += u32::from(b.hi.is_some());
                }
                None => a.vars().for_each(|v| shape[v.index()].0 = true),
            }
        }
        let alone = |a: &Atom| {
            VarBox::of_atom(a)
                .is_some_and(|(x, _)| matches!(shape[x.index()], (false, 0..=1, 0..=1)))
        };
        let mut s = SatState::new(arity);
        let mut dropped = vec![false; atoms.len()];
        for i in 0..atoms.len() {
            if alone(&atoms[i]) {
                continue;
            }
            s.clear();
            for (j, b) in atoms.iter().enumerate() {
                if j != i && !dropped[j] {
                    s.assert_atom(b);
                }
            }
            dropped[i] = atoms[i].negate().iter().all(|alt| !s.admits(alt));
        }
        dropped
    }

    /// Forget every atom, keeping the allocations.
    fn clear(&mut self) {
        self.unsat = false;
        self.out_head.clear();
        self.in_head.clear();
        self.edges.clear();
        self.boxes.clear();
    }

    /// Fold one variable-vs-constant bound into `x`'s box and carry it
    /// along the graph.
    fn add_bound(&mut self, x: Var, b: &VarBox) {
        if self.boxes.is_empty() {
            self.boxes.resize(self.n_vars as usize, VarBox::default());
        }
        if let Some((c, strict)) = b.lo {
            self.carry(x.0, c, strict, false);
        }
        if let Some((c, strict)) = b.hi {
            self.carry(x.0, c, strict, true);
        }
    }

    /// Insert the obligation `from (<|≤) to`, detecting any strict cycle it
    /// closes and carrying `from`'s lower bound to `to` and `to`'s upper
    /// bound to `from`. The graph has no strict cycle beforehand, so a new
    /// one must pass through this edge: it exists iff a path `to → from`
    /// exists and either that path contains a strict edge or this edge is
    /// strict.
    fn add_edge(&mut self, from: Var, to: Var, strict: bool) {
        if self.unsat {
            return;
        }
        debug_assert_ne!(from, to, "normalized atoms are not reflexive");
        if self.out_head.is_empty() {
            self.out_head.resize(self.n_vars as usize, NIL);
            self.in_head.resize(self.n_vars as usize, NIL);
        }
        if self.reaches(to, from, if strict { 1 } else { 2 }) {
            self.unsat = true;
            return;
        }
        let (from, to) = (from.0, to.0);
        let e = self.edges.len() as u32;
        self.edges.push(Edge {
            from,
            to,
            next_out: self.out_head[from as usize],
            next_in: self.in_head[to as usize],
            strict,
        });
        self.out_head[from as usize] = e;
        self.in_head[to as usize] = e;
        if self.boxes.is_empty() {
            return;
        }
        if let Some((c, s)) = self.boxes[from as usize].lo {
            self.carry(to, c, s || strict, false);
        }
        if let Some((c, s)) = self.boxes[to as usize].hi {
            self.carry(from, c, s || strict, true);
        }
    }

    /// Tighten `x`'s implied upper bound (`upper`) or lower bound to
    /// `(c, strict)` and carry the change on: an upper bound to the
    /// variables below `x` along in-edges, a lower bound to those above it
    /// along out-edges, strict once a crossed edge is. With `c` fixed a box
    /// improves at most twice (to weak, then strict), so this stops even
    /// on weak cycles.
    fn carry(&mut self, x: u32, c: Rational, strict: bool, upper: bool) {
        let b = &mut self.boxes[x as usize];
        let tightened = if upper {
            b.tighten_hi(c, strict)
        } else {
            b.tighten_lo(c, strict)
        };
        if self.unsat || !tightened {
            return;
        }
        if b.is_empty() {
            self.unsat = true;
            return;
        }
        let heads = if upper { &self.in_head } else { &self.out_head };
        let mut e = heads.get(x as usize).copied().unwrap_or(NIL);
        while e != NIL {
            let edge = self.edges[e as usize];
            let (y, next) = if upper {
                (edge.from, edge.next_in)
            } else {
                (edge.to, edge.next_out)
            };
            self.carry(y, c, strict || edge.strict, upper);
            e = next;
        }
    }

    /// Whether a path `from → to` reaches strictness level `needed`: `1`
    /// for any path, `2` for one through a strict edge.
    fn reaches(&self, from: Var, to: Var, needed: u8) -> bool {
        !self.out_head.is_empty() && self.path_strictness(from.0, to.0, needed) >= needed
    }

    /// The "strictness level" of the best path `from → to`: `0` if
    /// unreachable, `1` if reachable only through weak edges, `2` if some
    /// path contains a strict edge. Stops early once `stop_at` is reached.
    ///
    /// Each node is enqueued at most twice (once per level), so a query is
    /// O(edges) with thread-local scratch and no per-call allocation.
    fn path_strictness(&self, from: u32, to: u32, stop_at: u8) -> u8 {
        thread_local! {
            static SCRATCH: RefCell<(Vec<u8>, Vec<u32>)> =
                const { RefCell::new((Vec::new(), Vec::new())) };
        }
        SCRATCH.with(|s| {
            let (status, stack) = &mut *s.borrow_mut();
            status.clear();
            status.resize(self.out_head.len(), 0);
            stack.clear();
            status[from as usize] = 1;
            stack.push(from);
            while let Some(x) = stack.pop() {
                let level = status[x as usize];
                let mut e = self.out_head[x as usize];
                while e != NIL {
                    let edge = self.edges[e as usize];
                    let y = edge.to;
                    let next_level = if edge.strict { 2 } else { level };
                    if status[y as usize] < next_level {
                        status[y as usize] = next_level;
                        if y == to && next_level >= stop_at {
                            return next_level;
                        }
                        stack.push(y);
                    }
                    e = edge.next_out;
                }
            }
            status[to as usize]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{CompOp, Term};
    use crate::rational::rat;

    fn atom(l: Term, op: CompOp, r: Term) -> Atom {
        Atom::normalized(l, op, r).expect("nontrivial")[0]
    }

    fn v(i: u32) -> Term {
        Term::var(i)
    }

    fn c(n: i64) -> Term {
        Term::cst(rat(n as i128, 1))
    }

    fn bound(n: i64, strict: bool) -> Option<(Rational, bool)> {
        Some((rat(n as i128, 1), strict))
    }

    #[test]
    fn strict_cycle_detected_incrementally() {
        let mut s = SatState::new(3);
        s.assert_atom(&atom(v(0), CompOp::Lt, v(1)));
        s.assert_atom(&atom(v(1), CompOp::Lt, v(2)));
        assert!(s.verdict());
        s.assert_atom(&atom(v(2), CompOp::Lt, v(0)));
        assert!(!s.verdict());
    }

    #[test]
    fn weak_cycle_stays_satisfiable_until_strict_edge() {
        let mut s = SatState::new(2);
        s.assert_atom(&atom(v(0), CompOp::Le, v(1)));
        s.assert_atom(&atom(v(1), CompOp::Le, v(0)));
        assert!(s.verdict());
        s.assert_atom(&atom(v(0), CompOp::Lt, v(1)));
        assert!(!s.verdict());
    }

    #[test]
    fn equality_contradicting_strict_order_detected() {
        let mut s = SatState::new(2);
        s.assert_atom(&atom(v(0), CompOp::Lt, v(1)));
        s.assert_atom(&atom(v(0), CompOp::Eq, v(1)));
        assert!(!s.verdict());
    }

    #[test]
    fn two_pins_empty_the_box() {
        // x = 1 ∧ x = 2: the box [2, 1] is empty.
        let mut s = SatState::new(1);
        s.assert_atom(&atom(v(0), CompOp::Eq, c(1)));
        assert!(s.verdict());
        s.assert_atom(&atom(v(0), CompOp::Eq, c(2)));
        assert!(!s.verdict());
    }

    #[test]
    fn constant_sandwich_between_adjacent_constants() {
        // 3 < x ∧ x < 4 is satisfiable in Q; 3 < x ∧ x < 3 is not.
        let mut s = SatState::new(1);
        s.assert_atom(&atom(c(3), CompOp::Lt, v(0)));
        s.assert_atom(&atom(v(0), CompOp::Lt, c(4)));
        assert!(s.verdict());

        let mut s = SatState::new(1);
        s.assert_atom(&atom(c(3), CompOp::Lt, v(0)));
        s.assert_atom(&atom(v(0), CompOp::Lt, c(3)));
        assert!(!s.verdict());
    }

    #[test]
    fn bounds_propagate_along_variable_paths() {
        // 0 < x0 ≤ x1 ≤ x2 < 5: x2 inherits x0's strict lower bound and
        // x0 inherits x2's upper bound, though x1 has no bound of its own.
        let mut s = SatState::new(3);
        s.assert_atom(&atom(v(1), CompOp::Le, v(2)));
        s.assert_atom(&atom(c(0), CompOp::Lt, v(0)));
        s.assert_atom(&atom(v(2), CompOp::Lt, c(5)));
        s.assert_atom(&atom(v(0), CompOp::Le, v(1)));
        for b in s.boxes() {
            assert_eq!((b.lo, b.hi), (bound(0, true), bound(5, true)));
        }
        // An edge adds its own strictness: x1 < x2 with 3 ≤ x1 and x2 ≤ 3.
        let mut s = SatState::new(3);
        s.assert_atom(&atom(c(3), CompOp::Le, v(0)));
        s.assert_atom(&atom(v(0), CompOp::Le, v(1)));
        s.assert_atom(&atom(v(2), CompOp::Le, c(3)));
        s.assert_atom(&atom(v(1), CompOp::Le, v(2)));
        assert!(s.verdict(), "all three equal 3");
        s.assert_atom(&atom(v(1), CompOp::Lt, v(2)));
        assert!(!s.verdict());
    }

    #[test]
    fn out_of_order_bounds_tighten_the_box() {
        // Mention 5 first, then 1, then 3: the box ends up [3, 3].
        let mut s = SatState::new(1);
        s.assert_atom(&atom(v(0), CompOp::Lt, c(5)));
        s.assert_atom(&atom(c(1), CompOp::Lt, v(0)));
        s.assert_atom(&atom(v(0), CompOp::Eq, c(3)));
        assert!(s.verdict());
        assert_eq!(
            (s.boxes()[0].lo, s.boxes()[0].hi),
            (bound(3, false), bound(3, false))
        );
        // Now contradict it: x < 1 while x = 3.
        s.assert_atom(&atom(v(0), CompOp::Lt, c(1)));
        assert!(!s.verdict());
    }

    #[test]
    fn a_cycle_through_constants_is_an_empty_box() {
        // x0 < 1 ∧ 2 < x1 ∧ x1 ≤ x0: in a graph with constants as nodes,
        // the cycle x0 → 1 → 2 → x1 → x0.
        let mut s = SatState::new(2);
        s.assert_atom(&atom(v(0), CompOp::Lt, c(1)));
        s.assert_atom(&atom(c(2), CompOp::Lt, v(1)));
        assert!(s.verdict());
        s.assert_atom(&atom(v(1), CompOp::Le, v(0)));
        assert!(!s.verdict());
    }

    #[test]
    fn boxes_tighten_and_detect_disjointness() {
        // a: x ∈ [0, 1],  b: x ∈ [2, 3]  → disjoint.
        let mut a = SatState::new(1);
        a.assert_atom(&atom(c(0), CompOp::Le, v(0)));
        a.assert_atom(&atom(v(0), CompOp::Le, c(1)));
        let mut b = SatState::new(1);
        b.assert_atom(&atom(c(2), CompOp::Le, v(0)));
        b.assert_atom(&atom(v(0), CompOp::Le, c(3)));
        assert!(a.box_disjoint(&b));
        assert!(b.box_disjoint(&a));

        // c: x ∈ [1, 2] overlaps both only at endpoints.
        let mut cbox = SatState::new(1);
        cbox.assert_atom(&atom(c(1), CompOp::Le, v(0)));
        cbox.assert_atom(&atom(v(0), CompOp::Le, c(2)));
        assert!(!a.box_disjoint(&cbox));
        // With a strict endpoint the shared point vanishes.
        let mut d = SatState::new(1);
        d.assert_atom(&atom(c(1), CompOp::Lt, v(0)));
        d.assert_atom(&atom(v(0), CompOp::Le, c(2)));
        assert!(a.box_disjoint(&d));
    }

    #[test]
    fn implied_boxes_prune_what_direct_ones_miss() {
        // x0 < x1 ∧ x1 < 0 never meets 1 ≤ x0, though x0 has no direct
        // upper bound.
        let mut a = SatState::new(2);
        a.assert_atom(&atom(v(0), CompOp::Lt, v(1)));
        a.assert_atom(&atom(v(1), CompOp::Lt, c(0)));
        let mut b = SatState::new(2);
        b.assert_atom(&atom(c(1), CompOp::Le, v(0)));
        assert!(a.box_disjoint(&b));
    }

    /// `admits` against asserting into a clone.
    fn admits_by_assert(s: &SatState, a: &Atom) -> bool {
        let mut t = s.clone();
        t.assert_atom(a);
        t.verdict()
    }

    #[test]
    fn admits_reads_paths_between_nodes() {
        // x0 ≤ x1 < x2
        let mut s = SatState::new(3);
        s.assert_atom(&atom(v(0), CompOp::Le, v(1)));
        s.assert_atom(&atom(v(1), CompOp::Lt, v(2)));
        // u < v: refused iff any path v → u.
        assert!(!s.admits(&atom(v(1), CompOp::Lt, v(0))));
        assert!(!s.admits(&atom(v(2), CompOp::Lt, v(0))));
        assert!(s.admits(&atom(v(0), CompOp::Lt, v(1))));
        // u ≤ v: refused iff a strict path v → u.
        assert!(s.admits(&atom(v(1), CompOp::Le, v(0))));
        assert!(!s.admits(&atom(v(2), CompOp::Le, v(0))));
        // u = v: refused iff a strict path either way.
        assert!(s.admits(&atom(v(0), CompOp::Eq, v(1))));
        assert!(!s.admits(&atom(v(0), CompOp::Eq, v(2))));
        assert!(!s.admits(&atom(v(1), CompOp::Eq, v(2))));
    }

    #[test]
    fn admits_present_and_absent_constants() {
        // 1 ≤ x0 ≤ 3 ∧ x1 = 5 ∧ x0 < x2: x2's implied box is (1, ∞).
        let mut s = SatState::new(3);
        s.assert_atom(&atom(c(1), CompOp::Le, v(0)));
        s.assert_atom(&atom(v(0), CompOp::Le, c(3)));
        s.assert_atom(&atom(v(1), CompOp::Eq, c(5)));
        s.assert_atom(&atom(v(0), CompOp::Lt, v(2)));
        // Constants the tuple mentions: one box read.
        assert!(s.admits(&atom(v(0), CompOp::Le, c(1))));
        assert!(!s.admits(&atom(v(0), CompOp::Lt, c(1))));
        assert!(s.admits(&atom(v(0), CompOp::Eq, c(3))));
        assert!(!s.admits(&atom(v(0), CompOp::Eq, c(5))));
        assert!(!s.admits(&atom(v(1), CompOp::Lt, c(5))));
        assert!(!s.admits(&atom(v(2), CompOp::Le, c(1))));
        // Constants it does not mention are read the same way.
        assert!(!s.admits(&atom(v(1), CompOp::Le, c(4))));
        assert!(s.admits(&atom(v(0), CompOp::Le, c(4))));
        assert!(!s.admits(&atom(c(4), CompOp::Lt, v(0))));
        assert!(s.admits(&atom(v(0), CompOp::Eq, c(2))));
        assert!(!s.admits(&atom(v(0), CompOp::Lt, c(0))));
        assert!(s.admits(&atom(v(2), CompOp::Lt, c(2))));
        assert!(!s.admits(&atom(c(9), CompOp::Le, v(1))));
        // Between variables: a path query and a bound comparison.
        assert!(!s.admits(&atom(v(1), CompOp::Le, v(0))));
        assert!(s.admits(&atom(v(0), CompOp::Lt, v(1))));
        assert!(!s.admits(&atom(v(2), CompOp::Le, v(0))));
        for a in [
            atom(v(0), CompOp::Lt, c(2)),
            atom(c(4), CompOp::Le, v(0)),
            atom(v(1), CompOp::Eq, c(0)),
            atom(v(0), CompOp::Le, v(1)),
            atom(v(1), CompOp::Lt, v(0)),
            atom(v(2), CompOp::Eq, v(1)),
            atom(v(2), CompOp::Eq, v(0)),
        ] {
            assert_eq!(s.admits(&a), admits_by_assert(&s, &a), "{a}");
        }
    }

    #[test]
    fn unsatisfiable_state_refuses_and_empty_state_admits() {
        let mut s = SatState::new(1);
        s.assert_atom(&atom(v(0), CompOp::Lt, c(0)));
        s.assert_atom(&atom(c(1), CompOp::Lt, v(0)));
        assert!(!s.verdict());
        assert!(!s.admits(&atom(v(0), CompOp::Le, c(7))));
        let empty = SatState::new(2);
        assert!(empty.admits(&atom(v(0), CompOp::Lt, v(1))));
        assert!(empty.admits(&atom(v(1), CompOp::Eq, c(7))));
    }

    #[test]
    fn redundant_drops_entailed_atoms_greedily() {
        let atoms = [
            atom(v(0), CompOp::Lt, v(1)),
            atom(v(0), CompOp::Le, v(1)),
            atom(v(0), CompOp::Lt, c(5)),
            atom(v(1), CompOp::Lt, c(5)),
        ];
        // x0 ≤ x1 follows from x0 < x1; x0 < 5 from x0 < x1 < 5. With
        // x0 ≤ x1 dropped, x0 < x1 is needed.
        assert_eq!(
            SatState::redundant(2, &atoms),
            vec![false, true, true, false]
        );
        // Neither half of a weak cycle follows from the other.
        let pair = [atom(v(0), CompOp::Le, v(1)), atom(v(1), CompOp::Le, v(0))];
        assert_eq!(SatState::redundant(2, &pair), vec![false, false]);
        // Two bounds on one side of a variable no edge touches are still
        // tested; bounds on opposite sides are not.
        let bounds = [
            atom(v(0), CompOp::Lt, c(3)),
            atom(v(0), CompOp::Lt, c(5)),
            atom(c(0), CompOp::Lt, v(1)),
            atom(v(1), CompOp::Le, c(2)),
        ];
        assert_eq!(
            SatState::redundant(2, &bounds),
            vec![false, true, false, false]
        );
    }

    #[test]
    fn unconstrained_sides_never_disjoint() {
        let a = SatState::new(2);
        let mut b = SatState::new(2);
        b.assert_atom(&atom(c(2), CompOp::Le, v(0)));
        assert!(!a.box_disjoint(&b));
    }
}
