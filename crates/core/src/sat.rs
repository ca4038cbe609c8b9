//! Incremental dense-order satisfiability and per-variable bounding boxes.
//!
//! Rather than rebuilding the full order graph (union-find + Tarjan SCC) on
//! every decision, this module carries the closure *forward*: a
//! [`SatState`] lives inside each [`crate::tuple::GeneralizedTuple`] and is
//! extended atom by atom as the tuple is built, so `is_satisfiable` is a
//! flag read. The batch solver remains as the reference the incremental
//! one is tested against, and for witness construction.
//!
//! The invariant maintained is the dense-order completeness criterion in a
//! cycle form: a conjunction of normalized atoms over `(Q, <)` is
//! satisfiable iff its order graph — variables and mentioned constants as
//! nodes, one directed edge per `<`/`≤` obligation, equalities as a pair of
//! weak edges, and consecutive mentioned constants chained with built-in
//! strict edges — contains **no cycle through a strict edge**. (This is the
//! SCC criterion of the batch solver restated: an SCC with a strict edge is
//! exactly a strict cycle, and two distinct constants in one SCC would close
//! a cycle through their chain edge.) Because the graph grows one edge at a
//! time and starts cycle-free, every new strict cycle must pass through the
//! newest edge — so one reachability query per inserted edge keeps the
//! invariant, and unsatisfiability is detected at the exact atom that causes
//! it.
//!
//! The same state tracks, for free, the tightest *direct* constant bounds on
//! each variable — the per-variable interval bounding box used by
//! [`crate::relation::GeneralizedRelation::intersect`] and the Datalog delta
//! join to skip tuple pairs that cannot overlap (see [`VarBox`]).

use crate::atom::{Atom, CompOp, Term};
use crate::rational::Rational;

use std::cell::RefCell;

/// Sentinel for "no entry" in the intrusive adjacency lists.
const NIL: u32 = u32::MAX;

/// An over-approximate interval for one variable: the tightest lower and
/// upper bound imposed *directly* by variable-vs-constant atoms (`None`
/// means unbounded on that side; the `bool` is strictness).
///
/// Deliberately no propagation through variable-variable atoms — the box is
/// sound (every point of the tuple lies in the box) and O(1) to maintain,
/// which is all pair pruning needs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct VarBox {
    /// Tightest direct lower bound `(c, strict)`: `c < x` or `c ≤ x`.
    pub lo: Option<(Rational, bool)>,
    /// Tightest direct upper bound `(c, strict)`: `x < c` or `x ≤ c`.
    pub hi: Option<(Rational, bool)>,
}

impl VarBox {
    /// Tighten the lower bound with `c < x` (strict) or `c ≤ x`.
    pub fn tighten_lo(&mut self, c: Rational, strict: bool) {
        let stronger = match self.lo {
            None => true,
            Some((cur, cur_strict)) => c > cur || (c == cur && strict && !cur_strict),
        };
        if stronger {
            self.lo = Some((c, strict));
        }
    }

    /// Tighten the upper bound with `x < c` (strict) or `x ≤ c`.
    pub fn tighten_hi(&mut self, c: Rational, strict: bool) {
        let stronger = match self.hi {
            None => true,
            Some((cur, cur_strict)) => c < cur || (c == cur && strict && !cur_strict),
        };
        if stronger {
            self.hi = Some((c, strict));
        }
    }

    /// Whether the intersection of the two intervals is empty. Since each
    /// box over-approximates its tuple's projection, `true` implies the two
    /// tuples share no point on this coordinate.
    pub fn disjoint(&self, other: &VarBox) -> bool {
        let lo = max_lo(self.lo, other.lo);
        let hi = min_hi(self.hi, other.hi);
        match (lo, hi) {
            (Some((l, ls)), Some((h, hs))) => l > h || (l == h && (ls || hs)),
            _ => false,
        }
    }
}

fn max_lo(a: Option<(Rational, bool)>, b: Option<(Rational, bool)>) -> Option<(Rational, bool)> {
    match (a, b) {
        (Some((ca, sa)), Some((cb, sb))) => {
            if ca > cb || (ca == cb && sa) {
                Some((ca, sa))
            } else {
                Some((cb, sb))
            }
        }
        (x, None) => x,
        (None, y) => y,
    }
}

fn min_hi(a: Option<(Rational, bool)>, b: Option<(Rational, bool)>) -> Option<(Rational, bool)> {
    match (a, b) {
        (Some((ca, sa)), Some((cb, sb))) => {
            if ca < cb || (ca == cb && sa) {
                Some((ca, sa))
            } else {
                Some((cb, sb))
            }
        }
        (x, None) => x,
        (None, y) => y,
    }
}

/// One directed obligation `from → to` in the order graph (`from` is
/// implicit: edges hang off per-node intrusive lists via `next`).
#[derive(Clone, Copy, Debug)]
struct Edge {
    to: u32,
    next: u32,
    strict: bool,
}

/// The incremental order-graph closure of one generalized tuple.
///
/// Node ids: variables are `0..n_vars`; constants get ids `n_vars, n_vars+1,
/// …` in order of first appearance (the value→id map in `consts` stays
/// sorted by value so consecutive constants can be chained with strict
/// edges). All storage is flat `Vec`s, so cloning a tuple clones its state
/// with a few `memcpy`s and no pointer chasing.
#[derive(Clone, Debug)]
pub struct SatState {
    unsat: bool,
    n_vars: u32,
    /// `(value, node id)`, sorted by value.
    consts: Vec<(Rational, u32)>,
    /// Head of each node's edge list (index into `edges`), or `NIL`.
    /// Allocated lazily on the first atom.
    head: Vec<u32>,
    edges: Vec<Edge>,
    /// Per-variable direct constant bounds; empty until the first
    /// variable-vs-constant atom, then length `n_vars`.
    boxes: Vec<VarBox>,
}

impl SatState {
    /// A fresh state for a tuple of the given arity.
    pub fn new(arity: u32) -> SatState {
        SatState {
            unsat: false,
            n_vars: arity,
            consts: Vec::new(),
            head: Vec::new(),
            edges: Vec::new(),
            boxes: Vec::new(),
        }
    }

    /// The incremental verdict: whether the atoms asserted so far are
    /// jointly satisfiable.
    pub fn verdict(&self) -> bool {
        !self.unsat
    }

    /// The per-variable bounding boxes (empty slice when no direct
    /// variable-vs-constant atom has been seen).
    pub fn boxes(&self) -> &[VarBox] {
        &self.boxes
    }

    /// Number of *strict* edges in the order graph, including the built-in
    /// chain edges between consecutive mentioned constants. The stats layer
    /// uses this as the strict-obligation density of a tuple.
    pub fn strict_edge_count(&self) -> usize {
        self.edges.iter().filter(|e| e.strict).count()
    }

    /// Number of *weak* edges in the order graph (each equality contributes
    /// two).
    pub fn weak_edge_count(&self) -> usize {
        self.edges.iter().filter(|e| !e.strict).count()
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
    /// `GeneralizedTuple::push` for each *newly inserted* atom — duplicates
    /// never reach here).
    pub fn assert_atom(&mut self, atom: &Atom) {
        self.update_box(atom);
        if self.unsat {
            return;
        }
        let u = self.node_of(atom.lhs());
        let v = self.node_of(atom.rhs());
        match atom.op() {
            CompOp::Eq => {
                self.add_edge(u, v, false);
                self.add_edge(v, u, false);
            }
            op => self.add_edge(u, v, op.is_strict()),
        }
    }

    /// Fold a variable-vs-constant atom into the boxes.
    fn update_box(&mut self, atom: &Atom) {
        let (var, c, var_is_lhs) = match (atom.lhs(), atom.rhs()) {
            (Term::Var(v), Term::Const(c)) => (v, c, true),
            (Term::Const(c), Term::Var(v)) => (v, c, false),
            _ => return,
        };
        if self.boxes.is_empty() {
            self.boxes = vec![VarBox::default(); self.n_vars as usize];
        }
        let b = &mut self.boxes[var.index()];
        match atom.op() {
            CompOp::Eq => {
                b.tighten_lo(c, false);
                b.tighten_hi(c, false);
            }
            op => {
                if var_is_lhs {
                    b.tighten_hi(c, op.is_strict());
                } else {
                    b.tighten_lo(c, op.is_strict());
                }
            }
        }
    }

    /// The node id of a term, inserting (and chaining) new constants.
    fn node_of(&mut self, t: Term) -> u32 {
        if self.head.is_empty() {
            self.head = vec![NIL; self.n_vars as usize];
        }
        match t {
            Term::Var(v) => v.0,
            Term::Const(c) => {
                match self.consts.binary_search_by(|(x, _)| x.cmp(&c)) {
                    Ok(pos) => self.consts[pos].1,
                    Err(pos) => {
                        let id = self.head.len() as u32;
                        self.head.push(NIL);
                        self.consts.insert(pos, (c, id));
                        // Built-in order: chain the new constant strictly
                        // between its value-neighbours. The fresh node has
                        // no other edges, so these cannot close a cycle.
                        if pos > 0 {
                            let prev = self.consts[pos - 1].1;
                            self.push_edge(prev, id, true);
                        }
                        if pos + 1 < self.consts.len() {
                            let next = self.consts[pos + 1].1;
                            self.push_edge(id, next, true);
                        }
                        id
                    }
                }
            }
        }
    }

    /// Append an edge without any cycle check (used for constant chaining,
    /// where the new node cannot be on a cycle).
    fn push_edge(&mut self, from: u32, to: u32, strict: bool) {
        let e = self.edges.len() as u32;
        self.edges.push(Edge {
            to,
            next: self.head[from as usize],
            strict,
        });
        self.head[from as usize] = e;
    }

    /// Insert the obligation `from (<|≤) to`, detecting any strict cycle it
    /// closes. The graph has no strict cycle beforehand, so a new one must
    /// pass through this edge: it exists iff a path `to → from` exists and
    /// either that path contains a strict edge or this edge is strict.
    fn add_edge(&mut self, from: u32, to: u32, strict: bool) {
        if self.unsat {
            return;
        }
        if from == to {
            // `x < x` after normalization can only arise transitively; a
            // weak self-loop is vacuous.
            if strict {
                self.unsat = true;
            }
            return;
        }
        let needed = if strict { 1 } else { 2 };
        if self.path_strictness(to, from, needed) >= needed {
            self.unsat = true;
            return;
        }
        self.push_edge(from, to, strict);
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
            status.resize(self.head.len(), 0);
            stack.clear();
            status[from as usize] = 1;
            stack.push(from);
            while let Some(x) = stack.pop() {
                let level = status[x as usize];
                let mut e = self.head[x as usize];
                while e != NIL {
                    let Edge {
                        to: y,
                        next,
                        strict,
                    } = self.edges[e as usize];
                    let next_level = if strict { 2 } else { level };
                    if status[y as usize] < next_level {
                        status[y as usize] = next_level;
                        if y == to && next_level >= stop_at {
                            return next_level;
                        }
                        stack.push(y);
                    }
                    e = next;
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
    fn constant_chain_orders_pins() {
        // x = 1 ∧ x = 2 is unsat through the built-in constant chain.
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
    fn out_of_order_constant_insertion_chains_correctly() {
        // Mention 5 first, then 1, then 3: chain must stay sorted by value.
        let mut s = SatState::new(1);
        s.assert_atom(&atom(v(0), CompOp::Lt, c(5)));
        s.assert_atom(&atom(c(1), CompOp::Lt, v(0)));
        s.assert_atom(&atom(v(0), CompOp::Eq, c(3)));
        assert!(s.verdict());
        // Now contradict through the chain: x < 1 while x = 3.
        s.assert_atom(&atom(v(0), CompOp::Lt, c(1)));
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
    fn unconstrained_sides_never_disjoint() {
        let a = SatState::new(2);
        let mut b = SatState::new(2);
        b.assert_atom(&atom(c(2), CompOp::Le, v(0)));
        assert!(!a.box_disjoint(&b));
    }
}
