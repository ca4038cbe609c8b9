//! Generalized tuples: conjunctions of dense-order constraints.
//!
//! A *k-ary generalized tuple* [KKR90, §2 of the paper] is a conjunction of
//! atomic constraints over variables `x0 … x(k-1)`; it finitely represents the
//! (typically infinite) set of points of `Q^k` satisfying it. This module
//! provides the decision procedures the whole engine rests on:
//!
//! * **satisfiability** of a conjunction: its order graph over terms must
//!   contain no cycle through a strict edge (the classic dense-order closure
//!   argument — density and lack of endpoints make this complete). Each
//!   tuple carries the graph incrementally ([`crate::sat`]); the batch
//!   solver here rebuilds it per call and is the kernel's reference;
//! * **witness construction** (a concrete rational point satisfying the
//!   tuple), used for sampling-based canonicalization;
//! * **single-variable quantifier elimination** (`∃x`), the dense-order QE
//!   step of \[CK73\]: substitute equalities, then combine every lower bound
//!   with every upper bound;
//! * **entailment and subsumption**, used to simplify relations.

use crate::atom::{Atom, CompOp, RawAtom, Term, Var};
use crate::intern::atom_fingerprint;
use crate::rational::Rational;
use crate::sat::{SatState, VarBox};

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A conjunction of normalized atoms over columns `0..arity`.
///
/// The empty conjunction represents all of `Q^arity`. Atoms are kept sorted
/// and deduplicated; the tuple is *not* guaranteed satisfiable — call
/// [`GeneralizedTuple::is_satisfiable`] — but trivially-decidable atoms never
/// appear (they are resolved during normalization).
///
/// Alongside the atoms the tuple carries derived state maintained
/// incrementally by [`GeneralizedTuple::push`]:
///
/// * a 64-bit *fingerprint* — an order-independent combination of per-atom
///   hashes. `Hash` writes only the fingerprint (O(1) instead of rehashing
///   the atom vector) and `PartialEq` fast-paths on it; a fingerprint
///   collision falls through to the full structural compare, so verdicts
///   are never wrong;
/// * a [`SatState`] — the order-graph closure extended atom by atom, giving
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
    /// The tuple with no constraints: all of `Q^arity`.
    pub fn top(arity: u32) -> GeneralizedTuple {
        GeneralizedTuple {
            arity,
            atoms: Vec::new(),
            fp: 0,
            sat: SatState::new(arity),
        }
    }

    /// Build from normalized atoms. Atoms mentioning columns `>= arity` are
    /// a caller bug and panic.
    pub fn from_atoms(arity: u32, atoms: impl IntoIterator<Item = Atom>) -> GeneralizedTuple {
        let mut t = GeneralizedTuple::top(arity);
        for a in atoms {
            t.push(a);
        }
        t
    }

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

    /// Number of columns.
    pub fn arity(&self) -> u32 {
        self.arity
    }

    /// The atoms of the conjunction.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
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

    /// Per-variable interval bounding box (over-approximate, from direct
    /// variable-vs-constant atoms). Empty slice when no such atom exists.
    pub fn bounding_box(&self) -> &[VarBox] {
        self.sat.boxes()
    }

    /// Whether the bounding boxes prove `self ∧ other` empty — the cheap
    /// pre-filter used by `intersect`/`difference`/`select` and the Datalog
    /// delta join to skip pairs before any conjoin.
    pub fn box_disjoint(&self, other: &GeneralizedTuple) -> bool {
        self.sat.box_disjoint(&other.sat)
    }

    /// `(strict, weak)` edge counts of the tuple's order graph
    /// (equalities as two weak edges, constant chaining included).
    pub fn order_edge_counts(&self) -> (usize, usize) {
        (self.sat.strict_edge_count(), self.sat.weak_edge_count())
    }

    /// Whether the conjunction is empty (represents all of `Q^arity`).
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Insert an atom, keeping the sorted/deduplicated invariant.
    pub fn push(&mut self, atom: Atom) {
        for v in atom.vars() {
            assert!(
                v.0 < self.arity,
                "atom mentions column {} outside arity {}",
                v.0,
                self.arity
            );
        }
        match self.atoms.binary_search(&atom) {
            Ok(_) => {}
            Err(pos) => {
                self.atoms.insert(pos, atom);
                // The fingerprint combines per-atom hashes with a wrapping
                // sum — commutative, so it is insertion-order independent
                // and maintainable in O(1) here.
                self.fp = self.fp.wrapping_add(atom_fingerprint(&atom));
                self.sat.assert_atom(&atom);
            }
        }
    }

    /// Conjoin two tuples of the same arity.
    pub fn conjoin(&self, other: &GeneralizedTuple) -> GeneralizedTuple {
        assert_eq!(self.arity, other.arity, "conjoin arity mismatch");
        let mut t = self.clone();
        for a in &other.atoms {
            t.push(*a);
        }
        t
    }

    /// Evaluate membership of a point.
    pub fn contains_point(&self, point: &[Rational]) -> bool {
        assert_eq!(point.len(), self.arity as usize, "point arity mismatch");
        self.atoms.iter().all(|a| a.eval(point))
    }

    /// If the tuple pins every column to a constant (a classical tuple
    /// `x₀ = a₀ ∧ … ∧ x_{k-1} = a_{k-1}`), return the point. Conservative:
    /// any non-equality atom or variable-variable equality yields `None`
    /// even if the denotation happens to be a single point.
    pub fn as_point(&self) -> Option<Vec<Rational>> {
        let mut vals: Vec<Option<Rational>> = vec![None; self.arity as usize];
        for a in &self.atoms {
            if a.op() != CompOp::Eq {
                return None;
            }
            let (v, c) = match (a.lhs(), a.rhs()) {
                (Term::Var(v), Term::Const(c)) | (Term::Const(c), Term::Var(v)) => (v, c),
                _ => return None,
            };
            match &vals[v.index()] {
                Some(prev) if *prev != c => return None, // unsatisfiable pin
                _ => vals[v.index()] = Some(c),
            }
        }
        vals.into_iter().collect()
    }

    /// All rational constants mentioned.
    pub fn constants(&self) -> BTreeSet<Rational> {
        self.atoms.iter().flat_map(|a| a.consts()).collect()
    }

    /// All columns actually constrained.
    pub fn mentioned_vars(&self) -> BTreeSet<Var> {
        self.atoms.iter().flat_map(|a| a.vars()).collect()
    }

    /// Decide satisfiability over `(Q, <)`: an O(1) read of the verdict the
    /// tuple's [`SatState`] maintained as its atoms were pushed.
    pub fn is_satisfiable(&self) -> bool {
        self.sat.verdict()
    }

    /// Decide satisfiability with the batch order-graph solver, rebuilding
    /// the graph from the atoms — the reference the incremental verdict of
    /// [`GeneralizedTuple::is_satisfiable`] is tested against.
    pub fn is_satisfiable_uncached(&self) -> bool {
        OrderGraph::build(self)
            .map(|g| g.consistent())
            .unwrap_or(false)
    }

    /// Produce a rational point satisfying the tuple, if one exists.
    ///
    /// The witness is constructed from the topological structure of the order
    /// graph: equivalence classes are linearized respecting all edges, classes
    /// containing a constant take that value, and the remaining classes are
    /// interpolated strictly between their rational neighbours (possible by
    /// density; unbounded ends use ±1 offsets — no endpoints).
    pub fn witness(&self) -> Option<Vec<Rational>> {
        let g = OrderGraph::build(self)?;
        g.witness(self.arity)
    }

    /// Substitute `v := t` and renormalize. Returns `None` if the result is
    /// trivially unsatisfiable.
    pub fn substitute(&self, v: Var, t: Term) -> Option<GeneralizedTuple> {
        let mut out = GeneralizedTuple::top(self.arity);
        for a in &self.atoms {
            match a.substitute(v, t) {
                None => return None,
                Some(atoms) => {
                    for a in atoms {
                        out.push(a);
                    }
                }
            }
        }
        Some(out)
    }

    /// Dense-order quantifier elimination of a single variable: returns a
    /// tuple over the *same* arity whose constraints no longer mention `v`
    /// and which is equivalent to `∃v. self` (on the remaining columns).
    ///
    /// Returns `None` when elimination discovers unsatisfiability.
    pub fn eliminate(&self, v: Var) -> Option<GeneralizedTuple> {
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

    /// Apply a column renaming (must map into `new_arity`).
    pub fn rename(&self, new_arity: u32, f: impl Fn(Var) -> Var) -> GeneralizedTuple {
        GeneralizedTuple::from_atoms(new_arity, self.atoms.iter().map(|a| a.rename(&f)))
    }

    /// Widen the tuple to a larger arity (new columns unconstrained).
    pub fn widen(&self, new_arity: u32) -> GeneralizedTuple {
        assert!(new_arity >= self.arity, "widen must not shrink");
        // Node ids in the SatState depend on the arity, so the derived
        // state is rebuilt by replaying the atoms.
        GeneralizedTuple::from_atoms(new_arity, self.atoms.iter().copied())
    }

    /// Does this tuple entail the given atom (`self ⊨ atom`)?
    ///
    /// Decided by refutation: `self ∧ ¬atom` unsatisfiable. `¬atom` may be a
    /// disjunction (for `=`), in which case all alternatives must be
    /// unsatisfiable.
    pub fn entails(&self, atom: &Atom) -> bool {
        atom.negate().into_iter().all(|alt| {
            let mut t = self.clone();
            for a in alt {
                t.push(a);
            }
            !t.is_satisfiable()
        })
    }

    /// Syntactic subsumption fast path: if every atom of `self` appears
    /// literally in `other`, then `other` is `self` plus extra constraints,
    /// so `other ⊆ self`. Both atom vectors are sorted, so this is a single
    /// linear merge — no satisfiability calls. Sound but incomplete:
    /// `false` only means the cheap check failed, not that subsumption
    /// fails.
    pub fn subsumes_syntactic(&self, other: &GeneralizedTuple) -> bool {
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

    /// Does this tuple's point set include the other's (`other ⊆ self`)?
    ///
    /// Tries the syntactic atom-subset check first; only on failure falls
    /// back to the semantic entailment test (one refutation per atom).
    pub fn subsumes(&self, other: &GeneralizedTuple) -> bool {
        assert_eq!(self.arity, other.arity);
        self.subsumes_syntactic(other) || self.atoms.iter().all(|a| other.entails(a))
    }

    /// Remove atoms entailed by the rest of the conjunction (minimal-ish
    /// form; greedy, so not guaranteed globally minimum but stable).
    pub fn simplify(&self) -> GeneralizedTuple {
        let mut atoms = self.atoms.clone();
        let mut i = 0;
        while i < atoms.len() {
            let a = atoms[i];
            let rest = GeneralizedTuple::from_atoms(
                self.arity,
                atoms
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, x)| *x),
            );
            if rest.entails(&a) {
                atoms.remove(i);
            } else {
                i += 1;
            }
        }
        GeneralizedTuple::from_atoms(self.arity, atoms)
    }

    /// Map all constants through a strictly monotone function (an
    /// order-automorphism of `Q`); the resulting tuple represents the image
    /// of the point set under the automorphism.
    pub fn map_consts(&self, f: &impl Fn(&Rational) -> Rational) -> GeneralizedTuple {
        GeneralizedTuple::from_atoms(self.arity, self.atoms.iter().map(|a| a.map_consts(f)))
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

/// The order graph of a conjunction: nodes are equivalence classes of terms
/// (under the equality atoms), edges are `<` (strict) and `≤` (weak)
/// obligations, including the built-in order on the mentioned constants.
/// Result of the SCC pass: `(scc_of_root, topo_order_of_sccs, scc_pin)`.
type SccAnalysis = (
    BTreeMap<usize, usize>,
    Vec<Vec<usize>>,
    BTreeMap<usize, Rational>,
);

struct OrderGraph {
    /// Union-find parent vector over node ids.
    parent: Vec<usize>,
    /// For each root: the constant its class is pinned to, if any.
    pinned: BTreeMap<usize, Rational>,
    /// Edges `(from, to, strict)` between class representatives.
    edges: Vec<(usize, usize, bool)>,
    /// Node id of each variable (dense) and each constant.
    var_node: Vec<usize>,
    const_node: BTreeMap<Rational, usize>,
}

impl OrderGraph {
    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Union two classes; returns `None` on contradiction (two distinct
    /// constants merged).
    fn union(&mut self, a: usize, b: usize) -> Option<()> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return Some(());
        }
        let pa = self.pinned.get(&ra).copied();
        let pb = self.pinned.get(&rb).copied();
        if let (Some(ca), Some(cb)) = (pa, pb) {
            if ca != cb {
                return None;
            }
        }
        self.parent[ra] = rb;
        if let Some(c) = pa {
            self.pinned.insert(rb, c);
        }
        Some(())
    }

    fn node_of(&mut self, t: Term) -> usize {
        match t {
            Term::Var(v) => self.var_node[v.index()],
            Term::Const(c) => self.const_node[&c],
        }
    }

    /// Build the graph; `None` indicates a contradiction found during
    /// equality merging.
    fn build(tuple: &GeneralizedTuple) -> Option<OrderGraph> {
        let consts: Vec<Rational> = tuple.constants().into_iter().collect();
        let nvars = tuple.arity as usize;
        let n = nvars + consts.len();
        let mut g = OrderGraph {
            parent: (0..n).collect(),
            pinned: BTreeMap::new(),
            edges: Vec::new(),
            var_node: (0..nvars).collect(),
            const_node: consts
                .iter()
                .enumerate()
                .map(|(i, c)| (*c, nvars + i))
                .collect(),
        };
        for (i, c) in consts.iter().enumerate() {
            g.pinned.insert(nvars + i, *c);
        }
        // Built-in order between consecutive constants (sorted already).
        for w in consts.windows(2) {
            let a = g.const_node[&w[0]];
            let b = g.const_node[&w[1]];
            g.edges.push((a, b, true));
        }
        // Equality atoms first.
        for a in &tuple.atoms {
            if a.op() == CompOp::Eq {
                let x = g.node_of(a.lhs());
                let y = g.node_of(a.rhs());
                g.union(x, y)?;
            }
        }
        // Inequality atoms as edges.
        for a in &tuple.atoms {
            match a.op() {
                CompOp::Eq => {}
                op => {
                    let x = g.node_of(a.lhs());
                    let y = g.node_of(a.rhs());
                    g.edges.push((x, y, op.is_strict()));
                }
            }
        }
        Some(g)
    }

    /// Satisfiable iff no strongly connected component (over all edges,
    /// strict and weak) contains a strict edge, and no SCC merges two
    /// distinct pinned constants.
    fn consistent(mut self) -> bool {
        self.sccs_ok().is_some()
    }

    /// Compute SCC ids per class representative; `None` if inconsistent.
    /// On success returns `(scc_of_root, topo_order_of_sccs, scc_pin)`.
    fn sccs_ok(&mut self) -> Option<SccAnalysis> {
        // Collapse to representatives.
        let n = self.parent.len();
        let mut roots = BTreeSet::new();
        for i in 0..n {
            let r = self.find(i);
            roots.insert(r);
        }
        let idx: BTreeMap<usize, usize> = roots.iter().enumerate().map(|(i, r)| (*r, i)).collect();
        let m = roots.len();
        let mut adj: Vec<Vec<(usize, bool)>> = vec![Vec::new(); m];
        let edges = self.edges.clone();
        for (a, b, s) in edges {
            let ra = idx[&self.find(a)];
            let rb = idx[&self.find(b)];
            if ra == rb {
                if s {
                    return None; // x < x
                }
                continue;
            }
            adj[ra].push((rb, s));
        }
        // Tarjan SCC (iterative).
        let sccs = tarjan(&adj);
        let mut scc_of = vec![usize::MAX; m];
        for (si, comp) in sccs.iter().enumerate() {
            for &v in comp {
                scc_of[v] = si;
            }
        }
        // Reject strict edges within an SCC.
        for (u, nexts) in adj.iter().enumerate() {
            for &(v, s) in nexts {
                if s && scc_of[u] == scc_of[v] {
                    return None;
                }
            }
        }
        // Topological order of the SCC DAG (Tarjan emits reverse topological).
        let roots_vec: Vec<usize> = roots.iter().copied().collect();
        let mut comps = sccs;
        comps.reverse();
        // Map local ids back to union-find roots.
        let comps_roots: Vec<Vec<usize>> = comps
            .iter()
            .map(|comp| comp.iter().map(|&l| roots_vec[l]).collect())
            .collect();
        // Renumber SCC ids to topological position for callers.
        let mut renum = BTreeMap::new();
        for (pos, comp) in comps_roots.iter().enumerate() {
            for r in comp {
                renum.insert(*r, pos);
            }
        }
        // Pins per SCC: all members of an SCC are forced equal, so two
        // distinct pinned constants in one SCC is a contradiction. (Pin
        // *ordering* along DAG paths needs no separate check: constant nodes
        // carry built-in strict chain edges, so any violation would have
        // produced a strict cycle above.)
        let mut pin_topo: BTreeMap<usize, Rational> = BTreeMap::new();
        for (pos, comp) in comps_roots.iter().enumerate() {
            for r in comp {
                if let Some(c) = self.pinned.get(r) {
                    if let Some(c2) = pin_topo.get(&pos) {
                        if c2 != c {
                            return None;
                        }
                    }
                    pin_topo.insert(pos, *c);
                }
            }
        }
        Some((renum, comps_roots, pin_topo))
    }

    /// Construct a witness point.
    fn witness(mut self, arity: u32) -> Option<Vec<Rational>> {
        let (renum, comps, pins) = self.sccs_ok()?;
        // Assign a rational to each SCC in topological order such that all
        // edges (which now go forward or within an SCC weakly) are satisfied.
        // Between SCCs connected by a weak edge equality is allowed, but
        // assigning strictly increasing values along topo order except where
        // pins dictate otherwise is always safe... except pins impose exact
        // values and order among pinned SCCs is consistent with topo order
        // only partially. We therefore solve left to right:
        //  - keep a running strict lower bound `low` (last assigned value)
        //    for SCCs reachable so far; to stay sound we simply require each
        //    assigned value to strictly exceed every predecessor's value
        //    when a path exists. Tracking exact reachability is O(m²) worst
        //    case but components are few.
        let m = comps.len();
        // adjacency between topo sccs with strictness
        let mut adj: Vec<Vec<(usize, bool)>> = vec![Vec::new(); m];
        let edges = self.edges.clone();
        for (a, b, s) in edges {
            let ra = self.find(a);
            let rb = self.find(b);
            let (pa, pb) = (renum[&ra], renum[&rb]);
            if pa != pb {
                adj[pa].push((pb, s));
            }
        }
        // For each scc: max over predecessors of (pred value, strict?).
        let mut value: Vec<Option<Rational>> = vec![None; m];
        let mut lower: Vec<Option<(Rational, bool)>> = vec![None; m]; // (bound, strict)
        for pos in 0..m {
            // compute value
            let v = if let Some(c) = pins.get(&pos) {
                // check against accumulated lower bound
                if let Some((b, strict)) = &lower[pos] {
                    if (*strict && c <= b) || (!*strict && c < b) {
                        return None;
                    }
                }
                *c
            } else {
                match &lower[pos] {
                    None => {
                        // unconstrained below: pick min(pin values)-1-pos or 0
                        Rational::from_int(-(1 + pos as i64))
                            + pins.values().min().copied().unwrap_or(Rational::ZERO)
                    }
                    Some((b, strict)) => {
                        if *strict {
                            // strictly above b: need next pinned constant above?
                            // No upper constraint tracked here: any value > b
                            // works for predecessors; successors handle their
                            // own bounds. But a pinned successor might force a
                            // ceiling. To remain sound, choose b + epsilon
                            // where epsilon smaller than the gap to the next
                            // pinned constant greater than b, if any.
                            let next_pin = pins.values().filter(|c| *c > b).min();
                            match next_pin {
                                Some(c) => b.midpoint(c).ok()?,
                                None => b + &Rational::ONE,
                            }
                        } else {
                            *b
                        }
                    }
                }
            };
            value[pos] = Some(v);
            for &(succ, s) in &adj[pos] {
                let cur = lower[succ].take();
                let cand = (v, s);
                lower[succ] = Some(match cur {
                    None => cand,
                    Some((b, bs)) => {
                        if v > b || (v == b && s && !bs) {
                            cand
                        } else {
                            (b, bs)
                        }
                    }
                });
            }
        }
        // Read off variable values.
        let mut point = Vec::with_capacity(arity as usize);
        for i in 0..arity as usize {
            let r = self.find(self.var_node[i]);
            let pos = renum[&r];
            point.push(value[pos]?);
        }
        Some(point)
    }
}

/// Iterative Tarjan SCC; returns components in reverse topological order.
fn tarjan(adj: &[Vec<(usize, bool)>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next_index = 0;
    let mut comps = Vec::new();
    // Explicit DFS stack: (node, edge iterator position).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut ei)) = call.last_mut() {
            if *ei == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *ei < adj[v].len() {
                let (w, _) = adj[v][*ei];
                *ei += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comps.push(comp);
                }
                call.pop();
                if let Some(&mut (p, _)) = call.last_mut() {
                    low[p] = low[p].min(low[v]);
                }
            }
        }
    }
    comps
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
    fn from_raw_ne_splits() {
        let ts = GeneralizedTuple::from_raw(1, vec![raw(v(0), RawOp::Ne, c(0))]);
        assert_eq!(ts.len(), 2);
        let covered = |p: &[Rational]| ts.iter().any(|t| t.contains_point(p));
        assert!(covered(&[rat(1, 1)]));
        assert!(covered(&[rat(-1, 1)]));
        assert!(!covered(&[rat(0, 1)]));
    }
}
