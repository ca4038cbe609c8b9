//! Property tests for the tuple kernel's fast paths, each against a slow
//! reference: the incremental satisfiability verdict, the witness and the
//! graph read `admits` against the cell decomposition, the implied
//! bounding boxes against quantifier elimination, the one-state
//! `simplify` and the `admits`-driven subtraction against clone-and-push
//! loops, box-pruned intersection against conjoining every pair, bounding
//! boxes against satisfiability, the one-bound-per-side rule of `push`
//! against its own atom count and push order, and fingerprints against
//! structural equality.

use dco_core::prelude::*;
use proptest::prelude::*;

/// Variables are drawn twice as often as each kind of constant, one kind
/// being the pool `{-1, 0, 1}`, so random atoms often close cycles — the
/// case in which a strict edge decides the verdict.
fn arb_term(arity: u32) -> impl Strategy<Value = Term> {
    prop_oneof![
        2 => (0..arity).prop_map(Term::var),
        1 => (-1i64..2).prop_map(|c| Term::cst(rat(c as i128, 1))),
        1 => (-6i64..6).prop_map(|c| Term::cst(rat(c as i128, 1))),
        1 => (-12i64..12, 2i64..5).prop_map(|(n, d)| Term::cst(rat(n as i128, d as i128))),
    ]
}

fn arb_rawop() -> impl Strategy<Value = RawOp> {
    prop_oneof![
        Just(RawOp::Lt),
        Just(RawOp::Le),
        Just(RawOp::Eq),
        Just(RawOp::Ne),
        Just(RawOp::Ge),
        Just(RawOp::Gt),
    ]
}

fn arb_raws(arity: u32) -> impl Strategy<Value = Vec<RawAtom>> {
    prop::collection::vec(
        (arb_term(arity), arb_rawop(), arb_term(arity))
            .prop_map(|(l, op, r)| RawAtom::new(l, op, r)),
        0..5,
    )
}

fn arb_relation(arity: u32) -> impl Strategy<Value = Vec<Vec<RawAtom>>> {
    prop::collection::vec(arb_raws(arity), 0..4)
}

/// Random *normalized* atoms — unlike [`GeneralizedTuple::from_raw`], a
/// sequence built this way is free to pass through unsatisfiable prefixes,
/// which is exactly what the incremental solver must detect. A nonempty
/// sequence ends by reversing one of its comparisons (`l op r`, later
/// `r op' l`), closing a cycle whose verdict hangs on strictness.
fn arb_atoms(arity: u32) -> impl Strategy<Value = Vec<Atom>> {
    let op = || prop_oneof![Just(CompOp::Lt), Just(CompOp::Le), Just(CompOp::Eq)];
    (
        prop::collection::vec((arb_term(arity), op(), arb_term(arity)), 0..6),
        0usize..64,
        op(),
    )
        .prop_map(|(mut triples, back, closing)| {
            if !triples.is_empty() {
                let (l, _, r) = triples[back % triples.len()];
                triples.push((r, closing, l));
            }
            triples
                .into_iter()
                .flat_map(|(l, op, r)| Atom::normalized(l, op, r).into_iter().flatten())
                .collect()
        })
}

/// Atoms to test a tuple with: half draw their constants from odd
/// fourteenths, which the tuple's pools mostly miss, so `admits` must
/// compare bounds with constants the tuple does not mention.
fn arb_probes(arity: u32) -> impl Strategy<Value = Vec<Atom>> {
    let absent = (-20i64..20).prop_map(|k| Term::cst(rat(2 * k as i128 + 1, 14)));
    let term = move || prop_oneof![arb_term(arity), absent.clone()];
    let op = prop_oneof![Just(CompOp::Lt), Just(CompOp::Le), Just(CompOp::Eq)];
    prop::collection::vec((term(), op, term()), 1..5).prop_map(|triples| {
        triples
            .into_iter()
            .flat_map(|(l, op, r)| Atom::normalized(l, op, r).into_iter().flatten())
            .collect()
    })
}

/// Comparisons between two variables of `t` whose implied bounds meet at
/// one constant (`u`'s lower bound is `v`'s upper), whose verdict hangs
/// on the strictness the comparison and the two bounds add up to.
fn meeting_probes(t: &GeneralizedTuple) -> Vec<Atom> {
    let boxes = t.bounding_box();
    let mut probes = Vec::new();
    for (u, bu) in (0..).zip(boxes) {
        for (v, bv) in (0..).zip(boxes) {
            let meet = matches!((bu.lo, bv.hi), (Some((l, _)), Some((h, _))) if l == h);
            if u == v || !meet {
                continue;
            }
            for op in [CompOp::Lt, CompOp::Le, CompOp::Eq] {
                probes.extend(
                    Atom::normalized(Term::var(u), op, Term::var(v))
                        .into_iter()
                        .flatten(),
                );
            }
        }
    }
    probes
}

/// Intervals over the pool `{-1, 0, 1}`, each side absent, open or
/// closed, so two boxes often share an endpoint.
fn arb_box() -> impl Strategy<Value = VarBox> {
    let side = || {
        prop_oneof![
            1 => Just(None),
            3 => (-1i64..2, prop::bool::ANY).prop_map(|(c, strict)| Some((rat(c as i128, 1), strict))),
        ]
    };
    (side(), side()).prop_map(|(lo, hi)| VarBox { lo, hi })
}

/// Whether some sample point of the cells over the constants of `t` and
/// `a` satisfies `t ∧ a`: each such cell lies wholly inside or wholly
/// outside it.
fn cells_admit(t: &GeneralizedTuple, a: &Atom) -> bool {
    let space = CellSpace::new(t.arity(), t.constants().into_iter().chain(a.consts()));
    space.enumerate().iter().any(|cell| {
        let p = space.sample(cell);
        t.contains_point(&p) && a.eval(&p)
    })
}

/// The greedy `simplify` with every entailment decided by conjoining an
/// alternative of the negation to a rebuilt tuple of the other atoms.
fn simplify_reference(t: &GeneralizedTuple) -> GeneralizedTuple {
    let mut atoms = t.atoms().to_vec();
    let mut i = 0;
    while i < atoms.len() {
        let rest = atoms.iter().enumerate().filter(|&(j, _)| j != i);
        let rest = GeneralizedTuple::from_atoms(t.arity(), rest.map(|(_, a)| *a));
        let entailed = atoms[i].negate().into_iter().all(|alt| {
            let mut r = rest.clone();
            r.push(alt);
            !r.is_satisfiable()
        });
        if entailed {
            atoms.remove(i);
        } else {
            i += 1;
        }
    }
    GeneralizedTuple::from_atoms(t.arity(), atoms)
}

/// `subtract` with each piece built by clone → push → verdict, as the
/// kernel cut before it decided pieces with `admits`.
fn subtract_reference(a: &GeneralizedRelation, b: &GeneralizedRelation) -> GeneralizedRelation {
    fn cut(p: GeneralizedTuple, u: &GeneralizedTuple) -> Vec<GeneralizedTuple> {
        if p.box_disjoint(u) {
            return vec![p];
        }
        if u.subsumes_syntactic(&p) {
            return Vec::new();
        }
        let (mut pieces, mut prefix) = (Vec::new(), p.clone());
        for a in u.atoms() {
            let mut entailed = true;
            for alt in a.negate() {
                let mut piece = prefix.clone();
                piece.push(alt);
                if piece.is_satisfiable() {
                    entailed = false;
                    pieces.push(piece.tidy());
                }
            }
            if !entailed {
                prefix.push(*a);
                if !prefix.is_satisfiable() {
                    return vec![p];
                }
            }
        }
        pieces
    }
    let mut r = GeneralizedRelation::empty(a.arity());
    for t in a.tuples() {
        let pieces = b.tuples().iter().fold(vec![t.clone()], |ps, u| {
            ps.into_iter().flat_map(|p| cut(p, u)).collect()
        });
        for p in pieces {
            r.insert_satisfiable(p);
        }
    }
    r
}

fn build(arity: u32, raws: &[Vec<RawAtom>]) -> GeneralizedRelation {
    let mut rel = GeneralizedRelation::empty(arity);
    for rs in raws {
        for t in GeneralizedTuple::from_raw(arity, rs.clone()) {
            rel.insert(t);
        }
    }
    rel
}

/// Intersection without the bounding-box pre-filter: conjoin every pair
/// and insert the results in the order `intersect` does.
fn all_pairs_intersect(a: &GeneralizedRelation, b: &GeneralizedRelation) -> GeneralizedRelation {
    let mut r = GeneralizedRelation::empty(a.arity());
    for x in a.tuples() {
        for y in b.tuples() {
            r.insert(x.conjoin(y));
        }
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ---- incremental SatState ≡ cell decomposition on random prefixes -

    #[test]
    fn verdict_matches_cell_decomposition(atoms in arb_atoms(3)) {
        let mut t = GeneralizedTuple::top(3);
        for atom in atoms {
            t.push(atom);
            // Every cell over the tuple's constants lies wholly inside or
            // wholly outside it, so the tuple is satisfiable iff some
            // cell's sample point satisfies it.
            let space = CellSpace::new(3, t.constants());
            let nonempty = space
                .enumerate()
                .iter()
                .any(|cell| t.contains_point(&space.sample(cell)));
            prop_assert_eq!(
                t.is_satisfiable(),
                nonempty,
                "prefix {} disagrees with the cell decomposition",
                &t
            );
            if nonempty {
                let w = t.witness();
                prop_assert!(
                    w.as_ref().is_some_and(|w| t.contains_point(w)),
                    "witness {:?} of {}",
                    w,
                    &t
                );
            }
        }
    }

    // ---- implied boxes ≡ quantifier elimination; one bound per side --

    #[test]
    fn boxes_are_exact_projections(atoms in arb_atoms(3)) {
        // Dense-order elimination is exact, so eliminating every other
        // column leaves the projection on column i as constant bounds.
        let mut t = GeneralizedTuple::top(3);
        for atom in atoms {
            t.push(atom);
            if !t.is_satisfiable() {
                break;
            }
            for i in 0..3u32 {
                let projected = (0..3u32)
                    .filter(|&j| j != i)
                    .try_fold(t.clone(), |p, j| p.eliminate(Var(j)));
                prop_assert!(projected.is_some(), "{} eliminates to false", &t);
                let projected = projected.unwrap();
                let bx = |u: &GeneralizedTuple| {
                    u.bounding_box().get(i as usize).copied().unwrap_or_default()
                };
                prop_assert_eq!(
                    bx(&t),
                    bx(&projected),
                    "box of x{} in {} against its projection {}",
                    i,
                    &t,
                    &projected
                );
            }
        }
    }

    #[test]
    fn push_keeps_one_bound_per_side(atoms in arb_atoms(3)) {
        let mut t = GeneralizedTuple::top(3);
        for atom in atoms {
            t.push(atom);
            if !t.is_satisfiable() {
                break;
            }
            // (lower, upper, equality) constant atoms per column.
            let mut counts = [(0, 0, 0); 3];
            for a in t.atoms() {
                match (a.lhs(), a.op(), a.rhs()) {
                    (Term::Var(x), CompOp::Eq, Term::Const(_)) => counts[x.index()].2 += 1,
                    (Term::Var(x), _, Term::Const(_)) => counts[x.index()].1 += 1,
                    (Term::Const(_), _, Term::Var(x)) => counts[x.index()].0 += 1,
                    _ => {}
                }
            }
            for (lo, hi, eq) in counts {
                prop_assert!(
                    (lo <= 1 && hi <= 1 && eq == 0) || (lo == 0 && hi == 0 && eq == 1),
                    "{} has {} lower, {} upper and {} equality bounds on one column",
                    &t,
                    lo,
                    hi,
                    eq
                );
            }
            let reversed = GeneralizedTuple::from_atoms(3, t.atoms().iter().rev().copied());
            prop_assert_eq!(&reversed, &t);
        }
    }

    // ---- graph reads ≡ cell decomposition and clone-and-push ---------

    #[test]
    fn admits_matches_cell_decomposition(atoms in arb_atoms(3), probes in arb_probes(3)) {
        // Every prefix, from the empty tuple to the (often unsatisfiable)
        // whole, against atoms whose constants it may not mention, against
        // each of its atoms reversed under every operator, which close
        // cycles whose verdict hangs on strictness, and against
        // comparisons of variables whose implied bounds meet.
        let mut t = GeneralizedTuple::top(3);
        for next in atoms.iter().map(Some).chain([None]) {
            let reversed = t.atoms().iter().flat_map(|a| {
                [CompOp::Lt, CompOp::Le, CompOp::Eq]
                    .into_iter()
                    .flat_map(|op| Atom::normalized(a.rhs(), op, a.lhs()).into_iter().flatten())
            });
            let derived = reversed.chain(meeting_probes(&t));
            for a in &probes.iter().copied().chain(derived).collect::<Vec<_>>() {
                prop_assert_eq!(
                    t.admits(a),
                    cells_admit(&t, a),
                    "{} admits {}?",
                    &t,
                    a
                );
            }
            if let Some(atom) = next {
                t.push(*atom);
            }
        }
    }

    #[test]
    fn simplify_is_the_greedy_reference(atoms in arb_atoms(3)) {
        let t = GeneralizedTuple::from_atoms(3, atoms);
        let s = t.simplify();
        prop_assert_eq!(&s, &simplify_reference(&t), "simplify of {}", &t);
        let space = CellSpace::new(3, t.constants());
        for cell in space.enumerate() {
            let p = space.sample(&cell);
            prop_assert_eq!(s.contains_point(&p), t.contains_point(&p), "{} at {:?}", &s, p);
        }
    }

    #[test]
    fn subtract_is_the_clone_and_push_reference(a in arb_relation(2), b in arb_relation(2)) {
        let (a, b) = (build(2, &a), build(2, &b));
        prop_assert_eq!(a.subtract(&b), subtract_reference(&a, &b));
        let all = GeneralizedRelation::universe(2);
        prop_assert_eq!(b.complement(), subtract_reference(&all, &b));
    }

    // ---- box pruning never changes intersect results -----------------

    #[test]
    fn box_pruned_intersect_matches_unpruned(a in arb_relation(2), b in arb_relation(2)) {
        let (a, b) = (build(2, &a), build(2, &b));
        prop_assert_eq!(a.intersect(&b).tuples(), all_pairs_intersect(&a, &b).tuples());
    }

    // ---- boxes are sound over-approximations -------------------------

    #[test]
    fn box_disjoint_is_an_empty_meet(a in arb_box(), b in arb_box()) {
        let mut meet = a;
        meet.meet(&b);
        prop_assert_eq!(a.disjoint(&b), meet.is_empty(), "{:?} against {:?}", a, b);
    }

    #[test]
    fn box_disjoint_implies_empty_conjunction(a in arb_raws(2), b in arb_raws(2)) {
        for ta in GeneralizedTuple::from_raw(2, a.clone()) {
            for tb in GeneralizedTuple::from_raw(2, b.clone()) {
                if ta.box_disjoint(&tb) {
                    prop_assert!(
                        !ta.conjoin(&tb).is_satisfiable(),
                        "box-disjoint pair {} / {} is satisfiable together",
                        &ta, &tb
                    );
                }
            }
        }
    }

    // ---- fingerprints -------------------------------------------------

    #[test]
    fn equal_tuples_share_fingerprint_and_handle(raws in arb_raws(2)) {
        for t in GeneralizedTuple::from_raw(2, raws.clone()) {
            // Rebuild through other construction paths: atom replay, in
            // order and reversed.
            for rebuilt in [
                GeneralizedTuple::from_atoms(2, t.atoms().iter().copied()),
                GeneralizedTuple::from_atoms(2, t.atoms().iter().rev().copied()),
            ] {
                prop_assert_eq!(&rebuilt, &t);
                prop_assert_eq!(rebuilt.fingerprint(), t.fingerprint());
            }
        }
    }
}
