//! Instance generators shared by the experiments.

use dco::prelude::*;

/// A unary database of `n` disjoint closed intervals `[3i, 3i+1]` —
/// integer-defined, size Θ(n) under the standard encoding.
///
/// The workload is monotone in `n`: constants, tuples and the
/// complement's disjunct count all grow linearly. (Timings once were not,
/// because a complement strategy switched between negation distribution
/// and cell decomposition by a size estimate; negation is now one
/// box-pruned `GeneralizedRelation::subtract` with no such switch.) The
/// interval family is kept unchanged so timings stay comparable across
/// baselines.
pub fn interval_db(n: usize) -> Database {
    let tuples = (0..n).map(|i| {
        let lo = 3 * i as i128;
        GeneralizedTuple::from_raw(
            1,
            vec![
                RawAtom::new(Term::cst(rat(lo, 1)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat(lo + 1, 1))),
            ],
        )
        .pop()
        .expect("interval tuple is satisfiable")
    });
    Database::new(Schema::new().with("S", 1)).with("S", GeneralizedRelation::from_tuples(1, tuples))
}

/// A binary database of `n` disjoint boxes along the diagonal.
pub fn box_db(n: usize) -> Database {
    let tuples = (0..n).map(|i| {
        let lo = 3 * i as i128;
        GeneralizedTuple::from_raw(
            2,
            vec![
                RawAtom::new(Term::cst(rat(lo, 1)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat(lo + 1, 1))),
                RawAtom::new(Term::cst(rat(lo, 1)), RawOp::Le, Term::var(1)),
                RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(lo + 1, 1))),
            ],
        )
        .pop()
        .expect("box tuple is satisfiable")
    });
    Database::new(Schema::new().with("R", 2)).with("R", GeneralizedRelation::from_tuples(2, tuples))
}

/// A directed path graph `1 → 2 → … → n` as a finite edge relation.
pub fn path_graph(n: usize) -> Database {
    let e = GeneralizedRelation::from_points(
        2,
        (1..n)
            .map(|i| vec![rat(i as i128, 1), rat(i as i128 + 1, 1)])
            .collect::<Vec<_>>(),
    );
    Database::new(Schema::new().with("e", 2)).with("e", e)
}

/// A finite point set `{1, …, n}` (unary).
pub fn point_set(n: usize) -> GeneralizedRelation {
    GeneralizedRelation::from_points(
        1,
        (1..=n).map(|i| vec![rat(i as i128, 1)]).collect::<Vec<_>>(),
    )
}

/// The same database with every integer constant `c` replaced by the
/// rational `c + 1/7` — a non-integer twin for the homeomorphism tests.
pub fn seventhify(db: &Database) -> Database {
    let f = dco::core::automorphism::Automorphism::translation(rat(1, 7));
    db.apply_automorphism(&f)
}
