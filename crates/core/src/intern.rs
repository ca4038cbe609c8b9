//! Fingerprints: deterministic 64-bit hashes of atoms and tuples.
//!
//! Every [`crate::tuple::GeneralizedTuple`] carries a precomputed 64-bit
//! *fingerprint* — an order-independent combination of per-atom hashes that
//! is updated incrementally as atoms are pushed. Fingerprints make hashing
//! O(1) (the `Hash` impls write only the fingerprint) and give equality and
//! subsumption checks a constant-time fast path; full structural comparison
//! is kept behind the fingerprint compare, so a collision can never produce
//! a wrong answer, only a slower one. A `HashSet` of tuples therefore
//! deduplicates at the cost of one fingerprint probe per lookup.

use crate::atom::{Atom, Term};
use crate::rational::Rational;

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Fold one 64-bit word into a running fingerprint.
pub fn fold(h: u64, v: u64) -> u64 {
    mix64(h ^ v)
}

/// Fold a rational's canonical `(numerator, denominator)` into `h`.
pub fn fold_rational(h: u64, r: &Rational) -> u64 {
    let n = r.numer() as u128;
    let d = r.denom() as u128;
    let h = fold(h, n as u64);
    let h = fold(h, (n >> 64) as u64);
    let h = fold(h, d as u64);
    fold(h, (d >> 64) as u64)
}

fn fold_term(h: u64, t: &Term) -> u64 {
    match t {
        Term::Var(v) => fold(fold(h, 1), v.0 as u64),
        Term::Const(c) => fold_rational(fold(h, 2), c),
    }
}

/// The fingerprint of one normalized atom. Deterministic across processes
/// (no random hasher state), so fingerprints can be compared between runs.
pub fn atom_fingerprint(a: &Atom) -> u64 {
    let h = fold(0x6a09_e667_f3bc_c909, a.op() as u64);
    let h = fold_term(h, &a.lhs());
    fold_term(h, &a.rhs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{CompOp, RawAtom, RawOp};
    use crate::rational::rat;
    use crate::relation::Conjunction;
    use crate::tuple::GeneralizedTuple;
    use std::collections::HashSet;

    fn atom(i: u32, op: CompOp, n: i64) -> Atom {
        Atom::normalized(Term::var(i), op, Term::cst(rat(n as i128, 1))).unwrap()[0]
    }

    #[test]
    fn atom_fingerprints_distinguish_structure() {
        // Not a collision-resistance proof, just a sanity check that every
        // field feeds the fingerprint.
        let base = atom_fingerprint(&atom(0, CompOp::Lt, 5));
        assert_ne!(base, atom_fingerprint(&atom(1, CompOp::Lt, 5)));
        assert_ne!(base, atom_fingerprint(&atom(0, CompOp::Le, 5)));
        assert_ne!(base, atom_fingerprint(&atom(0, CompOp::Lt, 6)));
        let frac = Atom::normalized(Term::var(0), CompOp::Lt, Term::cst(rat(5, 2))).unwrap()[0];
        assert_ne!(base, atom_fingerprint(&frac));
    }

    #[test]
    fn tuple_interning_deduplicates_across_construction_paths() {
        // The Datalog engine's per-evaluation `seen` set relies on this:
        // one canonical tuple reached along two construction paths is one
        // set entry.
        let mk = || {
            GeneralizedTuple::from_raw(
                2,
                vec![
                    RawAtom::new(Term::var(0), RawOp::Le, Term::var(1)),
                    RawAtom::new(Term::var(0), RawOp::Ge, Term::cst(rat(0, 1))),
                ],
            )
            .pop()
            .unwrap()
        };
        // Same atoms pushed in a different order → same canonical tuple.
        let t2 =
            GeneralizedTuple::from_atoms(2, mk().atoms().iter().rev().copied().collect::<Vec<_>>());
        assert_eq!(mk().fingerprint(), t2.fingerprint());
        let seen: HashSet<GeneralizedTuple> = [mk(), t2].into_iter().collect();
        assert_eq!(seen.len(), 1);
    }
}
