//! Encoding round-trips, with proptest-driven random databases: the §3
//! standard encoding, JSON interchange, the box compression, and the
//! integer homeomorphism.

use dco::encoding::{compress, decode, encode, integerize};
use dco::prelude::*;
use proptest::prelude::*;

/// Strategy: a random satisfiable unary relation from random interval
/// endpoints.
fn arb_unary() -> impl Strategy<Value = GeneralizedRelation> {
    prop::collection::vec(
        (-20i64..20, 1i64..8, prop::bool::ANY, prop::bool::ANY),
        0..6,
    )
    .prop_map(|spans| {
        let tuples = spans.into_iter().map(|(lo, len, strict_lo, strict_hi)| {
            let lo_op = if strict_lo { RawOp::Lt } else { RawOp::Le };
            let hi_op = if strict_hi { RawOp::Lt } else { RawOp::Le };
            GeneralizedTuple::from_raw(
                1,
                vec![
                    RawAtom::new(Term::cst(rat(lo as i128, 1)), lo_op, Term::var(0)),
                    RawAtom::new(Term::var(0), hi_op, Term::cst(rat((lo + len) as i128, 1))),
                ],
            )
            .pop()
            .expect("nonempty span")
        });
        GeneralizedRelation::from_tuples(1, tuples)
    })
}

/// Strategy: a random binary relation mixing boxes and wedges.
fn arb_binary() -> impl Strategy<Value = GeneralizedRelation> {
    prop::collection::vec(
        (-10i64..10, 1i64..5, -10i64..10, 1i64..5, prop::bool::ANY),
        0..5,
    )
    .prop_map(|parts| {
        let tuples = parts.into_iter().map(|(x, w, y, h, wedge)| {
            let mut raws = vec![
                RawAtom::new(Term::cst(rat(x as i128, 1)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat((x + w) as i128, 1))),
                RawAtom::new(Term::cst(rat(y as i128, 1)), RawOp::Le, Term::var(1)),
                RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat((y + h) as i128, 1))),
            ];
            if wedge {
                raws.push(RawAtom::new(Term::var(0), RawOp::Le, Term::var(1)));
            }
            GeneralizedTuple::from_raw(2, raws).pop()
        });
        GeneralizedRelation::from_tuples(2, tuples.flatten())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn standard_encoding_roundtrips(rel in arb_unary()) {
        let db = Database::new(Schema::new().with("S", 1)).with("S", rel.clone());
        let back = decode(&encode(&db)).unwrap();
        prop_assert!(back.get("S").unwrap().equivalent(&rel));
    }

    #[test]
    fn json_roundtrips(rel in arb_binary()) {
        let db = Database::new(Schema::new().with("R", 2)).with("R", rel.clone());
        let json = dco::encoding::json::to_json(&db).unwrap();
        let back = dco::encoding::json::from_json(&json).unwrap();
        prop_assert!(back.get("R").unwrap().equivalent(&rel));
    }

    #[test]
    fn box_compression_is_lossless(rel in arb_binary()) {
        let c = compress(&rel);
        prop_assert!(c.to_relation().equivalent(&rel));
    }

    #[test]
    fn integerization_preserves_membership_structure(rel in arb_unary()) {
        let db = Database::new(Schema::new().with("S", 1)).with("S", rel.clone());
        let (idb, map) = integerize(&db);
        prop_assert!(dco::encoding::is_integer_defined(&idb));
        // forward-mapping the original relation gives the integerized one
        let fwd = if db.constants().is_empty() {
            rel.clone()
        } else {
            map.to_automorphism().apply_relation(&rel)
        };
        prop_assert!(fwd.equivalent(idb.get("S").unwrap()));
    }
}

#[test]
fn encoding_size_is_the_declared_measure() {
    let db = Database::new(Schema::new().with("S", 1)).with(
        "S",
        GeneralizedRelation::from_points(1, vec![vec![rat(1, 1)], vec![rat(2, 1)]]),
    );
    assert_eq!(dco::encoding::encoded_size(&db), encode(&db).len());
}
