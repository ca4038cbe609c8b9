//! # dco-encoding — standard encodings of dense-order databases
//!
//! §3–§4 of *Dense-Order Constraint Databases* (Grumbach & Su, PODS 1995)
//! lean on three encoding facts, all implemented here:
//!
//! * the **standard encoding** of a database as the byte string of its
//!   quantifier-free representation — the data-complexity input measure
//!   ([`standard`]);
//! * the **integer-only homeomorphism** — constants mapped to consecutive
//!   integers respecting order, "zero is zero" — under which every query's
//!   answer transfers by genericity ([`integerize()`](integerize::integerize));
//! * the **compact rectangle encoding** — "four constants along with a
//!   flag" — for the boxy relations of the motivating examples ([`boxes`]).
//!
//! Plus JSON interchange for tooling ([`json`]).

#![warn(missing_docs)]

pub mod bits;
pub mod boxes;
pub mod integerize;
pub mod json;
pub mod standard;

pub use bits::{bit_size, decode_relation, encode_relation, BitDecodeError, BitVec};
pub use boxes::{compress, BoxEncoding, CompressedRelation, Side};
pub use integerize::{integerize, is_integer_defined, ConstantMap};
pub use json::{
    from_json, lin_relation_from_json, lin_relation_to_json, lin_tuple_from_json,
    lin_tuple_to_json, parse_json, relation_from_json, relation_from_json_str, relation_to_json,
    relation_to_json_str, to_json, Json, JsonError,
};
pub use standard::{decode, encode, encoded_size, DecodeError};
