//! # dco-linear — FO+ over dense-order constraint databases
//!
//! The linear-constraint layer of *Dense-Order Constraint Databases*
//! (Grumbach & Su, PODS 1995): FO with a built-in addition (`FO+`),
//! evaluated bottom-up in closed form via Fourier–Motzkin elimination.
//! §4 of the paper: FO+ has NC data complexity in general and uniform AC⁰
//! over integer-defined inputs (Theorem 4.1), yet cannot express graph or
//! region connectivity (Theorems 4.2–4.3).
//!
//! This crate is the linear tuple kernel — [`LinAtom`], [`LinTuple`] and
//! Fourier–Motzkin elimination — plus two instantiations. [`LinTuple`] is a
//! `dco_core` [`Conjunction`](dco_core::relation::Conjunction), so
//! [`LinRelation`] is the dense-order relation layer's
//! [`Relation`](dco_core::relation::Relation) over linear tuples, with the
//! same subtraction, complement, box pruning and subsumption; and it is a
//! [`dco_fo::Domain`], so FO+ has no entry point of its own: it is
//! [`dco_fo::evaluate`]`::<LinTuple>` (planner order, EXPLAIN, guard),
//! with `dco-fo`'s errors.
//!
//! ```
//! use dco_core::prelude::*;
//! use dco_fo::{evaluate, Options};
//! use dco_linear::LinTuple;
//!
//! let db = Database::new(Schema::new());
//! // Density of Q in FO+ clothing: every pair has a midpoint.
//! let f = dco_logic::parse_formula("forall x y . exists m . m + m = x + y").unwrap();
//! let q = evaluate::<LinTuple>(&db, &f, &Options::default()).unwrap();
//! assert_eq!(q.value.as_bool(), Some(true));
//! ```

#![warn(missing_docs)]

pub mod atom;
pub mod eval;
pub mod relation;
pub mod tuple;

pub use atom::{LinAtom, NormalizedAtom};
pub use relation::{from_dense, to_dense, LinRelation};
pub use tuple::LinTuple;
