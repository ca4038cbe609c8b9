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
//! [`dco_fo::Domain`], so FO+ queries run through `dco-fo`'s one evaluator
//! (planner order, EXPLAIN, guard). [`eval_linear`], [`try_eval_linear`]
//! and [`explain_linear`] only instantiate that evaluator, and errors are
//! `dco-fo`'s [`EvalError`](dco_fo::EvalError) and
//! [`TryEvalError`](dco_fo::TryEvalError).
//!
//! ```
//! use dco_core::prelude::*;
//! use dco_linear::eval_linear_str;
//!
//! let db = Database::new(Schema::new());
//! // Density of Q in FO+ clothing: every pair has a midpoint.
//! let q = eval_linear_str(&db, "forall x y . exists m . m + m = x + y").unwrap();
//! assert_eq!(q.as_bool(), Some(true));
//! ```

#![warn(missing_docs)]

pub mod atom;
pub mod eval;
pub mod relation;
pub mod tuple;

pub use atom::{LinAtom, NormalizedAtom};
pub use eval::{
    eval_linear, eval_linear_str, explain_linear, try_eval_linear, try_eval_linear_str,
    try_eval_linear_with,
};
pub use relation::{from_dense, to_dense, LinRelation};
pub use tuple::LinTuple;
