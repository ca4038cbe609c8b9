//! # dco-fo — first-order queries over dense-order constraint databases
//!
//! The FO query language of Section 4 of *Dense-Order Constraint Databases*
//! (Grumbach & Su, PODS 1995): the relational calculus over `{=, ≤} ∪ Q`,
//! evaluated bottom-up in closed form over generalized relations (the
//! evaluation strategy of \[KKR90\] that gives FO its AC⁰ data complexity).
//!
//! The evaluator is generic over a constraint [`Domain`]; dense order is
//! FO, and `dco-linear`'s `LinTuple` is FO+. [`evaluate`] is the one
//! guarded entry point (limits, EXPLAIN); [`eval()`] is the unguarded
//! reference it agrees with.
//!
//! ```
//! use dco_core::prelude::*;
//! use dco_fo::{evaluate, Options};
//! use dco_logic::parse_formula;
//!
//! // The paper's triangle: R = { (x, y) | 0 ≤ x ≤ y ≤ 10 }.
//! let tri = GeneralizedRelation::from_raw(2, vec![
//!     RawAtom::new(Term::cst(rat(0, 1)), RawOp::Le, Term::var(0)),
//!     RawAtom::new(Term::var(0), RawOp::Le, Term::var(1)),
//!     RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(10, 1))),
//! ]);
//! let db = Database::new(Schema::new().with("R", 2)).with("R", tri);
//!
//! // "is the order dense on R's projection?" — a true sentence.
//! let f = parse_formula("forall x y . ((R(x, x) & R(y, y) & x < y) -> exists z . (x < z & z < y))").unwrap();
//! let q = evaluate::<GeneralizedTuple>(&db, &f, &Options::default()).unwrap();
//! assert_eq!(q.value.as_bool(), Some(true));
//! ```

#![warn(missing_docs)]

pub mod eval;
pub mod generic;
pub mod guarded;

pub use eval::{eval, eval_in_ctx, Domain, EvalError, Evaluation};
pub use generic::{check_generic, check_generic_fixing, sample_automorphism, GenericityOutcome};
pub use guarded::{evaluate, try_eval_with, Options, TryEvalError};
