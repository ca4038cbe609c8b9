//! # dco-fo — first-order queries over dense-order constraint databases
//!
//! The FO query language of Section 4 of *Dense-Order Constraint Databases*
//! (Grumbach & Su, PODS 1995): the relational calculus over `{=, ≤} ∪ Q`,
//! evaluated bottom-up in closed form over generalized relations (the
//! evaluation strategy of \[KKR90\] that gives FO its AC⁰ data complexity).
//!
//! The evaluator is generic over a constraint [`Domain`]; dense order is
//! the default, and `dco-linear` instantiates it for FO+ (see
//! [`eval_domain`], [`try_eval_domain_with`], [`explain_domain`]).
//!
//! ```
//! use dco_core::prelude::*;
//! use dco_fo::eval_str;
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
//! let q = eval_str(&db, "forall x y . ((R(x, x) & R(y, y) & x < y) -> exists z . (x < z & z < y))").unwrap();
//! assert_eq!(q.as_bool(), Some(true));
//! ```

#![warn(missing_docs)]

pub mod eval;
pub mod explain;
pub mod generic;
pub mod guarded;

pub use eval::{eval, eval_domain, eval_in_ctx, eval_str, Domain, EvalError, QueryResult};
pub use explain::{explain, explain_domain, explain_planned, Explained};
pub use generic::{check_generic, check_generic_fixing, sample_automorphism, GenericityOutcome};
pub use guarded::{
    default_limits, try_eval, try_eval_domain_with, try_eval_str, try_eval_with, TryEvalError,
    TryResult,
};
