//! # dco-core — dense-order constraint database core
//!
//! The foundation of a from-scratch implementation of *Dense-Order Constraint
//! Databases* (Grumbach & Su, PODS 1995). This crate provides:
//!
//! * exact rational arithmetic ([`rational::Rational`]);
//! * dense-order atomic constraints and their normal form ([`atom`]);
//! * generalized tuples — conjunctions with a complete satisfiability
//!   procedure, witness construction, and single-variable quantifier
//!   elimination for `Th(Q, <)` ([`mod@tuple`]);
//! * generalized relations — finite unions of tuples with the closed-form
//!   constraint algebra (union/intersection/complement/projection) the
//!   paper's query languages compile to, written once over any
//!   [`relation::Conjunction`] so FO+'s linear tuples reuse it
//!   ([`relation`]);
//! * order-type cell decompositions giving canonical forms and decidable
//!   equivalence ([`cell`]);
//! * order automorphisms of Q and the genericity machinery of Definition 3.1
//!   ([`automorphism`]);
//! * schemas and database instances ([`database`]);
//! * an incremental satisfiability kernel with per-variable bounding
//!   boxes ([`sat`]); tuple fingerprints ([`intern`]); and a sharded memo
//!   cache for costlier decision procedures ([`cache`]);
//! * a runtime resource governor — deadlines, tuple/atom budgets,
//!   cooperative cancellation, panic containment, and a deterministic
//!   fault-injection harness for chaos testing ([`guard`]).
//!
//! Everything downstream — the FO, FO+, Datalog¬ and C-CALC evaluators, the
//! encodings, the spatial layer and the experiment harness — builds on these
//! types.
//!
//! ## Quick example
//!
//! ```
//! use dco_core::prelude::*;
//!
//! // The paper's triangle: x ≤ y ∧ x ≥ 0 ∧ y ≤ 10.
//! let triangle = GeneralizedRelation::from_raw(2, vec![
//!     RawAtom::new(Term::var(0), RawOp::Le, Term::var(1)),
//!     RawAtom::new(Term::var(0), RawOp::Ge, Term::cst(rat(0, 1))),
//!     RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(10, 1))),
//! ]);
//! assert!(triangle.contains_point(&[rat(1, 1), rat(2, 1)]));
//!
//! // ∃y: the shadow of the triangle on the x axis is [0, 10].
//! let shadow = triangle.project_out(Var(1));
//! assert!(shadow.contains_point(&[rat(10, 1), rat(0, 1)]));
//! assert!(!shadow.contains_point(&[rat(11, 1), rat(0, 1)]));
//! ```

#![warn(missing_docs)]

pub mod atom;
pub mod automorphism;
pub mod cache;
pub mod cell;
pub mod database;
#[deny(clippy::unwrap_used)]
pub mod guard;
pub mod intern;
pub mod rational;
pub mod relation;
pub mod sat;
pub mod tuple;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::atom::{Atom, CompOp, RawAtom, RawOp, Term, Var};
    pub use crate::automorphism::Automorphism;
    pub use crate::cache::{reset_sat_cache, sat_cache_stats, CacheStats, MemoCache};
    pub use crate::cell::{CanonicalForm, Cell, CellSpace};
    pub use crate::database::{Database, DatabaseError, Schema};
    pub use crate::guard::{
        run_guarded, BudgetKind, CancelToken, EvalError as GuardError,
        EvalErrorKind as GuardErrorKind, EvalGuard, GuardLimits, GuardStats, Guarded, ProbeSite,
    };
    pub use crate::rational::{rat, Rational};
    pub use crate::relation::{Conjunction, GeneralizedRelation, Relation};
    pub use crate::sat::{SatState, VarBox};
    pub use crate::tuple::GeneralizedTuple;
}
