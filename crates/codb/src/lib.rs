//! # dco — Dense-Order Constraint Databases
//!
//! A from-scratch Rust implementation of the system described in
//! *Dense-Order Constraint Databases* (Stéphane Grumbach and Jianwen Su,
//! PODS 1995): infinite databases finitely represented by dense-order
//! constraints over the rationals, with the full query-language stack the
//! paper studies.
//!
//! | Layer | Crate | Paper section |
//! |---|---|---|
//! | Rationals, generalized relations, QE, cells, algebra | [`core`] | §2–§3 |
//! | Formula AST and parser | [`logic`] | §4 |
//! | FO evaluation (closed form, AC⁰ data complexity) | [`fo`] | §4 |
//! | FO+ with linear constraints (Fourier–Motzkin) | [`linear`] | §4, Thm 4.1–4.3 |
//! | Inflationary Datalog¬ (= PTIME, Thm 4.4) | [`datalog`] | §4 |
//! | Complex objects and C-CALC | [`complex`] | §5 |
//! | EF games for the inexpressibility results | [`ef`] | Thm 4.2–4.3 |
//! | Standard encodings, integer homeomorphism | [`encoding`] | §3–§4 |
//! | Regions, topology, region connectivity | [`geo`] | §2, Thm 4.3 |
//! | Static query analysis & lint pass | [`analysis`] | — |
//! | Metrics, per-query tracing, slow-query log | [`obs`] | — |
//! | Durable store: WAL, snapshots, query server | [`store`] | §3 |
//!
//! ## Quickstart
//!
//! ```
//! use dco::prelude::*;
//!
//! // The paper's running example: a triangle as one generalized tuple.
//! let triangle = GeneralizedRelation::from_raw(2, vec![
//!     RawAtom::new(Term::var(0), RawOp::Le, Term::var(1)),
//!     RawAtom::new(Term::var(0), RawOp::Ge, Term::cst(rat(0, 1))),
//!     RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(10, 1))),
//! ]);
//! let db = Database::new(Schema::new().with("R", 2)).with("R", triangle);
//!
//! // FO query, evaluated bottom-up in closed form:
//! let q = dco::fo::eval_str(&db, "exists y . (R(x, y) & x < y)").unwrap();
//! assert!(q.relation.contains_point(&[rat(3, 1)]));
//! ```
//!
//! ## Analyze, plan, then evaluate under a guard
//!
//! The [`analysis`] passes run before evaluation and reject bad queries
//! with span-carrying diagnostics instead of panicking or failing
//! mid-evaluation. The store chains the same steps for every query:
//! preflight, plan against the database's statistics, guarded run.
//!
//! ```
//! use dco::prelude::*;
//!
//! let e = GeneralizedRelation::from_points(2, vec![vec![rat(1, 1), rat(2, 1)]]);
//! let db = Database::new(Schema::new().with("e", 2)).with("e", e);
//! let opts = AnalysisOptions::default();
//!
//! // Arity mismatch: rejected up front, never evaluated.
//! let bad = parse_formula("e(x, y, z)").unwrap();
//! let diags = preflight_formula(&bad, Some(db.schema()), &opts).unwrap_err();
//! assert_eq!(diags[0].code, "DCO102");
//!
//! // A clean query: preflight, plan, then the guarded evaluator.
//! let q = parse_formula("exists y . (e(x, y) & x < y)").unwrap();
//! preflight_formula(&q, Some(db.schema()), &opts).unwrap();
//! let planned = plan_formula(&q, &DbStats::of_database(&db));
//! let out = try_eval_with(&db, &planned, GuardLimits::none()).unwrap();
//! assert!(out.value.relation.contains_point(&[rat(1, 1)]));
//!
//! // A statically-dead rule body is reported before the fixpoint runs.
//! let p = parse_program(
//!     "tc(x,y) :- e(x,y).\n\
//!      tc(x,y) :- e(x,y), x < y, y < x.\n").unwrap();
//! let diags = analyze_program(&p, Some(db.schema()), &AnalysisOptions::inflationary());
//! assert!(diags.iter().any(|d| d.code == "DCO401" && d.severity == Severity::Warning));
//! ```
//!
//! ## Fault-tolerant evaluation
//!
//! Every evaluator has a `try_*` variant that runs under a runtime
//! guard ([`core::guard`]): deadlines, tuple/atom budgets, cooperative
//! cancellation, checked arithmetic, and panic containment. A fault-free
//! guarded run returns exactly the unguarded result plus
//! [`core::guard::GuardStats`];
//! any trip comes back as a typed fault, never a process abort:
//!
//! ```
//! use dco::prelude::*;
//! use std::time::Duration;
//!
//! let db = Database::new(Schema::new());
//! // Fault-free: identical to the unguarded evaluator, plus stats.
//! let out = try_eval_str(&db, "exists x . (0 < x & x < 1)").unwrap();
//! assert_eq!(out.value.as_bool(), Some(true));
//!
//! // A zero deadline trips deterministically with a typed error.
//! let limits = GuardLimits::none().with_deadline(Duration::ZERO);
//! let formula = parse_formula("exists x . (0 < x & x < 1)").unwrap();
//! let err = dco::fo::try_eval_with(&db, &formula, limits).unwrap_err();
//! assert!(matches!(
//!     err,
//!     dco::fo::TryEvalError::Fault(GuardError {
//!         kind: GuardErrorKind::DeadlineExceeded { .. },
//!         ..
//!     })
//! ));
//! ```

#![warn(missing_docs)]

pub use dco_analysis as analysis;
pub use dco_complex as complex;
pub use dco_core as core;
pub use dco_datalog as datalog;
pub use dco_ef as ef;
pub use dco_encoding as encoding;
pub use dco_fo as fo;
pub use dco_geo as geo;
pub use dco_linear as linear;
pub use dco_logic as logic;
pub use dco_obs as obs;
pub use dco_store as store;

/// One-stop import surface for applications.
pub mod prelude {
    pub use dco_analysis::{
        analyze_formula, analyze_program, has_errors, plan_formula, preflight_formula,
        AnalysisOptions, DbStats, Diagnostic, Severity,
    };
    pub use dco_core::prelude::*;
    pub use dco_datalog::{
        parse_program, run as run_datalog, try_run as try_run_datalog, try_run_stratified,
        try_run_stratified_with, try_run_with as try_run_datalog_with, TryRunError,
    };
    pub use dco_fo::{
        eval as eval_fo, eval_str as eval_fo_str, try_eval, try_eval_str, try_eval_with, EvalError,
        TryEvalError,
    };
    pub use dco_linear::{
        eval_linear, eval_linear_str, try_eval_linear, try_eval_linear_str, try_eval_linear_with,
        TryLinEvalError,
    };
    pub use dco_logic::{parse_formula, Formula};
    pub use dco_store::{serve, Client, Store, StoreError, StoreOptions};
}
