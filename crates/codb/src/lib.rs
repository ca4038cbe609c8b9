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
//! | Rationals, generalized relations over any constraint class, QE, cells | [`core`] | §2–§3 |
//! | Formula AST and parser | [`logic`] | §4 |
//! | FO evaluation (closed form, AC⁰ data complexity), one evaluator for FO and FO+ | [`fo`] | §4 |
//! | FO+'s linear tuples (Fourier–Motzkin) as a domain of that evaluator | [`linear`] | §4, Thm 4.1–4.3 |
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
//! Each query language has one entry point, `evaluate`, taking an options
//! value: [`fo::evaluate`] for FO (and FO+, as `evaluate::<LinTuple>`) and
//! [`datalog::evaluate`] for Datalog¬; the prelude names them
//! `evaluate_fo` and `evaluate_datalog`.
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
//! let f = parse_formula("exists y . (R(x, y) & x < y)").unwrap();
//! let q = evaluate_fo::<GeneralizedTuple>(&db, &f, &FoOptions::default()).unwrap();
//! assert!(q.value.relation.contains_point(&[rat(3, 1)]));
//! ```
//!
//! ## Analyze, plan, then evaluate
//!
//! The [`analysis`] passes run before evaluation and reject bad queries
//! with span-carrying diagnostics instead of panicking or failing
//! mid-evaluation. The store chains the same steps for every query:
//! preflight, plan against the database's statistics, `evaluate`.
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
//! // A clean query: preflight, plan, then evaluate, recording the
//! // measured plan (EXPLAIN) under the statistics it was planned with.
//! let q = parse_formula("exists y . (e(x, y) & x < y)").unwrap();
//! preflight_formula(&q, Some(db.schema()), &opts).unwrap();
//! let stats = DbStats::of_database(&db);
//! let planned = plan_formula(&q, &stats);
//! let options = FoOptions { limits: None, explain: Some(&stats) };
//! let out = evaluate_fo::<GeneralizedTuple>(&db, &planned, &options).unwrap();
//! assert!(out.value.relation.contains_point(&[rat(1, 1)]));
//! assert!(out.value.plan.unwrap().root.fully_measured());
//!
//! // A statically-dead rule body is reported before the fixpoint runs.
//! let p = parse_program(
//!     "tc(x,y) :- e(x,y).\n\
//!      tc(x,y) :- e(x,y), x < y, y < x.\n").unwrap();
//! let diags = analyze_program(&p, Some(db.schema()), &AnalysisOptions::inflationary());
//! assert!(diags.iter().any(|d| d.code == "DCO401" && d.severity == Severity::Warning));
//! let fix = evaluate_datalog(&p, &db, &DatalogOptions::default()).unwrap();
//! assert!(fix.value.database.get("tc").unwrap().contains_point(&[rat(1, 1), rat(2, 1)]));
//! ```
//!
//! ## Fault-tolerant evaluation
//!
//! `evaluate` runs under a runtime guard ([`core::guard`]): deadlines,
//! tuple/atom budgets, cooperative cancellation, checked arithmetic, and
//! panic containment. Its options' `limits` set them; `None` means the
//! analyzer's default budgets. A fault-free run returns exactly the
//! unguarded result plus [`core::guard::GuardStats`]; any trip comes back
//! as a typed fault, never a process abort:
//!
//! ```
//! use dco::prelude::*;
//! use std::time::Duration;
//!
//! let db = Database::new(Schema::new());
//! let formula = parse_formula("exists x . (0 < x & x < 1)").unwrap();
//! // Fault-free: identical to the unguarded evaluator, plus stats.
//! let out = evaluate_fo::<GeneralizedTuple>(&db, &formula, &FoOptions::default()).unwrap();
//! assert_eq!(out.value.as_bool(), Some(true));
//!
//! // A zero deadline trips deterministically with a typed error.
//! let limits = GuardLimits::none().with_deadline(Duration::ZERO);
//! let options = FoOptions { limits: Some(limits), explain: None };
//! let err = evaluate_fo::<GeneralizedTuple>(&db, &formula, &options).unwrap_err();
//! assert!(matches!(
//!     err,
//!     TryEvalError::Fault(GuardError {
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
        evaluate as evaluate_datalog, parse_program, Options as DatalogOptions, Semantics,
        TryRunError,
    };
    pub use dco_fo::{
        evaluate as evaluate_fo, EvalError, Evaluation, Options as FoOptions, TryEvalError,
    };
    pub use dco_linear::LinTuple;
    pub use dco_logic::{parse_formula, Formula};
    pub use dco_store::{serve, Client, Store, StoreError, StoreOptions};
}
