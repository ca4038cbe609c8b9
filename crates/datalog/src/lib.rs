//! # dco-datalog — inflationary Datalog¬ over dense-order constraint databases
//!
//! The recursive query language of §4 of *Dense-Order Constraint Databases*
//! (Grumbach & Su, PODS 1995). Theorem 4.4 — the paper's central result —
//! states that inflationary Datalog with negation expresses **exactly** the
//! PTIME queries over dense-order constraint databases. This crate
//! implements the language: rules with positive/negated predicate literals
//! and dense-order constraints, evaluated bottom-up in closed form to the
//! inflationary fixpoint.
//!
//! ```
//! use dco_core::prelude::*;
//! use dco_datalog::{parse_program, run};
//!
//! let program = parse_program(
//!     "tc(x, y) :- e(x, y).\n\
//!      tc(x, y) :- tc(x, z), e(z, y).\n").unwrap();
//! let e = GeneralizedRelation::from_points(2, vec![
//!     vec![rat(1, 1), rat(2, 1)],
//!     vec![rat(2, 1), rat(3, 1)],
//! ]);
//! let db = Database::new(Schema::new().with("e", 2)).with("e", e);
//! let fix = run(&program, &db).unwrap();
//! assert!(fix.database.get("tc").unwrap().contains_point(&[rat(1, 1), rat(3, 1)]));
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod engine;
pub mod guarded;
pub mod parser;
pub mod programs;
pub mod stratified;

pub use ast::{Literal, Program, ProgramError, Rule};
pub use engine::{run, run_with, EngineConfig, EngineError, EngineStats, FixpointResult};
pub use guarded::{
    try_run, try_run_stratified, try_run_stratified_with, try_run_with, TryRunError,
};
pub use parser::{parse_program, DatalogParseError};
pub use stratified::{
    run_stratified, run_stratified_with, stratify, StratifiedResult, StratifyError,
};
