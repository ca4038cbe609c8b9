//! # dco-bench — the experiment harness
//!
//! One module per experiment (E1–E9), each reproducing a claim of
//! *Dense-Order Constraint Databases* (Grumbach & Su, PODS 1995). The
//! `experiments` binary prints every table recorded in `EXPERIMENTS.md`
//! and runs the sequential-vs-parallel check in [`verify`]. Timing lives
//! in the standalone `perfbench` package at the repository root.

#![warn(missing_docs)]

pub mod experiments;
pub mod verify;
pub mod workloads;

pub use experiments::ExperimentRow;
