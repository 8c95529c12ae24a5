//! # gcl-bench — harnesses regenerating the paper's evaluation
//!
//! Every table and figure of *"Revealing Critical Loads and Hidden Data
//! Locality in GPGPU Applications"* (IISWC 2015), plus the Section X
//! ablations, comes out of one command:
//!
//! ```text
//! cargo run --release --bin gcl -- figures all            # every artifact
//! cargo run --release --bin gcl -- figures fig6 table1    # just these
//! cargo run --release --bin gcl -- figures critical_loads sssp --tiny
//! ```
//!
//! [`driver::figures`] simulates each distinct configuration the requested
//! artifacts need once ([`harness::run_all`]) and renders them all from
//! those sweeps: [`figures`] and [`ablation`] are pure functions of the
//! sweep results. Each artifact is printed and written as JSON under
//! `results/`; `--tiny` runs the tiny inputs, `--jobs N` the worker count.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod driver;
pub mod figures;
pub mod harness;
