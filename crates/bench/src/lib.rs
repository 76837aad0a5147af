//! # issr-bench
//!
//! Experiment runners regenerating every table and figure of the paper's
//! evaluation (§IV–§V). Each figure has a runner returning plain rows
//! and a binary (`src/bin/`) that prints them as a markdown table and,
//! given `--json <path>`, writes them as a [`telemetry`] envelope.
//! How fast the simulator itself runs is `benchmark/`'s business.

#![forbid(unsafe_code)]

pub mod critical;
pub mod figures;
pub mod report;
pub mod telemetry;
pub mod verdict;

pub use figures::*;
