//! # issr-bench
//!
//! Experiment runners regenerating every table and figure of the paper's
//! evaluation (§IV–§V): one runner per figure ([`figures`]), one `paper`
//! bin that prints them under the [`paper`] scoreboard — each number the
//! paper states next to the one reproduced — and, beyond the paper, the
//! [`joiner`], [`spgemm`], [`system`] and [`ablation`] bins. Every bin
//! prints markdown tables and, given `--json <path>`, writes the same
//! rows as a [`telemetry`] envelope. The `catalog` bin prints the
//! [`catalog`] digests of every shipped program. How fast the simulator
//! itself runs is `benchmark/`'s business.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod catalog;
pub mod figures;
pub mod joiner;
pub mod paper;
pub mod report;
pub mod spgemm;
pub mod system;
pub mod telemetry;
pub mod verdict;

pub use figures::*;
