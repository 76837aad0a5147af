//! # issr-snitch
//!
//! A cycle-level model of the Snitch core complex (CC): the tiny
//! single-issue RV32 integer core, its double-precision FPU subsystem
//! with the FREP hardware loop and register staggering, and the SSR/ISSR
//! streamer integration of §II-C — shared port for core + FPU + SSR,
//! exclusive port for the ISSR.
//!
//! [`cc::SingleCcSim`] reproduces the paper's single-core evaluation
//! setup: one CC against ideal single-cycle instruction and two-port
//! data memories.

#![forbid(unsafe_code)]

pub mod attr;
pub mod cc;
pub mod core;
pub mod fpu;
pub mod metrics;
pub mod params;
pub mod shared;

pub use attr::{CcAttribution, CcCauses};
pub use cc::{CoreComplex, RunSummary, SimTimeout, SingleCcSim, SINGLE_CC_ARENA};
pub use core::{SnitchCore, Trap, TrapCause};
pub use fpu::{FpOp, FpuSubsystem, IntWriteback, SequencerFault};
pub use metrics::{Metrics, RoiCounters};
pub use params::CcParams;
pub use shared::SharedPort;
