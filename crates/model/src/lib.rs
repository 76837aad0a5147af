//! # issr-model
//!
//! Area, timing, power and energy models of the ISSR system, carrying
//! the paper's published GF22FDX numbers (§IV-C/D) and the same
//! estimation methodology: anchor power values scaled by component
//! utilizations measured in simulation.

#![forbid(unsafe_code)]

pub mod area;
pub mod power;
pub mod timing;

pub use area::{AreaBlock, ClusterArea, StreamerArea};
pub use power::{EnergyBreakdown, PowerModel};
pub use timing::StreamerTiming;
