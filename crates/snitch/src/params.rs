//! Microarchitectural parameters of the core complex.
//!
//! Defaults are calibrated to the paper's stated per-iteration costs
//! (DESIGN.md, "Cycle-model calibration"): a single-issue in-order core
//! sustaining one instruction per cycle with two-cycle load-use latency,
//! and a fully-pipelined double-precision FMA.

use issr_core::HwCaps;

/// The one description of a Snitch core complex: its latencies and
/// queue depths, and the stream hardware attached to its FPU. Every
/// simulator builds its core complexes from this value, and `issr-lint`
/// checks a program against the same value.
#[derive(Clone, Copy, Debug)]
pub struct CcParams {
    /// `fmadd.d`/`fadd.d`/`fmul.d` result latency in cycles.
    pub fpu_latency: u64,
    /// Latency of FP moves, sign-injections, comparisons, conversions.
    pub fpu_short_latency: u64,
    /// Integer multiplier latency (shared unit, contention not modelled).
    pub mul_latency: u64,
    /// Integer divider latency.
    pub div_latency: u64,
    /// FPU offload queue depth (core → FPU subsystem).
    pub offload_depth: usize,
    /// Maximum FREP body length the sequencer buffers.
    pub frep_buffer: usize,
    /// The streamer: its lane kinds and whether it carries the index
    /// joiner and the sparse accumulator.
    pub streamer: HwCaps,
    /// Double-buffered SpAcc row storage (a row's drain overlaps the
    /// next row's first feed). On in both named defaults; the SpGEMM
    /// benchmark turns it off to report the overlap delta.
    pub spacc_double_buffer: bool,
}

impl CcParams {
    /// The paper's core complex: one SSR and one ISSR lane
    /// ([`HwCaps::PAPER`]).
    #[must_use]
    pub const fn paper() -> Self {
        Self {
            fpu_latency: 4,
            fpu_short_latency: 2,
            mul_latency: 3,
            div_latency: 20,
            offload_depth: 8,
            frep_buffer: 16,
            streamer: HwCaps::PAPER,
            spacc_double_buffer: true,
        }
    }

    /// The sparse-sparse core complex: the paper's, plus the index
    /// joiner and the sparse accumulator ([`HwCaps::SSSR`]).
    #[must_use]
    pub fn sssr() -> Self {
        Self { streamer: HwCaps::SSSR, ..Self::paper() }
    }
}

impl Default for CcParams {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = CcParams::default();
        assert!(p.fpu_latency >= 1);
        assert!(p.offload_depth >= 2);
        assert!(p.frep_buffer >= 1);
    }
}
