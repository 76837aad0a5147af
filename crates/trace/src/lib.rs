//! # issr-trace
//!
//! The simulator's observability layer: where the other crates *model*
//! the architecture, this one explains what the model spent its cycles
//! on. It is deliberately at the bottom of the dependency graph (no
//! dependencies, not even on `issr-mem`) so every layer — stream units,
//! core complex, cluster, system, benches — can report through the same
//! vocabulary.
//!
//! Seven facilities:
//!
//! * [`attr`] — stall-cause cycle attribution. Each simulated unit
//!   classifies every ROI cycle into one [`StallCause`] and accumulates
//!   a [`CycleBreakdown`]; by construction the breakdown sums exactly
//!   to the elapsed cycles it covers.
//! * [`critpath`] — the causal layer over attribution: every blocked
//!   cycle is also a *blocked-on* edge ([`edge_for`]: hart→lane,
//!   lane→TCDM bank, DMA→main memory, …), and critical-path extraction
//!   partitions the measured window exactly into compute plus
//!   per-edge-class blame, with what-if savings bounds
//!   ([`CriticalPath`]).
//! * [`analyze`] — the interpretation layer: a roofline-style
//!   bottleneck classifier turning counters into a bandwidth/compute/
//!   latency/sync [`Verdict`], and a PC-region [`PhaseProfile`] for
//!   per-phase stall breakdowns.
//! * [`timeline`] — the one recorder: a bounded ring of the most
//!   recent per-unit stall-cause [`Transition`]s ([`Timeline`]), with
//!   change-only counter tracks and instant marks at trap/timeout
//!   moments, and the one Chrome trace-event exporter (cause-named
//!   residency spans that load directly in Perfetto,
//!   `ui.perfetto.dev`). `run` arms a small one by default;
//!   `enable_tracing` arms a large one with lanes and counters added.
//! * [`blackbox`] — the [`PostMortem`], the one report of a dead run
//!   (a timeout or a latched fault): each stuck hart once
//!   ([`StuckUnit`]) and the timeline's final window.
//! * [`host`] — the opt-in host-side self-profiler: wall-clock per
//!   unit class, the provably-idle tick census, simulated-cycles/sec.
//! * [`json`] — a minimal JSON value/writer/parser ([`Json`]) for the
//!   machine-readable `BENCH_*.json` bench telemetry. No serde: the
//!   build environment is offline and the schema is tiny.
//!
//! Plus [`StatMerge`], the one merge trait behind every stats
//! aggregation path, and [`ratio`], the guarded division every
//! speedup/rate computation goes through.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod attr;
pub mod blackbox;
pub mod critpath;
pub mod host;
pub mod json;
pub mod merge;
pub mod timeline;

pub use analyze::{classify, Bound, PhaseProfile, RooflineInput, Verdict};
pub use attr::{breakdown_table, CycleBreakdown, StallCause};
pub use blackbox::{PostMortem, StuckUnit};
pub use critpath::{edge_for, extract, is_blocked, CriticalPath, EdgeClass, UnitClass};
pub use host::HostProfiler;
pub use json::Json;
pub use merge::StatMerge;
pub use timeline::{Timeline, Transition};

/// Guarded division for speedups, rates and utilizations: returns
/// `num / den`, or 0.0 when the denominator is zero (a run that
/// completed in zero ROI cycles, an empty sweep, …) instead of a NaN
/// or infinity that would poison every downstream table and JSON file.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_guards_zero_denominator() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert!((ratio(6.0, 3.0) - 2.0).abs() < 1e-12);
        assert!(ratio(1.0, 0.0).is_finite());
    }
}
