//! Bottleneck classification: from raw counters to a verdict.
//!
//! [`attr`](crate::attr) answers *where the cycles went*; this module
//! answers the question a reader actually has: *what bounds this run?*
//! [`classify`] applies a roofline-style model — the cycles the moved
//! words would take at the interconnect's word budget, vs the cycles
//! the flops would take at peak FPU throughput — and, when neither roof
//! explains the runtime, lets the run's [`CriticalPath`] decide. The
//! result is a [`Verdict`]: the run's one explanation, the two roofs
//! plus the path, with a one-line summary every bench bin prints and a
//! JSON form for the telemetry envelope.
//!
//! [`PhaseProfile`] adds program-phase resolution: the bench harness
//! maps kernel symbols to PC regions and buckets each sampled cycle's
//! stall cause into the phase the worker's PC was in — how two-pass
//! SpGEMM splits between symbolic, scan and numeric without touching
//! the kernel or the timing model.

use crate::critpath::{CriticalPath, EdgeClass};
use crate::json::obj;
use crate::{ratio, CycleBreakdown, Json, StallCause};

/// What limits a kernel run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bound {
    /// Data movement at the interconnect/DMA word budget explains the
    /// runtime, or the path waits mostly on main memory.
    Bandwidth,
    /// FPU throughput at peak explains the runtime, or the path makes
    /// progress at least as often as it waits (control-flow limited
    /// counts as compute here: the cores, not the memory system, are
    /// the limiter).
    Compute,
    /// Dependency latency dominates the path: starved or back-pressured
    /// FIFOs, port conflicts, joiner waits, drains in flight.
    Latency,
    /// Synchronization dominates the path: cycles burnt at the cluster
    /// barrier.
    Sync,
}

impl Bound {
    /// Stable lowercase label (JSON value and verdict line).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Bound::Bandwidth => "bandwidth",
            Bound::Compute => "compute",
            Bound::Latency => "latency",
            Bound::Sync => "sync",
        }
    }
}

/// Inputs to [`classify`]: one kernel run reduced to the quantities the
/// roofline model needs, plus the run's critical path.
#[derive(Clone, Copy, Debug)]
pub struct RooflineInput {
    /// Measured runtime in cycles.
    pub elapsed: u64,
    /// Floating-point operations performed (fmadds + fadds).
    pub flops: u64,
    /// Peak flops/cycle of the units involved (1.0 per FPU).
    pub peak_flops_per_cycle: f64,
    /// 64-bit words moved through the bounding interconnect.
    pub words_moved: u64,
    /// That interconnect's word budget per cycle.
    pub words_per_cycle: f64,
    /// The run's critical path.
    pub path: CriticalPath,
}

/// A classified run: the bound, how much of the runtime each roof
/// explains, and the critical path.
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    /// The classification.
    pub bound: Bound,
    /// Cycles the moved words need at the word budget.
    pub bw_limit_cycles: f64,
    /// Cycles the flops need at peak FPU throughput.
    pub fp_limit_cycles: f64,
    /// `bw_limit_cycles / elapsed`.
    pub bw_fraction: f64,
    /// `fp_limit_cycles / elapsed`.
    pub fp_fraction: f64,
    /// The run's critical path.
    pub path: CriticalPath,
    /// The measured runtime the fractions refer to.
    pub elapsed: u64,
}

/// The bound a wait-edge class means when it dominates the path.
fn bound_hint(edge: EdgeClass) -> Bound {
    match edge {
        EdgeClass::DmaMainMem => Bound::Bandwidth,
        EdgeClass::HartBarrier => Bound::Sync,
        _ => Bound::Latency,
    }
}

/// Classifies one run.
///
/// Decision rule, in order:
/// 1. If the bandwidth roof explains ≥ 50% of the runtime and at least
///    as much as the FPU roof → [`Bound::Bandwidth`].
/// 2. Else if the FPU roof explains ≥ 50% → [`Bound::Compute`].
/// 3. Else neither roof explains the runtime and the critical path
///    decides: a path whose `compute` is at least its blocked cycles →
///    [`Bound::Compute`]; otherwise its dominant edge does — the
///    barrier → [`Bound::Sync`], main memory → [`Bound::Bandwidth`],
///    any other wait → [`Bound::Latency`].
///
/// The path's `idle` cycles never influence the verdict: a halted hart
/// is a finished hart, not a bottleneck.
#[must_use]
pub fn classify(input: &RooflineInput) -> Verdict {
    let elapsed = input.elapsed as f64;
    let bw_limit = ratio(input.words_moved as f64, input.words_per_cycle);
    let fp_limit = ratio(input.flops as f64, input.peak_flops_per_cycle);
    let bw_fraction = ratio(bw_limit, elapsed);
    let fp_fraction = ratio(fp_limit, elapsed);
    let path = input.path;

    let bound = if bw_fraction >= 0.5 && bw_fraction >= fp_fraction {
        Bound::Bandwidth
    } else if fp_fraction >= 0.5 || path.compute >= path.blocked() {
        Bound::Compute
    } else {
        path.dominant().map_or(Bound::Compute, bound_hint)
    };

    Verdict {
        bound,
        bw_limit_cycles: bw_limit,
        fp_limit_cycles: fp_limit,
        bw_fraction,
        fp_fraction,
        path,
        elapsed: input.elapsed,
    }
}

impl Verdict {
    /// The one-line human-readable verdict every bench bin prints.
    #[must_use]
    pub fn line(&self, label: &str) -> String {
        let path = &self.path;
        let dominant = match path.dominant() {
            Some(e) => format!("dominant edge {} (saves <= {})", e.label(), path.get(e)),
            None => "no blocking edge".to_owned(),
        };
        format!(
            "verdict[{label}]: {}-bound — bw roof {:.0}% / fpu roof {:.0}% of {} cycles; \
             path {} = {} compute + {} idle + {} blocked, {dominant}",
            self.bound.label(),
            self.bw_fraction * 100.0,
            self.fp_fraction * 100.0,
            self.elapsed,
            path.length,
            path.compute,
            path.idle,
            path.blocked(),
        )
    }

    /// The verdict as a telemetry object, the critical path nested.
    #[must_use]
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("bound", Json::from(self.bound.label())),
            ("bw_limit_cycles", Json::Float(self.bw_limit_cycles)),
            ("fp_limit_cycles", Json::Float(self.fp_limit_cycles)),
            ("bw_fraction", Json::Float(self.bw_fraction)),
            ("fp_fraction", Json::Float(self.fp_fraction)),
            ("elapsed", Json::from(self.elapsed)),
            ("critical_path", self.path.to_json()),
        ])
    }
}

/// One named PC region of a program.
#[derive(Clone, Debug)]
struct Phase {
    name: String,
    /// Byte-address span `[lo, hi)`.
    lo: u32,
    hi: u32,
    cycles: CycleBreakdown,
}

/// Buckets per-cycle stall samples by the PC region they occurred in.
///
/// The harness builds the regions from kernel symbols (instruction
/// index × 4 = byte PC) and calls [`sample`](Self::sample) once per
/// worker per cycle with the worker's current PC and latched stall
/// cause. Samples outside every region land in the `other` bucket, so
/// the profile always sums to the samples taken.
#[derive(Clone, Debug, Default)]
pub struct PhaseProfile {
    phases: Vec<Phase>,
    other: CycleBreakdown,
}

impl PhaseProfile {
    /// Builds a profile over `(name, lo, hi)` byte-address spans.
    /// Earlier spans win on overlap.
    #[must_use]
    pub fn new(spans: &[(&str, u32, u32)]) -> Self {
        Self {
            phases: spans
                .iter()
                .map(|&(name, lo, hi)| Phase {
                    name: name.to_owned(),
                    lo,
                    hi,
                    cycles: CycleBreakdown::new(),
                })
                .collect(),
            other: CycleBreakdown::new(),
        }
    }

    /// Attributes one sampled cycle at `pc` to its phase.
    pub fn sample(&mut self, pc: u32, cause: StallCause) {
        match self.phases.iter_mut().find(|p| (p.lo..p.hi).contains(&pc)) {
            Some(p) => p.cycles.record(cause),
            None => self.other.record(cause),
        }
    }

    /// `(name, breakdown)` rows for [`crate::breakdown_table`] — every
    /// declared phase plus `other` when it caught anything.
    #[must_use]
    pub fn rows(&self) -> Vec<(String, CycleBreakdown)> {
        let mut rows: Vec<(String, CycleBreakdown)> =
            self.phases.iter().map(|p| (p.name.clone(), p.cycles)).collect();
        if self.other.total() > 0 {
            rows.push(("other".to_owned(), self.other));
        }
        rows
    }

    /// Total samples taken.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.phases.iter().map(|p| p.cycles.total()).sum::<u64>() + self.other.total()
    }

    /// `{phase: {cause: cycles, …}, …}` for the telemetry envelope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(self.rows().into_iter().map(|(name, b)| (name, b.to_json())).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critpath::{extract, UnitClass};

    fn bd(pairs: &[(StallCause, u64)]) -> CycleBreakdown {
        let mut b = CycleBreakdown::new();
        for &(cause, n) in pairs {
            for _ in 0..n {
                b.record(cause);
            }
        }
        b
    }

    /// The critical path of a hart that recorded `pairs`.
    fn hart_path(pairs: &[(StallCause, u64)]) -> CriticalPath {
        extract(UnitClass::Hart, &bd(pairs), None)
    }

    /// A 1000-cycle run at one word and one flop a cycle, so `words`
    /// and `flops` are the roofs in per mille.
    fn run(words: u64, flops: u64, path: CriticalPath) -> RooflineInput {
        RooflineInput {
            elapsed: 1000,
            flops,
            peak_flops_per_cycle: 1.0,
            words_moved: words,
            words_per_cycle: 1.0,
            path,
        }
    }

    /// Below both roofs the path's dominant edge decides, one row per
    /// edge class; at or above 50 % a roof wins whatever the path says.
    #[test]
    fn dominant_edge_decides_below_both_roofs() {
        use Bound::{Bandwidth, Latency, Sync};
        use EdgeClass as E;
        use StallCause as C;
        use UnitClass as U;
        let table = [
            (U::Hart, C::FifoEmpty, E::HartLane, Latency),
            (U::Hart, C::PortConflict, E::HartTcdm, Latency),
            (U::Hart, C::BarrierWait, E::HartBarrier, Sync),
            (U::Lane, C::FifoEmpty, E::LaneTcdm, Latency),
            (U::Lane, C::FifoFull, E::LaneHart, Latency),
            (U::Lane, C::JoinerWait, E::LaneJoiner, Latency),
            (U::Lane, C::DrainBusy, E::LaneSpAcc, Latency),
            (U::Joiner, C::FifoEmpty, E::JoinerLane, Latency),
            (U::Joiner, C::FifoFull, E::JoinerHart, Latency),
            (U::SpAcc, C::FifoEmpty, E::SpAccJoiner, Latency),
            (U::SpAcc, C::PortConflict, E::SpAccTcdm, Latency),
            (U::Dma, C::BwDenied, E::DmaMainMem, Bandwidth),
            (U::Dma, C::PortConflict, E::DmaTcdm, Latency),
        ];
        for (i, &(unit, cause, edge, bound)) in table.iter().enumerate() {
            assert!(table[..i].iter().all(|row| row.2 != edge), "{edge:?} listed twice");
            // Idle outweighs everything and still does not decide.
            let path = extract(unit, &bd(&[(C::Active, 3), (C::Idle, 50), (cause, 9)]), None);
            assert_eq!(path.dominant(), Some(edge), "{unit:?}/{cause:?}");
            assert_eq!(classify(&run(400, 400, path)).bound, bound, "{edge:?}");
            assert_eq!(classify(&run(400, 500, path)).bound, Bound::Compute, "{edge:?}");
            assert_eq!(classify(&run(500, 400, path)).bound, Bandwidth, "{edge:?}");
        }
        assert_eq!(table.len(), EdgeClass::COUNT, "every edge class has a row");
    }

    #[test]
    fn bandwidth_roof_wins() {
        // Both roofs explain 60 %; the tie goes to bandwidth.
        let v = classify(&run(600, 600, hart_path(&[(StallCause::BarrierWait, 9)])));
        assert_eq!(v.bound, Bound::Bandwidth);
        assert!((v.bw_fraction - 0.6).abs() < 1e-12);
    }

    #[test]
    fn fpu_roof_wins() {
        // Both roofs explain more than half; the larger one decides.
        let v = classify(&run(600, 900, hart_path(&[(StallCause::FifoEmpty, 9)])));
        assert_eq!(v.bound, Bound::Compute);
        assert_eq!(v.path.dominant(), Some(EdgeClass::HartLane));
    }

    #[test]
    fn busy_but_under_roof_is_compute() {
        // Low FP intensity, a path that progresses as often as it waits:
        // control-flow limited.
        let path = hart_path(&[(StallCause::Active, 9), (StallCause::PortConflict, 9)]);
        assert_eq!(classify(&run(100, 100, path)).bound, Bound::Compute);
        let waits = hart_path(&[(StallCause::Active, 8), (StallCause::PortConflict, 9)]);
        assert_eq!(classify(&run(100, 100, waits)).bound, Bound::Latency);
    }

    #[test]
    fn barrier_stalls_mean_sync_bound() {
        let path = hart_path(&[
            (StallCause::Active, 200),
            (StallCause::BarrierWait, 600),
            (StallCause::FifoEmpty, 200),
        ]);
        let v = classify(&run(50, 50, path));
        assert_eq!(v.bound, Bound::Sync);
        assert_eq!(v.path.dominant(), Some(EdgeClass::HartBarrier));
    }

    #[test]
    fn starved_fifos_mean_latency_bound() {
        // The hart waits on its lanes; the lanes starve on the TCDM more
        // than they wait on the joiner.
        let hart = bd(&[(StallCause::Active, 300), (StallCause::FifoEmpty, 600)]);
        let lane = bd(&[(StallCause::FifoEmpty, 400), (StallCause::JoinerWait, 200)]);
        let path = extract(UnitClass::Hart, &hart, Some(&lane));
        assert_eq!(path.get(EdgeClass::LaneTcdm), 400);
        assert_eq!(path.get(EdgeClass::LaneJoiner), 200);
        let v = classify(&run(100, 100, path));
        assert_eq!(v.bound, Bound::Latency);
        assert_eq!(v.path.dominant(), Some(EdgeClass::LaneTcdm));
    }

    #[test]
    fn parked_cycles_do_not_decide() {
        // Parked dominates the table but is idle on the path; the
        // barrier decides.
        let path = hart_path(&[
            (StallCause::Parked, 900),
            (StallCause::BarrierWait, 60),
            (StallCause::Active, 40),
        ]);
        assert_eq!(path.idle, 900);
        let v = classify(&run(10, 10, path));
        assert_eq!(v.bound, Bound::Sync);
        assert_eq!(v.path.dominant(), Some(EdgeClass::HartBarrier));
    }

    #[test]
    fn zero_elapsed_is_guarded() {
        let v = classify(&RooflineInput { elapsed: 0, ..run(0, 0, CriticalPath::default()) });
        assert_eq!(v.bound, Bound::Compute);
        assert_eq!(v.path.dominant(), None);
        let line = v.line("empty");
        assert!(line.contains("compute-bound") && line.contains("no blocking edge"), "{line}");
    }

    #[test]
    fn verdict_json_shape() {
        let path = hart_path(&[(StallCause::Active, 90), (StallCause::Idle, 10)]);
        let v = classify(&RooflineInput { elapsed: 100, ..run(10, 90, path) });
        let doc = v.to_json();
        assert_eq!(doc.get("bound").and_then(Json::as_str), Some("compute"));
        assert_eq!(doc.get("elapsed").and_then(Json::as_int), Some(100));
        assert!(doc.get("bw_fraction").and_then(Json::as_f64).is_some());
        let nested = doc.get("critical_path").expect("the path is nested in the verdict");
        assert_eq!(nested, &path.to_json());
        assert_eq!(nested.get("idle").and_then(Json::as_int), Some(10));
    }

    #[test]
    fn phase_profile_buckets_by_pc() {
        let mut p = PhaseProfile::new(&[("symbolic", 0, 40), ("numeric", 40, 100)]);
        p.sample(0, StallCause::Active);
        p.sample(36, StallCause::FifoEmpty);
        p.sample(40, StallCause::Active);
        p.sample(120, StallCause::Parked); // outside both spans
        let rows = p.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].0, "symbolic");
        assert_eq!(rows[0].1.total(), 2);
        assert_eq!(rows[1].1.get(StallCause::Active), 1);
        assert_eq!(rows[2].0, "other");
        assert_eq!(p.total(), 4);
        let doc = p.to_json();
        assert!(doc.get("numeric").is_some());
    }
}
