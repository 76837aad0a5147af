//! Core-complex cycle attribution: the per-unit [`CycleBreakdown`]
//! tables a [`crate::cc::CoreComplex`] accumulates while its region of
//! interest is open.
//!
//! Each unit — the hart, every streamer lane, the index joiner, the
//! SpAcc — is classified exactly once per ROI cycle at the single place
//! the ROI cycle counter advances ([`crate::cc::CoreComplex::tick`]
//! step 6), so every table's total equals the ROI cycle count by
//! construction.

use issr_core::streamer::StreamerProbe;
use issr_trace::{CriticalPath, CycleBreakdown, StallCause, StatMerge, UnitClass};

/// ROI stall-cause breakdowns for one core complex.
#[derive(Clone, Debug, Default)]
pub struct CcAttribution {
    /// The integer hart (and its FPU subsystem, which issues in
    /// lockstep with the offload queue).
    pub hart: CycleBreakdown,
    /// One table per streamer lane (`ft0`, `ft1`, …).
    pub lanes: Vec<CycleBreakdown>,
    /// The index joiner (all zero without joiner hardware).
    pub joiner: CycleBreakdown,
    /// The sparse accumulator (all zero without SpAcc hardware).
    pub spacc: CycleBreakdown,
}

impl CcAttribution {
    /// An all-zero attribution sized for `n_lanes` streamer lanes.
    #[must_use]
    pub fn with_lanes(n_lanes: usize) -> Self {
        Self { lanes: vec![CycleBreakdown::default(); n_lanes], ..Self::default() }
    }

    /// The ROI cycles this attribution covers (every per-unit table
    /// totals to this).
    #[must_use]
    pub fn roi_cycles(&self) -> u64 {
        self.hart.total()
    }

    /// The lane the hart most plausibly waits on: the one with the most
    /// non-idle cycles. `None` when every lane stayed idle.
    #[must_use]
    pub fn busiest_lane(&self) -> Option<&CycleBreakdown> {
        let mut best: Option<(u64, &CycleBreakdown)> = None;
        for lane in &self.lanes {
            let busy = lane.total() - lane.get(StallCause::Idle);
            // Strictly greater: ties keep the earlier lane.
            if busy > 0 && best.is_none_or(|(b, _)| busy > b) {
                best = Some((busy, lane));
            }
        }
        best.map(|(_, l)| l)
    }

    /// The critical path ending at this CC's hart, with one level of
    /// hart→lane descent into the busiest lane. Its partition sums
    /// exactly to [`CcAttribution::roi_cycles`].
    #[must_use]
    pub fn critical_path(&self) -> CriticalPath {
        issr_trace::critpath::extract(UnitClass::Hart, &self.hart, self.busiest_lane())
    }

    /// Labelled `(unit, breakdown)` rows for reporting, with `prefix`
    /// prepended to each unit name (e.g. `"hart3/"`).
    #[must_use]
    pub fn rows(&self, prefix: &str) -> Vec<(String, CycleBreakdown)> {
        let mut rows = vec![(format!("{prefix}hart"), self.hart)];
        for (i, lane) in self.lanes.iter().enumerate() {
            rows.push((format!("{prefix}ft{i}"), *lane));
        }
        if self.joiner.total() > 0 {
            rows.push((format!("{prefix}joiner"), self.joiner));
        }
        if self.spacc.total() > 0 {
            rows.push((format!("{prefix}spacc"), self.spacc));
        }
        rows
    }
}

impl StatMerge for CcAttribution {
    fn merge_from(&mut self, other: &Self) {
        self.hart.merge_from(&other.hart);
        if self.lanes.len() < other.lanes.len() {
            self.lanes.resize(other.lanes.len(), CycleBreakdown::default());
        }
        for (mine, theirs) in self.lanes.iter_mut().zip(other.lanes.iter()) {
            mine.merge_from(theirs);
        }
        self.joiner.merge_from(&other.joiner);
        self.spacc.merge_from(&other.spacc);
    }
}

/// The most recent cycle's classification of every unit in a core
/// complex — refreshed every tick (ROI or not), so the cluster can feed
/// its timeline from it without touching the ROI-gated breakdowns.
#[derive(Clone, Debug)]
pub struct CcCauses {
    /// The hart's cause this cycle.
    pub hart: StallCause,
    /// The streamer units' causes this cycle.
    pub streamer: StreamerProbe,
}

impl Default for CcCauses {
    fn default() -> Self {
        Self { hart: StallCause::Idle, streamer: StreamerProbe::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_extends_lane_vectors() {
        let mut a = CcAttribution::with_lanes(1);
        a.hart.record(StallCause::Active);
        a.lanes[0].record(StallCause::Active);
        let mut b = CcAttribution::with_lanes(2);
        b.hart.record(StallCause::Idle);
        b.lanes[1].record(StallCause::FifoEmpty);
        a.merge_from(&b);
        assert_eq!(a.lanes.len(), 2);
        assert_eq!(a.hart.total(), 2);
        assert_eq!(a.lanes[1].get(StallCause::FifoEmpty), 1);
    }

    #[test]
    fn critical_path_descends_into_busiest_lane() {
        use issr_trace::EdgeClass;
        let mut attr = CcAttribution::with_lanes(2);
        for _ in 0..4 {
            attr.hart.record(StallCause::Active);
        }
        for _ in 0..6 {
            attr.hart.record(StallCause::FifoEmpty);
        }
        // Lane 0 busy and TCDM-bound; lane 1 idle (must not dilute).
        for _ in 0..5 {
            attr.lanes[0].record(StallCause::FifoEmpty);
            attr.lanes[0].record(StallCause::Active);
            attr.lanes[1].record(StallCause::Idle);
            attr.lanes[1].record(StallCause::Idle);
        }
        let p = attr.critical_path();
        assert_eq!(p.length, attr.roi_cycles());
        assert_eq!(p.compute + p.idle + p.blocked(), p.length, "exact partition");
        assert_eq!(p.get(EdgeClass::LaneTcdm), 3, "half the descended wait");
        assert_eq!(p.compute, 4 + 3);
        assert_eq!(p.idle, 0, "the idle lane is not descended into");
        assert!(attr.busiest_lane().is_some());
        assert!(CcAttribution::with_lanes(2).busiest_lane().is_none());
    }

    #[test]
    fn rows_hide_absent_units() {
        let mut attr = CcAttribution::with_lanes(2);
        attr.hart.record(StallCause::Active);
        let rows = attr.rows("h0/");
        assert_eq!(rows.len(), 3, "hart + two lanes, no joiner/spacc");
        assert_eq!(rows[0].0, "h0/hart");
        attr.joiner.record(StallCause::Active);
        assert_eq!(attr.rows("").len(), 4);
    }
}
