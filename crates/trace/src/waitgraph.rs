//! Wait-graph aggregation: *who* a stalled unit was blocked on.
//!
//! Stall-cause attribution ([`crate::attr`]) is local — it says lane 3
//! spent 40% of its ROI cycles `fifo_empty`, not which unit it was
//! waiting on. This module adds the causal layer: every non-`Active`,
//! non-`Idle`, non-`Parked` cycle a unit records is simultaneously an
//! *edge* in a wait graph, from the blocked unit class to the unit
//! class it was blocked on. The mapping [`edge_for`] is a pure function
//! of `(unit class, stall cause)`, total over every blocked cause — so
//! "every blocked cycle has exactly one outgoing edge" holds by
//! construction, and a [`WaitGraph`] derived from a recorded
//! [`CycleBreakdown`] sums exactly to that breakdown's blocked cycles.
//!
//! Because the graph is a linear function of the already-recorded
//! breakdowns, deriving it is timing-neutral for free.

use crate::attr::{CycleBreakdown, StallCause};
use crate::json::Json;
use crate::merge::StatMerge;

/// The class of a simulated unit, as a wait-graph node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnitClass {
    /// A Snitch integer core (worker or DMA core).
    Hart,
    /// One SSR/ISSR stream lane.
    Lane,
    /// The index-intersection joiner.
    Joiner,
    /// The sparse accumulator.
    SpAcc,
    /// A cluster DMA engine.
    Dma,
}

/// One directed wait edge class: blocked unit class → blocking resource.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum EdgeClass {
    /// Hart starved by a stream lane (RAW on a stream register).
    HartLane = 0,
    /// Hart lost TCDM/shared-port arbitration.
    HartTcdm = 1,
    /// Hart spinning at the cluster hardware barrier.
    HartBarrier = 2,
    /// Lane starved or deferred by a TCDM bank (conflict or latency).
    LaneTcdm = 3,
    /// Lane back-pressured by its consuming hart (datapath FIFO full).
    LaneHart = 4,
    /// Lane waiting on the index joiner to emit the next match.
    LaneJoiner = 5,
    /// Lane blocked behind an SpAcc row drain.
    LaneSpAcc = 6,
    /// Joiner starved or deferred by its feeding index lanes.
    JoinerLane = 7,
    /// Joiner back-pressured by the consuming hart.
    JoinerHart = 8,
    /// SpAcc starved by the joiner match stream.
    SpAccJoiner = 9,
    /// SpAcc writeback deferred by a TCDM bank.
    SpAccTcdm = 10,
    /// DMA denied shared main-memory bandwidth (or burst setup).
    DmaMainMem = 11,
    /// DMA yielded a contested TCDM bank to the cores.
    DmaTcdm = 12,
}

impl EdgeClass {
    /// Number of edge classes (the graph array's length).
    pub const COUNT: usize = 13;

    /// All edge classes, in index order.
    pub const ALL: [EdgeClass; Self::COUNT] = [
        EdgeClass::HartLane,
        EdgeClass::HartTcdm,
        EdgeClass::HartBarrier,
        EdgeClass::LaneTcdm,
        EdgeClass::LaneHart,
        EdgeClass::LaneJoiner,
        EdgeClass::LaneSpAcc,
        EdgeClass::JoinerLane,
        EdgeClass::JoinerHart,
        EdgeClass::SpAccJoiner,
        EdgeClass::SpAccTcdm,
        EdgeClass::DmaMainMem,
        EdgeClass::DmaTcdm,
    ];

    /// Stable snake_case label (used as the JSON key and table header).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EdgeClass::HartLane => "hart_lane",
            EdgeClass::HartTcdm => "hart_tcdm",
            EdgeClass::HartBarrier => "hart_barrier",
            EdgeClass::LaneTcdm => "lane_tcdm",
            EdgeClass::LaneHart => "lane_hart",
            EdgeClass::LaneJoiner => "lane_joiner",
            EdgeClass::LaneSpAcc => "lane_spacc",
            EdgeClass::JoinerLane => "joiner_lane",
            EdgeClass::JoinerHart => "joiner_hart",
            EdgeClass::SpAccJoiner => "spacc_joiner",
            EdgeClass::SpAccTcdm => "spacc_tcdm",
            EdgeClass::DmaMainMem => "dma_mainmem",
            EdgeClass::DmaTcdm => "dma_tcdm",
        }
    }

    /// Parses a label back to the edge class (for telemetry diffing).
    #[must_use]
    pub fn from_label(label: &str) -> Option<EdgeClass> {
        EdgeClass::ALL.iter().copied().find(|e| e.label() == label)
    }
}

/// Whether a cause represents a *blocked* cycle — one that carries a
/// wait edge. `Active` is progress, `Idle` is no work configured, and
/// `Parked` is a terminal state (halted hart, frozen lane) that waits
/// on nothing.
#[must_use]
pub fn is_blocked(cause: StallCause) -> bool {
    !matches!(cause, StallCause::Active | StallCause::Idle | StallCause::Parked)
}

/// Maps one blocked cycle to its outgoing wait edge.
///
/// Total over every blocked cause for every unit class (returns `None`
/// exactly when [`is_blocked`] is false), so a breakdown's blocked
/// cycles and its derived edge cycles always sum to the same number —
/// the soundness property the tests pin down. Causes a unit class can
/// never record still map somewhere sensible; they simply stay zero.
#[must_use]
pub fn edge_for(unit: UnitClass, cause: StallCause) -> Option<EdgeClass> {
    use EdgeClass as E;
    use StallCause as C;
    use UnitClass as U;
    match (unit, cause) {
        (_, C::Active | C::Idle | C::Parked) => None,
        (U::Hart, C::BarrierWait) => Some(E::HartBarrier),
        (U::Hart, C::PortConflict | C::BwDenied) => Some(E::HartTcdm),
        (U::Hart, _) => Some(E::HartLane),
        (U::Lane, C::FifoFull) => Some(E::LaneHart),
        (U::Lane, C::JoinerWait) => Some(E::LaneJoiner),
        (U::Lane, C::DrainBusy) => Some(E::LaneSpAcc),
        (U::Lane, _) => Some(E::LaneTcdm),
        (U::Joiner, C::FifoFull) => Some(E::JoinerHart),
        (U::Joiner, _) => Some(E::JoinerLane),
        (U::SpAcc, C::FifoEmpty | C::JoinerWait) => Some(E::SpAccJoiner),
        (U::SpAcc, _) => Some(E::SpAccTcdm),
        (U::Dma, C::PortConflict) => Some(E::DmaTcdm),
        (U::Dma, _) => Some(E::DmaMainMem),
    }
}

/// Aggregated wait graph: cycles spent blocked, per edge class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaitGraph {
    counts: [u64; EdgeClass::COUNT],
}

impl WaitGraph {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `cycles` blocked cycles to `edge`.
    pub fn add(&mut self, edge: EdgeClass, cycles: u64) {
        self.counts[edge as usize] += cycles;
    }

    /// Folds a whole recorded breakdown of `unit` into the graph —
    /// every blocked cycle becomes one edge cycle.
    pub fn add_breakdown(&mut self, unit: UnitClass, breakdown: &CycleBreakdown) {
        for (cause, n) in breakdown.iter() {
            if n > 0 {
                if let Some(edge) = edge_for(unit, cause) {
                    self.add(edge, n);
                }
            }
        }
    }

    /// Cycles attributed to `edge`.
    #[must_use]
    pub fn get(&self, edge: EdgeClass) -> u64 {
        self.counts[edge as usize]
    }

    /// Total blocked cycles across all edges.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(edge, cycles)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeClass, u64)> + '_ {
        EdgeClass::ALL.iter().map(move |&e| (e, self.counts[e as usize]))
    }

    /// The heaviest edge, ties broken by declaration order; `None` for
    /// an empty graph.
    #[must_use]
    pub fn dominant(&self) -> Option<EdgeClass> {
        let (edge, n) =
            self.iter().fold(
                (EdgeClass::HartLane, 0u64),
                |acc, (e, n)| {
                    if n > acc.1 {
                        (e, n)
                    } else {
                        acc
                    }
                },
            );
        if n > 0 {
            Some(edge)
        } else {
            None
        }
    }

    /// The graph as a JSON object `{edge_label: cycles, …}` (all keys
    /// always present, so the schema is fixed).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(e, n)| (e.label().to_owned(), Json::from(n))).collect())
    }
}

impl StatMerge for WaitGraph {
    fn merge_from(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_blocked_cause_has_exactly_one_edge() {
        for unit in
            [UnitClass::Hart, UnitClass::Lane, UnitClass::Joiner, UnitClass::SpAcc, UnitClass::Dma]
        {
            for cause in StallCause::ALL {
                assert_eq!(
                    edge_for(unit, cause).is_some(),
                    is_blocked(cause),
                    "{unit:?}/{cause:?}: blocked iff mapped"
                );
            }
        }
    }

    #[test]
    fn derived_graph_sums_to_blocked_cycles() {
        let mut b = CycleBreakdown::new();
        for _ in 0..5 {
            b.record(StallCause::Active);
        }
        for _ in 0..3 {
            b.record(StallCause::FifoEmpty);
        }
        b.record(StallCause::PortConflict);
        b.record(StallCause::BarrierWait);
        b.record(StallCause::Idle);
        let mut g = WaitGraph::new();
        g.add_breakdown(UnitClass::Hart, &b);
        let blocked: u64 = b.iter().filter(|&(c, _)| is_blocked(c)).map(|(_, n)| n).sum();
        assert_eq!(g.total(), blocked);
        assert_eq!(g.get(EdgeClass::HartLane), 3);
        assert_eq!(g.get(EdgeClass::HartTcdm), 1);
        assert_eq!(g.get(EdgeClass::HartBarrier), 1);
    }

    #[test]
    fn dominant_picks_heaviest_and_handles_empty() {
        let mut g = WaitGraph::new();
        assert_eq!(g.dominant(), None);
        g.add(EdgeClass::LaneTcdm, 4);
        g.add(EdgeClass::DmaMainMem, 9);
        assert_eq!(g.dominant(), Some(EdgeClass::DmaMainMem));
    }

    #[test]
    fn labels_are_unique_and_round_trip() {
        let mut labels: Vec<&str> = EdgeClass::ALL.iter().map(|e| e.label()).collect();
        assert_eq!(labels.len(), EdgeClass::COUNT);
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), EdgeClass::COUNT, "labels must be unique");
        for e in EdgeClass::ALL {
            assert_eq!(EdgeClass::from_label(e.label()), Some(e));
        }
        assert_eq!(EdgeClass::from_label("nope"), None);
    }

    #[test]
    fn merge_adds_edgewise() {
        let mut a = WaitGraph::new();
        a.add(EdgeClass::HartLane, 2);
        let mut b = WaitGraph::new();
        b.add(EdgeClass::HartLane, 3);
        b.add(EdgeClass::SpAccTcdm, 1);
        a.merge_from(&b);
        assert_eq!(a.get(EdgeClass::HartLane), 5);
        assert_eq!(a.get(EdgeClass::SpAccTcdm), 1);
        assert_eq!(a.total(), 6);
    }
}
