//! Critical-path extraction over the wait-edge taxonomy.
//!
//! Stall-cause attribution ([`crate::attr`]) is local — it says lane 3
//! spent 40% of its ROI cycles `fifo_empty`, not which unit it was
//! waiting on. Every non-`Active`, non-`Idle`, non-`Parked` cycle a
//! unit records is also an *edge* from the blocked unit class to the
//! unit class it was blocked on; [`edge_for`] is that mapping, a pure
//! function of `(unit class, stall cause)`, total over every blocked
//! cause — so every blocked cycle has exactly one outgoing edge by
//! construction.
//!
//! [`extract`] walks the blame chain backward from end-of-ROI: the
//! terminal unit's breakdown partitions the measured window — every
//! cycle was progress (`compute`), waited on nothing (`idle`: nothing
//! to issue, an instruction-cache refill, a halted hart) or was blocked
//! on exactly one wait edge. One level of descent follows the heaviest
//! chain, hart → lane: cycles the hart spent starved on its stream
//! lanes are redistributed over the lane's own breakdown (a lane that
//! was *active* while the hart waited is genuine dataflow on the path
//! and lands in `compute`; a lane that was itself blocked forwards the
//! blame to its own edge). The redistribution uses largest-remainder
//! rounding so the attribution stays an exact integer partition:
//! `compute + idle + Σ edges == length`, the invariant the acceptance
//! tests pin down.
//!
//! Each edge-class count doubles as the what-if bound: eliminating that
//! wait entirely saves **at most** that many cycles, because those are
//! exactly the path cycles the class is blamed for (other limiters may
//! take over once it is gone — hence ≤, not =). What a path means for
//! the run as a whole is [`crate::analyze::classify`]'s call.

use crate::attr::{CycleBreakdown, StallCause};
use crate::json::{obj, Json};

/// The class of a simulated unit, as a wait-edge endpoint.
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
    /// Number of edge classes (the path's edge-array length).
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

/// The critical path of one measured window, as an exact partition of
/// its cycles into `compute`, `idle` and per-edge-class blame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Cycles of the window the path covers (the terminal breakdown's
    /// total, i.e. its ROI cycles).
    pub length: u64,
    /// Path cycles spent making progress (terminal-unit active cycles
    /// plus descended lane-active dataflow).
    pub compute: u64,
    /// Path cycles that waited on no unit: `Idle` and `Parked` cycles
    /// of the terminal unit and of a descended lane.
    pub idle: u64,
    edges: [u64; EdgeClass::COUNT],
}

impl CriticalPath {
    /// Path cycles blamed on `edge` — also the what-if upper bound on
    /// cycles saved by eliminating that wait class.
    #[must_use]
    pub fn get(&self, edge: EdgeClass) -> u64 {
        self.edges[edge as usize]
    }

    /// Total path cycles blamed on wait edges.
    #[must_use]
    pub fn blocked(&self) -> u64 {
        self.edges.iter().sum()
    }

    /// `(edge, cycles)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeClass, u64)> + '_ {
        EdgeClass::ALL.iter().map(move |&e| (e, self.edges[e as usize]))
    }

    /// The heaviest wait edge on the path, ties broken by declaration
    /// order; `None` when nothing on the path blocked.
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

    /// The path as JSON: an exact partition (`"compute"`, `"idle"` and
    /// the full fixed-schema `"edges"` object sum to `"length"`), the
    /// dominant edge label (`"none"` when nothing blocked), and its
    /// what-if bound.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let edges =
            Json::Obj(self.iter().map(|(e, n)| (e.label().to_owned(), Json::from(n))).collect());
        let (dom, saves) = match self.dominant() {
            Some(e) => (e.label(), self.get(e)),
            None => ("none", 0),
        };
        obj(vec![
            ("length", Json::from(self.length)),
            ("compute", Json::from(self.compute)),
            ("idle", Json::from(self.idle)),
            ("edges", edges),
            ("dominant_edge", Json::from(dom)),
            ("dominant_saves", Json::from(saves)),
        ])
    }

    /// Charges `n` cycles `unit` spent in `cause` to the partition.
    fn charge(&mut self, unit: UnitClass, cause: StallCause, n: u64) {
        match edge_for(unit, cause) {
            Some(edge) => self.edges[edge as usize] += n,
            None if cause == StallCause::Active => self.compute += n,
            None => self.idle += n,
        }
    }
}

/// Extracts the critical path ending at `terminal` (class + recorded
/// breakdown). When `lane` carries the merged breakdown of the
/// terminal's stream lanes, hart→lane blame descends one level into it.
#[must_use]
pub fn extract(
    terminal: UnitClass,
    breakdown: &CycleBreakdown,
    lane: Option<&CycleBreakdown>,
) -> CriticalPath {
    let mut path = CriticalPath { length: breakdown.total(), ..CriticalPath::default() };
    for (cause, n) in breakdown.iter() {
        path.charge(terminal, cause, n);
    }
    // One-level descent: hart→lane blame redistributes over the lane's
    // own breakdown (exactly, by largest-remainder apportionment).
    if terminal == UnitClass::Hart {
        if let Some(lane) = lane {
            let n = path.edges[EdgeClass::HartLane as usize];
            let weights: Vec<u64> = lane.iter().map(|(_, w)| w).collect();
            if n > 0 && weights.iter().sum::<u64>() > 0 {
                path.edges[EdgeClass::HartLane as usize] = 0;
                let shares = apportion(n, &weights);
                for ((cause, _), share) in lane.iter().zip(shares) {
                    path.charge(UnitClass::Lane, cause, share);
                }
            }
        }
    }
    debug_assert_eq!(path.compute + path.idle + path.blocked(), path.length, "exact partition");
    path
}

/// Splits `n` proportionally to `weights`, summing exactly to `n`
/// (largest-remainder method; ties favour lower indices, so the split
/// is deterministic). Returns all zeros when the weights sum to zero.
fn apportion(n: u64, weights: &[u64]) -> Vec<u64> {
    let total: u64 = weights.iter().sum();
    if total == 0 {
        return vec![0; weights.len()];
    }
    let mut shares: Vec<u64> = Vec::with_capacity(weights.len());
    let mut rems: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
    let mut assigned: u64 = 0;
    for (i, &w) in weights.iter().enumerate() {
        let prod = u128::from(n) * u128::from(w);
        let share = (prod / u128::from(total)) as u64;
        shares.push(share);
        assigned += share;
        rems.push((prod % u128::from(total), i));
    }
    let mut leftover = n - assigned;
    rems.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in &rems {
        if leftover == 0 {
            break;
        }
        shares[i] += 1;
        leftover -= 1;
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bd(pairs: &[(StallCause, u64)]) -> CycleBreakdown {
        let mut b = CycleBreakdown::new();
        for &(c, n) in pairs {
            for _ in 0..n {
                b.record(c);
            }
        }
        b
    }

    #[test]
    fn partition_is_exact_without_descent() {
        let b = bd(&[
            (StallCause::Active, 10),
            (StallCause::FifoEmpty, 6),
            (StallCause::PortConflict, 3),
            (StallCause::BarrierWait, 2),
            (StallCause::Idle, 4),
        ]);
        let p = extract(UnitClass::Hart, &b, None);
        assert_eq!(p.length, 25);
        assert_eq!(p.compute, 10);
        assert_eq!(p.idle, 4, "idle cycles are neither progress nor blame");
        assert_eq!(p.get(EdgeClass::HartLane), 6);
        assert_eq!(p.get(EdgeClass::HartTcdm), 3);
        assert_eq!(p.get(EdgeClass::HartBarrier), 2);
        assert_eq!(p.compute + p.idle + p.blocked(), p.length);
    }

    #[test]
    fn descent_redistributes_hart_lane_exactly() {
        let hart = bd(&[(StallCause::Active, 5), (StallCause::FifoEmpty, 10)]);
        // Lane: 1/5 active, 2/5 TCDM-starved, 1/5 joiner-blocked, 1/5 idle.
        let lane = bd(&[
            (StallCause::Active, 2),
            (StallCause::FifoEmpty, 4),
            (StallCause::JoinerWait, 2),
            (StallCause::Idle, 2),
        ]);
        let p = extract(UnitClass::Hart, &hart, Some(&lane));
        assert_eq!(p.length, 15);
        assert_eq!(p.get(EdgeClass::HartLane), 0, "fully descended");
        assert_eq!(p.compute, 5 + 2);
        assert_eq!(p.idle, 2, "the lane's idle share waits on nothing");
        assert_eq!(p.get(EdgeClass::LaneTcdm), 4);
        assert_eq!(p.get(EdgeClass::LaneJoiner), 2);
        assert_eq!(p.compute + p.idle + p.blocked(), p.length);
    }

    #[test]
    fn descent_with_remainder_still_sums_exactly() {
        let hart = bd(&[(StallCause::FifoEmpty, 7)]);
        let lane =
            bd(&[(StallCause::Active, 1), (StallCause::FifoEmpty, 1), (StallCause::JoinerWait, 1)]);
        let p = extract(UnitClass::Hart, &hart, Some(&lane));
        assert_eq!(p.length, 7);
        assert_eq!(
            p.compute + p.idle + p.blocked(),
            7,
            "largest remainder keeps the partition exact"
        );
    }

    #[test]
    fn idle_lane_keeps_blame_on_hart_lane() {
        let hart = bd(&[(StallCause::FifoEmpty, 8)]);
        let lane = CycleBreakdown::new();
        let p = extract(UnitClass::Hart, &hart, Some(&lane));
        assert_eq!(p.get(EdgeClass::HartLane), 8, "no lane record: blame stays put");
    }

    #[test]
    fn dominant_and_what_if() {
        let b = bd(&[
            (StallCause::Active, 3),
            (StallCause::PortConflict, 9),
            (StallCause::BarrierWait, 2),
        ]);
        let p = extract(UnitClass::Hart, &b, None);
        assert_eq!(p.dominant(), Some(EdgeClass::HartTcdm));
        assert_eq!(p.get(EdgeClass::HartTcdm), 9, "what-if: eliminating it saves <= 9 cycles");
        let tie = extract(
            UnitClass::Hart,
            &bd(&[(StallCause::BarrierWait, 4), (StallCause::FifoEmpty, 4)]),
            None,
        );
        assert_eq!(tie.dominant(), Some(EdgeClass::HartLane), "ties keep declaration order");
        let compute = extract(UnitClass::Hart, &bd(&[(StallCause::Active, 5)]), None);
        assert_eq!(compute.dominant(), None);
    }

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
    fn json_partition_sums_to_length() {
        let b = bd(&[(StallCause::Active, 4), (StallCause::FifoEmpty, 6), (StallCause::Parked, 3)]);
        let p = extract(UnitClass::Hart, &b, None);
        let j = p.to_json();
        let int = |key: &str| j.get(key).and_then(Json::as_int).unwrap();
        let Some(Json::Obj(edges)) = j.get("edges") else { panic!("edges object") };
        let edge_sum: i64 = edges.iter().map(|(_, v)| v.as_int().unwrap()).sum();
        assert_eq!(int("idle"), 3);
        assert_eq!(int("compute") + int("idle") + edge_sum, int("length"));
        let mut keys: Vec<&str> = edges.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), EdgeClass::COUNT, "fixed schema, one unique key per edge class");
        assert_eq!(j.get("dominant_edge").and_then(Json::as_str), Some("hart_lane"));
        assert_eq!(j.get("dominant_saves").and_then(Json::as_int), Some(6));
    }

    #[test]
    fn apportion_is_exact_and_deterministic() {
        assert_eq!(apportion(10, &[1, 1, 1]), vec![4, 3, 3]);
        assert_eq!(apportion(7, &[0, 0]), vec![0, 0]);
        assert_eq!(apportion(0, &[3, 4]), vec![0, 0]);
        let shares = apportion(1_000_003, &[7, 11, 13, 0, 29]);
        assert_eq!(shares.iter().sum::<u64>(), 1_000_003);
        assert_eq!(shares[3], 0);
    }
}
