//! Stall-cause cycle attribution.
//!
//! Every simulated unit (hart, stream lane, index joiner, SpAcc, DMA
//! engine) classifies each elapsed cycle of its measured window into
//! exactly one [`StallCause`] and records it into a [`CycleBreakdown`].
//! Because classification happens exactly once per cycle at the single
//! place the unit's cycle counter advances, the breakdown's total
//! equals the elapsed cycles *by construction* — the invariant the
//! property tests assert.
//!
//! The enum is shared across unit kinds; each unit maps its own state
//! onto the causes (the README's Observability section tabulates the
//! per-unit meaning). Causes a unit can never exhibit simply stay zero
//! in its breakdown.

use crate::merge::StatMerge;

/// What a unit spent one cycle on. Exactly one cause per cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum StallCause {
    /// The unit did useful work (issued, moved a word, stepped, …).
    Active = 0,
    /// Starved: waiting on upstream data (empty FIFO, operand RAW).
    FifoEmpty = 1,
    /// Back-pressured: output FIFO/buffer full, downstream not draining.
    FifoFull = 2,
    /// Lost memory-port arbitration (TCDM bank conflict, shared-port
    /// round-robin, DMA yielding to cores).
    PortConflict = 3,
    /// Waiting on the index joiner to emit the next match.
    JoinerWait = 4,
    /// Blocked behind a drain in progress (SpAcc row writeback, DMA
    /// burst setup latency).
    DrainBusy = 5,
    /// Denied shared main-memory bandwidth this cycle.
    BwDenied = 6,
    /// Spinning at the cluster hardware barrier.
    BarrierWait = 7,
    /// Parked: halted hart, frozen (faulted) stream unit.
    Parked = 8,
    /// Nothing to do and nothing blocking — no job configured.
    Idle = 9,
}

impl StallCause {
    /// Number of causes (the breakdown array's length).
    pub const COUNT: usize = 10;

    /// All causes, in breakdown-index order.
    pub const ALL: [StallCause; Self::COUNT] = [
        StallCause::Active,
        StallCause::FifoEmpty,
        StallCause::FifoFull,
        StallCause::PortConflict,
        StallCause::JoinerWait,
        StallCause::DrainBusy,
        StallCause::BwDenied,
        StallCause::BarrierWait,
        StallCause::Parked,
        StallCause::Idle,
    ];

    /// Stable snake_case label (used as the JSON key and table header).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StallCause::Active => "active",
            StallCause::FifoEmpty => "fifo_empty",
            StallCause::FifoFull => "fifo_full",
            StallCause::PortConflict => "port_conflict",
            StallCause::JoinerWait => "joiner_wait",
            StallCause::DrainBusy => "drain_busy",
            StallCause::BwDenied => "bw_denied",
            StallCause::BarrierWait => "barrier_wait",
            StallCause::Parked => "parked",
            StallCause::Idle => "idle",
        }
    }
}

/// Per-unit cycle counters, one per [`StallCause`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    counts: [u64; StallCause::COUNT],
}

impl CycleBreakdown {
    /// An all-zero breakdown.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attributes one cycle to `cause`.
    #[inline]
    pub fn record(&mut self, cause: StallCause) {
        self.counts[cause as usize] += 1;
    }

    /// Cycles attributed to `cause`.
    #[must_use]
    pub fn get(&self, cause: StallCause) -> u64 {
        self.counts[cause as usize]
    }

    /// Total attributed cycles — equals the unit's elapsed measured
    /// cycles when the unit records exactly once per cycle.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of attributed cycles the unit was active.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        crate::ratio(self.get(StallCause::Active) as f64, self.total() as f64)
    }

    /// The cause with the most attributed cycles, ties broken by
    /// declaration order. An empty breakdown is `Idle` — the unit was
    /// never observed doing anything else.
    #[must_use]
    pub fn dominant(&self) -> StallCause {
        let mut best = StallCause::Idle;
        let mut best_n = 0u64;
        for (cause, n) in self.iter() {
            if n > best_n {
                best = cause;
                best_n = n;
            }
        }
        best
    }

    /// `(cause, cycles)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (StallCause, u64)> + '_ {
        StallCause::ALL.iter().map(move |&c| (c, self.counts[c as usize]))
    }

    /// The breakdown as a JSON object `{label: cycles, …}` (all ten
    /// keys always present, so the schema is fixed).
    #[must_use]
    pub fn to_json(&self) -> crate::Json {
        crate::Json::Obj(
            self.iter().map(|(c, n)| (c.label().to_owned(), crate::Json::from(n))).collect(),
        )
    }
}

impl StatMerge for CycleBreakdown {
    fn merge_from(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }
}

/// Formats labelled breakdowns as an aligned text table: one row per
/// unit, one column per cause that is non-zero somewhere, plus the
/// total. The bench reporters print this under their result tables.
#[must_use]
pub fn breakdown_table(rows: &[(String, CycleBreakdown)]) -> String {
    let shown: Vec<StallCause> = StallCause::ALL
        .iter()
        .copied()
        .filter(|&c| rows.iter().any(|(_, b)| b.get(c) > 0))
        .collect();
    let mut header: Vec<String> = vec!["unit".to_owned()];
    header.extend(shown.iter().map(|c| c.label().to_owned()));
    header.push("total".to_owned());
    let mut table: Vec<Vec<String>> = vec![header];
    for (name, b) in rows {
        let mut row = vec![name.clone()];
        row.extend(shown.iter().map(|&c| b.get(c).to_string()));
        row.push(b.total().to_string());
        table.push(row);
    }
    let n_cols = table[0].len();
    let widths: Vec<usize> =
        (0..n_cols).map(|j| table.iter().map(|r| r[j].len()).max().unwrap_or(0)).collect();
    let mut out = String::new();
    for row in &table {
        for (j, cell) in row.iter().enumerate() {
            if j > 0 {
                out.push_str("  ");
            }
            if j == 0 {
                out.push_str(&format!("{cell:<width$}", width = widths[j]));
            } else {
                out.push_str(&format!("{cell:>width$}", width = widths[j]));
            }
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_sums_exactly() {
        let mut b = CycleBreakdown::new();
        for _ in 0..7 {
            b.record(StallCause::Active);
        }
        b.record(StallCause::FifoEmpty);
        b.record(StallCause::Parked);
        assert_eq!(b.total(), 9);
        assert_eq!(b.get(StallCause::Active), 7);
        assert!((b.occupancy() - 7.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counterwise() {
        let mut a = CycleBreakdown::new();
        a.record(StallCause::Active);
        let mut b = CycleBreakdown::new();
        b.record(StallCause::Active);
        b.record(StallCause::BwDenied);
        a.merge_from(&b);
        assert_eq!(a.get(StallCause::Active), 2);
        assert_eq!(a.get(StallCause::BwDenied), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn dominant_picks_heaviest_with_idle_fallback() {
        let mut b = CycleBreakdown::new();
        assert_eq!(b.dominant(), StallCause::Idle);
        b.record(StallCause::Active);
        b.record(StallCause::BarrierWait);
        b.record(StallCause::BarrierWait);
        assert_eq!(b.dominant(), StallCause::BarrierWait);
        b.record(StallCause::Active);
        // Tie: declaration order wins (Active precedes BarrierWait).
        assert_eq!(b.dominant(), StallCause::Active);
    }

    #[test]
    fn labels_are_unique_and_cover_all() {
        let mut labels: Vec<&str> = StallCause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), StallCause::COUNT);
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), StallCause::COUNT, "labels must be unique");
    }

    #[test]
    fn json_has_all_keys() {
        let b = CycleBreakdown::new();
        let crate::Json::Obj(fields) = b.to_json() else { panic!("object expected") };
        assert_eq!(fields.len(), StallCause::COUNT);
        assert_eq!(fields[0].0, "active");
    }
}
