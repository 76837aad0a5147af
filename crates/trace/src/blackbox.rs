//! The post-mortem: the one report of a dead run — a timeout, or a
//! latched fault — which every run harness (single CC, cluster,
//! system) assembles the same way.
//!
//! A [`PostMortem`] is the frozen picture: each stuck hart once, with
//! its PC, dominant stall cause and the word it was polling
//! ([`StuckUnit`]), all read from live state, and, when the cluster
//! was traced, the final window of its [`Timeline`] — the most recent
//! transitions before the run was declared dead. A live run arms no
//! timeline; the kernel harnesses replay a timed-out cluster or system
//! run with tracing armed to get the window (a single CC records none).

use crate::attr::StallCause;
use crate::timeline::{Timeline, Transition};

/// One hart that had not gone quiescent when a run died.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StuckUnit {
    /// Display name with its cluster prefix ("c0 hart 1", "c0 dmcc").
    pub name: String,
    /// Program counter at the time of death.
    pub pc: u32,
    /// The cause the hart spent most of its lifetime cycles in — a
    /// spinning hart reads `active`, a wedged one names its stall.
    pub dominant: StallCause,
    /// The address of the last load it issued — the word it was
    /// polling, when it died in a spin loop.
    pub polls: Option<u32>,
}

impl std::fmt::Display for StuckUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} pc={:#010x} mostly {}", self.name, self.pc, self.dominant.label())?;
        if let Some(addr) = self.polls {
            write!(f, " polling {addr:#010x}")?;
        }
        Ok(())
    }
}

/// The assembled post-mortem report.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PostMortem {
    /// Cycle at which the run was declared dead.
    pub at: u64,
    /// Every non-quiescent hart at the time of death.
    pub stuck: Vec<StuckUnit>,
    /// Unit-name table for `transitions`.
    pub unit_names: Vec<String>,
    /// The timeline's final window, oldest first.
    pub transitions: Vec<Transition>,
    /// Transitions lost to the ring cap before the window.
    pub evicted: u64,
}

impl PostMortem {
    /// Builds the report from the stuck harts and, when one is armed,
    /// the timeline's retained window.
    #[must_use]
    pub fn assemble(at: u64, stuck: Vec<StuckUnit>, timeline: Option<&Timeline>) -> Self {
        Self {
            at,
            stuck,
            unit_names: timeline.map(Timeline::unit_names).unwrap_or_default(),
            transitions: timeline.map(Timeline::transitions).unwrap_or_default(),
            evicted: timeline.map_or(0, Timeline::evicted),
        }
    }

    /// Merges per-cluster reports into one (unit indices re-based,
    /// transitions re-sorted by cycle).
    #[must_use]
    pub fn merge(parts: Vec<PostMortem>) -> Self {
        let mut out = PostMortem::assemble(0, Vec::new(), None);
        for part in parts {
            out.at = out.at.max(part.at);
            let base = out.unit_names.len();
            out.unit_names.extend(part.unit_names);
            out.transitions
                .extend(part.transitions.iter().map(|t| Transition { unit: t.unit + base, ..*t }));
            out.stuck.extend(part.stuck);
            out.evicted += part.evicted;
        }
        out.transitions.sort_by_key(|t| (t.cycle, t.unit));
        out
    }
}

impl std::fmt::Display for PostMortem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "post-mortem @ cycle {}: {} hart(s) not quiescent", self.at, self.stuck.len())?;
        for s in &self.stuck {
            writeln!(f, "  {s}")?;
        }
        let shown = self.transitions.len().min(16);
        if shown > 0 {
            writeln!(
                f,
                "  last {} of {} recorded transitions ({} evicted):",
                shown,
                self.transitions.len(),
                self.evicted
            )?;
            for t in &self.transitions[self.transitions.len() - shown..] {
                let name = self.unit_names.get(t.unit).map_or("?", String::as_str);
                writeln!(
                    f,
                    "    cycle {}: {} {} -> {}",
                    t.cycle,
                    name,
                    t.from.label(),
                    t.to.label()
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stuck(hart: u32, dominant: StallCause, polls: Option<u32>) -> StuckUnit {
        StuckUnit { name: format!("c0 hart {hart}"), pc: 0x100, dominant, polls }
    }

    /// The window a report carries is the timeline's tail.
    #[test]
    fn ring_keeps_most_recent_transitions() {
        let mut tl = Timeline::new(2);
        let u = tl.add_unit(0, "hart 0");
        tl.sample(u, 0, StallCause::Active); // idle -> active
        tl.sample(u, 1, StallCause::Active); // steady: free
        tl.sample(u, 5, StallCause::FifoEmpty);
        tl.sample(u, 9, StallCause::Active);
        let pm = PostMortem::assemble(10, Vec::new(), Some(&tl));
        let cycles: Vec<u64> = pm.transitions.iter().map(|t| t.cycle).collect();
        assert_eq!(cycles, vec![5, 9], "oldest entry evicted, tail kept");
        assert_eq!(pm.evicted, 1);
        assert_eq!(pm.unit_names, vec!["c0 hart 0".to_owned()]);
    }

    #[test]
    fn zero_cap_records_nothing_but_counts() {
        let mut tl = Timeline::new(0);
        let u = tl.add_unit(0, "x");
        tl.sample(u, 0, StallCause::Active);
        let pm = PostMortem::assemble(1, Vec::new(), Some(&tl));
        assert!(pm.transitions.is_empty());
        assert_eq!(pm.evicted, 1);
    }

    /// Each stuck hart is one line, rendered by its own `Display`, with
    /// the polled word when it has one.
    #[test]
    fn display_prints_each_stuck_hart_once() {
        let pm = PostMortem::assemble(
            500,
            vec![
                stuck(0, StallCause::Active, Some(0x2000)),
                stuck(1, StallCause::BarrierWait, None),
            ],
            None,
        );
        let text = pm.to_string();
        assert_eq!(text.matches("pc=").count(), 2, "{text}");
        assert!(text.starts_with("post-mortem @ cycle 500: 2 hart(s) not quiescent\n"), "{text}");
        assert!(text.contains("  c0 hart 0 pc=0x00000100 mostly active polling 0x00002000\n"));
        assert!(text.contains("  c0 hart 1 pc=0x00000100 mostly barrier_wait\n"), "{text}");
    }

    #[test]
    fn merge_rebases_units() {
        let mut tl = Timeline::new(8);
        let u = tl.add_unit(1, "hart 0");
        tl.sample(u, 3, StallCause::Active);
        let first = PostMortem::assemble(7, vec![stuck(0, StallCause::Active, None)], Some(&tl));
        let second = PostMortem::assemble(
            9,
            vec![
                stuck(0, StallCause::Active, Some(0x10)),
                stuck(1, StallCause::Active, Some(0x18)),
            ],
            None,
        );
        let merged = PostMortem::merge(vec![first, second]);
        assert_eq!(merged.at, 9);
        assert_eq!(merged.stuck.len(), 3);
        assert_eq!(merged.unit_names, vec!["c1 hart 0".to_owned()]);
        assert_eq!(merged.transitions.len(), 1);
        assert_eq!(merged.transitions[0].unit, 0);
    }
}
