//! The post-mortem report a run harness assembles when a run dies: a
//! timeout, or a latched fault.
//!
//! The [`PostMortem`] is the frozen picture: each stuck unit with its
//! dominant stall cause and the sync word it was polling, the
//! cumulative wait graph, cycle detection over the poll edges (deadlock
//! vs. merely slow), and the final window of the cluster's
//! [`Timeline`] — the most recent transitions before the run was
//! declared dead. [`PostMortem::sidecar_json`] exports that window
//! through the timeline's Chrome exporter so it can be eyeballed in
//! Perfetto.

use crate::attr::StallCause;
use crate::json::Json;
use crate::timeline::{chrome_trace, mark_event, span_events, Timeline, Transition};
use crate::waitgraph::WaitGraph;

/// What the frozen wait picture says about why the run died.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Classification {
    /// The poll edges between stuck harts form a cycle: no hart in the
    /// cycle can ever make progress.
    Deadlock,
    /// Units are stuck or slow but no circular wait was found — the run
    /// may simply have needed more cycles.
    Slow,
}

impl Classification {
    /// Stable lower-case label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Classification::Deadlock => "deadlock",
            Classification::Slow => "slow",
        }
    }
}

/// One hart that had not gone quiescent when a run died — the entry
/// of both a timeout's stuck list and the post-mortem's.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StuckUnit {
    /// Display name ("c0 hart 1", "c0 dmcc").
    pub name: String,
    /// Cluster index within the system (0 for standalone runs).
    pub cluster: usize,
    /// Hart id within its cluster (workers `0..n_workers`, the DMCC is
    /// `n_workers`) — what poll edges resolve against.
    pub hart: u32,
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
        write!(
            f,
            "cluster {} hart {} pc={:#010x} mostly {}",
            self.cluster,
            self.hart,
            self.pc,
            self.dominant.label()
        )
    }
}

/// Finds a cycle in a poller→owner edge set (at most one outgoing edge
/// per node — a hart polls one word at a time). Returns the cycle's
/// node ids in walk order, rotated so the smallest id leads; `None`
/// when the graph is acyclic.
#[must_use]
pub fn detect_cycle(edges: &[(usize, usize)]) -> Option<Vec<usize>> {
    let mut next: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    for &(from, to) in edges {
        next.entry(from).or_insert(to);
    }
    // Walk from every node; colour 0 = unseen, 1 = on current walk,
    // 2 = finished. A walk that re-enters itself found a cycle.
    let mut colour: std::collections::BTreeMap<usize, u8> = std::collections::BTreeMap::new();
    let starts: Vec<usize> = next.keys().copied().collect();
    for start in starts {
        if colour.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut walk = Vec::new();
        let mut node = start;
        loop {
            match colour.get(&node).copied().unwrap_or(0) {
                1 => {
                    // Cycle: the suffix of `walk` starting at `node`.
                    let at = walk.iter().position(|&n| n == node).unwrap_or(0);
                    let mut cycle: Vec<usize> = walk[at..].to_vec();
                    let min_at = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &n)| n)
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    cycle.rotate_left(min_at);
                    return Some(cycle);
                }
                2 => break,
                _ => {}
            }
            colour.insert(node, 1);
            walk.push(node);
            match next.get(&node) {
                Some(&to) => node = to,
                None => break,
            }
        }
        for n in walk {
            colour.insert(n, 2);
        }
    }
    None
}

/// The assembled post-mortem report.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PostMortem {
    /// Cycle at which the run was declared dead.
    pub at: u64,
    /// Deadlock (circular wait proven) or merely slow.
    pub classification: Classification,
    /// Names of the units forming the blame cycle, in wait order
    /// (empty unless classified deadlock).
    pub blame_cycle: Vec<String>,
    /// Every non-quiescent unit at the time of death.
    pub stuck: Vec<StuckUnit>,
    /// The cumulative wait graph of the whole run.
    pub wait_graph: WaitGraph,
    /// Unit-name table for `transitions`.
    pub unit_names: Vec<String>,
    /// The timeline's final window, oldest first.
    pub transitions: Vec<Transition>,
    /// Transitions lost to the ring cap before the window.
    pub evicted: u64,
}

impl PostMortem {
    /// Builds the report from the frozen pieces, classifying via cycle
    /// detection over the stuck units' poll edges: `sync_words` maps a
    /// flag-word address to the hart that owns (writes) it.
    #[must_use]
    pub fn assemble(
        at: u64,
        stuck: Vec<StuckUnit>,
        sync_words: &[(u32, u32)],
        wait_graph: WaitGraph,
        timeline: Option<&Timeline>,
    ) -> Self {
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (i, s) in stuck.iter().enumerate() {
            let Some(addr) = s.polls else { continue };
            let Some(&(_, owner)) = sync_words.iter().find(|&&(a, _)| a == addr) else { continue };
            if owner == s.hart {
                continue;
            }
            if let Some(j) = stuck.iter().position(|t| t.hart == owner) {
                edges.push((i, j));
            }
        }
        let cycle = detect_cycle(&edges);
        let classification =
            if cycle.is_some() { Classification::Deadlock } else { Classification::Slow };
        let blame_cycle =
            cycle.unwrap_or_default().iter().map(|&i| stuck[i].name.clone()).collect();
        Self {
            at,
            classification,
            blame_cycle,
            stuck,
            wait_graph,
            unit_names: timeline.map(Timeline::unit_names).unwrap_or_default(),
            transitions: timeline.map(Timeline::transitions).unwrap_or_default(),
            evicted: timeline.map_or(0, Timeline::evicted),
        }
    }

    /// Merges per-cluster reports into one (unit indices re-based,
    /// transitions re-sorted by cycle; deadlock wins the
    /// classification and the first deadlocked report provides the
    /// blame cycle).
    #[must_use]
    pub fn merge(parts: Vec<PostMortem>) -> Self {
        let mut out = PostMortem {
            at: 0,
            classification: Classification::Slow,
            blame_cycle: Vec::new(),
            stuck: Vec::new(),
            wait_graph: WaitGraph::new(),
            unit_names: Vec::new(),
            transitions: Vec::new(),
            evicted: 0,
        };
        for part in parts {
            out.at = out.at.max(part.at);
            if part.classification == Classification::Deadlock
                && out.classification != Classification::Deadlock
            {
                out.classification = Classification::Deadlock;
                out.blame_cycle = part.blame_cycle;
            }
            let base = out.unit_names.len();
            out.unit_names.extend(part.unit_names);
            out.transitions
                .extend(part.transitions.iter().map(|t| Transition { unit: t.unit + base, ..*t }));
            out.stuck.extend(part.stuck);
            use crate::merge::StatMerge;
            out.wait_graph.merge_from(&part.wait_graph);
            out.evicted += part.evicted;
        }
        out.transitions.sort_by_key(|t| (t.cycle, t.unit));
        out
    }

    /// The final window as a Chrome trace-event document: the
    /// timeline's export of the retained transitions (every track under
    /// process 0, named with its cluster prefix) plus an instant event
    /// marking the moment of death. Loads in Perfetto next to the main
    /// trace (same 1 cycle = 1 µs axis).
    #[must_use]
    pub fn sidecar_json(&self) -> Json {
        let units = self.unit_names.iter().map(|name| (0, name.as_str()));
        let mut events = span_events(units, &self.transitions, self.at);
        let death = format!("post-mortem ({})", self.classification.label());
        events.push(mark_event(0, &death, self.at));
        chrome_trace(events, self.evicted)
    }
}

impl std::fmt::Display for PostMortem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "post-mortem @ cycle {}: classification={}",
            self.at,
            self.classification.label()
        )?;
        if !self.blame_cycle.is_empty() {
            writeln!(f, "  blame cycle: {} -> (back to start)", self.blame_cycle.join(" -> "))?;
        }
        for s in &self.stuck {
            write!(f, "  stuck: {} pc={:#010x} mostly {}", s.name, s.pc, s.dominant.label())?;
            if let Some(addr) = s.polls {
                write!(f, " polling {addr:#010x}")?;
            }
            writeln!(f)?;
        }
        let waits: Vec<String> = self
            .wait_graph
            .iter()
            .filter(|&(_, n)| n > 0)
            .map(|(e, n)| format!("{}={}", e.label(), n))
            .collect();
        if !waits.is_empty() {
            writeln!(f, "  wait graph: {}", waits.join(" "))?;
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
    use crate::waitgraph::EdgeClass;

    fn stuck(hart: u32, dominant: StallCause, polls: Option<u32>) -> StuckUnit {
        StuckUnit { name: format!("c0 hart {hart}"), cluster: 0, hart, pc: 0x100, dominant, polls }
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
        let pm = PostMortem::assemble(10, Vec::new(), &[], WaitGraph::new(), Some(&tl));
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
        let pm = PostMortem::assemble(1, Vec::new(), &[], WaitGraph::new(), Some(&tl));
        assert!(pm.transitions.is_empty());
        assert_eq!(pm.evicted, 1);
    }

    #[test]
    fn detect_cycle_finds_two_node_loop() {
        assert_eq!(detect_cycle(&[(0, 1), (1, 0)]), Some(vec![0, 1]));
        assert_eq!(detect_cycle(&[(1, 0), (0, 1)]), Some(vec![0, 1]), "rotation is deterministic");
        assert_eq!(detect_cycle(&[(0, 1), (1, 2)]), None);
        assert_eq!(detect_cycle(&[]), None);
        assert_eq!(detect_cycle(&[(2, 2)]), Some(vec![2]), "self-wait is a cycle");
        assert_eq!(detect_cycle(&[(0, 1), (1, 2), (2, 1)]), Some(vec![1, 2]), "tail then loop");
    }

    #[test]
    fn assemble_classifies_mutual_poll_as_deadlock() {
        let stuck = vec![
            stuck(0, StallCause::Active, Some(0x2000)),
            stuck(1, StallCause::Active, Some(0x2008)),
        ];
        // hart 0 polls the word hart 1 owns and vice versa.
        let sync = [(0x2000u32, 1u32), (0x2008, 0)];
        let pm = PostMortem::assemble(500, stuck, &sync, WaitGraph::new(), None);
        assert_eq!(pm.classification, Classification::Deadlock);
        assert_eq!(pm.blame_cycle, vec!["c0 hart 0".to_owned(), "c0 hart 1".to_owned()]);
        let text = format!("{pm}");
        assert!(text.contains("classification=deadlock"), "{text}");
        assert!(text.contains("blame cycle: c0 hart 0 -> c0 hart 1"), "{text}");
    }

    #[test]
    fn assemble_without_cycle_is_slow() {
        let stuck = vec![stuck(0, StallCause::BarrierWait, None)];
        let pm = PostMortem::assemble(10, stuck, &[], WaitGraph::new(), None);
        assert_eq!(pm.classification, Classification::Slow);
        assert!(pm.blame_cycle.is_empty());
    }

    #[test]
    fn polling_own_word_is_not_a_deadlock_edge() {
        let stuck = vec![stuck(0, StallCause::Active, Some(0x2000))];
        // The hart owns the word it polls (e.g. DMA will set it): no
        // hart-to-hart edge, so no deadlock verdict.
        let pm = PostMortem::assemble(10, stuck, &[(0x2000, 0)], WaitGraph::new(), None);
        assert_eq!(pm.classification, Classification::Slow);
    }

    #[test]
    fn merge_rebases_units_and_prefers_deadlock() {
        let mut tl = Timeline::new(8);
        let u = tl.add_unit(1, "hart 0");
        tl.sample(u, 3, StallCause::Active);
        let slow = PostMortem::assemble(
            7,
            vec![stuck(0, StallCause::Active, None)],
            &[],
            WaitGraph::new(),
            Some(&tl),
        );
        let dead = PostMortem::assemble(
            9,
            vec![
                stuck(0, StallCause::Active, Some(0x10)),
                stuck(1, StallCause::Active, Some(0x18)),
            ],
            &[(0x10, 1), (0x18, 0)],
            WaitGraph::new(),
            None,
        );
        let merged = PostMortem::merge(vec![slow, dead]);
        assert_eq!(merged.at, 9);
        assert_eq!(merged.classification, Classification::Deadlock);
        assert_eq!(merged.blame_cycle.len(), 2);
        assert_eq!(merged.stuck.len(), 3);
        assert_eq!(merged.unit_names, vec!["c1 hart 0".to_owned()]);
        assert_eq!(merged.transitions.len(), 1);
        assert_eq!(merged.transitions[0].unit, 0);
    }

    #[test]
    fn sidecar_emits_spans_and_death_instant() {
        let mut tl = Timeline::new(8);
        let u = tl.add_unit(0, "hart 0");
        tl.sample(u, 2, StallCause::Active);
        tl.sample(u, 6, StallCause::FifoEmpty);
        let mut wg = WaitGraph::new();
        wg.add(EdgeClass::HartLane, 4);
        let pm = PostMortem::assemble(
            10,
            vec![stuck(0, StallCause::FifoEmpty, None)],
            &[],
            wg,
            Some(&tl),
        );
        let doc = pm.sidecar_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("events");
        let spans: Vec<_> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
        assert_eq!(spans.len(), 2, "active [2,6) then fifo_empty [6,10)");
        assert_eq!(spans[0].get("name").and_then(Json::as_str), Some("active"));
        assert_eq!(spans[0].get("dur").and_then(Json::as_int), Some(4));
        assert_eq!(spans[1].get("name").and_then(Json::as_str), Some("fifo_empty"));
        let instants: Vec<_> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("i")).collect();
        assert_eq!(instants.len(), 1);
        assert_eq!(instants[0].get("ts").and_then(Json::as_int), Some(10));
    }
}
