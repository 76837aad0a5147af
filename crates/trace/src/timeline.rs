//! The cause timeline: one bounded recorder of per-unit stall-cause
//! history, and the one Chrome trace-event exporter.
//!
//! A [`Timeline`] observes the simulated machine from *outside* the
//! timing model: a cluster's `enable_tracing` (the only thing that arms
//! one) samples the classifications each tick already latched, once
//! per cycle, so arming one cannot change a simulated bit or cycle —
//! the invariance the property tests pin down.
//! Only cause *changes* cost a ring slot ([`Transition`]), so a wedged
//! steady-state run records almost nothing. The ring keeps the most
//! recent `cap` transitions — the window that matters once a run is
//! dead, and the tail of a long trace — and counts what it evicts.
//! Counter tracks (FIFO occupancy, outstanding DMA words) keep their
//! own ring of value changes under the same cap; instant marks (trap,
//! timeout) are deduplicated on `(pid, name)`.
//!
//! Both consumers read the same ring: the post-mortem of a dead run
//! ([`crate::PostMortem`]) takes its final window from it, and
//! [`Timeline::chrome_events`] turns each unit's window into
//! cause-named residency spans (`fifo_empty`, `port_conflict`, … —
//! `idle` draws nothing) in the Chrome trace-event format (1 cycle =
//! 1 µs, so Perfetto's time axis reads in cycles). Load the document
//! at `ui.perfetto.dev` or `chrome://tracing`.

use std::collections::VecDeque;

use crate::attr::StallCause;
use crate::json::{obj, Json};

/// One recorded state change: at `cycle`, `unit` went `from` → `to`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Transition {
    /// Cycle the new cause was first observed.
    pub cycle: u64,
    /// Index into the owner's unit table (registration order).
    pub unit: usize,
    /// The cause the unit left.
    pub from: StallCause,
    /// The cause the unit entered.
    pub to: StallCause,
}

/// The ring size the kernel harnesses arm when they replay a timed-out
/// cluster or system run for its post-mortem: a generous final window
/// at a few bytes per slot.
pub const DEFAULT_TIMELINE_CAP: usize = 4096;

/// Hard cap on instant marks: they mark exceptional moments, so a run
/// emitting more than this is pathological.
const MARK_CAP: usize = 1024;

/// Keeps the most recent `cap` items and counts the ones it evicts; a
/// zero cap stores nothing and counts everything.
#[derive(Clone, Debug)]
struct Ring<T> {
    buf: VecDeque<T>,
    cap: usize,
    evicted: u64,
}

impl<T> Ring<T> {
    fn new(cap: usize) -> Self {
        Self { buf: VecDeque::new(), cap, evicted: 0 }
    }

    fn push(&mut self, item: T) {
        if self.buf.len() >= self.cap {
            self.evicted += 1;
            self.buf.pop_front();
        }
        if self.cap > 0 {
            self.buf.push_back(item);
        }
    }
}

/// A registered unit (`last` = its cause) or counter (`last` = its
/// value): samples repeating `last` are free.
#[derive(Clone, Debug)]
struct Track<T> {
    /// Process id in the export — the cluster index.
    pid: u32,
    /// Display name ("hart 3", "dma", "hart 0 ft1 fifo", …).
    name: String,
    last: T,
}

/// Bounded per-unit cause history with counter tracks and marks.
#[derive(Clone, Debug)]
pub struct Timeline {
    units: Vec<Track<StallCause>>,
    transitions: Ring<Transition>,
    counters: Vec<Track<Option<u64>>>,
    /// Counter value changes: `(counter, cycle, value)`.
    samples: Ring<(usize, u64, u64)>,
    /// Instant markers: `(pid, name, cycle)`.
    marks: Vec<(u32, String, u64)>,
}

impl Timeline {
    /// Creates a timeline holding the most recent `cap` transitions
    /// (and, separately, the most recent `cap` counter samples).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        Self {
            units: Vec::new(),
            transitions: Ring::new(cap),
            counters: Vec::new(),
            samples: Ring::new(cap),
            marks: Vec::new(),
        }
    }

    /// Registers a unit under process `pid`, initially `Idle`; returns
    /// its index in the unit table.
    pub fn add_unit(&mut self, pid: u32, name: impl Into<String>) -> usize {
        self.units.push(Track { pid, name: name.into(), last: StallCause::Idle });
        self.units.len() - 1
    }

    /// Registers a counter track under process `pid`; returns its index.
    pub fn add_counter(&mut self, pid: u32, name: impl Into<String>) -> usize {
        self.counters.push(Track { pid, name: name.into(), last: None });
        self.counters.len() - 1
    }

    /// Records the unit's cause for cycle `now`; only a change costs a
    /// ring slot.
    #[inline]
    pub fn sample(&mut self, unit: usize, now: u64, cause: StallCause) {
        let u = &mut self.units[unit];
        if u.last != cause {
            self.transitions.push(Transition { cycle: now, unit, from: u.last, to: cause });
            u.last = cause;
        }
    }

    /// Records the counter's value for cycle `now`; only a change costs
    /// a sample.
    pub fn sample_counter(&mut self, counter: usize, now: u64, value: u64) {
        let c = &mut self.counters[counter];
        if c.last != Some(value) {
            c.last = Some(value);
            self.samples.push((counter, now, value));
        }
    }

    /// Records an instant marker at cycle `now` — trap and timeout
    /// moments. Duplicate `(pid, name)` pairs are recorded once (the
    /// *first* occurrence is the forensic one).
    pub fn mark(&mut self, pid: u32, name: impl Into<String>, now: u64) {
        let name = name.into();
        if self.marks.len() < MARK_CAP && !self.marks.iter().any(|m| m.0 == pid && m.1 == name) {
            self.marks.push((pid, name, now));
        }
    }

    /// Unit display names in registration order, prefixed with their
    /// cluster (`"c0 hart 3"`) — the table [`Transition::unit`] indexes.
    #[must_use]
    pub fn unit_names(&self) -> Vec<String> {
        self.units.iter().map(|u| format!("c{} {}", u.pid, u.name)).collect()
    }

    /// The retained window, oldest first.
    #[must_use]
    pub fn transitions(&self) -> Vec<Transition> {
        self.transitions.buf.iter().copied().collect()
    }

    /// Transitions evicted by the ring cap.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.transitions.evicted
    }

    /// Everything held as Chrome trace events, open residencies closed
    /// at cycle `end`: one `thread_name` record per unit (tid = its
    /// index), one cause-named span per non-idle residency (from each
    /// transition to the unit's next one, or to `end`), the counter
    /// samples, the marks.
    #[must_use]
    pub fn chrome_events(&self, end: u64) -> Vec<Json> {
        let mut events: Vec<Json> = self
            .units
            .iter()
            .enumerate()
            .map(|(tid, u)| {
                let args = obj(vec![("name", Json::from(u.name.as_str()))]);
                event("M", "thread_name", u.pid, vec![("tid", Json::from(tid)), ("args", args)])
            })
            .collect();
        let mut span = |unit: usize, (start, cause): (u64, StallCause), until: u64| {
            if cause != StallCause::Idle && until > start {
                let rest = vec![
                    ("ts", Json::from(start)),
                    ("dur", Json::from(until - start)),
                    ("tid", Json::from(unit)),
                ];
                events.push(event("X", cause.label(), self.units[unit].pid, rest));
            }
        };
        let mut open: Vec<Option<(u64, StallCause)>> = vec![None; self.units.len()];
        for t in &self.transitions.buf {
            if let Some(residency) = open[t.unit].replace((t.cycle, t.to)) {
                span(t.unit, residency, t.cycle);
            }
        }
        for (unit, residency) in open.into_iter().enumerate() {
            if let Some(residency) = residency {
                span(unit, residency, end);
            }
        }
        events.extend(self.samples.buf.iter().map(|&(counter, ts, value)| {
            let c = &self.counters[counter];
            let args = obj(vec![("value", Json::from(value))]);
            event("C", &c.name, c.pid, vec![("ts", Json::from(ts)), ("args", args)])
        }));
        events.extend(self.marks.iter().map(|(pid, name, ts)| {
            let rest =
                vec![("ts", Json::from(*ts)), ("tid", Json::from(0u64)), ("s", Json::from("p"))];
            event("i", name, *pid, rest)
        }));
        events
    }
}

/// One trace event: the fields every phase shares, then `rest`.
fn event(ph: &str, name: &str, pid: u32, rest: Vec<(&'static str, Json)>) -> Json {
    let mut fields = vec![
        ("name", Json::from(name)),
        ("ph", Json::from(ph)),
        ("pid", Json::from(u64::from(pid))),
    ];
    fields.extend(rest);
    obj(fields)
}

/// Wraps event lists into the Chrome trace-event document.
#[must_use]
pub fn chrome_trace(events: Vec<Json>, evicted: u64) -> Json {
    obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ns")),
        ("evictedTransitions", Json::from(evicted)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase<'a>(events: &'a [Json], ph: &str) -> Vec<&'a Json> {
        events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph)).collect()
    }

    #[test]
    fn only_cause_changes_are_stored() {
        let mut tl = Timeline::new(16);
        let u = tl.add_unit(0, "hart 0");
        for now in 0..10u64 {
            let busy = (2..5).contains(&now) || now >= 8;
            tl.sample(u, now, if busy { StallCause::Active } else { StallCause::Idle });
        }
        let w = tl.transitions();
        assert_eq!(w.iter().map(|t| t.cycle).collect::<Vec<_>>(), vec![2, 5, 8]);
        assert_eq!((w[0].from, w[0].to), (StallCause::Idle, StallCause::Active));
        assert_eq!(tl.evicted(), 0);
    }

    #[test]
    fn ring_keeps_the_newest_transitions_and_counts_the_rest() {
        let mut tl = Timeline::new(2);
        let u = tl.add_unit(0, "hart 0");
        tl.sample(u, 0, StallCause::Active);
        tl.sample(u, 5, StallCause::FifoEmpty);
        tl.sample(u, 9, StallCause::Active);
        tl.sample(u, 12, StallCause::PortConflict);
        let w = tl.transitions();
        assert_eq!(w.iter().map(|t| t.cycle).collect::<Vec<_>>(), vec![9, 12], "tail kept");
        assert_eq!(tl.evicted(), 2);
    }

    #[test]
    fn zero_cap_counts_without_storing() {
        let mut tl = Timeline::new(0);
        let u = tl.add_unit(0, "x");
        let c = tl.add_counter(0, "v");
        tl.sample(u, 0, StallCause::Active);
        tl.sample_counter(c, 0, 7);
        assert!(tl.transitions().is_empty());
        assert_eq!(tl.evicted(), 1);
        assert!(phase(&tl.chrome_events(1), "C").is_empty());
    }

    #[test]
    fn counters_record_changes_only() {
        let mut tl = Timeline::new(16);
        let c = tl.add_counter(0, "fifo depth");
        for (now, value) in [(0, 0), (1, 0), (2, 3), (3, 3), (4, 1)] {
            tl.sample_counter(c, now, value);
        }
        let events = tl.chrome_events(5);
        let counters = phase(&events, "C");
        assert_eq!(counters.len(), 3);
        assert_eq!(counters[1].get("ts").and_then(Json::as_int), Some(2));
        assert_eq!(
            counters[1].get("args").and_then(|a| a.get("value")).and_then(Json::as_int),
            Some(3)
        );
        // Counters are not units: Perfetto names them from the event.
        assert!(phase(&events, "M").is_empty());
    }

    #[test]
    fn marks_dedup_on_pid_and_name() {
        let mut tl = Timeline::new(8);
        tl.mark(0, "trap hart 3", 42);
        tl.mark(0, "trap hart 3", 99); // duplicate: first occurrence wins
        tl.mark(1, "trap hart 3", 50); // different pid: kept
        tl.mark(0, "timeout", 100);
        let events = tl.chrome_events(100);
        let marks = phase(&events, "i");
        assert_eq!(marks.len(), 3);
        assert_eq!(marks[0].get("ts").and_then(Json::as_int), Some(42));
        assert_eq!(marks[0].get("s").and_then(Json::as_str), Some("p"));
        assert_eq!(events.len(), 3, "marks create neither units nor spans");
    }

    #[test]
    fn export_names_every_unit_and_draws_no_idle_span() {
        let mut tl = Timeline::new(8);
        let a = tl.add_unit(0, "hart 0");
        let _never_sampled = tl.add_unit(1, "dma");
        tl.sample(a, 2, StallCause::Active);
        tl.sample(a, 6, StallCause::FifoEmpty);
        tl.sample(a, 7, StallCause::Idle);
        tl.sample(a, 9, StallCause::Active);
        let doc = chrome_trace(tl.chrome_events(10), tl.evicted());
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("events");
        assert_eq!(phase(events, "M").len(), 2, "one thread_name record per unit");
        let spans: Vec<(&str, i64, i64)> = phase(events, "X")
            .iter()
            .map(|e| {
                (
                    e.get("name").and_then(Json::as_str).unwrap(),
                    e.get("ts").and_then(Json::as_int).unwrap(),
                    e.get("dur").and_then(Json::as_int).unwrap(),
                )
            })
            .collect();
        // Idle [7,9) draws nothing; the open residency closes at `end`.
        assert_eq!(spans, vec![("active", 2, 4), ("fifo_empty", 6, 1), ("active", 9, 1)]);
        assert_eq!(tl.unit_names(), vec!["c0 hart 0".to_owned(), "c1 dma".to_owned()]);
    }
}
