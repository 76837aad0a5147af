//! The benchmark's own span recorder: `workload > pass > case > stage`.
//!
//! Spans are recorded from the benchmark's files only, around the public
//! calls into each layer; spans inside the simulator are a later issue.
//! They stay in memory and are written once, when the benchmark ends.

use issr_trace::json::obj;
use issr_trace::Json;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name (`plan`, `run`, a case name, …).
    pub name: String,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
    /// Index of the case span this span belongs to (itself for a case
    /// span), `None` above case level — the identifier the spans of
    /// one case share.
    pub case: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall time between start and end.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder; its clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. `is_case` starts a new
    /// case identifier; other spans inherit their parent's.
    pub fn open(&mut self, name: &str, is_case: bool) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let case = if is_case { Some(id) } else { parent.and_then(|p| self.spans[p].case) };
        let start_ns = self.now_ns();
        self.spans.push(Span { name: name.to_owned(), parent, case, start_ns, end_ns: 0 });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let now = self.now_ns();
        if let Some(id) = self.open.pop() {
            self.spans[id].end_ns = now;
        }
    }

    /// Number of spans currently open.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes spans until only `depth` stay open — how the runner
    /// recovers the stack after a case panicked mid-stage.
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.close();
        }
    }

    /// Records an already measured interval as a closed child of the
    /// innermost open span (a stage timed with its own `Instant`).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        let id = self.open(name, false);
        self.open.pop();
        self.spans[id].start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans[id].end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
    }

    /// All spans, in opening order.
    #[must_use]
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Sum of the durations of all spans called `name`.
    #[must_use]
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum()
    }

    /// Sum of the durations of the spans called `stage` inside cases
    /// whose name starts with `case_prefix`.
    #[must_use]
    pub fn total_ns_under(&self, stage: &str, case_prefix: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == stage)
            .filter(|s| s.case.is_some_and(|c| self.spans[c].name.starts_with(case_prefix)))
            .map(Span::duration_ns)
            .sum()
    }

    /// The spans as a JSON document (`benchmark/out/<workload>.spans.json`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let self_ns = self.self_times_ns();
        let spans = self
            .spans
            .iter()
            .zip(&self_ns)
            .enumerate()
            .map(|(id, (s, &own))| {
                obj(vec![
                    ("id", Json::from(id)),
                    ("name", Json::from(s.name.as_str())),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("case", s.case.map_or(Json::Null, Json::from)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("self_ns", Json::from(own)),
                ])
            })
            .collect();
        obj(vec![("spans", Json::Arr(spans))])
    }
}

/// Self time of every span in `spans`: duration minus the summed
/// durations of its direct children. Children of one parent never
/// overlap here (the recorder is a single-threaded stack), so the sum is
/// the covered part of the interval.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}
