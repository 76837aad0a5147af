//! `--compare <a.json> <b.json>`: one row per (workload, end-to-end
//! metric) of two result files — both medians over the runs each file
//! holds, the ratio with its base, and a verdict under the bound
//! `BENCHMARK.json` fixes.
//!
//! A host metric whose two run-to-run ranges (min–max over the runs of a
//! file) overlap by more than the bound cannot be told apart from noise
//! and is reported `unresolved`, not `within bound`. A count metric is
//! exact: any difference counts.

use crate::schema::{Better, MetricSpec, Schema};
use issr_trace::Json;

/// What a row concludes about side B against side A.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Better,
    /// B's median is within the bound of A's, either way.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The two run-to-run ranges overlap by more than the bound: the
    /// spread is too wide to call the metric unchanged.
    Unresolved,
    /// One side lacks the metric.
    Missing,
}

impl Verdict {
    /// The label printed in the table.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// Median, min and max of one metric over the runs of one side.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// A `count` metric: deterministic, compared exactly.
    pub exact: bool,
}

/// Judges B against A for a metric that improves `better`-wards and may
/// worsen by `bound` (a share of A's median).
#[must_use]
pub fn judge(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    // Orient so that larger is worse.
    let (a, b) = match better {
        Better::Lower => (a, b),
        Better::Higher => {
            let flip = |s: Side| Side { median: -s.median, min: -s.max, max: -s.min, ..s };
            (flip(a), flip(b))
        }
    };
    // A count repeats exactly, so any difference is a real one.
    let slack = if a.exact && b.exact { 0.0 } else { bound * a.median.abs() };
    let overlap = a.max.min(b.max) - a.min.max(b.min);
    if overlap > slack {
        Verdict::Unresolved
    } else if b.median > a.median + slack {
        Verdict::Worse
    } else if b.median < a.median - slack {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// One row of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: Option<Side>,
    pub b: Option<Side>,
    pub verdict: Verdict,
}

/// The metric's value in every run of `doc` that ran `workload`.
fn side(doc: &Json, workload: &str, metric: &str) -> Option<Side> {
    let entries: Vec<&Json> = doc
        .get("runs")?
        .as_arr()?
        .iter()
        .filter_map(|run| run.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric))
        .collect();
    let values: Vec<f64> =
        entries.iter().filter_map(|m| m.get("value").and_then(Json::as_f64)).collect();
    let over_runs = crate::stats::Summary::of(&values);
    (over_runs.n > 0).then(|| Side {
        median: over_runs.median,
        min: over_runs.min,
        max: over_runs.max,
        exact: entries.iter().all(|m| m.get("kind").and_then(Json::as_str) == Some("count")),
    })
}

fn row(a: &Json, b: &Json, workload: &str, spec: &MetricSpec) -> Row {
    let (sa, sb) = (side(a, workload, &spec.name), side(b, workload, &spec.name));
    let verdict = match (sa, sb) {
        (Some(sa), Some(sb)) => judge(sa, sb, spec.better, spec.bound.unwrap_or(0.0)),
        _ => Verdict::Missing,
    };
    Row {
        workload: workload.to_owned(),
        metric: spec.name.clone(),
        unit: spec.unit.clone(),
        a: sa,
        b: sb,
        verdict,
    }
}

/// Compares two parsed result files under `schema`.
#[must_use]
pub fn compare(schema: &Schema, a: &Json, b: &Json) -> Vec<Row> {
    schema
        .workloads
        .iter()
        .flat_map(|w| schema.end_to_end.iter().map(move |spec| row(a, b, w, spec)))
        .collect()
}

/// The table `--compare` prints: B against A, the ratio's base is A.
#[must_use]
pub fn table(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:16} {:18} {:>16} {:>16} {:>10}  verdict (B against A; ratio = B / A)",
        "workload", "metric", "A median", "B median", "ratio"
    );
    for r in rows {
        let num = |side: Option<Side>| side.map_or("-".to_owned(), |s| format!("{:.6}", s.median));
        let ratio = match (r.a, r.b) {
            (Some(a), Some(b)) => format!("{:.4}", issr_trace::ratio(b.median, a.median)),
            _ => "-".to_owned(),
        };
        let _ = writeln!(
            s,
            "{:16} {:18} {:>16} {:>16} {:>10}  {} ({})",
            r.workload,
            r.metric,
            num(r.a),
            num(r.b),
            ratio,
            r.verdict.label(),
            r.unit
        );
    }
    s
}
