//! Machine-readable bench telemetry (`BENCH_*.json`).
//!
//! Every bench binary accepts `--json <path>` and, when given, writes
//! its headline numbers — cycles, speedups, contention, overlap and
//! stall-cause attribution breakdowns — through this module. The files
//! share one envelope so the CI checker (`--bin bench_check`) can
//! validate any of them against a committed baseline:
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "bench": "system",
//!   "mode": "smoke",
//!   "tolerances": { "cycles": 0.25, ... },
//!   "host": { "sim_cycles": ..., "classes": { ... } },
//!   "results": { "<section>": ... }
//! }
//! ```
//!
//! `tolerances` carries the per-metric relative drift the checker
//! accepts when this file serves as a baseline. `host` is the
//! [`issr_trace::host`] self-profiler section (wall-clock per unit
//! class, idle-tick census, simulated-cycles/sec); it describes the
//! host machine, not the modeled one, so the checker ignores it.
//!
//! Everything is emitted through [`issr_trace::Json`] (insertion-ordered
//! objects), so re-running a binary on unchanged code produces a
//! byte-identical file — the baselines diff cleanly.

use std::path::{Path, PathBuf};

use issr_cluster::cluster::ClusterSummary;
use issr_snitch::attr::CcAttribution;
use issr_system::system::SystemSummary;
use issr_trace::json::obj;
use issr_trace::Json;

/// Version stamp of the envelope; bump on breaking schema changes.
/// v2 added `tolerances` and `host` alongside `results`.
pub const SCHEMA_VERSION: i64 = 2;

/// Default per-metric baseline tolerances. Cluster/system cycle counts
/// wander with matrix reseeds and scheduling changes, so they get the
/// historical 25%; single-CC runs are deterministic per matrix and sit
/// tighter. The checker falls back to its `--tolerance` flag for any
/// metric not listed in a baseline.
pub const DEFAULT_TOLERANCES: [(&str, f64); 9] = [
    ("cycles", 0.25),
    ("elapsed", 0.25),
    ("base16", 0.20),
    ("issr16", 0.20),
    ("issr16_single", 0.20),
    ("base32", 0.20),
    ("issr32", 0.20),
    ("base_cycles", 0.25),
    ("issr_cycles", 0.25),
];

/// Accumulates one binary's result sections into the shared envelope.
#[derive(Clone, Debug)]
pub struct Telemetry {
    bench: String,
    mode: String,
    tolerances: Vec<(String, f64)>,
    host: Option<Json>,
    results: Vec<(String, Json)>,
}

impl Telemetry {
    /// Starts an envelope for bench `bench` running in `mode`
    /// (`"smoke"`, `"full"`, `"suite"`, …) carrying the
    /// [`DEFAULT_TOLERANCES`].
    #[must_use]
    pub fn new(bench: &str, mode: &str) -> Self {
        Self {
            bench: bench.to_owned(),
            mode: mode.to_owned(),
            tolerances: DEFAULT_TOLERANCES.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
            host: None,
            results: Vec::new(),
        }
    }

    /// Appends one named result section.
    pub fn push(&mut self, key: &str, value: Json) {
        self.results.push((key.to_owned(), value));
    }

    /// Overrides (or adds) the baseline tolerance for one metric.
    pub fn set_tolerance(&mut self, metric: &str, tolerance: f64) {
        match self.tolerances.iter_mut().find(|(k, _)| k == metric) {
            Some((_, t)) => *t = tolerance,
            None => self.tolerances.push((metric.to_owned(), tolerance)),
        }
    }

    /// Attaches the host self-profiler section (usually
    /// `issr_trace::host::report()` at the end of `main`).
    pub fn set_host(&mut self, host: Option<Json>) {
        self.host = host;
    }

    /// The complete envelope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema_version", Json::Int(SCHEMA_VERSION)),
            ("bench", Json::from(self.bench.as_str())),
            ("mode", Json::from(self.mode.as_str())),
            (
                "tolerances",
                Json::Obj(
                    self.tolerances.iter().map(|(k, v)| (k.clone(), Json::Float(*v))).collect(),
                ),
            ),
        ];
        if let Some(host) = &self.host {
            fields.push(("host", host.clone()));
        }
        fields.push(("results", Json::Obj(self.results.clone())));
        obj(fields)
    }

    /// Writes the envelope to `path` (with a trailing newline).
    ///
    /// # Errors
    /// Propagates the underlying I/O error.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        write_json(path, &self.to_json())
    }
}

/// Writes any JSON document to `path` (with a trailing newline).
///
/// # Errors
/// Propagates the underlying I/O error.
pub fn write_json(path: &Path, doc: &Json) -> std::io::Result<()> {
    std::fs::write(path, doc.to_string() + "\n")
}

/// The `--json <path>` argument of the bench binaries, if present.
///
/// # Panics
/// Panics if `--json` is the final argument (no path follows).
#[must_use]
pub fn json_arg() -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--json" {
            let path = args.next().expect("--json requires a path argument");
            return Some(PathBuf::from(path));
        }
    }
    None
}

/// Derives the Chrome-trace path from a `--json` path:
/// `BENCH_system.json` → `BENCH_system.trace.json`.
#[must_use]
pub fn trace_path(json_path: &Path) -> PathBuf {
    json_path.with_extension("trace.json")
}

/// One core complex's attribution as JSON: the ROI cycle count every
/// table sums to, plus one breakdown per unit (hart always; stream
/// lanes always; joiner/SpAcc only when they saw traffic).
#[must_use]
pub fn cc_attr_json(attr: &CcAttribution) -> Json {
    let mut fields = vec![("roi_cycles", Json::from(attr.roi_cycles()))];
    let units: Vec<(String, Json)> =
        attr.rows("").into_iter().map(|(name, b)| (name, b.to_json())).collect();
    fields.push(("units", Json::Obj(units)));
    obj(fields)
}

/// One cluster's attribution as JSON. `elapsed` is the cluster's total
/// cycle count; the DMA engine's breakdown sums to it (the engine is
/// classified once per cluster cycle). Each hart object's tables sum to
/// that hart's own `roi_cycles`.
#[must_use]
pub fn cluster_attr_json(c: &ClusterSummary) -> Json {
    let harts: Vec<Json> = c.attr.workers.iter().map(cc_attr_json).collect();
    obj(vec![
        ("elapsed", Json::from(c.cycles)),
        ("dma", c.attr.dma.to_json()),
        ("harts", Json::Arr(harts)),
        ("dmcc", cc_attr_json(&c.attr.dmcc)),
    ])
}

/// A system run's attribution section: headline counters plus the
/// per-cluster breakdown objects.
#[must_use]
pub fn system_attr_json(s: &SystemSummary) -> Json {
    obj(vec![
        ("cycles", Json::from(s.cycles)),
        ("overlap_cycles", Json::from(s.overlap_cycles)),
        ("contention", Json::Float(s.contention_ratio())),
        ("dma_stalls", Json::from(s.total_dma_stalls())),
        ("clusters", Json::Arr(s.clusters.iter().map(cluster_attr_json).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_has_the_fixed_keys() {
        let mut t = Telemetry::new("system", "smoke");
        t.push("rows", Json::Arr(vec![Json::Int(1)]));
        let doc = t.to_json();
        assert_eq!(doc.get("schema_version").and_then(Json::as_int), Some(SCHEMA_VERSION));
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("system"));
        assert_eq!(doc.get("mode").and_then(Json::as_str), Some("smoke"));
        let rows = doc.get("results").and_then(|r| r.get("rows")).and_then(Json::as_arr);
        assert_eq!(rows.map(<[Json]>::len), Some(1));
        // Round-trips through the writer/parser.
        assert_eq!(Json::parse(&doc.to_string()).expect("parse"), doc);
    }

    #[test]
    fn envelope_carries_tolerances_and_host() {
        let mut t = Telemetry::new("system", "smoke");
        t.set_tolerance("cycles", 0.1);
        t.set_tolerance("speedup", 0.05);
        t.set_host(Some(obj(vec![("sim_cycles", Json::Int(7))])));
        let doc = t.to_json();
        let tol = doc.get("tolerances").expect("tolerances object");
        assert_eq!(tol.get("cycles").and_then(Json::as_f64), Some(0.1));
        assert_eq!(tol.get("speedup").and_then(Json::as_f64), Some(0.05));
        assert_eq!(tol.get("elapsed").and_then(Json::as_f64), Some(0.25));
        let host = doc.get("host").expect("host section");
        assert_eq!(host.get("sim_cycles").and_then(Json::as_int), Some(7));
        // Without a host section the key is simply absent.
        let bare = Telemetry::new("x", "smoke").to_json();
        assert!(bare.get("host").is_none());
        assert!(bare.get("tolerances").is_some());
    }

    #[test]
    fn cc_attr_json_sums_match_roi_cycles() {
        use issr_trace::StallCause;
        let mut attr = CcAttribution::with_lanes(2);
        for _ in 0..5 {
            attr.hart.record(StallCause::Active);
            attr.lanes[0].record(StallCause::FifoEmpty);
            attr.lanes[1].record(StallCause::Idle);
        }
        let doc = cc_attr_json(&attr);
        assert_eq!(doc.get("roi_cycles").and_then(Json::as_int), Some(5));
        let units = doc.get("units").expect("units object");
        let hart = units.get("hart").expect("hart breakdown");
        let total: i64 = StallCause::ALL
            .iter()
            .map(|c| hart.get(c.label()).and_then(Json::as_int).unwrap_or(0))
            .sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn trace_path_replaces_extension() {
        assert_eq!(
            trace_path(Path::new("out/BENCH_system.json")),
            PathBuf::from("out/BENCH_system.trace.json")
        );
    }
}
