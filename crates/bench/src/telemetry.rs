//! Machine-readable bench telemetry (`BENCH_*.json`).
//!
//! Every bench binary accepts `--json <path>` and, when given, writes
//! its headline numbers — cycles, speedups, contention, overlap and
//! stall-cause attribution breakdowns — through this module. The files
//! share one envelope:
//!
//! ```json
//! {
//!   "schema_version": 3,
//!   "bench": "system",
//!   "mode": "smoke",
//!   "results": {
//!     "<section>": ...
//!   }
//! }
//! ```
//!
//! The envelope is a pure function of the deterministic model: nothing
//! in it describes the host, and it is written indented through
//! [`Json::pretty`] (insertion-ordered objects, one key or array
//! element per line), so re-running a binary on unchanged code produces
//! a byte-identical file. That makes git the checker:
//! `crates/bench/tests/baselines.rs` compares the [`Telemetry::render`]
//! of `paper`, `ablation` and the `joiner` and `spgemm` smokes with
//! their committed bytes inside `cargo test`, and CI rewrites the
//! `system` smoke envelope in place and gates on
//! `git diff --exit-code -- baselines/`, where a drifted counter is one
//! changed line. What a byte comparison cannot
//! see — whether the attribution tables still add up — [`Telemetry::write`]
//! checks before it writes anything.

use std::path::{Path, PathBuf};

use issr_cluster::cluster::ClusterSummary;
use issr_snitch::attr::CcAttribution;
use issr_system::system::SystemSummary;
use issr_trace::json::obj;
use issr_trace::{Json, StallCause};

/// Version stamp of the envelope; bump on breaking schema changes.
/// v3 dropped `tolerances` and `host`: the envelope carries model
/// output only.
pub const SCHEMA_VERSION: i64 = 3;

/// One bench's output in both forms: the markdown its bin prints and
/// the envelope `--json` writes (and `baselines/` commits).
pub struct BenchOutput {
    /// The tables and verdict lines, as printed.
    pub markdown: String,
    /// The envelope.
    pub telemetry: Telemetry,
}

impl BenchOutput {
    /// Prints the markdown and, given `--json <path>`, writes the
    /// envelope there.
    ///
    /// # Panics
    /// Panics if the envelope cannot be written.
    pub fn emit(&self) {
        print!("{}", self.markdown);
        if let Some(path) = json_arg() {
            self.telemetry.write(&path).expect("write BENCH json");
            println!("wrote {}", path.display());
        }
    }
}

/// Accumulates one binary's result sections into the shared envelope.
#[derive(Clone, Debug)]
pub struct Telemetry {
    bench: String,
    mode: String,
    results: Vec<(String, Json)>,
}

impl Telemetry {
    /// Starts an envelope for bench `bench` running in `mode`
    /// (`"smoke"`, `"full"`, `"suite"`, …).
    #[must_use]
    pub fn new(bench: &str, mode: &str) -> Self {
        Self { bench: bench.to_owned(), mode: mode.to_owned(), results: Vec::new() }
    }

    /// Appends one named result section.
    pub fn push(&mut self, key: &str, value: Json) {
        self.results.push((key.to_owned(), value));
    }

    /// The complete envelope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("schema_version", Json::Int(SCHEMA_VERSION)),
            ("bench", Json::from(self.bench.as_str())),
            ("mode", Json::from(self.mode.as_str())),
            ("results", Json::Obj(self.results.clone())),
        ])
    }

    /// The envelope as [`Self::write`] writes it: indented, with a
    /// trailing newline.
    ///
    /// # Errors
    /// Returns `InvalidData` if any stall-cause table or critical path
    /// in the envelope no longer sums to the cycle count it covers, or a
    /// verdict's critical path is longer than the run it classifies.
    pub fn render(&self) -> std::io::Result<String> {
        let doc = self.to_json();
        let mut errors = Vec::new();
        check_attribution(&doc, "", &mut errors);
        if !errors.is_empty() {
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, errors.join("; ")));
        }
        Ok(doc.pretty() + "\n")
    }

    /// Writes [`Self::render`] to `path`.
    ///
    /// # Errors
    /// Returns `render`'s `InvalidData` before touching `path`;
    /// otherwise propagates the underlying I/O error.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.render()?)
    }
}

/// The sum of a stall-cause breakdown object, or `None` if `v` is not
/// one (a breakdown carries exactly the cause labels).
fn breakdown_total(v: &Json) -> Option<i64> {
    let Json::Obj(fields) = v else { return None };
    if fields.len() != StallCause::COUNT {
        return None;
    }
    StallCause::ALL.iter().map(|cause| v.get(cause.label())?.as_int()).sum()
}

/// Walks `v` collecting every broken attribution invariant — the sums a
/// byte comparison against the baseline cannot vouch for:
/// an object with `roi_cycles` + `units` has every unit breakdown
/// summing to `roi_cycles`; an object with `elapsed` + `dma` has the
/// DMA breakdown summing to `elapsed`; an object with `length` +
/// `edges` (a critical path) partitions exactly into `compute`, `idle`
/// and the edges; an object with `elapsed` holding a `critical_path`
/// (a verdict) has `critical_path.length <= elapsed` — a path is never
/// longer than the run it explains.
fn check_attribution(v: &Json, path: &str, errors: &mut Vec<String>) {
    let int = |key: &str| v.get(key).and_then(Json::as_int);
    let mut check_sum =
        |what: String, table: &Json, cycles: i64, of: &str| match breakdown_total(table) {
            Some(total) if total == cycles => {}
            Some(total) => {
                errors.push(format!("{what}: breakdown sums to {total}, {of} is {cycles}"))
            }
            None => errors.push(format!("{what}: not a stall-cause breakdown")),
        };
    if let (Some(roi), Some(Json::Obj(units))) = (int("roi_cycles"), v.get("units")) {
        for (name, unit) in units {
            check_sum(format!("{path}/units/{name}"), unit, roi, "roi_cycles");
        }
    }
    if let (Some(elapsed), Some(dma)) = (int("elapsed"), v.get("dma")) {
        check_sum(format!("{path}/dma"), dma, elapsed, "elapsed");
    }
    if let (Some(length), Some(Json::Obj(edges))) = (int("length"), v.get("edges")) {
        let parts: Option<i64> = [int("compute"), int("idle")]
            .into_iter()
            .chain(edges.iter().map(|(_, n)| n.as_int()))
            .sum();
        if parts != Some(length) {
            errors.push(format!(
                "{path}: critical path does not partition: compute + idle + edges = {parts:?} \
                 != length {length}"
            ));
        }
    }
    let path_length = v.get("critical_path").and_then(|p| p.get("length")?.as_int());
    if let (Some(length), Some(elapsed)) = (path_length, int("elapsed")) {
        if length > elapsed {
            errors.push(format!(
                "{path}/critical_path: length {length} exceeds the run's {elapsed} elapsed cycles"
            ));
        }
    }
    match v {
        Json::Obj(fields) => {
            for (k, child) in fields {
                check_attribution(child, &format!("{path}/{k}"), errors);
            }
        }
        Json::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                check_attribution(child, &format!("{path}/{i}"), errors);
            }
        }
        _ => {}
    }
}

/// Writes any JSON document to `path`, compact, with a trailing
/// newline (the Chrome trace: megabytes nobody diffs).
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

    /// `doc` with the integer at `keys` moved by `by`.
    fn nudge(doc: &Json, keys: &[&str], by: i64) -> Json {
        let Json::Obj(mut fields) = doc.clone() else { panic!("an object") };
        let (key, rest) = keys.split_first().expect("a key");
        let field = fields.iter_mut().find(|(k, _)| k == key).expect("key present");
        field.1 = match rest {
            [] => Json::Int(field.1.as_int().expect("an integer") + by),
            _ => nudge(&field.1, rest, by),
        };
        Json::Obj(fields)
    }

    /// A real attribution section, a DMA table and a verdict whose path
    /// all add up — and the same envelope with one counter of each
    /// nudged by a cycle, which `write` must refuse: a table that no
    /// longer sums, a path whose `idle` breaks its partition, and a
    /// path longer than the run its verdict classifies.
    #[test]
    fn write_rejects_tables_that_no_longer_sum() {
        let mut attr = CcAttribution::with_lanes(2);
        let mut dma = issr_trace::CycleBreakdown::new();
        for i in 0..5 {
            attr.hart.record(if i < 3 { StallCause::Active } else { StallCause::Parked });
            attr.lanes[0].record(StallCause::FifoEmpty);
            attr.lanes[1].record(StallCause::Idle);
            dma.record(StallCause::Idle);
        }
        let verdict = issr_trace::classify(&issr_trace::RooflineInput {
            elapsed: 5,
            flops: 3,
            peak_flops_per_cycle: 1.0,
            words_moved: 0,
            words_per_cycle: 1.0,
            path: attr.critical_path(),
        })
        .to_json();
        let cluster = obj(vec![("elapsed", Json::Int(5)), ("dma", dma.to_json())]);
        let cases: [(&str, Json, &[&str], i64, &str); 4] = [
            ("attribution", cc_attr_json(&attr), &["roi_cycles"], 1, "sums to"),
            ("cluster", cluster, &["elapsed"], 1, "sums to"),
            ("verdict", verdict.clone(), &["critical_path", "idle"], 1, "does not partition"),
            ("verdict", verdict, &["elapsed"], -1, "exceeds"),
        ];
        let dir = std::env::temp_dir();
        let path = dir.join(format!("issr_telemetry_sums_{}.json", std::process::id()));
        for (name, section, keys, by, why) in &cases {
            let mut t = Telemetry::new("x", "smoke");
            t.push(name, section.clone());
            t.write(&path).expect("a consistent envelope is written");
            let mut tampered = Telemetry::new("x", "smoke");
            tampered.push(name, nudge(section, keys, *by));
            let err = tampered.write(&path).expect_err("tampered envelope is rejected");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}: {err}");
            assert!(err.to_string().contains(name) && err.to_string().contains(why), "{err}");
        }
        let written = std::fs::read_to_string(&path).expect("last good envelope");
        std::fs::remove_file(&path).expect("clean up");
        assert_eq!(Json::parse(&written).expect("parse").get("bench"), Some(&Json::from("x")));
        assert!(
            written.ends_with("}\n") && written.lines().count() > 10,
            "indented, one key a line"
        );
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
