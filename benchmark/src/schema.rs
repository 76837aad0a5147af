//! `BENCHMARK.json`, read back: the one list of workload and metric
//! names, units, directions and bounds. The reporter prints exactly the
//! metrics listed there, in that order, and `--compare` takes directions
//! and bounds from it, so the file cannot disagree with the program.

use issr_trace::Json;

/// The committed contract, embedded at build time.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One listed metric.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Clone, Debug)]
pub struct Schema {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let list = doc.get(key).and_then(Json::as_arr).ok_or(format!("`{key}` is not a list"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or(format!("`{key}`: no `{k}`"))
            };
            let better = match field("better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("`{key}`: better = `{other}`")),
            };
            let bound = m.get("bound").and_then(Json::as_f64);
            Ok(MetricSpec { name: field("name")?, unit: field("unit")?, better, bound })
        })
        .collect()
}

impl Schema {
    /// Parses `text` as a `BENCHMARK.json`.
    ///
    /// # Errors
    /// Returns what is missing or malformed.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("`workloads` is not a list")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
            .collect();
        Ok(Self {
            run_seconds: doc.get("run_seconds").and_then(Json::as_f64).ok_or("no `run_seconds`")?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// The contract this binary was built against.
    ///
    /// # Panics
    /// Panics if the committed file is malformed (a build-time defect).
    #[must_use]
    pub fn committed() -> Self {
        Self::parse(BENCHMARK_JSON).expect("the committed BENCHMARK.json parses")
    }
}
