//! # issr-benchmark
//!
//! The repo's benchmark: six workloads that time the simulator (host
//! time) and gate the modelled machine (simulated time), with a traced
//! per-layer pass. `README.md` says why each workload exists and defines
//! every metric; `../BENCHMARK.json` is the contract the driver checks.
//!
//! The package pins the surface it compiles against in three tiers:
//!
//! 1. [`case`], [`counts`], [`workloads`] — every end-to-end number uses
//!    only the `run_*` entry points of `issr-kernels`, the summary
//!    accessors, `issr_sparse::{gen, suite, reference}` and `PowerModel`;
//! 2. [`traced`] — the staged copies of three `run_*` functions and the
//!    ambient host profiler (`issr_trace::host::{install, uninstall}`);
//! 3. [`fixtures`] — single layers ticked alone through their `tick`.
//!
//! A later issue that removes an API of tier 2 or 3 drops a probe there
//! and changes nothing about how an end-to-end number is produced.

#![forbid(unsafe_code)]

pub mod case;
pub mod compare;
pub mod counts;
pub mod fixtures;
pub mod host;
pub mod inputs;
pub mod report;
pub mod runner;
pub mod schema;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workloads;

/// The seed `--seed` defaults to.
pub const DEFAULT_SEED: u64 = 20_211_101;

/// Wall-time budget of one run in seconds: the timed passes, three
/// set-ups, and under `--trace` the traced pass, the staged cases, the
/// overhead probes and the fixtures. `--all` fails when the six runs
/// together exceed six of these.
#[must_use]
pub fn budget_s(seconds: f64, trace: bool, quick: bool) -> f64 {
    match (quick, trace) {
        (true, _) => 10.0,
        (false, false) => seconds + 15.0,
        (false, true) => seconds + 30.0,
    }
}
