//! `BENCHMARK.json` against the builder's contract, and the program
//! against `BENCHMARK.json`: `--quick` runs of every workload must print
//! every listed metric exactly once with its unit and nothing unlisted.

use issr_benchmark::host::Fingerprint;
use issr_benchmark::report::Report;
use issr_benchmark::runner::{run, Options};
use issr_benchmark::schema::Schema;
use issr_benchmark::{budget_s, workloads};
use issr_trace::Json;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// The runner sets `ISSR_THREADS` for the whole process, so runs must
/// not overlap; `cargo test` runs the tests of one file on parallel
/// threads.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

fn options(workload: &str, trace: bool) -> Options {
    Options {
        workload: workload.to_owned(),
        seed: 7,
        seconds: 1.0,
        trace,
        quick: true,
        corrupt_oracle: false,
        started: Instant::now(),
    }
}

fn name_ok(name: &str) -> bool {
    let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(legal)
}

fn unit_ok(unit: &str) -> bool {
    let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(legal)
}

#[test]
fn benchmark_json_meets_the_contract() {
    let text = include_str!("../../BENCHMARK.json");
    assert!(text.len() <= 64 * 1024);
    let doc = Json::parse(text).expect("parses");
    let Json::Obj(fields) = &doc else { panic!("not an object") };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

    let schema = Schema::parse(text).expect("schema");
    assert_eq!(schema.workloads, workloads::NAMES, "the six workloads, in --all order");
    assert!((1.0..=60.0).contains(&schema.run_seconds) && schema.run_seconds.fract() == 0.0);
    assert!((1..=16).contains(&schema.end_to_end.len()));
    assert!((1..=128).contains(&schema.per_layer.len()));
    for w in doc.get("workloads").and_then(Json::as_arr).expect("workloads") {
        let why = w.get("why").and_then(Json::as_str).expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    let mut seen = HashMap::new();
    for m in
        schema.end_to_end.iter().chain(&schema.per_layer).map(|m| &m.name).chain(&schema.workloads)
    {
        assert!(name_ok(m), "{m}");
        assert!(seen.insert(m.clone(), ()).is_none(), "{m} is used twice");
    }
    for m in schema.end_to_end.iter().chain(&schema.per_layer) {
        assert!(unit_ok(&m.unit), "{}: unit `{}`", m.name, m.unit);
    }
    // Every end-to-end metric has a bound of at most a quarter, none of
    // the per-layer ones has any, and set-up time gets the largest.
    let bounds: Vec<f64> = schema.end_to_end.iter().map(|m| m.bound.expect("bound")).collect();
    assert!(bounds.iter().all(|b| *b > 0.0 && *b <= 0.25));
    assert!(schema.per_layer.iter().all(|m| m.bound.is_none()));
    let setup = schema.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
    assert_eq!((setup.unit.as_str(), setup.better), ("s", issr_benchmark::schema::Better::Lower));
    assert_eq!(setup.bound, bounds.iter().copied().reduce(f64::max));
}

/// The `metric <tier> <name> = <value> <unit> [...]` lines of a report.
fn metric_lines(text: &str) -> Vec<(String, String, f64, String)> {
    text.lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let words: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(words[2], "=", "{l}");
            (
                words[0].to_owned(),
                words[1].to_owned(),
                words[3].parse().unwrap_or_else(|_| panic!("not a number in: {l}")),
                words[4].to_owned(),
            )
        })
        .collect()
}

#[test]
fn every_listed_metric_is_printed_once_and_nothing_else() {
    let _guard = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let schema = Schema::committed();
    let host = Fingerprint::probe();
    let began = Instant::now();
    for name in workloads::NAMES {
        for trace in [false, true] {
            let measured = run(&options(name, trace)).expect("workload exists");
            assert_eq!(measured.failed, 0, "{name}: {:?}", measured.failures);
            assert!(measured.attempted > 0);
            let report = Report::new(&measured);
            let text = report.text(&schema, &host, budget_s(1.0, trace, true)).expect("report");

            let mut expected: Vec<(&str, &str, &str)> = schema
                .end_to_end
                .iter()
                .map(|m| ("end_to_end", m.name.as_str(), m.unit.as_str()))
                .collect();
            if trace {
                expected.extend(
                    schema
                        .per_layer
                        .iter()
                        .map(|m| ("per_layer", m.name.as_str(), m.unit.as_str())),
                );
            }
            let printed = metric_lines(&text);
            let got: Vec<(&str, &str, &str)> =
                printed.iter().map(|(t, n, _, u)| (t.as_str(), n.as_str(), u.as_str())).collect();
            assert_eq!(got, expected, "{name} trace={trace}: listed and printed metrics differ");
            assert!(printed.iter().all(|(_, _, v, _)| v.is_finite()));
            for (tier, metric, value, _) in &printed {
                if tier == "end_to_end" {
                    assert!(*value > 0.0, "{name}: end-to-end metric {metric} is {value}");
                }
            }
            assert!(text.contains("ops_failed_share = 0 (0 failed of"));
            assert!(text.contains("nproc") && text.contains("rustc") && text.contains("seed 7"));

            // The result line: exactly the four keys, and the tier the
            // driver asked for.
            let line = Json::parse(&report.result_line(&schema).expect("line")).expect("json");
            let Json::Obj(fields) = &line else { panic!("not an object") };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            let Some(Json::Obj(metrics)) = line.get("metrics") else { panic!("metrics") };
            let tier = if trace { &schema.per_layer } else { &schema.end_to_end };
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names, tier.iter().map(|m| m.name.as_str()).collect::<Vec<_>>());
            for ((_, v), spec) in metrics.iter().zip(tier) {
                assert_eq!(v.get("unit").and_then(Json::as_str), Some(spec.unit.as_str()));
                assert!(v.get("value").and_then(Json::as_f64).is_some());
            }
        }
    }
    // Debug builds are the slow case; release takes about a second.
    let limit = if cfg!(debug_assertions) { 120.0 } else { 10.0 };
    assert!(began.elapsed().as_secs_f64() < limit, "--quick took {:?}", began.elapsed());
}

#[test]
fn a_wrong_oracle_is_a_failed_case_not_a_panic() {
    let _guard = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let schema = Schema::committed();
    for name in workloads::NAMES {
        let measured =
            run(&Options { corrupt_oracle: true, ..options(name, false) }).expect("exists");
        // The first case fails in the warm-up pass and in the timed one
        // (and takes along the anchors and identities derived from it).
        assert!(measured.failed >= 2, "{name}: {:?}", measured.failures);
        assert!(measured.failures[0].contains("does not match the host oracle"));
        let report = Report::new(&measured);
        assert!(!report.correct());
        let text = report.text(&schema, &Fingerprint::probe(), 10.0).expect("report");
        let share = measured.failed as f64 / measured.attempted as f64;
        assert!(share > 0.0 && text.contains(&format!("ops_failed_share = {share}")));
        let line = Json::parse(&report.result_line(&schema).expect("line")).expect("json");
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed").and_then(Json::as_int), Some(measured.failed as i64));
    }
}

#[test]
fn same_seed_same_outputs_other_seed_other_outputs_same_cycles() {
    let _guard = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let hashes = |seed: u64| {
        let m = run(&Options { seed, ..options("cc_stream", false) }).expect("exists");
        let hashes: Vec<u64> = m.first.iter().map(|o| o.expect("completed").out_hash).collect();
        let cycles: Vec<u64> = m.first.iter().map(|o| o.expect("completed").cycles).collect();
        (hashes, cycles)
    };
    let (a, cycles_a) = hashes(1);
    let (again, _) = hashes(1);
    let (b, cycles_b) = hashes(2);
    assert_eq!(a, again, "the same seed gives the same inputs, hence the same output bits");
    assert_ne!(a, b, "another seed gives other values");
    assert_eq!(cycles_a, cycles_b, "simulated time depends on the structure, not on a value");
}

#[test]
fn the_binary_prints_the_result_line_last_and_rejects_unknown_workloads() {
    let _guard = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let exe = env!("CARGO_BIN_EXE_issr-benchmark");
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            "tiny_runs",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--quick",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = Json::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(last.get("failed").and_then(Json::as_int), Some(0));

    let out = std::process::Command::new(exe)
        .args(["--workload", "no_such_workload", "--seed", "3"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result on a failed run");
}
