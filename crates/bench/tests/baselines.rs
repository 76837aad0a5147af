//! The committed paper scoreboard, ablations and the joiner, SpGEMM and
//! system smokes are the model's output.
//!
//! Each test builds one document in process, through the function its
//! bin calls, renders it as `Telemetry::write` would, and compares the
//! bytes with the file under `baselines/`. A model change that moves a
//! modelled cycle therefore fails `cargo test`, not only the CI step
//! that rewrites the files. The failure names the first differing JSON
//! path with both values and, for the scoreboard, every anchor whose
//! reproduced value moved. To accept a deliberate change, regenerate
//! the file with the command the message prints and commit it.

use issr_bench::telemetry::Telemetry;
use issr_trace::Json;
use sha2::{Digest, Sha256};

/// The first place `a` and `b` differ, as `(path, a's value, b's
/// value)`; a missing key or element reads `(absent)`.
fn first_difference(a: &Json, b: &Json, path: &str) -> Option<(String, String, String)> {
    let absent = || "(absent)".to_owned();
    match (a, b) {
        (Json::Obj(fa), Json::Obj(fb)) => {
            for (k, va) in fa {
                let at = format!("{path}/{k}");
                match b.get(k) {
                    Some(vb) => {
                        if let Some(d) = first_difference(va, vb, &at) {
                            return Some(d);
                        }
                    }
                    None => return Some((at, va.to_string(), absent())),
                }
            }
            let extra = fb.iter().find(|(k, _)| a.get(k).is_none())?;
            Some((format!("{path}/{}", extra.0), absent(), extra.1.to_string()))
        }
        (Json::Arr(ea), Json::Arr(eb)) => {
            for i in 0..ea.len().max(eb.len()) {
                let at = format!("{path}/{i}");
                match (ea.get(i), eb.get(i)) {
                    (Some(va), Some(vb)) => {
                        if let Some(d) = first_difference(va, vb, &at) {
                            return Some(d);
                        }
                    }
                    (va, vb) => {
                        let show = |v: Option<&Json>| v.map_or_else(absent, Json::to_string);
                        return Some((at, show(va), show(vb)));
                    }
                }
            }
            None
        }
        _ => (a != b).then(|| (path.to_owned(), a.to_string(), b.to_string())),
    }
}

/// One line per scoreboard anchor whose `reproduced` value differs
/// between the committed and the built board: id, paper value,
/// committed value, new value.
fn moved_anchors(committed: &Json, built: &Json) -> Vec<String> {
    fn rows(doc: &Json) -> &[Json] {
        doc.get("results").and_then(|r| r.get("scoreboard")).and_then(Json::as_arr).unwrap_or(&[])
    }
    let field = |row: &Json, key: &str| row.get(key).map_or_else(String::new, Json::to_string);
    rows(built)
        .iter()
        .filter_map(|new| {
            let id = new.get("id")?.as_str()?;
            let old =
                rows(committed).iter().find(|row| row.get("id").and_then(Json::as_str) == Some(id));
            let before = old.map_or_else(|| "(absent)".to_owned(), |row| field(row, "reproduced"));
            let after = field(new, "reproduced");
            (before != after).then(|| {
                format!("  {id}: paper {}, committed {before}, now {after}", field(new, "paper"))
            })
        })
        .collect()
}

/// Fails unless `built` renders to the bytes of
/// `baselines/BENCH_{bench}.json`; `args` regenerate it.
fn assert_matches_baseline(bench: &str, args: &str, built: &Telemetry) {
    let path = format!("{}/../../baselines/BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).expect("committed baseline");
    let built = built.render().expect("the attribution tables add up");
    if built == committed {
        return;
    }
    let mut report = format!("{path} no longer matches the model\n");
    match (Json::parse(&committed), Json::parse(&built)) {
        (Ok(old), Ok(new)) => {
            match first_difference(&old, &new, "") {
                Some((at, before, after)) => report.push_str(&format!(
                    "first difference at {at}: committed {before}, now {after}\n"
                )),
                None => report.push_str("same document, different bytes\n"),
            }
            let moved = moved_anchors(&old, &new);
            if !moved.is_empty() {
                report.push_str(&format!("moved anchors:\n{}\n", moved.join("\n")));
            }
        }
        (Err(e), _) => report.push_str(&format!("the committed file does not parse: {e}\n")),
        (_, Err(e)) => report.push_str(&format!("the built document does not parse: {e}\n")),
    }
    panic!(
        "{report}to accept the change: cargo run --release -p issr-bench --bin {bench} -- \
         {args}--json baselines/BENCH_{bench}.json"
    );
}

/// The board matches its baseline, and the README's copy of its table
/// (the table under the "Paper scoreboard" heading) matches the board.
#[test]
fn paper_scoreboard_matches_its_baseline() {
    let board = issr_bench::paper::scoreboard();
    assert_matches_baseline("paper", "", &board.telemetry());
    let path = format!("{}/../../README.md", env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(&path).expect("README");
    let copy: Vec<&str> = readme
        .lines()
        .skip_while(|l| *l != "### Paper scoreboard")
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .collect();
    let table = board.anchors.markdown();
    let built: Vec<&str> = table.lines().collect();
    if let Some(i) = (0..copy.len().max(built.len())).find(|&i| copy.get(i) != built.get(i)) {
        panic!(
            "{path}: the scoreboard table differs from the board at table line {}\n\
             README: {}\nboard:  {}\nreplace the table with the first table of \
             `cargo run --release -p issr-bench --bin paper`",
            i + 1,
            copy.get(i).unwrap_or(&"(absent)"),
            built.get(i).unwrap_or(&"(absent)"),
        );
    }
}

#[test]
fn ablation_matches_its_baseline() {
    assert_matches_baseline("ablation", "", &issr_bench::ablation::ablation().telemetry);
}

#[test]
fn joiner_smoke_matches_its_baseline() {
    assert_matches_baseline("joiner", "--smoke ", &issr_bench::joiner::joiner(true).telemetry);
}

#[test]
fn spgemm_smoke_matches_its_baseline() {
    assert_matches_baseline("spgemm", "--smoke ", &issr_bench::spgemm::spgemm(true).telemetry);
}

/// The system smoke's envelope, and the digest of its Chrome trace as
/// `telemetry::write_json` writes it.
#[test]
fn system_smoke_matches_its_baseline() {
    let system = issr_bench::system::system(true);
    assert_matches_baseline("system", "--smoke ", &system.output.telemetry);
    let path = format!("{}/../../baselines/BENCH_system.trace.sha256", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).expect("committed trace digest");
    let mut hasher = Sha256::new();
    hasher.update(system.trace.to_string() + "\n");
    let built: String = hasher.finalize().iter().map(|b| format!("{b:02x}")).collect();
    assert!(
        committed.trim() == built,
        "{path} no longer matches the model's trace: committed {}, now {built}\nto accept the \
         change: cargo run --release -p issr-bench --bin system -- --smoke --json \
         baselines/BENCH_system.json && sha256sum baselines/BENCH_system.trace.json | cut -d' ' \
         -f1 > baselines/BENCH_system.trace.sha256",
        committed.trim()
    );
}

/// The failure report names where two documents part and which anchors
/// moved.
#[test]
fn a_difference_is_reported_by_path_and_anchor() {
    let doc = |reproduced: f64, extra: bool| {
        let mut row = vec![
            ("id".to_owned(), Json::from("fig4a.base_util")),
            ("paper".to_owned(), Json::Float(0.5)),
            ("reproduced".to_owned(), Json::Float(reproduced)),
        ];
        if extra {
            row.push(("bound".to_owned(), Json::Null));
        }
        Json::Obj(vec![(
            "results".to_owned(),
            Json::Obj(vec![("scoreboard".to_owned(), Json::Arr(vec![Json::Obj(row)]))]),
        )])
    };
    assert_eq!(first_difference(&doc(0.25, false), &doc(0.25, false), ""), None);
    assert_eq!(
        first_difference(&doc(0.25, false), &doc(0.75, false), ""),
        Some(("/results/scoreboard/0/reproduced".to_owned(), "0.25".to_owned(), "0.75".to_owned()))
    );
    assert_eq!(
        first_difference(&doc(0.25, false), &doc(0.25, true), ""),
        Some(("/results/scoreboard/0/bound".to_owned(), "(absent)".to_owned(), "null".to_owned()))
    );
    assert_eq!(
        moved_anchors(&doc(0.25, false), &doc(0.75, false)),
        ["  fig4a.base_util: paper 0.5, committed 0.25, now 0.75"]
    );
    assert!(moved_anchors(&doc(0.25, false), &doc(0.25, true)).is_empty());
}
