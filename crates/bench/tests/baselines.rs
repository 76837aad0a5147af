//! The committed paper scoreboard, ablations and the joiner, SpGEMM and
//! system smokes are the model's output, and the committed catalog
//! digests are its programs.
//!
//! Each test builds one document in process, through the function its
//! bin calls, renders it as `Telemetry::write` would, and compares the
//! bytes with the file under `baselines/`. A model change that moves a
//! modelled cycle therefore fails `cargo test`, not only the CI step
//! that rewrites the files. The failure names the first differing JSON
//! path with both values and, for the scoreboard, every anchor whose
//! reproduced value moved. To accept a deliberate change, regenerate
//! the file with the command the message prints and commit it.

use issr_bench::catalog::hex;
use issr_bench::paper::{Board, Kind, ANCHORS};
use issr_bench::telemetry::Telemetry;
use issr_trace::Json;
use sha2::{Digest, Sha256};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// The paper board, built once for every test in this binary that
/// reads it (a debug build takes about ten seconds).
fn board() -> &'static Board {
    static BOARD: OnceLock<Board> = OnceLock::new();
    BOARD.get_or_init(issr_bench::paper::scoreboard)
}

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
    let board = board();
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

/// What the board pins and what it only records. Ids are unique and
/// every paper value usable as a denominator; the single-CC and area
/// anchors reproduce within 5 %. Nothing is asserted about the cluster
/// anchors or the §V ratios derived from the cluster run: the committed
/// JSON is their record, and an asserted gap would have to be edited by
/// the very change that closes it.
#[test]
fn single_cc_and_area_anchors_reproduce() {
    let board = board();
    assert_eq!(board.anchors.len(), ANCHORS.len());
    for (i, a) in ANCHORS.iter().enumerate() {
        assert!(ANCHORS[..i].iter().all(|b| b.id != a.id), "duplicate id {}", a.id);
        assert!(a.paper.is_finite() && a.paper != 0.0, "{}: paper value {}", a.id, a.paper);
        assert!(board.anchors.f64(i, "reproduced").is_finite(), "{}", a.id);
        let judged = board.anchors.cell(i, "bound").as_str();
        assert_eq!(
            judged.is_some(),
            matches!(a.kind, Kind::Bound(_)),
            "{}: a bound, and only a bound, reads pass or fail",
            a.id
        );
        let Some(rel_err) = board.anchors.cell(i, "rel_err").as_f64() else {
            assert!(a.kind != Kind::Target, "{}: a target carries its relative error", a.id);
            continue;
        };
        if ["Fig. 4a", "Fig. 4b", "§IV-C"].contains(&a.source) {
            assert!(rel_err.abs() <= 0.05, "{}: off by {:.1}%", a.id, 100.0 * rel_err);
        }
    }
    // Each figure's verdict classifies the run of its anchor row.
    let printed = board.markdown();
    for at in ["fig4a at nnz 1024", "fig4b at nnz/row 256", "fig4d at matrix g7"] {
        assert!(printed.contains(&format!("verdict[{at}]")), "no verdict for {at}");
    }
    let fig4c = board.section("fig4c").expect("Fig. 4c section");
    let last = fig4c.len() - 1;
    assert_eq!(fig4c.label(last), "nnz/row 128");
    let results = board.telemetry().to_json();
    let elapsed =
        results.get("results").and_then(|r| r.get("fig4c")?.get("verdict")?.get("elapsed"));
    assert_eq!(elapsed, Some(fig4c.cell(last, "issr_cycles")));
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
    let built = hex(hasher.finalize());
    assert!(
        committed.trim() == built,
        "{path} no longer matches the model's trace: committed {}, now {built}\nto accept the \
         change: cargo run --release -p issr-bench --bin system -- --smoke --json \
         baselines/BENCH_system.json && sha256sum baselines/BENCH_system.trace.json | cut -d' ' \
         -f1 > baselines/BENCH_system.trace.sha256",
        committed.trim()
    );
}

/// Every shipped catalog program hashes to its line in
/// `baselines/CATALOG.sha256`; a mismatch names each program that
/// differs, or is missing on either side, and prints the new file.
#[test]
fn catalog_programs_match_their_digests() {
    let path = format!("{}/../../baselines/CATALOG.sha256", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).expect("committed catalog digests");
    let built = issr_bench::catalog::digests();
    if built == committed {
        return;
    }
    fn by_name(text: &str) -> BTreeMap<&str, &str> {
        text.lines().filter_map(|l| l.split_once(' ')).collect()
    }
    let (old, new) = (by_name(&committed), by_name(&built));
    let names: BTreeSet<&str> = old.keys().chain(new.keys()).copied().collect();
    let differing: Vec<String> = names
        .into_iter()
        .filter_map(|name| {
            let before = old.get(name).copied().unwrap_or("(absent)");
            let after = new.get(name).copied().unwrap_or("(absent)");
            (before != after).then(|| format!("  {name}: committed {before}, now {after}"))
        })
        .collect();
    panic!(
        "{path} no longer matches the catalog's programs\n{}\nto accept the change: cargo \
         run --release -p issr-bench --bin catalog > baselines/CATALOG.sha256\nnew file:\n{built}",
        if differing.is_empty() {
            "  (same digests, different order)".to_owned()
        } else {
            differing.join("\n")
        }
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
