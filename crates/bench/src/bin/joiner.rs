//! Reports the sparse-sparse index-joiner subsystem: SpVV∩ and SpMSpV
//! cycle counts, joiner vs. software two-pointer merge, across match
//! densities, plus the ROI stall-cause attribution of a representative
//! joiner run.
//!
//! Pass `--smoke` for a reduced sweep (the CI baseline run) and
//! `--json <path>` to also write the rows as `BENCH_joiner.json`.

use issr_bench::figures::{
    default_overlap_sweep, joiner_spmspv, joiner_spvv, spvv_summary, JoinerSpmspvRow, JoinerSpvvRow,
};
use issr_bench::report::markdown_table;
use issr_bench::telemetry::{self, cc_attr_json, Telemetry};
use issr_trace::json::obj;
use issr_trace::{breakdown_table, Json};

fn spvv_json(rows: &[JoinerSpvvRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                obj(vec![
                    ("overlap", Json::Float(r.overlap)),
                    ("base16", Json::from(r.base16)),
                    ("issr16", Json::from(r.issr16)),
                    ("speedup16", Json::Float(r.speedup16())),
                    ("base32", Json::from(r.base32)),
                    ("issr32", Json::from(r.issr32)),
                    ("speedup32", Json::Float(r.speedup32())),
                    ("joiner_util", Json::Float(r.joiner_util)),
                ])
            })
            .collect(),
    )
}

fn spmspv_json(rows: &[JoinerSpmspvRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                obj(vec![
                    ("x_nnz", Json::from(r.x_nnz)),
                    ("base16", Json::from(r.base16)),
                    ("issr16", Json::from(r.issr16)),
                    ("speedup16", Json::Float(r.speedup16())),
                    ("base32", Json::from(r.base32)),
                    ("issr32", Json::from(r.issr32)),
                    ("speedup32", Json::Float(r.speedup32())),
                ])
            })
            .collect(),
    )
}

fn main() {
    // Static verification before anything ticks (see issr-lint).
    issr_lint::assert_shipped_clean();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut t = Telemetry::new("joiner", if smoke { "smoke" } else { "full" });
    let overlaps: Vec<f64> = if smoke { vec![0.0, 0.5, 1.0] } else { default_overlap_sweep() };
    let x_nnzs: Vec<usize> = if smoke { vec![64, 256] } else { vec![16, 64, 256, 1024] };

    let spvv = joiner_spvv(&overlaps);
    let table: Vec<Vec<String>> = spvv
        .iter()
        .map(|r| {
            vec![
                format!("{:.3}", r.overlap),
                r.base16.to_string(),
                r.issr16.to_string(),
                format!("{:.2}x", r.speedup16()),
                r.base32.to_string(),
                r.issr32.to_string(),
                format!("{:.2}x", r.speedup32()),
                format!("{:.3}", r.joiner_util),
            ]
        })
        .collect();
    println!("SpVV∩ — sparse-sparse dot (512 ∩ 512 nnz in 8192), joiner vs software merge\n");
    println!(
        "{}",
        markdown_table(
            &[
                "overlap",
                "BASE-16",
                "ISSR-16",
                "speedup",
                "BASE-32",
                "ISSR-32",
                "speedup",
                "pairs/cycle"
            ],
            &table
        )
    );
    t.push("spvv", spvv_json(&spvv));

    let spmspv = joiner_spmspv(&x_nnzs);
    let table: Vec<Vec<String>> = spmspv
        .iter()
        .map(|r| {
            vec![
                r.x_nnz.to_string(),
                r.base16.to_string(),
                r.issr16.to_string(),
                format!("{:.2}x", r.speedup16()),
                r.base32.to_string(),
                r.issr32.to_string(),
                format!("{:.2}x", r.speedup32()),
            ]
        })
        .collect();
    println!("SpMSpV — 48x2048 CSR (64 nnz/row) times sparse x, joiner vs software merge\n");
    println!(
        "{}",
        markdown_table(
            &["x nnz", "BASE-16", "ISSR-16", "speedup", "BASE-32", "ISSR-32", "speedup"],
            &table
        )
    );
    t.push("spmspv", spmspv_json(&spmspv));

    // Where the cycles of a joiner-fed run go: ROI attribution of the
    // half-overlap SpVV∩ run (ISSR-16), and what bounds it.
    let summary = spvv_summary(0.5);
    println!("stall-cause attribution — SpVV∩ at 0.5 overlap (ISSR-16)\n");
    println!("{}", breakdown_table(&summary.attr.rows("")));
    t.push("spvv_attribution", cc_attr_json(&summary.attr));
    let verdict = issr_bench::verdict::cc_verdict(&summary);
    println!("{}", verdict.line("spvv 0.5 overlap"));
    t.push("verdict", verdict.to_json());
    let critpath = issr_bench::critical::cc_critical_path(&summary);
    println!("{}", issr_bench::critical::critical_path_line("spvv 0.5 overlap", &critpath));
    t.push("critical_path", issr_bench::critical::critical_path_section(&critpath, &verdict));

    if let Some(path) = telemetry::json_arg() {
        t.write(&path).expect("write BENCH json");
        println!("wrote {}", path.display());
    }
}
