//! Regenerates Fig. 4b: single-CC CsrMV speedup over BASE vs nnz/row.
//!
//! Pass `--json <path>` to also write the rows as `BENCH_fig4b.json`.

use issr_bench::figures::fig4b;
use issr_bench::report::markdown_table;
use issr_bench::telemetry::{self, Telemetry};
use issr_kernels::csrmv::run_csrmv;
use issr_kernels::variant::Variant;
use issr_sparse::gen;
use issr_trace::json::obj;
use issr_trace::Json;

fn main() {
    let points = [1, 2, 4, 8, 16, 24, 32, 64, 128, 256];
    let rows = fig4b(&points);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.row_nnz.to_string(),
                format!("{:.2}", r.ssr),
                format!("{:.2}", r.issr32),
                format!("{:.2}", r.issr16),
            ]
        })
        .collect();
    println!("Fig. 4b — CC CsrMV speedup over BASE (paper limits: ISSR-16 7.2x, ISSR-32 6.0x; crossover ~nnz 20)\n");
    println!("{}", markdown_table(&["nnz/row", "SSR", "ISSR-32", "ISSR-16"], &table));
    // Bound verdict of a representative sweep point (ISSR-16, 64 nnz/row).
    let mut rng = gen::rng(0x000F_164B + 64);
    let m = gen::csr_fixed_row_nnz::<u32>(&mut rng, 64, 2048, 64).with_index_width::<u16>();
    let x = gen::dense_vector(&mut rng, 2048);
    let summary = run_csrmv(Variant::Issr, &m, &x).expect("issr16 run").summary;
    let verdict = issr_bench::verdict::cc_verdict(&summary);
    println!("\n{}", verdict.line("csrmv nnz/row=64 issr16"));
    if let Some(path) = telemetry::json_arg() {
        let mut t = Telemetry::new("fig4b", "full");
        t.push("verdict", verdict.to_json());
        t.push(
            "speedup",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        obj(vec![
                            ("row_nnz", Json::from(r.row_nnz)),
                            ("ssr", Json::Float(r.ssr)),
                            ("issr32", Json::Float(r.issr32)),
                            ("issr16", Json::Float(r.issr16)),
                        ])
                    })
                    .collect(),
            ),
        );
        t.write(&path).expect("write BENCH json");
        println!("wrote {}", path.display());
    }
}
