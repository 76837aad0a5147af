//! Regenerates Fig. 4a: single-CC SpVV FPU utilization vs nnz.
//!
//! Pass `--json <path>` to also write the rows as `BENCH_fig4a.json`.

use issr_bench::figures::{default_nnz_sweep, fig4a};
use issr_bench::report::markdown_table;
use issr_bench::telemetry::{self, Telemetry};
use issr_kernels::spvv::run_spvv;
use issr_kernels::variant::Variant;
use issr_sparse::gen;
use issr_trace::json::obj;
use issr_trace::Json;

fn main() {
    let rows = fig4a(&default_nnz_sweep());
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.nnz.to_string(),
                format!("{:.3}", r.base),
                format!("{:.3}", r.ssr),
                format!("{:.3}", r.issr32),
                format!("{:.3}", r.issr32_m),
                format!("{:.3}", r.issr16),
                format!("{:.3}", r.issr16_m),
            ]
        })
        .collect();
    println!("Fig. 4a — CC SpVV FPU utilization (paper limits: BASE 1/9, SSR 1/7, ISSR-32 0.67, ISSR-16 0.80)\n");
    println!(
        "{}",
        markdown_table(
            &["nnz", "BASE", "SSR", "ISSR-32", "ISSR-32m", "ISSR-16", "ISSR-16m"],
            &table
        )
    );
    // Bound verdict of a representative sweep point (ISSR-16, nnz 512).
    let mut rng = gen::rng(0x000F_164A + 512);
    let a = gen::sparse_vector::<u32>(&mut rng, 2048, 512).with_index_width::<u16>();
    let b = gen::dense_vector(&mut rng, 2048);
    let summary = run_spvv(Variant::Issr, &a, &b).expect("issr16 run").summary;
    let verdict = issr_bench::verdict::cc_verdict(&summary);
    println!("\n{}", verdict.line("spvv nnz=512 issr16"));
    if let Some(path) = telemetry::json_arg() {
        let mut t = Telemetry::new("fig4a", "full");
        t.push("verdict", verdict.to_json());
        t.push(
            "utilization",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        obj(vec![
                            ("nnz", Json::from(r.nnz)),
                            ("base", Json::Float(r.base)),
                            ("ssr", Json::Float(r.ssr)),
                            ("issr32", Json::Float(r.issr32)),
                            ("issr32_m", Json::Float(r.issr32_m)),
                            ("issr16", Json::Float(r.issr16)),
                            ("issr16_m", Json::Float(r.issr16_m)),
                        ])
                    })
                    .collect(),
            ),
        );
        t.write(&path).expect("write BENCH json");
        println!("wrote {}", path.display());
    }
}
