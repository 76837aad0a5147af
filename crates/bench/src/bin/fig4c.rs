//! Regenerates Fig. 4c: cluster CsrMV speedup (ISSR-16 over BASE).
//!
//! Pass `--json <path>` to also write the rows as `BENCH_fig4c.json`.

use issr_bench::figures::fig4c;
use issr_bench::report::markdown_table;
use issr_bench::telemetry::{self, Telemetry};
use issr_compare::base_core_equivalent;
use issr_kernels::cluster_csrmv::run_cluster_csrmv;
use issr_kernels::variant::Variant;
use issr_sparse::gen;
use issr_trace::json::obj;
use issr_trace::Json;

fn main() {
    let points = [1, 2, 4, 8, 16, 32, 64, 128];
    let rows = fig4c(&points);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.row_nnz.to_string(),
                r.base_cycles.to_string(),
                r.issr_cycles.to_string(),
                format!("{:.2}", r.speedup),
                format!("{:.3}", r.peak_util),
                format!("{:.3}", r.cluster_util),
            ]
        })
        .collect();
    println!("Fig. 4c — cluster CsrMV, ISSR-16 vs BASE (paper: 1.9x at nnz/row=1 up to 5.8x; peak worker util ~0.71)\n");
    println!(
        "{}",
        markdown_table(
            &["nnz/row", "BASE cyc", "ISSR cyc", "speedup", "peak util", "cluster util"],
            &table
        )
    );
    let peak = rows.iter().map(|r| r.speedup).fold(0.0_f64, f64::max);
    println!(
        "\nPeak speedup {:.2}x -> one ISSR cluster matches ~{:.0} BASE cores (paper: 46).",
        peak,
        base_core_equivalent(8.0, peak)
    );
    // Bound verdict of a representative sweep point (ISSR, 64 nnz/row).
    let mut rng = gen::rng(0x000F_164C + 64);
    let m = gen::csr_clustered::<u16>(&mut rng, 512, 2048, 64, 256);
    let x = gen::dense_vector(&mut rng, 2048);
    let run = run_cluster_csrmv(Variant::Issr, &m, &x).expect("issr run");
    let verdict = issr_bench::verdict::cluster_verdict(&run.summary);
    println!("\n{}", verdict.line("cluster csrmv nnz/row=64 issr"));
    if let Some(path) = telemetry::json_arg() {
        let mut t = Telemetry::new("fig4c", "full");
        t.push("verdict", verdict.to_json());
        t.push(
            "speedup",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        obj(vec![
                            ("row_nnz", Json::from(r.row_nnz)),
                            ("base_cycles", Json::from(r.base_cycles)),
                            ("issr_cycles", Json::from(r.issr_cycles)),
                            ("speedup", Json::Float(r.speedup)),
                            ("peak_util", Json::Float(r.peak_util)),
                            ("cluster_util", Json::Float(r.cluster_util)),
                        ])
                    })
                    .collect(),
            ),
        );
        t.push("peak_speedup", Json::Float(peak));
        t.write(&path).expect("write BENCH json");
        println!("wrote {}", path.display());
    }
}
