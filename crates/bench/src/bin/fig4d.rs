//! Regenerates Fig. 4d: cluster CsrMV energy per suite matrix.
//!
//! Pass `--json <path>` to also write the rows as `BENCH_fig4d.json`.

use issr_bench::figures::fig4d;
use issr_bench::report::markdown_table;
use issr_bench::telemetry::{self, Telemetry};
use issr_kernels::cluster_csrmv::run_cluster_csrmv;
use issr_kernels::variant::Variant;
use issr_sparse::{gen, suite};
use issr_trace::json::obj;
use issr_trace::Json;

fn main() {
    let cap: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(120_000);
    let rows = fig4d(cap);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.nnz.to_string(),
                format!("{:.0}", r.base_mw),
                format!("{:.0}", r.issr_mw),
                format!("{:.0}", r.base_pj),
                format!("{:.0}", r.issr_pj),
                format!("{:.2}", r.gain),
            ]
        })
        .collect();
    println!("Fig. 4d — cluster CsrMV power/energy (paper anchors: BASE ~89 mW, ISSR ~194 mW; 142 -> 53 pJ/fmadd, up to 2.7x)\n");
    println!(
        "{}",
        markdown_table(
            &["matrix", "nnz", "BASE mW", "ISSR mW", "BASE pJ/fmadd", "ISSR pJ/fmadd", "gain"],
            &table
        )
    );
    // Bound verdict of the smallest suite stand-in under the cap
    // (ISSR cluster run, same operands as its sweep row).
    let entry = suite::suite()
        .into_iter()
        .filter(|e| e.nnz <= cap)
        .min_by_key(|e| e.nnz)
        .expect("suite entry under cap");
    let m = entry.build::<u16>();
    let mut rng = gen::rng(0x000F_164D);
    let x = gen::dense_vector(&mut rng, m.ncols());
    let run = run_cluster_csrmv(Variant::Issr, &m, &x).expect("issr run");
    let verdict = issr_bench::verdict::cluster_verdict(&run.summary);
    println!("\n{}", verdict.line(&format!("cluster csrmv {} issr", entry.name)));
    if let Some(path) = telemetry::json_arg() {
        let mut t = Telemetry::new("fig4d", "full");
        t.push("verdict", verdict.to_json());
        t.push(
            "energy",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        obj(vec![
                            ("name", Json::from(r.name.as_str())),
                            ("nnz", Json::from(r.nnz)),
                            ("base_mw", Json::Float(r.base_mw)),
                            ("issr_mw", Json::Float(r.issr_mw)),
                            ("base_pj", Json::Float(r.base_pj)),
                            ("issr_pj", Json::Float(r.issr_pj)),
                            ("gain", Json::Float(r.gain)),
                        ])
                    })
                    .collect(),
            ),
        );
        t.write(&path).expect("write BENCH json");
        println!("wrote {}", path.display());
    }
}
