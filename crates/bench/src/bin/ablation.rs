//! Ablation studies over the design choices DESIGN.md calls out:
//! worker-count scaling of the cluster CsrMV and the contribution of
//! the instruction-cache model.
//!
//! Pass `--json <path>` to also write the rows as `BENCH_ablation.json`.

use issr_bench::report::{markdown_table, ratio};
use issr_bench::telemetry::{self, Telemetry};
use issr_cluster::cluster::ClusterParams;
use issr_kernels::cluster_csrmv::run_cluster_csrmv_with;
use issr_kernels::variant::Variant;
use issr_sparse::gen;
use issr_trace::json::obj;
use issr_trace::Json;

fn main() {
    let mut t = Telemetry::new("ablation", "full");
    let mut rng = gen::rng(0xAB1A);
    let m = gen::csr_clustered::<u16>(&mut rng, 512, 2048, 64, 256);
    let x = gen::dense_vector(&mut rng, 2048);

    // Worker scaling: does the ISSR cluster scale with cores?
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut one_worker = None;
    for n in [1usize, 2, 4, 8] {
        let params = ClusterParams { n_workers: n, ..ClusterParams::default() };
        let run = run_cluster_csrmv_with(Variant::Issr, &m, &x, params).expect("run");
        let cycles = run.summary.cycles;
        let base = *one_worker.get_or_insert(cycles) as f64;
        let scaling = ratio(base, cycles as f64);
        let util = run.summary.cluster_utilization();
        rows.push(vec![
            n.to_string(),
            cycles.to_string(),
            format!("{scaling:.2}"),
            format!("{util:.3}"),
            run.summary.tcdm_stats.conflicts.to_string(),
        ]);
        json_rows.push(obj(vec![
            ("workers", Json::from(n)),
            ("cycles", Json::from(cycles)),
            ("scaling", Json::Float(scaling)),
            ("cluster_util", Json::Float(util)),
            ("tcdm_conflicts", Json::from(run.summary.tcdm_stats.conflicts)),
        ]));
    }
    println!("Ablation 1 — ISSR cluster CsrMV worker scaling (512x2048, 64 nnz/row)\n");
    println!(
        "{}",
        markdown_table(&["workers", "cycles", "scaling", "cluster util", "conflicts"], &rows)
    );
    t.push("worker_scaling", Json::Arr(json_rows));

    // Instruction-cache contribution: ideal fetch vs L0+L1 model.
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut verdict = None;
    for icache in [false, true] {
        let params = ClusterParams { icache, ..ClusterParams::default() };
        let run = run_cluster_csrmv_with(Variant::Issr, &m, &x, params).expect("run");
        if icache {
            verdict = Some(issr_bench::verdict::cluster_verdict(&run.summary));
        }
        let label = if icache { "L0 + shared L1" } else { "ideal fetch" };
        rows.push(vec![
            label.to_owned(),
            run.summary.cycles.to_string(),
            format!("{:.3}", run.summary.cluster_utilization()),
        ]);
        json_rows.push(obj(vec![
            ("fetch_model", Json::from(label)),
            ("cycles", Json::from(run.summary.cycles)),
            ("cluster_util", Json::Float(run.summary.cluster_utilization())),
        ]));
    }
    println!("\nAblation 2 — instruction-cache model (\"some instruction cache stalls\", §IV-B)\n");
    println!("{}", markdown_table(&["fetch model", "cycles", "cluster util"], &rows));
    t.push("icache", Json::Arr(json_rows));

    let verdict = verdict.expect("icache ablation ran");
    println!("\n{}", verdict.line("cluster csrmv 8w icache"));
    t.push("verdict", verdict.to_json());

    if let Some(path) = telemetry::json_arg() {
        t.write(&path).expect("write BENCH json");
        println!("wrote {}", path.display());
    }
}
