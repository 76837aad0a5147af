//! Ablation studies of two design choices: worker-count scaling of the
//! cluster CsrMV and the contribution of the instruction-cache model.
//! `--bin ablation` prints them and commits them as
//! `baselines/BENCH_ablation.json`.

use issr_cluster::cluster::ClusterParams;
use issr_kernels::cluster_csrmv::run_cluster_csrmv_with;
use issr_kernels::variant::Variant;
use issr_sparse::gen;

use crate::report::{ratio, Fmt, Table};
use crate::telemetry::{BenchOutput, Telemetry};
use crate::verdict::cluster_verdict;

/// Runs both ablations on the 64 nnz/row cluster CsrMV.
///
/// # Panics
/// Panics if a cluster run times out.
#[must_use]
pub fn ablation() -> BenchOutput {
    let mut t = Telemetry::new("ablation", "full");
    let mut rng = gen::rng(0xAB1A);
    let m = gen::csr_clustered::<u16>(&mut rng, 512, 2048, 64, 256);
    let x = gen::dense_vector(&mut rng, 2048);

    // Worker scaling: does the ISSR cluster scale with cores?
    let mut rows = Table::new(&[
        ("workers", "workers", Fmt::Plain),
        ("cycles", "cycles", Fmt::Plain),
        ("scaling", "scaling", Fmt::Fixed(2)),
        ("cluster_util", "cluster util", Fmt::Fixed(3)),
        ("tcdm_conflicts", "conflicts", Fmt::Plain),
    ]);
    for n in [1usize, 2, 4, 8] {
        let params = ClusterParams { n_workers: n, ..ClusterParams::default() };
        let run = run_cluster_csrmv_with(Variant::Issr, &m, &x, params).expect("run");
        let cycles = run.summary.cycles;
        let one_worker = if rows.is_empty() { cycles as f64 } else { rows.f64(0, "cycles") };
        rows.push(vec![
            n.into(),
            cycles.into(),
            ratio(one_worker, cycles as f64).into(),
            run.summary.cluster_utilization().into(),
            run.summary.tcdm_stats.conflicts.into(),
        ]);
    }
    let mut markdown = format!(
        "Ablation 1 — ISSR cluster CsrMV worker scaling (512x2048, 64 nnz/row)\n\n{}\n",
        rows.markdown()
    );
    t.push("worker_scaling", rows.json());

    // Instruction-cache contribution: ideal fetch vs L0+L1 model.
    let mut rows = Table::new(&[
        ("fetch_model", "fetch model", Fmt::Plain),
        ("cycles", "cycles", Fmt::Plain),
        ("cluster_util", "cluster util", Fmt::Fixed(3)),
    ]);
    let mut verdict = None;
    for icache in [false, true] {
        let params = ClusterParams { icache, ..ClusterParams::default() };
        let run = run_cluster_csrmv_with(Variant::Issr, &m, &x, params).expect("run");
        if icache {
            verdict = Some(cluster_verdict(&run.summary));
        }
        rows.push(vec![
            if icache { "L0 + shared L1" } else { "ideal fetch" }.into(),
            run.summary.cycles.into(),
            run.summary.cluster_utilization().into(),
        ]);
    }
    markdown.push_str(&format!(
        "\nAblation 2 — instruction-cache model (\"some instruction cache stalls\", §IV-B)\n\n{}\n",
        rows.markdown()
    ));
    t.push("icache", rows.json());

    let verdict = verdict.expect("icache ablation ran");
    markdown.push_str(&format!("\n{}\n", verdict.line("cluster csrmv 8w icache")));
    t.push("verdict", verdict.to_json());
    BenchOutput { markdown, telemetry: t }
}
