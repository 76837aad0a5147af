//! Ablation studies of three design choices: worker-count scaling of the
//! cluster CsrMV, the contribution of the instruction-cache model, and
//! the CsrMV's cost per row at every short row length (where the ISSR
//! row loop switches between its chain and medium paths), on one CC and
//! on the cluster.
//! `--bin ablation` prints them and commits them as
//! `baselines/BENCH_ablation.json`, so every length is gated exactly.

use issr_cluster::cluster::ClusterParams;
use issr_kernels::cluster_csrmv::run_cluster_csrmv_with;
use issr_kernels::csrmv::run_csrmv;
use issr_kernels::variant::Variant;
use issr_sparse::gen;

use crate::report::{ratio, Fmt, Table};
use crate::telemetry::{BenchOutput, Telemetry};
use crate::verdict::cluster_verdict;

/// Runs the two cluster ablations on the 64 nnz/row cluster CsrMV,
/// then the single-CC row-length sweep.
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

    // Cycles per row at each short row length: the ISSR chain, medium
    // and long paths split at fixed lengths, so one length at a time. The
    // cluster column runs Fig. 4c's generator and shape (512x2048, eight
    // workers): whole-run cycles per row of one worker.
    let mut rows = Table::new(&[
        ("row_nnz", "nnz/row", Fmt::Plain),
        ("base", "BASE", Fmt::Fixed(2)),
        ("issr16", "ISSR-16", Fmt::Fixed(2)),
        ("issr32", "ISSR-32", Fmt::Fixed(2)),
        ("issr16_cluster", "ISSR-16 cluster", Fmt::Fixed(2)),
    ]);
    let (nrows, ncols) = (64, 2048);
    let cluster = ClusterParams::default();
    let (cluster_rows, cluster_cols) = (512, 2048);
    let worker_rows = (cluster_rows / cluster.n_workers) as f64;
    for row_nnz in 1..=12 {
        let mut rng = gen::rng(0x000F_164B + row_nnz as u64);
        let m32 = gen::csr_fixed_row_nnz::<u32>(&mut rng, nrows, ncols, row_nnz);
        let m16 = m32.with_index_width::<u16>();
        let x = gen::dense_vector(&mut rng, ncols);
        let per_row = |cycles: u64| cycles as f64 / nrows as f64;
        let run32 = |v| per_row(run_csrmv(v, &m32, &x).expect("run").summary.metrics.roi.cycles);
        let issr16 = run_csrmv(Variant::Issr, &m16, &x).expect("issr16 run");
        let mut rng = gen::rng(0x000F_164C + row_nnz as u64);
        let spread = (row_nnz * 4).clamp(16, cluster_cols);
        let mc = gen::csr_clustered::<u16>(&mut rng, cluster_rows, cluster_cols, row_nnz, spread);
        let xc = gen::dense_vector(&mut rng, cluster_cols);
        let run = run_cluster_csrmv_with(Variant::Issr, &mc, &xc, cluster).expect("cluster run");
        rows.push(vec![
            row_nnz.into(),
            run32(Variant::Base).into(),
            per_row(issr16.summary.metrics.roi.cycles).into(),
            run32(Variant::Issr).into(),
            (run.summary.cycles as f64 / worker_rows).into(),
        ]);
    }
    markdown.push_str(&format!(
        "\nAblation 3 — CsrMV cycles per row by row length (one CC, {nrows}x{ncols}; \
         cluster, {cluster_rows}x{cluster_cols}, per row of one of {} workers)\n\n{}\n",
        cluster.n_workers,
        rows.markdown()
    ));
    t.push("row_length", rows.json());
    BenchOutput { markdown, telemetry: t }
}
