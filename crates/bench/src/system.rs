//! Multi-cluster scale-out report: strong/weak scaling of the tiled
//! out-of-TCDM kernels (`system_csrmv`, `system_spgemm`) over 1/2/4
//! clusters sharing one bandwidth-arbitrated main memory, with the
//! contention counters and the system power model alongside. `--bin
//! system` prints it; its smoke envelope is `baselines/BENCH_system.json`
//! and its trace's digest `baselines/BENCH_system.trace.sha256`.
//!
//! The smoke is the scaled-down gate. Either way the run asserts the
//! scale-out invariants, so a regression fails the caller:
//!
//! * every multi-cluster result is **bit-identical** to the
//!   single-cluster kernel (CsrMV) / across cluster counts and exact
//!   against the oracle (SpGEMM) — checked inside the sweeps;
//! * DMA/compute overlap is nonzero (the double buffers actually
//!   overlap);
//! * full mode: ≥ 1.5× strong-scaling speedup at 4 clusters on the
//!   full-size (larger-than-TCDM) suite matrix, with contention
//!   visible in the shared-interface counters.
//!
//! The run ends with an instrumented 2-cluster CsrMV: its per-cluster
//! stall-cause attribution is a breakdown table and a section of the
//! envelope, and its Chrome trace-event export (loadable at
//! `ui.perfetto.dev`) has one track per hart, stream lane and DMA
//! engine.

use crate::figures::{
    system_csrmv_attribution, system_csrmv_scaling, system_csrmv_weak_scaling,
    system_spgemm_scaling, SystemAttributionReport,
};
use crate::report::Table;
use crate::telemetry::{system_attr_json, BenchOutput, Telemetry};
use issr_sparse::{gen, suite};
use issr_trace::{breakdown_table, Json};

/// The report in both forms, and the Chrome trace of its instrumented
/// run.
pub struct SystemOutput {
    /// The tables, gate and verdict lines, and the envelope.
    pub output: BenchOutput,
    /// The instrumented 2-cluster CsrMV's Chrome trace-event document.
    pub trace: Json,
}

/// Adds one scaling table under its label and exports it as `key`.
fn report(out: &mut BenchOutput, key: &str, label: &str, rows: &Table) {
    out.markdown.push_str(&format!("{label}\n\n{}\n", rows.markdown()));
    out.telemetry.push(key, rows.json());
}

/// The row of `rows` for `n` clusters.
fn row_at(rows: &Table, n: usize) -> usize {
    (0..rows.len()).find(|&i| rows.f64(i, "n_clusters") == n as f64).expect("cluster count swept")
}

fn gate_overlap(rows: &Table, what: &str) {
    for i in (0..rows.len()).filter(|&i| rows.f64(i, "n_clusters") > 1.0) {
        assert!(
            rows.f64(i, "overlap_cycles") > 0.0,
            "{what}: no DMA/compute overlap at {} clusters",
            rows.cell(i, "n_clusters")
        );
    }
}

fn smoke(out: &mut BenchOutput) {
    // CsrMV: a generated operand whose values + indices exceed the
    // 256 KiB TCDM (the block buffers stream it), 1 vs 2 clusters.
    let mut rng = gen::rng(8_800);
    let m = gen::csr_uniform::<u16>(&mut rng, 2000, 512, 40_000);
    let x = gen::dense_vector(&mut rng, 512);
    let rows = system_csrmv_scaling(&m, &x, &[1, 2]);
    report(out, "csrmv_scaling", "system CsrMV — smoke (2000x512, 40k nnz, > TCDM)", &rows);
    gate_overlap(&rows, "CsrMV smoke");
    let at2 = rows.f64(row_at(&rows, 2), "speedup");
    assert!(at2 > 1.2, "2-cluster CsrMV speedup {at2:.2}x below the smoke floor");
    // SpGEMM: clamped panel capacities force the full multi-panel
    // choreography (claims, double buffers, output drains) on a small
    // product, 1 vs 2 clusters.
    let mut rng = gen::rng(8_801);
    let a = gen::csr_uniform::<u16>(&mut rng, 256, 128, 2_000);
    let b = gen::csr_uniform::<u16>(&mut rng, 128, 160, 1_200);
    let rows = system_spgemm_scaling(&a, &b, &[1, 2], Some((256, 2_048)));
    report(out, "spgemm_scaling", "system SpGEMM — smoke (forced multi-panel)", &rows);
    gate_overlap(&rows, "SpGEMM smoke");
    out.markdown.push_str("smoke gates passed: bit-identity, overlap, 2-cluster speedup\n\n");
}

fn full(out: &mut BenchOutput) {
    // Strong scaling on the heaviest suite stand-in: psmigr_1 at full
    // size (543k nonzeros ≈ 5.4 MB of CSR data — 21x the TCDM).
    let entry = suite::by_name("psmigr_1").expect("suite entry");
    assert!(
        !entry.fits_tcdm::<u16>(u64::from(issr_mem::map::TCDM_SIZE)),
        "strong-scaling operand must exceed the TCDM"
    );
    let m = entry.build::<u16>();
    let mut rng = gen::rng(8_900);
    let x = gen::dense_vector(&mut rng, m.ncols());
    let rows = system_csrmv_scaling(&m, &x, &[1, 2, 4]);
    let label = format!(
        "system CsrMV — strong scaling ({} full size, {} nnz, {:.1}x TCDM)",
        entry.name,
        m.nnz(),
        entry.csr_bytes::<u16>() as f64 / f64::from(issr_mem::map::TCDM_SIZE),
    );
    report(out, "csrmv_scaling", &label, &rows);
    gate_overlap(&rows, "CsrMV strong");
    let at4 = row_at(&rows, 4);
    let speedup = rows.f64(at4, "speedup");
    assert!(speedup > 1.5, "4-cluster strong-scaling speedup {speedup:.2}x below the 1.5x floor");
    assert!(rows.f64(at4, "contention") > 0.0, "4 clusters on a 16-word port must contend");

    // Weak scaling: constant per-cluster work.
    let rows = system_csrmv_weak_scaling(600, 512, 45_000, &[1, 2, 4]);
    report(out, "csrmv_weak_scaling", "system CsrMV — weak scaling (45k nnz per cluster)", &rows);

    // SpGEMM strong scaling: full-size A (psmigr_1) against a sparse
    // resident B of matching inner dimension.
    let mut rng = gen::rng(8_901);
    let b = gen::csr_uniform::<u16>(&mut rng, m.ncols(), m.ncols(), 6_000);
    let rows = system_spgemm_scaling(&m, &b, &[1, 2, 4], None);
    let label = format!("system SpGEMM — strong scaling (A = {} full size, sparse B)", entry.name);
    report(out, "spgemm_scaling", &label, &rows);
    gate_overlap(&rows, "SpGEMM strong");
    let speedup = rows.f64(row_at(&rows, 4), "speedup");
    assert!(speedup > 1.5, "4-cluster SpGEMM speedup {speedup:.2}x below the 1.5x floor");
    out.markdown.push_str("scaling gates passed: bit-identity, overlap, >1.5x at 4 clusters\n\n");
}

/// One instrumented 2-cluster CsrMV (the smoke operand): its
/// attribution tables, added to the report.
fn attribution_report(out: &mut BenchOutput) -> SystemAttributionReport {
    let mut rng = gen::rng(8_800);
    let m = gen::csr_uniform::<u16>(&mut rng, 2000, 512, 40_000);
    let x = gen::dense_vector(&mut rng, 512);
    let report = system_csrmv_attribution(&m, &x, 2, 65_536);
    let mut rows = Vec::new();
    for (i, c) in report.summary.clusters.iter().enumerate() {
        rows.extend(c.attr.merged_workers().rows(&format!("c{i}/workers/")));
        rows.push((format!("c{i}/dmcc"), c.attr.dmcc.hart));
        rows.push((format!("c{i}/dma"), c.attr.dma));
    }
    out.markdown.push_str(&format!(
        "stall-cause attribution — 2-cluster CsrMV (workers merged per cluster)\n\n{}\n",
        breakdown_table(&rows)
    ));
    report
}

/// Runs the scaling sweeps (reduced with `smoke`) and the instrumented
/// 2-cluster CsrMV.
///
/// # Panics
/// Panics if a run fails or a gate (bit-identity, overlap, scaling
/// floor) does not hold.
#[must_use]
pub fn system(smoke_mode: bool) -> SystemOutput {
    let telemetry = Telemetry::new("system", if smoke_mode { "smoke" } else { "full" });
    let mut out = BenchOutput { markdown: String::new(), telemetry };
    if smoke_mode {
        smoke(&mut out);
    } else {
        full(&mut out);
    }
    let report = attribution_report(&mut out);
    out.telemetry.push("attribution", system_attr_json(&report.summary));
    let words_per_cycle = issr_system::system::SystemParams::default().dma_words_per_cycle;
    let verdict = crate::verdict::system_verdict(&report.summary, words_per_cycle);
    out.markdown.push_str(&format!("{}\n", verdict.line("system_csrmv x2")));
    out.telemetry.push("verdict", verdict.to_json());
    SystemOutput { output: out, trace: report.trace }
}
