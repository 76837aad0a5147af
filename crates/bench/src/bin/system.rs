//! Multi-cluster scale-out report: strong/weak scaling of the tiled
//! out-of-TCDM kernels (`system_csrmv`, `system_spgemm`) over 1/2/4
//! clusters sharing one bandwidth-arbitrated main memory, with the
//! contention counters and the system power model alongside.
//!
//! Pass `--smoke` for the scaled-down CI gate. Either way the run
//! asserts the scale-out invariants, so a regression fails the process:
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
//! stall-cause attribution is printed as a breakdown table, and with
//! `--json <path>` the whole report lands in `BENCH_system.json` plus a
//! Chrome trace-event export (`<path stem>.trace.json`, loadable at
//! `ui.perfetto.dev`) with one track per hart, stream lane and DMA
//! engine.

use issr_bench::figures::{
    system_csrmv_attribution, system_csrmv_scaling, system_csrmv_weak_scaling,
    system_spgemm_scaling, SystemAttributionReport, SystemScalingRow,
};
use issr_bench::report::markdown_table;
use issr_bench::telemetry::{self, system_attr_json, Telemetry};
use issr_sparse::{gen, suite};
use issr_trace::json::obj;
use issr_trace::{breakdown_table, Json};

fn scaling_table(rows: &[SystemScalingRow], label: &str, speedup_head: &str) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n_clusters.to_string(),
                r.cycles.to_string(),
                format!("{:.2}x", r.speedup),
                format!("{:.1}%", 100.0 * r.contention),
                r.dma_stalls.to_string(),
                r.overlap_cycles.to_string(),
                format!("{:.0}", r.avg_power_mw),
                format!("{:.0}", r.total_nj),
            ]
        })
        .collect();
    println!("{label}\n");
    println!(
        "{}",
        markdown_table(
            &[
                "clusters",
                "cycles",
                speedup_head,
                "contention",
                "dma stalls",
                "overlap cyc",
                "power mW",
                "energy nJ"
            ],
            &table
        )
    );
}

fn scaling_json(rows: &[SystemScalingRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                obj(vec![
                    ("n_clusters", Json::from(r.n_clusters)),
                    ("cycles", Json::from(r.cycles)),
                    ("speedup", Json::Float(r.speedup)),
                    ("contention", Json::Float(r.contention)),
                    ("dma_stalls", Json::from(r.dma_stalls)),
                    ("overlap_cycles", Json::from(r.overlap_cycles)),
                    ("avg_power_mw", Json::Float(r.avg_power_mw)),
                    ("total_nj", Json::Float(r.total_nj)),
                    ("pj_per_fmadd", Json::Float(r.pj_per_fmadd)),
                ])
            })
            .collect(),
    )
}

fn gate_overlap(rows: &[SystemScalingRow], what: &str) {
    for r in rows.iter().filter(|r| r.n_clusters > 1) {
        assert!(
            r.overlap_cycles > 0,
            "{what}: no DMA/compute overlap at {} clusters",
            r.n_clusters
        );
    }
}

fn smoke(t: &mut Telemetry) {
    // CsrMV: a generated operand whose values + indices exceed the
    // 256 KiB TCDM (the block buffers stream it), 1 vs 2 clusters.
    let mut rng = gen::rng(8_800);
    let m = gen::csr_uniform::<u16>(&mut rng, 2000, 512, 40_000);
    let x = gen::dense_vector(&mut rng, 512);
    let rows = system_csrmv_scaling(&m, &x, &[1, 2]);
    scaling_table(&rows, "system CsrMV — smoke (2000x512, 40k nnz, > TCDM)", "speedup");
    gate_overlap(&rows, "CsrMV smoke");
    assert!(
        rows[1].speedup > 1.2,
        "2-cluster CsrMV speedup {:.2}x below the smoke floor",
        rows[1].speedup
    );
    t.push("csrmv_scaling", scaling_json(&rows));
    // SpGEMM: clamped panel capacities force the full multi-panel
    // choreography (claims, double buffers, output drains) on a small
    // product, 1 vs 2 clusters.
    let mut rng = gen::rng(8_801);
    let a = gen::csr_uniform::<u16>(&mut rng, 256, 128, 2_000);
    let b = gen::csr_uniform::<u16>(&mut rng, 128, 160, 1_200);
    let rows = system_spgemm_scaling(&a, &b, &[1, 2], Some((256, 2_048)));
    scaling_table(&rows, "system SpGEMM — smoke (forced multi-panel)", "speedup");
    gate_overlap(&rows, "SpGEMM smoke");
    t.push("spgemm_scaling", scaling_json(&rows));
    println!("smoke gates passed: bit-identity, overlap, 2-cluster speedup\n");
}

fn full(t: &mut Telemetry) {
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
    scaling_table(
        &rows,
        &format!(
            "system CsrMV — strong scaling ({} full size, {} nnz, {:.1}x TCDM)",
            entry.name,
            m.nnz(),
            entry.csr_bytes::<u16>() as f64 / f64::from(issr_mem::map::TCDM_SIZE),
        ),
        "speedup",
    );
    gate_overlap(&rows, "CsrMV strong");
    let at4 = rows.iter().find(|r| r.n_clusters == 4).expect("4-cluster row");
    assert!(
        at4.speedup > 1.5,
        "4-cluster strong-scaling speedup {:.2}x below the 1.5x floor",
        at4.speedup
    );
    assert!(at4.contention > 0.0, "4 clusters on a 16-word port must contend");
    t.push("csrmv_scaling", scaling_json(&rows));

    // Weak scaling: constant per-cluster work.
    let rows = system_csrmv_weak_scaling(600, 512, 45_000, &[1, 2, 4]);
    scaling_table(&rows, "system CsrMV — weak scaling (45k nnz per cluster)", "efficiency");
    t.push("csrmv_weak_scaling", scaling_json(&rows));

    // SpGEMM strong scaling: full-size A (psmigr_1) against a sparse
    // resident B of matching inner dimension.
    let mut rng = gen::rng(8_901);
    let b = gen::csr_uniform::<u16>(&mut rng, m.ncols(), m.ncols(), 6_000);
    let rows = system_spgemm_scaling(&m, &b, &[1, 2, 4], None);
    scaling_table(
        &rows,
        &format!("system SpGEMM — strong scaling (A = {} full size, sparse B)", entry.name),
        "speedup",
    );
    gate_overlap(&rows, "SpGEMM strong");
    let at4 = rows.iter().find(|r| r.n_clusters == 4).expect("4-cluster row");
    assert!(at4.speedup > 1.5, "4-cluster SpGEMM speedup {:.2}x below the 1.5x floor", at4.speedup);
    t.push("spgemm_scaling", scaling_json(&rows));
    println!("scaling gates passed: bit-identity, overlap, >1.5x at 4 clusters\n");
}

/// One instrumented 2-cluster CsrMV (the smoke operand): attribution
/// tables for the report, the attribution section of the JSON file, and
/// the Chrome trace.
fn attribution_report() -> SystemAttributionReport {
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
    println!("stall-cause attribution — 2-cluster CsrMV (workers merged per cluster)\n");
    println!("{}", breakdown_table(&rows));
    report
}

fn main() {
    // Static verification before anything ticks (see issr-lint).
    issr_lint::assert_shipped_clean();
    let smoke_mode = std::env::args().any(|a| a == "--smoke");
    let mut t = Telemetry::new("system", if smoke_mode { "smoke" } else { "full" });
    if smoke_mode {
        smoke(&mut t);
    } else {
        full(&mut t);
    }
    let report = attribution_report();
    t.push("attribution", system_attr_json(&report.summary));
    let words_per_cycle = issr_system::system::SystemParams::default().dma_words_per_cycle;
    let verdict = issr_bench::verdict::system_verdict(&report.summary, words_per_cycle);
    println!("{}", verdict.line("system_csrmv x2"));
    t.push("verdict", verdict.to_json());
    let critpath = issr_bench::critical::system_critical_path(&report.summary);
    println!("{}", issr_bench::critical::critical_path_line("system_csrmv x2", &critpath));
    t.push("critical_path", issr_bench::critical::critical_path_section(&critpath, &verdict));
    if let Some(path) = telemetry::json_arg() {
        t.write(&path).expect("write BENCH json");
        let trace = telemetry::trace_path(&path);
        telemetry::write_json(&trace, &report.trace).expect("write Chrome trace");
        println!("wrote {} and {}", path.display(), trace.display());
    }
}
