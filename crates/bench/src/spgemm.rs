//! The sparse-output subsystem report: row-wise Gustavson SpGEMM, SpAcc
//! hardware expansion vs. the software merge across sparsity regimes,
//! per-unit SpAcc activity, the cluster kernel and the trap-driven
//! overflow-recovery regime (optimistic `ACC_BUF_CAP`, grow-and-retry
//! on `StreamFault::Overflow`). `--bin spgemm` prints it; its smoke
//! envelope is `baselines/BENCH_spgemm.json`.
//!
//! The report asserts ISSR ≥ 3x over BASE on every regime and that the
//! recovery regime actually traps and converges, so a regression fails
//! the caller, not just the tables.

use crate::figures::{
    cluster_spgemm_phase_profile, cluster_spgemm_report, default_spgemm_regimes,
    smoke_spgemm_regimes, spgemm_recovery_report, spgemm_suite_sweep, spgemm_sweep, SpgemmRow,
};
use crate::report::{markdown_table, ratio, Fmt, Table};
use crate::telemetry::{cc_attr_json, BenchOutput, Telemetry};
use issr_sparse::gen;
use issr_trace::json::obj;
use issr_trace::{breakdown_table, Json};

/// How many times the last regime's rows the varied phase profile's
/// product has: four rounds of eight workers on the smoke, so rows of
/// uneven cost leave the cyclic dealing.
const VARIED_ROUNDS: usize = 4;

/// The sweep's exported rows: cycles and speedup per index width, the
/// single-buffered ISSR-16 cycles, and the SpAcc's peak row occupancy
/// and drain/feed overlap on the (double-buffered) ISSR-16 run.
fn regimes_table(rows: &[SpgemmRow]) -> Table {
    let mut table = Table::new(&[
        ("label", "regime", Fmt::Plain),
        ("base16", "BASE-16", Fmt::Plain),
        ("issr16", "ISSR-16", Fmt::Plain),
        ("speedup16", "speedup", Fmt::Times(2)),
        ("issr16_single", "ISSR-16 single", Fmt::Plain),
        ("base32", "BASE-32", Fmt::Plain),
        ("issr32", "ISSR-32", Fmt::Plain),
        ("speedup32", "speedup", Fmt::Times(2)),
        ("spacc_peak_nnz", "peak nnz", Fmt::Plain),
        ("spacc_overlap_cycles", "overlap cyc", Fmt::Plain),
    ]);
    for r in rows {
        table.push(vec![
            r.regime.label.into(),
            r.base16.into(),
            r.issr16.into(),
            r.speedup16().into(),
            r.issr16_single.into(),
            r.base32.into(),
            r.issr32.into(),
            r.speedup32().into(),
            r.spacc.peak_nnz.into(),
            r.spacc.overlap_cycles.into(),
        ]);
    }
    table
}

/// Sweeps cluster SpGEMM over TCDM windows of every SuiteSparse
/// stand-in and reports the power model's energy table for the
/// sparse-output kernel (`--suite`).
///
/// # Panics
/// Panics if a run fails or the sparse-output energy efficiency drops
/// to 1x or below on any matrix.
#[must_use]
pub fn spgemm_suite() -> BenchOutput {
    let mut t = Telemetry::new("spgemm", "suite");
    let names: Vec<&str> = issr_sparse::suite::suite().into_iter().map(|e| e.name).collect();
    let rows = spgemm_suite_sweep(&names);
    for i in 0..rows.len() {
        let gain = rows.f64(i, "gain");
        assert!(
            gain > 1.0,
            "{}: sparse-output energy efficiency regressed ({gain:.2}x)",
            rows.cell(i, "name")
        );
    }
    let markdown = format!(
        "SpGEMM energy — SuiteSparse stand-ins (TCDM windows, cluster C = M·M)\n\n{}\n",
        rows.markdown()
    );
    t.push("suite_energy", rows.json());
    BenchOutput { markdown, telemetry: t }
}

/// Runs the SpGEMM regimes, the recovery regime and the cluster kernel,
/// reduced with `smoke`.
///
/// # Panics
/// Panics if a run fails or a gate (speedup floor, double-buffer gain,
/// recovery) does not hold.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn spgemm(smoke: bool) -> BenchOutput {
    let mut t = Telemetry::new("spgemm", if smoke { "smoke" } else { "full" });
    let regimes = if smoke { smoke_spgemm_regimes() } else { default_spgemm_regimes() };

    let (rows, summary) = spgemm_sweep(&regimes);
    for r in &rows {
        assert!(
            r.speedup16() > 3.0 && r.speedup32() > 3.0,
            "{}: SpGEMM speedup regression (16-bit {:.2}x, 32-bit {:.2}x; floor 3x)",
            r.regime.label,
            r.speedup16(),
            r.speedup32(),
        );
        assert!(
            r.issr16 <= r.issr16_single,
            "{}: double-buffered SpAcc regression ({} vs single-buffered {})",
            r.regime.label,
            r.issr16,
            r.issr16_single,
        );
    }
    assert!(
        rows.iter().any(|r| r.double_buffer_gain() > 0),
        "double-buffered SpAcc shows no cycle reduction on any regime",
    );
    let table = regimes_table(&rows);
    let mut md = format!(
        "SpGEMM — row-wise Gustavson, SpAcc subsystem vs software merge\n\n{}\n",
        table.markdown()
    );
    t.push("regimes", table.json());

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.regime.label.to_owned(),
                format!("{}x{}x{}", r.regime.nrows, r.regime.inner, r.regime.ncols),
                format!("{}/{}", r.regime.a_row_nnz, r.regime.b_row_nnz),
                r.spacc.feeds.to_string(),
                r.spacc.pairs_in.to_string(),
                r.spacc.merges.to_string(),
                r.spacc.steps.to_string(),
                r.spacc.drains.to_string(),
                r.spacc.out_words.to_string(),
            ]
        })
        .collect();
    let header =
        ["regime", "shape", "nnz/row", "feeds", "pairs", "merges", "steps", "drains", "out words"];
    md.push_str(&format!(
        "SpAcc unit activity (ISSR-16 runs)\n\n{}\n",
        markdown_table(&header, &table)
    ));

    // Double-buffered row storage: a row's drain overlaps the next
    // row's first feed. Report the measured delta per regime.
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.regime.label.to_owned(),
                r.issr16_single.to_string(),
                r.issr16.to_string(),
                r.double_buffer_gain().to_string(),
                format!(
                    "{:.1}%",
                    100.0 * ratio(r.double_buffer_gain() as f64, r.issr16_single as f64)
                ),
                r.spacc.overlap_cycles.to_string(),
                r.spacc.port_shared.to_string(),
            ]
        })
        .collect();
    let header = ["regime", "single", "double", "saved", "gain", "overlap cyc", "port shared"];
    md.push_str(&format!(
        "SpAcc double-buffered drains (ISSR-16: single vs double buffer)\n\n{}\n",
        markdown_table(&header, &table)
    ));

    // Overflow recovery: optimistic ACC_BUF_CAP, trap-driven
    // grow-and-retry (validated against the oracle inside the runner).
    let rec = spgemm_recovery_report();
    md.push_str(&format!(
        "overflow recovery: ACC_BUF_CAP {} -> {} over {} overflow trap(s); clean run {} \
         cycles, peak row nnz {}\n\n",
        rec.initial_cap, rec.final_cap, rec.retries, rec.cycles, rec.peak_nnz,
    ));
    assert!(rec.retries >= 1, "the overflow-recovery regime must trap and recover");
    t.push(
        "recovery",
        obj(vec![
            ("initial_cap", Json::from(u64::from(rec.initial_cap))),
            ("final_cap", Json::from(u64::from(rec.final_cap))),
            ("retries", Json::from(u64::from(rec.retries))),
            ("cycles", Json::from(rec.cycles)),
            ("peak_nnz", Json::from(rec.peak_nnz)),
        ]),
    );

    let last = regimes[regimes.len() - 1];
    let cluster = cluster_spgemm_report(last);
    md.push_str(&format!(
        "cluster SpGEMM ({}): BASE {} cycles, ISSR {} cycles ({:.2}x)\n\n",
        cluster.regime.label,
        cluster.base_cycles,
        cluster.issr_cycles,
        ratio(cluster.base_cycles as f64, cluster.issr_cycles as f64),
    ));
    let table: Vec<Vec<String>> = cluster
        .spacc
        .iter()
        .enumerate()
        .map(|(h, s)| {
            vec![
                h.to_string(),
                s.feeds.to_string(),
                s.pairs_in.to_string(),
                s.merges.to_string(),
                s.drains.to_string(),
                s.out_words.to_string(),
                s.peak_nnz.to_string(),
            ]
        })
        .collect();
    let header = ["worker", "feeds", "pairs", "merges", "drains", "out words", "peak nnz"];
    md.push_str(&format!(
        "per-worker SpAcc units (cluster ISSR run)\n\n{}\n",
        markdown_table(&header, &table)
    ));
    t.push(
        "cluster",
        obj(vec![
            ("label", Json::from(cluster.regime.label)),
            ("base_cycles", Json::from(cluster.base_cycles)),
            ("issr_cycles", Json::from(cluster.issr_cycles)),
        ]),
    );

    // Where the cycles of an SpAcc-backed run go: ROI attribution of
    // the last regime's ISSR-16 run, plus the bound verdict.
    md.push_str(&format!(
        "stall-cause attribution — {} regime (ISSR-16)\n\n{}\n",
        last.label,
        breakdown_table(&summary.attr.rows(""))
    ));
    t.push("attribution", cc_attr_json(&summary.attr));
    let verdict = crate::verdict::cc_verdict(&summary);
    md.push_str(&format!("{}\n", verdict.line(&format!("spgemm {}", last.label))));
    t.push("verdict", verdict.to_json());

    // The cluster kernel's rows and the offset chain between them,
    // resolved by PC sampling: on the regime's fixed-nnz operands, whose
    // equal rows are dealt cyclically, and on a uniform-random product
    // of the same average nonzeros and VARIED_ROUNDS times the rows,
    // whose uneven rows are dealt by predicted cost.
    let mut rng = gen::rng(0x000F_1651);
    let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, last.nrows, last.inner, last.a_row_nnz);
    let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, last.inner, last.ncols, last.b_row_nnz);
    let profile = cluster_spgemm_phase_profile(&a, &b);
    md.push_str(&format!(
        "cluster SpGEMM phase profile — {} regime (ISSR, PC-sampled)\n\n{}\n",
        last.label,
        breakdown_table(&profile.rows())
    ));
    t.push("phases", profile.to_json());
    let nrows = VARIED_ROUNDS * last.nrows;
    let mut rng = gen::rng(0x000F_1652);
    let a = gen::csr_uniform::<u16>(&mut rng, nrows, last.inner, nrows * last.a_row_nnz);
    let b = gen::csr_uniform::<u16>(&mut rng, last.inner, last.ncols, last.inner * last.b_row_nnz);
    let profile = cluster_spgemm_phase_profile(&a, &b);
    md.push_str(&format!(
        "cluster SpGEMM phase profile — uniform-random {nrows}x{}x{}, {}/{} nnz per row on \
         average (ISSR, PC-sampled)\n\n{}\n",
        last.inner,
        last.ncols,
        last.a_row_nnz,
        last.b_row_nnz,
        breakdown_table(&profile.rows())
    ));
    t.push("phases_varied", profile.to_json());
    BenchOutput { markdown: md, telemetry: t }
}
