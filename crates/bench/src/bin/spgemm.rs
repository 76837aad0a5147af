//! Reports the sparse-output subsystem: row-wise Gustavson SpGEMM,
//! SpAcc hardware expansion vs. the software merge, across sparsity
//! regimes, plus per-unit SpAcc activity, the cluster version, and the
//! trap-driven overflow-recovery regime (optimistic `ACC_BUF_CAP`,
//! grow-and-retry on `StreamFault::Overflow`).
//!
//! Pass `--smoke` for the scaled-down CI sweep. Either way the run
//! asserts ISSR ≥ 3x over BASE on every regime and that the recovery
//! regime actually traps and converges, so a regression fails the
//! process (the CI gate), not just the tables.
//!
//! Pass `--suite` to instead sweep cluster SpGEMM (`C = M·M`) over
//! TCDM-resident windows of the SuiteSparse stand-ins and report the
//! power model's energy table for the sparse-output kernel.

use issr_bench::figures::{
    cluster_spgemm_phase_profile, cluster_spgemm_report, default_spgemm_regimes,
    smoke_spgemm_regimes, spgemm_recovery_report, spgemm_suite_sweep, spgemm_sweep, SpgemmRow,
};
use issr_bench::report::{markdown_table, ratio, Fmt, Table};
use issr_bench::telemetry::{self, cc_attr_json, Telemetry};
use issr_trace::json::obj;
use issr_trace::{breakdown_table, Json};

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

fn suite_energy_table(t: &mut Telemetry) {
    let names: Vec<&str> = issr_sparse::suite::suite().into_iter().map(|e| e.name).collect();
    let rows = spgemm_suite_sweep(&names);
    println!("SpGEMM energy — SuiteSparse stand-ins (TCDM windows, cluster C = M·M)\n");
    println!("{}", rows.markdown());
    for i in 0..rows.len() {
        let gain = rows.f64(i, "gain");
        assert!(
            gain > 1.0,
            "{}: sparse-output energy efficiency regressed ({gain:.2}x)",
            rows.cell(i, "name")
        );
    }
    t.push("suite_energy", rows.json());
}

fn main() {
    // Static verification before anything ticks: a kernel that fails
    // the linter would waste the whole sweep discovering it.
    issr_lint::assert_shipped_clean();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let suite = std::env::args().any(|a| a == "--suite");
    let mode = if suite {
        "suite"
    } else if smoke {
        "smoke"
    } else {
        "full"
    };
    let mut t = Telemetry::new("spgemm", mode);
    if suite {
        suite_energy_table(&mut t);
        if let Some(path) = telemetry::json_arg() {
            t.write(&path).expect("write BENCH json");
            println!("wrote {}", path.display());
        }
        return;
    }
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
    println!("SpGEMM — row-wise Gustavson, SpAcc subsystem vs software merge\n");
    println!("{}", table.markdown());
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
    println!("SpAcc unit activity (ISSR-16 runs)\n");
    println!(
        "{}",
        markdown_table(
            &[
                "regime",
                "shape",
                "nnz/row",
                "feeds",
                "pairs",
                "merges",
                "steps",
                "drains",
                "out words"
            ],
            &table
        )
    );

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
    println!("SpAcc double-buffered drains (ISSR-16: single vs double buffer)\n");
    println!(
        "{}",
        markdown_table(
            &["regime", "single", "double", "saved", "gain", "overlap cyc", "port shared"],
            &table
        )
    );

    // Overflow recovery: optimistic ACC_BUF_CAP, trap-driven
    // grow-and-retry (validated against the oracle inside the runner).
    let rec = spgemm_recovery_report();
    println!(
        "overflow recovery: ACC_BUF_CAP {} -> {} over {} overflow trap(s); clean run {} \
         cycles, peak row nnz {}\n",
        rec.initial_cap, rec.final_cap, rec.retries, rec.cycles, rec.peak_nnz,
    );
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

    let cluster = cluster_spgemm_report(regimes[regimes.len() - 1]);
    println!(
        "cluster SpGEMM ({}): BASE {} cycles, ISSR {} cycles ({:.2}x)\n",
        cluster.regime.label,
        cluster.base_cycles,
        cluster.issr_cycles,
        ratio(cluster.base_cycles as f64, cluster.issr_cycles as f64),
    );
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
    println!("per-worker SpAcc units (cluster ISSR run)\n");
    println!(
        "{}",
        markdown_table(
            &["worker", "feeds", "pairs", "merges", "drains", "out words", "peak nnz"],
            &table
        )
    );
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
    let last = regimes[regimes.len() - 1];
    println!("stall-cause attribution — {} regime (ISSR-16)\n", last.label);
    println!("{}", breakdown_table(&summary.attr.rows("")));
    t.push("attribution", cc_attr_json(&summary.attr));
    let verdict = issr_bench::verdict::cc_verdict(&summary);
    println!("{}", verdict.line(&format!("spgemm {}", last.label)));
    t.push("verdict", verdict.to_json());

    // The two-pass cluster kernel's phases, resolved by PC sampling:
    // where the symbolic, scan and numeric passes each burn cycles.
    let profile = cluster_spgemm_phase_profile(last);
    println!("cluster SpGEMM phase profile — {} regime (ISSR, PC-sampled)\n", last.label);
    println!("{}", breakdown_table(&profile.rows()));
    t.push("phases", profile.to_json());

    if let Some(path) = telemetry::json_arg() {
        t.write(&path).expect("write BENCH json");
        println!("wrote {}", path.display());
    }
}
