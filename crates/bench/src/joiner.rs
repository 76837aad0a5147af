//! The sparse-sparse index-joiner report: SpVV∩ and SpMSpV cycle
//! counts, joiner vs. software two-pointer merge, across match
//! densities, plus the ROI stall-cause attribution of a representative
//! joiner run. `--bin joiner` prints it; its smoke envelope is
//! `baselines/BENCH_joiner.json`.

use crate::figures::{default_overlap_sweep, joiner_spmspv, joiner_spvv};
use crate::telemetry::{cc_attr_json, BenchOutput, Telemetry};
use issr_trace::breakdown_table;

/// Runs the joiner sweeps, reduced with `smoke`.
///
/// # Panics
/// Panics if a run fails or misses its reference.
#[must_use]
pub fn joiner(smoke: bool) -> BenchOutput {
    let mut t = Telemetry::new("joiner", if smoke { "smoke" } else { "full" });
    let overlaps: Vec<f64> = if smoke { vec![0.0, 0.5, 1.0] } else { default_overlap_sweep() };
    let x_nnzs: Vec<usize> = if smoke { vec![64, 256] } else { vec![16, 64, 256, 1024] };

    // Anchored at half overlap: the run the attribution below explains.
    let spvv = joiner_spvv(&overlaps, 0.5);
    let mut md = format!(
        "SpVV∩ — sparse-sparse dot (512 ∩ 512 nnz in 8192), joiner vs software merge\n\n{}\n",
        spvv.table.markdown()
    );
    t.push("spvv", spvv.table.json());

    let spmspv = joiner_spmspv(&x_nnzs);
    md.push_str(&format!(
        "SpMSpV — 48x2048 CSR (64 nnz/row) times sparse x, joiner vs software merge\n\n{}\n",
        spmspv.markdown()
    ));
    t.push("spmspv", spmspv.json());

    // Where the cycles of a joiner-fed run go: ROI attribution of the
    // half-overlap SpVV∩ run (ISSR-16), and what bounds it.
    let summary = spvv.anchor;
    md.push_str(&format!(
        "stall-cause attribution — SpVV∩ at 0.5 overlap (ISSR-16)\n\n{}\n",
        breakdown_table(&summary.attr.rows(""))
    ));
    t.push("spvv_attribution", cc_attr_json(&summary.attr));
    let verdict = crate::verdict::cc_verdict(&summary);
    md.push_str(&format!("{}\n", verdict.line("spvv 0.5 overlap")));
    t.push("verdict", verdict.to_json());
    BenchOutput { markdown: md, telemetry: t }
}
