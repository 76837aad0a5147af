//! Reports the sparse-sparse index-joiner subsystem: SpVV∩ and SpMSpV
//! cycle counts, joiner vs. software two-pointer merge, across match
//! densities, plus the ROI stall-cause attribution of a representative
//! joiner run.
//!
//! Pass `--smoke` for a reduced sweep (the CI baseline run) and
//! `--json <path>` to also write the rows as `BENCH_joiner.json`.

use issr_bench::figures::{default_overlap_sweep, joiner_spmspv, joiner_spvv};
use issr_bench::telemetry::{self, cc_attr_json, Telemetry};
use issr_trace::breakdown_table;

fn main() {
    // Static verification before anything ticks (see issr-lint).
    issr_lint::assert_shipped_clean();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut t = Telemetry::new("joiner", if smoke { "smoke" } else { "full" });
    let overlaps: Vec<f64> = if smoke { vec![0.0, 0.5, 1.0] } else { default_overlap_sweep() };
    let x_nnzs: Vec<usize> = if smoke { vec![64, 256] } else { vec![16, 64, 256, 1024] };

    // Anchored at half overlap: the run the attribution below explains.
    let spvv = joiner_spvv(&overlaps, 0.5);
    println!("SpVV∩ — sparse-sparse dot (512 ∩ 512 nnz in 8192), joiner vs software merge\n");
    println!("{}", spvv.table.markdown());
    t.push("spvv", spvv.table.json());

    let spmspv = joiner_spmspv(&x_nnzs);
    println!("SpMSpV — 48x2048 CSR (64 nnz/row) times sparse x, joiner vs software merge\n");
    println!("{}", spmspv.markdown());
    t.push("spmspv", spmspv.json());

    // Where the cycles of a joiner-fed run go: ROI attribution of the
    // half-overlap SpVV∩ run (ISSR-16), and what bounds it.
    let summary = spvv.anchor;
    println!("stall-cause attribution — SpVV∩ at 0.5 overlap (ISSR-16)\n");
    println!("{}", breakdown_table(&summary.attr.rows("")));
    t.push("spvv_attribution", cc_attr_json(&summary.attr));
    let verdict = issr_bench::verdict::cc_verdict(&summary);
    println!("{}", verdict.line("spvv 0.5 overlap"));
    t.push("verdict", verdict.to_json());

    if let Some(path) = telemetry::json_arg() {
        t.write(&path).expect("write BENCH json");
        println!("wrote {}", path.display());
    }
}
