//! Multi-cluster scale-out report ([`issr_bench::system`]): strong/weak
//! scaling of the tiled out-of-TCDM kernels (`system_csrmv`,
//! `system_spgemm`) over 1/2/4 clusters sharing one bandwidth-arbitrated
//! main memory, with the contention counters alongside.
//!
//! Pass `--smoke` for the scaled-down gate (the committed baseline).
//! Either way the run asserts its scale-out gates, so a regression
//! fails the process. With `--json <path>` the report lands in
//! `BENCH_system.json` plus a Chrome trace-event export
//! (`<path stem>.trace.json`, loadable at `ui.perfetto.dev`) of the
//! instrumented 2-cluster CsrMV.

use issr_bench::telemetry;

fn main() {
    // Static verification before anything ticks (see issr-lint).
    issr_lint::assert_shipped_clean();
    let report = issr_bench::system::system(std::env::args().any(|a| a == "--smoke"));
    report.output.emit();
    if let Some(path) = telemetry::json_arg() {
        let trace = telemetry::trace_path(&path);
        telemetry::write_json(&trace, &report.trace).expect("write Chrome trace");
        println!("wrote {}", trace.display());
    }
}
