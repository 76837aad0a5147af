//! Reports the sparse-sparse index-joiner subsystem
//! ([`issr_bench::joiner`]): SpVV∩ and SpMSpV cycle counts, joiner vs.
//! software two-pointer merge, across match densities, plus the ROI
//! stall-cause attribution of a representative joiner run.
//!
//! Pass `--smoke` for a reduced sweep (the committed baseline) and
//! `--json <path>` to also write the rows as `BENCH_joiner.json`.

fn main() {
    // Static verification before anything ticks (see issr-lint).
    issr_lint::assert_shipped_clean();
    issr_bench::joiner::joiner(std::env::args().any(|a| a == "--smoke")).emit();
}
