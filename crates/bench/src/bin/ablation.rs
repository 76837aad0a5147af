//! Ablation studies of three design choices: worker-count scaling of the
//! cluster CsrMV, the contribution of the instruction-cache model, and
//! the single-CC CsrMV's cycles per row by row length.
//!
//! Pass `--json <path>` to also write the rows as `BENCH_ablation.json`.

fn main() {
    issr_bench::ablation::ablation().emit();
}
