//! Ablation studies of two design choices: worker-count scaling of the
//! cluster CsrMV and the contribution of the instruction-cache model.
//!
//! Pass `--json <path>` to also write the rows as `BENCH_ablation.json`.

fn main() {
    issr_bench::ablation::ablation().emit();
}
