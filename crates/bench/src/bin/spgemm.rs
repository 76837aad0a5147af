//! Reports the sparse-output subsystem ([`issr_bench::spgemm`]):
//! row-wise Gustavson SpGEMM, SpAcc hardware expansion vs. the software
//! merge, across sparsity regimes, plus per-unit SpAcc activity, the
//! cluster version, and the trap-driven overflow-recovery regime.
//!
//! Pass `--smoke` for the scaled-down sweep (the committed baseline).
//! Either way the run asserts its gates, so a regression fails the
//! process, not just the tables.
//!
//! Pass `--suite` to instead sweep cluster SpGEMM (`C = M·M`) over
//! TCDM-resident windows of the SuiteSparse stand-ins and report the
//! power model's energy table for the sparse-output kernel.

fn main() {
    // Static verification before anything ticks: a kernel that fails
    // the linter would waste the whole sweep discovering it.
    issr_lint::assert_shipped_clean();
    let flag = |f: &str| std::env::args().any(|a| a == f);
    if flag("--suite") {
        issr_bench::spgemm::spgemm_suite().emit();
    } else {
        issr_bench::spgemm::spgemm(flag("--smoke")).emit();
    }
}
