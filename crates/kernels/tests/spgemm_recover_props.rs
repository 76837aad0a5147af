//! Property tests for trap-driven grow-and-retry SpGEMM: on rows
//! *engineered to overflow* an optimistic SpAcc row-buffer capacity,
//! the overflow latches as a structured `StreamFault`, the harness
//! grows `ACC_BUF_CAP` and replays, and the final product is
//! oracle-identical — for the single-CC kernel and the cluster, across
//! index widths and worker counts. No input panics the simulator, and a
//! trapped cluster attempt ends at its trap.

use issr_kernels::cluster_spgemm::run_cluster_spgemm_recover;
use issr_kernels::spgemm::run_spgemm_recover;
use issr_kernels::variant::Variant;
use issr_sparse::csr::CsrMatrix;
use issr_sparse::{gen, reference};
use proptest::prelude::*;

/// Checks one recovered product against the host oracle (bit-identical
/// structure, fp-tolerant values).
fn check_against_oracle(c: &CsrMatrix<u32>, a: &CsrMatrix<u32>, b: &CsrMatrix<u32>, label: &str) {
    let expect = reference::spgemm(a, b).with_index_width::<u32>();
    assert_eq!(c.ptr(), expect.ptr(), "{label}: row pointers");
    assert_eq!(c.idcs(), expect.idcs(), "{label}: column indices");
    for (got, want) in c.vals().iter().zip(expect.vals()) {
        assert!((got - want).abs() <= 1e-12 * want.abs().max(1.0), "{label}: {got} vs {want}");
    }
}

/// Operands whose product rows are dense enough to overflow a small
/// capacity: B rows carry `b_row_nnz` nonzeros, so a C row reaches up
/// to `a_row_nnz * b_row_nnz` distinct columns.
fn engineered(
    seed: u64,
    nrows: usize,
    inner: usize,
    ncols: usize,
    a_row_nnz: usize,
    b_row_nnz: usize,
) -> (CsrMatrix<u32>, CsrMatrix<u32>) {
    let mut rng = gen::rng(seed);
    let a = gen::csr_fixed_row_nnz::<u32>(&mut rng, nrows, inner, a_row_nnz);
    let b = gen::csr_fixed_row_nnz::<u32>(&mut rng, inner, ncols, b_row_nnz);
    (a, b)
}

/// The deterministic showcase: a tiny initial capacity against rows
/// that need the full output width forces several doubling retries,
/// and the result still matches the oracle exactly.
#[test]
fn single_cc_recovers_from_engineered_overflow() {
    let (a, b) = engineered(0xEC0, 6, 16, 48, 4, 48); // B rows fully dense
    let rec = run_spgemm_recover(Variant::Issr, &a, &b, 3).expect("recovery finishes");
    assert!(rec.retries >= 3, "cap 3 must double several times, got {}", rec.retries);
    assert!(rec.final_cap <= 48, "cap is clamped to the output width");
    check_against_oracle(&rec.run.c, &a, &b, "single-CC grow-and-retry");
}

/// A capacity that already fits never retries (the optimistic fast
/// path is free when optimism was right).
#[test]
fn sufficient_capacity_never_retries() {
    let (a, b) = engineered(0xEC1, 6, 12, 24, 2, 4);
    let rec = run_spgemm_recover(Variant::Issr, &a, &b, 24).expect("run finishes");
    assert_eq!(rec.retries, 0);
    assert_eq!(rec.final_cap, 24);
    check_against_oracle(&rec.run.c, &a, &b, "no-retry fast path");
}

/// The cluster flow: a worker whose row overflows parks, the attempt
/// ends at that trap, and the retry with a grown capacity matches the
/// oracle.
#[test]
fn cluster_recovers_from_engineered_overflow() {
    let (a, b) = engineered(0xEC2, 12, 16, 40, 3, 20);
    let (a16, b16) = (a.with_index_width::<u16>(), b.with_index_width::<u16>());
    let rec = run_cluster_spgemm_recover(Variant::Issr, &a16, &b16, 4, 4)
        .expect("cluster recovery finishes");
    assert!(rec.retries >= 1, "cap 4 must overflow at least once");
    check_against_oracle(&rec.run.c, &a, &b, "cluster grow-and-retry");
}

/// One overflowing row ahead of the offset chain: 8 workers and 12
/// rows, where row 0 expands to 40 products over 24 distinct columns
/// and every other row to 3. Only row 0 overflows cap 8 (then 16); its
/// trap ends each attempt at once rather than leaving the rows chained
/// behind it to spin out the cycle budget.
#[test]
fn cluster_recovers_from_one_overflowing_row() {
    let mut a_triplets: Vec<(usize, usize, f64)> = (0..5).map(|k| (0, k, 1.0 + k as f64)).collect();
    a_triplets.extend((1..12).map(|i| (i, 5 + i % 11, 0.5 * i as f64)));
    let a = CsrMatrix::<u32>::from_triplets(12, 16, &a_triplets);
    let mut b_triplets: Vec<(usize, usize, f64)> =
        (0..5).flat_map(|k| (0..8).map(move |j| (k, k * 4 + j, 0.25 * (k + j) as f64))).collect();
    b_triplets
        .extend((5..16).flat_map(|k| (0..3).map(move |j| (k, (k * 3 + j * 5) % 48, k as f64))));
    let b = CsrMatrix::<u32>::from_triplets(16, 48, &b_triplets);
    let rec = run_cluster_spgemm_recover(Variant::Issr, &a, &b, 8, 8).expect("recovery finishes");
    assert_eq!((rec.retries, rec.final_cap), (2, 32), "8 and 16 overflow, 32 holds 24");
    check_against_oracle(&rec.run.c, &a, &b, "one overflowing row");
    assert!(rec.run.summary.cycles < 20_000, "clean run took {} cycles", rec.run.summary.cycles);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random shapes, densities, initial capacities and index widths:
    /// grow-and-retry always converges to the oracle product, whether
    /// or not the initial capacity overflows.
    #[test]
    fn recovery_matches_oracle_on_random_workloads(
        nrows in 1usize..8,
        inner in 1usize..10,
        ncols in 4usize..40,
        a_row_nnz in 1usize..4,
        b_fill in 1usize..4,
        initial_cap in 1u32..12,
        wide in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let b_row_nnz = (ncols * b_fill / 4).max(1).min(ncols);
        let a_row_nnz = a_row_nnz.min(inner);
        let (a, b) = engineered(seed, nrows, inner, ncols, a_row_nnz, b_row_nnz);
        if wide {
            let rec = run_spgemm_recover(Variant::Issr, &a, &b, initial_cap)
                .expect("recovery finishes");
            check_against_oracle(&rec.run.c, &a, &b, "random wide");
        } else {
            let (a16, b16) = (a.with_index_width::<u16>(), b.with_index_width::<u16>());
            let rec = run_spgemm_recover(Variant::Issr, &a16, &b16, initial_cap)
                .expect("recovery finishes");
            check_against_oracle(&rec.run.c, &a, &b, "random narrow");
        }
    }

    /// The cluster version under random worker counts: every attempt
    /// either completes cleanly or traps only on recoverable overflow,
    /// and the converged product matches the oracle.
    #[test]
    fn cluster_recovery_matches_oracle(
        nrows in 1usize..10,
        inner in 1usize..8,
        ncols in 4usize..24,
        initial_cap in 1u32..6,
        workers in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        seed in any::<u64>(),
    ) {
        let (a, b) = engineered(seed, nrows, inner, ncols, 2.min(inner), (ncols / 2).max(1));
        let (a16, b16) = (a.with_index_width::<u16>(), b.with_index_width::<u16>());
        let rec = run_cluster_spgemm_recover(Variant::Issr, &a16, &b16, workers, initial_cap)
            .expect("cluster recovery finishes");
        check_against_oracle(&rec.run.c, &a, &b, "cluster random");
    }
}
