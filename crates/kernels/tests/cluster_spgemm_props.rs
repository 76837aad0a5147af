//! Property tests for the device-owned cluster SpGEMM: for random
//! sparse operands, every worker count (1/2/4/8) and both index widths,
//! the one-pass on-device flow (cyclic rows, chained offsets) must give a
//! CSR product identical to the host oracle and to the single-core ISSR
//! kernel — including empty rows, all-empty operands and single-row
//! matrices.

use issr_kernels::cluster_spgemm::{run_cluster_spgemm, run_cluster_spgemm_on};
use issr_kernels::spgemm::run_spgemm;
use issr_kernels::variant::Variant;
use issr_sparse::csr::CsrMatrix;
use issr_sparse::{gen, reference};
use proptest::prelude::*;

/// Runs one cluster configuration and checks it against the host
/// oracle bit for bit on structure and within fp tolerance on values.
fn check_cluster(
    a: &CsrMatrix<u32>,
    b: &CsrMatrix<u32>,
    n_workers: usize,
    wide: bool,
    variant: Variant,
) {
    let expect = reference::spgemm(a, b).with_index_width::<u32>();
    let run = if wide {
        run_cluster_spgemm_on(variant, a, b, n_workers, true).expect("cluster run finishes")
    } else {
        let (a16, b16) = (a.with_index_width::<u16>(), b.with_index_width::<u16>());
        run_cluster_spgemm_on(variant, &a16, &b16, n_workers, true).expect("cluster run finishes")
    };
    assert!(run.summary.traps.is_empty(), "unexpected traps: {:?}", run.summary.traps);
    assert_eq!(
        run.c.ptr(),
        expect.ptr(),
        "{variant} workers={n_workers} wide={wide}: device-owned row pointer"
    );
    assert_eq!(run.c.idcs(), expect.idcs(), "{variant} workers={n_workers} column indices");
    for (got, want) in run.c.vals().iter().zip(expect.vals()) {
        assert!(
            (got - want).abs() <= 1e-12 * want.abs().max(1.0),
            "{variant} workers={n_workers} wide={wide}: {got} vs {want}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random shapes and densities across every worker count and both
    /// index widths: the device-owned allocation must agree with the
    /// host oracle.
    #[test]
    fn cluster_matches_oracle_for_all_worker_counts(
        nrows in 1usize..12,
        inner in 1usize..12,
        ncols in 1usize..20,
        fill_a in 0usize..3,
        fill_b in 0usize..4,
        workers in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        wide in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = gen::rng(seed);
        let nnz_a = (nrows * fill_a).min(nrows * inner);
        let nnz_b = (inner * fill_b).min(inner * ncols);
        let a = gen::csr_uniform::<u32>(&mut rng, nrows, inner, nnz_a);
        let b = gen::csr_uniform::<u32>(&mut rng, inner, ncols, nnz_b);
        check_cluster(&a, &b, workers, wide, Variant::Issr);
    }

    /// The cluster product equals the single-core ISSR product exactly
    /// (same expansion order per row ⇒ bit-identical values), for any
    /// worker count.
    #[test]
    fn cluster_bit_matches_single_core_issr(
        nrows in 1usize..10,
        inner in 1usize..10,
        ncols in 1usize..16,
        fill_a in 1usize..3,
        fill_b in 1usize..4,
        workers in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        seed in 0u64..1_000_000,
    ) {
        let mut rng = gen::rng(seed ^ 0xD00D);
        let a = gen::csr_uniform::<u16>(&mut rng, nrows, inner, nrows * fill_a);
        let b = gen::csr_uniform::<u16>(&mut rng, inner, ncols, inner * fill_b);
        let single = run_spgemm(Variant::Issr, &a, &b).expect("single-core run finishes");
        let cluster = run_cluster_spgemm_on(Variant::Issr, &a, &b, workers, true)
            .expect("cluster run finishes");
        prop_assert_eq!(cluster.c.ptr(), single.c.ptr());
        prop_assert_eq!(cluster.c.idcs(), single.c.idcs());
        prop_assert_eq!(cluster.c.vals(), single.c.vals(), "bit-identical values");
    }

    /// The BASE cluster chains its offsets the same way.
    #[test]
    fn base_cluster_matches_oracle(
        nrows in 1usize..8,
        inner in 1usize..8,
        ncols in 1usize..12,
        fill_a in 0usize..3,
        fill_b in 1usize..3,
        workers in prop_oneof![Just(1usize), Just(3), Just(8)],
        seed in 0u64..1_000_000,
    ) {
        let mut rng = gen::rng(seed ^ 0xBA5E);
        let a = gen::csr_uniform::<u32>(&mut rng, nrows, inner, nrows * fill_a);
        let b = gen::csr_uniform::<u32>(&mut rng, inner, ncols, inner * fill_b);
        check_cluster(&a, &b, workers, false, Variant::Base);
        check_cluster(&a, &b, workers, true, Variant::Base);
    }
}

/// All-empty operands: every row chains a zero length, the row pointer
/// is all zero, and the readback validates.
#[test]
fn all_empty_matrices() {
    for (nnz_a, nnz_b) in [(0, 0), (0, 8), (8, 0)] {
        let mut rng = gen::rng(7_000 + nnz_a as u64 * 10 + nnz_b as u64);
        let a = gen::csr_uniform::<u32>(&mut rng, 6, 8, nnz_a);
        let b = gen::csr_uniform::<u32>(&mut rng, 8, 10, nnz_b);
        for workers in [1usize, 2, 8] {
            check_cluster(&a, &b, workers, true, Variant::Issr);
            check_cluster(&a, &b, workers, false, Variant::Issr);
            check_cluster(&a, &b, workers, true, Variant::Base);
        }
    }
}

/// Single-row matrices: one worker owns the only row, every other
/// worker halts before its first row.
#[test]
fn single_row_matrices() {
    let a = CsrMatrix::<u32>::from_triplets(1, 6, &[(0, 1, 2.0), (0, 4, -1.5)]);
    let b_triplets: Vec<(usize, usize, f64)> = (0..6)
        .flat_map(|k| (0..3).map(move |j| (k, (k * 2 + j) % 7, 0.5 * (k + j + 1) as f64)))
        .collect();
    let b = CsrMatrix::<u32>::from_triplets(6, 7, &b_triplets);
    for workers in [1usize, 2, 4, 8] {
        check_cluster(&a, &b, workers, true, Variant::Issr);
        check_cluster(&a, &b, workers, false, Variant::Issr);
        check_cluster(&a, &b, workers, true, Variant::Base);
    }
}

/// Interleaved empty rows in A (and rows of B that nothing references):
/// the device-computed row pointer must carry the zero-length rows
/// through the offset chain (a prefix sum, one row at a time) unchanged.
#[test]
fn empty_rows_survive_the_prefix_sum() {
    // Rows 0, 2, 5 empty; rows 1, 3, 4, 6 populated.
    let triplets = [
        (1usize, 0usize, 1.0f64),
        (1, 3, 2.0),
        (3, 1, -1.0),
        (4, 2, 0.5),
        (4, 3, 1.5),
        (4, 0, 3.0),
        (6, 1, -2.5),
    ];
    let a = CsrMatrix::<u32>::from_triplets(7, 4, &triplets);
    let b_triplets: Vec<(usize, usize, f64)> = (0..4)
        .flat_map(|k| (0..4).map(move |j| (k, (k + j * 3) % 9, (k * 4 + j) as f64 * 0.25)))
        .collect();
    let b = CsrMatrix::<u32>::from_triplets(4, 9, &b_triplets);
    for workers in [1usize, 2, 4, 8] {
        check_cluster(&a, &b, workers, true, Variant::Issr);
        check_cluster(&a, &b, workers, false, Variant::Issr);
        check_cluster(&a, &b, workers, true, Variant::Base);
    }
    // The default entry point (8 workers, double-buffered) agrees too.
    let run = run_cluster_spgemm(Variant::Issr, &a, &b).unwrap();
    let expect = reference::spgemm(&a, &b).with_index_width::<u32>();
    assert_eq!(run.c.ptr(), expect.ptr());
}
