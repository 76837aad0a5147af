//! Property tests for the device-owned cluster SpGEMM: for random
//! sparse operands, every worker count (1/2/4/8) and both index widths,
//! the one-pass on-device flow (rows dealt by predicted cost, chained
//! offsets) must give a CSR product identical to the host oracle and to
//! the single-core ISSR kernel — including empty rows, all-empty
//! operands, single-row matrices and rows of very different cost.

use issr_kernels::cluster_spgemm::{run_cluster_spgemm, run_cluster_spgemm_on};
use issr_kernels::spgemm::run_spgemm;
use issr_kernels::system_spgemm::{run_system_spgemm_planned, SystemSpgemmPlan};
use issr_kernels::variant::{KernelIndex, Variant};
use issr_sparse::csr::CsrMatrix;
use issr_sparse::{gen, reference};
use issr_system::system::SystemParams;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::Rng;

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

/// A uniform-random `nrows × inner` matrix whose rows carry 1–24
/// nonzeros each (`inner` ≥ 24), so row costs differ several-fold and
/// the dealing leaves the cyclic order.
fn varied_rows(seed: u64, nrows: usize, inner: usize) -> CsrMatrix<u32> {
    let mut rng = gen::rng(seed);
    let mut cols: Vec<usize> = (0..inner).collect();
    let mut triplets = Vec::new();
    for r in 0..nrows {
        cols.shuffle(&mut rng);
        let nnz = rng.gen_range(1..=24);
        triplets.extend(cols[..nnz].iter().map(|&k| (r, k, rng.gen_range(-2.0..2.0))));
    }
    CsrMatrix::from_triplets(nrows, inner, &triplets)
}

fn val_bits(m: &CsrMatrix<u32>) -> Vec<u64> {
    m.vals().iter().map(|v| v.to_bits()).collect()
}

/// The cluster kernel at 1/2/4/8 workers matches the oracle and the
/// single-core kernel bit for bit, with `I`-width indices.
fn check_varied_cluster<I: KernelIndex>(a: &CsrMatrix<u32>, b: &CsrMatrix<u32>) {
    let (a, b) = (a.with_index_width::<I>(), b.with_index_width::<I>());
    let expect = reference::spgemm(&a, &b).with_index_width::<u32>();
    let single = run_spgemm(Variant::Issr, &a, &b).expect("single-core run finishes");
    assert_eq!(single.c.ptr(), expect.ptr());
    for workers in [1usize, 2, 4, 8] {
        let run = run_cluster_spgemm_on(Variant::Issr, &a, &b, workers, true)
            .expect("cluster run finishes");
        assert_eq!(run.c.ptr(), expect.ptr(), "workers={workers}: row pointer");
        assert_eq!(run.c.idcs(), expect.idcs(), "workers={workers}: column indices");
        assert_eq!(val_bits(&run.c), val_bits(&single.c), "workers={workers}: bit-identical");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Rows of 1–24 nonzeros: whatever order the dealing picks, the
    /// cluster product is the oracle's and the single core's, bit for
    /// bit, at every worker count and both index widths; the system
    /// kernel, forced onto several panels, gives the same bits at 1 and
    /// 2 clusters.
    #[test]
    fn varied_rows_match_across_workers_and_clusters(
        nrows in 12usize..40,
        ncols in 8usize..48,
        fill_b in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let inner = 32;
        let a = varied_rows(seed, nrows, inner);
        let b = gen::csr_uniform::<u32>(&mut gen::rng(seed ^ 0x5EED), inner, ncols, inner * fill_b);
        check_varied_cluster::<u16>(&a, &b);
        check_varied_cluster::<u32>(&a, &b);
        let (a, b) = (a.with_index_width::<u16>(), b.with_index_width::<u16>());
        let expect = reference::spgemm(&a, &b).with_index_width::<u32>();
        let n_workers = SystemParams::default().cluster.n_workers as u32;
        let mut bits = Vec::new();
        for n_clusters in [1usize, 2] {
            let plan = SystemSpgemmPlan::with_panel_caps(Variant::Issr, &a, &b, n_workers, 96, 1_024);
            prop_assert!(plan.n_panels() >= 2, "the caps must force several panels");
            let run = run_system_spgemm_planned(
                Variant::Issr,
                &a,
                &b,
                plan,
                SystemParams { n_clusters, ..SystemParams::default() },
            )
            .expect("system run finishes");
            prop_assert_eq!(run.c.ptr(), expect.ptr());
            prop_assert_eq!(run.c.idcs(), expect.idcs());
            bits.push(val_bits(&run.c));
        }
        prop_assert_eq!(&bits[0], &bits[1], "cluster count cannot change bits");
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
