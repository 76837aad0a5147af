//! The row-by-row assembly against the triplet-and-hash-set assembly it
//! replaced.
//!
//! `reference` holds the earlier `csr_fixed_row_nnz`, `csr_uniform`,
//! `csr_clustered`, `csr_banded` and `CsrMatrix::from_triplets` as they
//! were, apart from building the result through `CsrMatrix::new`. Every
//! test compares `ptr`, `idcs` and the value bits, so a changed draw
//! order or summation order fails here.

use issr_sparse::gen::{self, rng};
use issr_sparse::{CsrMatrix, IndexValue};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};

mod reference {
    use issr_sparse::{CsrMatrix, IndexValue};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::Rng;

    fn normal(rng: &mut StdRng) -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    pub fn from_triplets<I: IndexValue>(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> CsrMatrix<I> {
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut rows: Vec<usize> = Vec::with_capacity(sorted.len());
        let mut idcs: Vec<I> = Vec::with_capacity(sorted.len());
        let mut vals: Vec<f64> = Vec::with_capacity(sorted.len());
        for &(r, c, v) in &sorted {
            assert!(r < nrows && c < ncols, "triplet ({r},{c}) out of range");
            if rows.last() == Some(&r) && idcs.last().map(|i| i.to_usize()) == Some(c) {
                *vals.last_mut().expect("non-empty") += v;
            } else {
                rows.push(r);
                idcs.push(I::from_usize(c));
                vals.push(v);
            }
        }
        let mut ptr = vec![0u32; nrows + 1];
        for &r in &rows {
            ptr[r + 1] += 1;
        }
        for r in 0..nrows {
            ptr[r + 1] += ptr[r];
        }
        CsrMatrix::new(nrows, ncols, ptr, idcs, vals).expect("valid")
    }

    pub fn csr_fixed_row_nnz<I: IndexValue>(
        rng: &mut StdRng,
        nrows: usize,
        ncols: usize,
        row_nnz: usize,
    ) -> CsrMatrix<I> {
        assert!(row_nnz <= ncols, "row nnz {row_nnz} exceeds {ncols} columns");
        let mut triplets = Vec::with_capacity(nrows * row_nnz);
        let mut pool: Vec<usize> = (0..ncols).collect();
        for r in 0..nrows {
            pool.partial_shuffle(rng, row_nnz);
            for &c in &pool[..row_nnz] {
                triplets.push((r, c, normal(rng)));
            }
        }
        from_triplets(nrows, ncols, &triplets)
    }

    pub fn csr_uniform<I: IndexValue>(
        rng: &mut StdRng,
        nrows: usize,
        ncols: usize,
        nnz: usize,
    ) -> CsrMatrix<I> {
        let capacity = nrows.saturating_mul(ncols);
        let nnz = nnz.min(capacity);
        let mut seen = std::collections::HashSet::with_capacity(nnz * 2);
        let mut triplets = Vec::with_capacity(nnz);
        while triplets.len() < nnz {
            let r = rng.gen_range(0..nrows);
            let c = rng.gen_range(0..ncols);
            if seen.insert((r, c)) {
                triplets.push((r, c, normal(rng)));
            }
        }
        from_triplets(nrows, ncols, &triplets)
    }

    pub fn csr_clustered<I: IndexValue>(
        rng: &mut StdRng,
        nrows: usize,
        ncols: usize,
        row_nnz: usize,
        window: usize,
    ) -> CsrMatrix<I> {
        assert!(
            row_nnz <= window && window <= ncols,
            "window must satisfy row_nnz <= window <= ncols"
        );
        let mut triplets = Vec::with_capacity(nrows * row_nnz);
        let mut pool: Vec<usize> = (0..window).collect();
        for r in 0..nrows {
            let center = if nrows > 1 { r * ncols / nrows } else { 0 };
            let lo = center.saturating_sub(window / 2).min(ncols - window);
            pool.partial_shuffle(rng, row_nnz);
            for &off in &pool[..row_nnz] {
                triplets.push((r, lo + off, normal(rng)));
            }
        }
        from_triplets(nrows, ncols, &triplets)
    }

    pub fn csr_banded<I: IndexValue>(rng: &mut StdRng, n: usize, bandwidth: usize) -> CsrMatrix<I> {
        let mut triplets = Vec::new();
        for r in 0..n {
            let lo = r.saturating_sub(bandwidth);
            let hi = (r + bandwidth + 1).min(n);
            for c in lo..hi {
                triplets.push((r, c, normal(rng)));
            }
        }
        from_triplets(n, n, &triplets)
    }
}

/// Fails unless `got` and `want` agree in shape, `ptr`, `idcs` and the
/// bits of every value.
fn assert_same<I: IndexValue>(got: &CsrMatrix<I>, want: &CsrMatrix<I>, case: &str) {
    assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()), "{case}: shape");
    assert_eq!(got.ptr(), want.ptr(), "{case}: ptr");
    assert_eq!(got.idcs(), want.idcs(), "{case}: idcs");
    let bits = |m: &CsrMatrix<I>| m.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{case}: value bits");
}

/// Runs `new` and `old` from the same seed and compares them.
fn same_draws<I: IndexValue>(
    seed: u64,
    case: &str,
    new: impl FnOnce(&mut StdRng) -> CsrMatrix<I>,
    old: impl FnOnce(&mut StdRng) -> CsrMatrix<I>,
) {
    let (mut a, mut b) = (rng(seed), rng(seed));
    let got = new(&mut a);
    assert_same(&got, &old(&mut b), case);
    assert_eq!(a.next_u64(), b.next_u64(), "{case}: the RNG is left in the same state");
}

/// Every generator on a random shape, plus the edges: 1×1, empty rows,
/// a full matrix, `row_nnz` of 0 and of `ncols`, and windows of
/// `row_nnz` and of `ncols`.
#[test]
fn generators_match_the_triplet_assembly() {
    let mut shapes = rng(2024);
    let mut cases: Vec<(usize, usize, usize, usize)> =
        vec![(1, 1, 1, 1), (1, 1, 0, 1), (40, 3, 0, 1), (40, 3, 3, 3), (3, 40, 40, 40)];
    for _ in 0..250 {
        let nrows: usize = shapes.gen_range(1..40);
        let ncols: usize = shapes.gen_range(1..40);
        let row_nnz = shapes.gen_range(0..=ncols);
        let window = shapes.gen_range(row_nnz.max(1)..=ncols);
        cases.push((nrows, ncols, row_nnz, window));
    }
    for (i, &(nrows, ncols, row_nnz, window)) in cases.iter().enumerate() {
        let seed = i as u64;
        let case = format!("case {i}: {nrows}x{ncols}, row_nnz {row_nnz}, window {window}");
        same_draws::<u16>(
            seed,
            &format!("fixed_row_nnz {case}"),
            |r| gen::csr_fixed_row_nnz(r, nrows, ncols, row_nnz),
            |r| reference::csr_fixed_row_nnz(r, nrows, ncols, row_nnz),
        );
        for w in [window, row_nnz.max(1), ncols] {
            same_draws::<u32>(
                seed,
                &format!("clustered {case}, window {w}"),
                |r| gen::csr_clustered(r, nrows, ncols, row_nnz.min(w), w),
                |r| reference::csr_clustered(r, nrows, ncols, row_nnz.min(w), w),
            );
        }
        // Sparse (empty rows), a row's worth per row, and full.
        for nnz in [nrows / 4, row_nnz * nrows, nrows * ncols] {
            same_draws::<u16>(
                seed,
                &format!("uniform {case}, nnz {nnz}"),
                |r| gen::csr_uniform(r, nrows, ncols, nnz),
                |r| reference::csr_uniform(r, nrows, ncols, nnz),
            );
        }
        same_draws::<u32>(
            seed,
            &format!("banded {case}"),
            |r| gen::csr_banded(r, nrows, row_nnz),
            |r| reference::csr_banded(r, nrows, row_nnz),
        );
    }
}

/// `csr_uniform` at the shapes of two suite stand-ins.
#[test]
fn uniform_matches_at_suite_shapes() {
    for (name, n, nnz) in [("g7", 800, 38_352), ("orani678", 2529, 90_158)] {
        same_draws::<u16>(
            7,
            name,
            |r| gen::csr_uniform(r, n, n, nnz),
            |r| reference::csr_uniform(r, n, n, nnz),
        );
    }
}

/// Shuffled triplets with duplicates. One cell holds `1e16`, `1.0` and
/// `-1e16`: summed in input order that is 0, in sorted order it is 1,
/// so a changed summation order changes the bits.
#[test]
fn triplets_and_transpose_match() {
    let mut r = rng(99);
    for i in 0..200 {
        let nrows: usize = r.gen_range(1..30);
        let ncols: usize = r.gen_range(1..30);
        let mut triplets: Vec<(usize, usize, f64)> = (0..r.gen_range(0..120))
            .map(|_| (r.gen_range(0..nrows), r.gen_range(0..ncols), r.gen_range(-4.0..4.0)))
            .collect();
        // Duplicates of existing cells.
        for k in 0..triplets.len() / 3 {
            let (row, col, _) = triplets[k];
            triplets.push((row, col, r.gen_range(-4.0..4.0)));
        }
        let cell = (r.gen_range(0..nrows), r.gen_range(0..ncols));
        triplets.extend([1e16, 1.0, -1e16].map(|v| (cell.0, cell.1, v)));
        triplets.shuffle(&mut r);
        let case = format!("triplets {i}: {nrows}x{ncols}, {} entries", triplets.len());
        let got = CsrMatrix::<u16>::from_triplets(nrows, ncols, &triplets);
        let want = reference::from_triplets::<u16>(nrows, ncols, &triplets);
        assert_same(&got, &want, &case);

        let entries: Vec<(usize, usize, f64)> =
            (0..nrows).flat_map(|row| got.row(row).map(move |(c, v)| (c, row, v))).collect();
        assert_same(
            &got.transpose(),
            &reference::from_triplets(ncols, nrows, &entries),
            &format!("transpose of {case}"),
        );
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn out_of_range_triplets_panic() {
    let _ = CsrMatrix::<u32>::from_triplets(2, 2, &[(0, 0, 1.0), (2, 1, 1.0)]);
}
