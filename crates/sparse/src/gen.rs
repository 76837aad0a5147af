//! Seeded workload generators.
//!
//! Following §IV: dense tensors sample normally-distributed values;
//! sparse vectors combine normally-distributed values with
//! uniformly-distributed indices at a fixed nonzero count; sparse
//! matrices are generated with a controlled average row density for the
//! nnz/row sweeps of Figs. 4b/4c. Everything is driven by an explicit
//! seed so every experiment is reproducible.
//!
//! **Determinism.** A generator's output is a function of its seed and
//! the order in which it draws from the RNG: which draws it makes, and
//! what each one decides. The order in which it assembles rows into the
//! result is not part of that contract, so assembly may change without
//! moving a bit of any operand.
//!
//! **Memory.** Matrices are assembled row by row (`CsrMatrix::from_rows`):
//! besides the finished `ptr`, `idcs` and `vals` a generator holds one
//! row of scratch, plus, for [`csr_uniform`], its accepted entries kept
//! per row until they are assembled. Nothing is sized by `nrows × ncols`,
//! and the heap high-water mark stays within 4× the finished matrix
//! (`crates/sparse/tests/gen_heap.rs` checks this at psmigr_1's shape).

use crate::csr::CsrMatrix;
use crate::fiber::SparseFiber;
use crate::index::IndexValue;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Creates the deterministic generator used throughout the benches.
#[must_use]
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A standard-normal sample via Box–Muller (keeps us on the plain `rand`
/// crate without `rand_distr`).
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A dense vector of `len` normally-distributed values.
#[must_use]
pub fn dense_vector(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| normal(rng)).collect()
}

/// A sparse vector with exactly `nnz` nonzeros at distinct
/// uniformly-distributed indices (sorted), normally-distributed values.
///
/// # Panics
/// Panics if `nnz > dim`.
#[must_use]
pub fn sparse_vector<I: IndexValue>(rng: &mut StdRng, dim: usize, nnz: usize) -> SparseFiber<I> {
    assert!(nnz <= dim, "cannot place {nnz} nonzeros in dimension {dim}");
    // Partial Fisher–Yates: uniform distinct indices.
    let mut pool: Vec<usize> = (0..dim).collect();
    pool.partial_shuffle(rng, nnz);
    let mut idcs: Vec<usize> = pool[..nnz].to_vec();
    idcs.sort_unstable();
    let vals = (0..nnz).map(|_| normal(rng)).collect();
    SparseFiber::new(dim, idcs.into_iter().map(I::from_usize).collect(), vals)
        .expect("generated fiber is valid")
}

/// A CSR matrix where every row holds exactly `row_nnz` nonzeros at
/// distinct uniform columns — the controlled-density workload for the
/// nnz/row sweeps.
///
/// # Panics
/// Panics if `row_nnz > ncols`.
#[must_use]
pub fn csr_fixed_row_nnz<I: IndexValue>(
    rng: &mut StdRng,
    nrows: usize,
    ncols: usize,
    row_nnz: usize,
) -> CsrMatrix<I> {
    assert!(row_nnz <= ncols, "row nnz {row_nnz} exceeds {ncols} columns");
    let mut pool: Vec<usize> = (0..ncols).collect();
    CsrMatrix::from_rows(nrows, ncols, nrows * row_nnz, |_, row| {
        pool.partial_shuffle(rng, row_nnz);
        row.extend(pool[..row_nnz].iter().map(|&c| (c, normal(rng))));
    })
}

/// A CSR matrix with `nnz` total nonzeros at uniform positions
/// (duplicate draws are re-sampled), giving naturally varying row
/// lengths — the "real-world-like" workload used for suite stand-ins.
#[must_use]
pub fn csr_uniform<I: IndexValue>(
    rng: &mut StdRng,
    nrows: usize,
    ncols: usize,
    nnz: usize,
) -> CsrMatrix<I> {
    let nnz = nnz.min(nrows.saturating_mul(ncols));
    // Each row's accepted columns, kept sorted, and their values: a
    // binary-search hit is a duplicate draw.
    let mut rows: Vec<(Vec<I>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); nrows];
    let mut accepted = 0;
    while accepted < nnz {
        let r = rng.gen_range(0..nrows);
        let c = I::from_usize(rng.gen_range(0..ncols));
        let (cols, vals) = &mut rows[r];
        if let Err(at) = cols.binary_search(&c) {
            cols.insert(at, c);
            vals.insert(at, normal(rng));
            accepted += 1;
        }
    }
    CsrMatrix::from_rows(nrows, ncols, nnz, |r, row| {
        let (cols, vals) = std::mem::take(&mut rows[r]);
        row.extend(cols.into_iter().map(I::to_usize).zip(vals));
    })
}

/// A CSR matrix with exactly `row_nnz` nonzeros per row drawn from a
/// window of `window` columns around the row's diagonal position —
/// modelling the column locality real-world matrices exhibit (PDE
/// stencils, meshes, graphs with community structure). Window width
/// `ncols` degenerates to the uniform generator.
///
/// # Panics
/// Panics if `row_nnz > window` or `window > ncols`.
#[must_use]
pub fn csr_clustered<I: IndexValue>(
    rng: &mut StdRng,
    nrows: usize,
    ncols: usize,
    row_nnz: usize,
    window: usize,
) -> CsrMatrix<I> {
    assert!(row_nnz <= window && window <= ncols, "window must satisfy row_nnz <= window <= ncols");
    let mut pool: Vec<usize> = (0..window).collect();
    CsrMatrix::from_rows(nrows, ncols, nrows * row_nnz, |r, row| {
        let center = if nrows > 1 { r * ncols / nrows } else { 0 };
        let lo = center.saturating_sub(window / 2).min(ncols - window);
        pool.partial_shuffle(rng, row_nnz);
        row.extend(pool[..row_nnz].iter().map(|&off| (lo + off, normal(rng))));
    })
}

/// A banded CSR matrix (`bandwidth` diagonals each side), modelling the
/// stencil/PDE matrices common in SuiteSparse.
#[must_use]
pub fn csr_banded<I: IndexValue>(rng: &mut StdRng, n: usize, bandwidth: usize) -> CsrMatrix<I> {
    let band = |r: usize| r.saturating_sub(bandwidth)..(r + bandwidth + 1).min(n);
    let nnz = (0..n).map(|r| band(r).len()).sum();
    CsrMatrix::from_rows(n, n, nnz, |r, row| row.extend(band(r).map(|c| (c, normal(rng)))))
}

/// Two sparse vectors over the same axis with a controlled index
/// overlap: `overlap` (0..=1) is the fraction of the smaller nonzero
/// count shared between the two index sets — the knob the sparse-sparse
/// joiner sweeps (match density drives its emission rate).
///
/// # Panics
/// Panics if the requested counts do not fit the dimension or `overlap`
/// is outside `[0, 1]`.
#[must_use]
pub fn overlapping_pair<I: IndexValue>(
    rng: &mut StdRng,
    dim: usize,
    nnz_a: usize,
    nnz_b: usize,
    overlap: f64,
) -> (SparseFiber<I>, SparseFiber<I>) {
    assert!((0.0..=1.0).contains(&overlap), "overlap must be a fraction");
    let a = sparse_vector::<I>(rng, dim, nnz_a);
    let shared = (overlap * nnz_a.min(nnz_b) as f64).round() as usize;
    let fresh = nnz_b - shared;
    assert!(fresh <= dim - nnz_a, "cannot place {fresh} distinct B-only indices in {dim}");
    // Shared part: a uniform sample of A's index set.
    let mut from_a: Vec<usize> = a.idcs().iter().map(|&i| i.to_usize()).collect();
    from_a.partial_shuffle(rng, shared);
    let mut idcs: Vec<usize> = from_a[..shared].to_vec();
    // Fresh part: a uniform sample of the complement.
    let in_a: std::collections::HashSet<usize> = a.idcs().iter().map(|&i| i.to_usize()).collect();
    let mut complement: Vec<usize> = (0..dim).filter(|i| !in_a.contains(i)).collect();
    complement.partial_shuffle(rng, fresh);
    idcs.extend_from_slice(&complement[..fresh]);
    idcs.sort_unstable();
    let vals = (0..idcs.len()).map(|_| normal(rng)).collect();
    let b = SparseFiber::new(dim, idcs.into_iter().map(I::from_usize).collect(), vals)
        .expect("generated fiber is valid");
    (a, b)
}

/// A codebook-compressed vector: `codes[i]` selects one of
/// `codebook.len()` shared values (§III-C, codebook decoding).
#[must_use]
pub fn codebook_vector<I: IndexValue>(
    rng: &mut StdRng,
    len: usize,
    codebook_size: usize,
) -> (Vec<f64>, Vec<I>) {
    let codebook: Vec<f64> = (0..codebook_size).map(|_| normal(rng)).collect();
    let codes: Vec<I> = (0..len).map(|_| I::from_usize(rng.gen_range(0..codebook_size))).collect();
    (codebook, codes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_vector_has_exact_nnz_and_sorted_unique_indices() {
        let mut r = rng(42);
        let f = sparse_vector::<u16>(&mut r, 1000, 100);
        assert_eq!(f.nnz(), 100);
        let mut prev = None;
        for (i, _) in f.iter() {
            assert!(prev.is_none_or(|p| p < i), "indices must be strictly increasing");
            prev = Some(i);
        }
    }

    #[test]
    fn fixed_row_nnz_is_exact() {
        let mut r = rng(7);
        let m = csr_fixed_row_nnz::<u32>(&mut r, 50, 128, 16);
        assert_eq!(m.nnz(), 50 * 16);
        for row in 0..50 {
            assert_eq!(m.row(row).count(), 16);
        }
        assert!(m.validate().is_ok());
    }

    #[test]
    fn uniform_matrix_hits_target_nnz() {
        let mut r = rng(1);
        let m = csr_uniform::<u32>(&mut r, 100, 100, 500);
        assert_eq!(m.nnz(), 500);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn banded_matrix_shape() {
        let mut r = rng(3);
        let m = csr_banded::<u16>(&mut r, 10, 1);
        // Tridiagonal: 3n - 2 nonzeros.
        assert_eq!(m.nnz(), 28);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn overlapping_pair_hits_target_overlap() {
        let mut r = rng(13);
        for overlap in [0.0, 0.25, 0.5, 1.0] {
            let (a, b) = overlapping_pair::<u16>(&mut r, 2000, 200, 150, overlap);
            assert_eq!(a.nnz(), 200);
            assert_eq!(b.nnz(), 150);
            let a_set: std::collections::HashSet<usize> = a.iter().map(|(i, _)| i).collect();
            let shared = b.iter().filter(|(i, _)| a_set.contains(i)).count();
            let expect = (overlap * 150.0).round() as usize;
            assert_eq!(shared, expect, "overlap {overlap}");
            let mut prev = None;
            for (i, _) in b.iter() {
                assert!(prev.is_none_or(|p| p < i), "B indices sorted unique");
                prev = Some(i);
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let a = sparse_vector::<u32>(&mut rng(5), 256, 32);
        let b = sparse_vector::<u32>(&mut rng(5), 256, 32);
        assert_eq!(a, b);
    }

    #[test]
    fn normal_values_have_sane_moments() {
        let mut r = rng(11);
        let v = dense_vector(&mut r, 20_000);
        let mean: f64 = v.iter().sum::<f64>() / v.len() as f64;
        let var: f64 = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }

    #[test]
    fn codebook_codes_in_range() {
        let mut r = rng(9);
        let (book, codes) = codebook_vector::<u16>(&mut r, 500, 16);
        assert_eq!(book.len(), 16);
        assert_eq!(codes.len(), 500);
        assert!(codes.iter().all(|&c| usize::from(c) < 16));
    }
}
