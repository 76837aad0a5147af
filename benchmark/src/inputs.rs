//! Seeded operand generation.
//!
//! A workload's *shape* is fixed: dimensions, nonzero counts and the
//! sparsity structure, drawn once from a constant per-operand structure
//! seed. Its *contents* — every matrix value, dense operand, sparse
//! vector value and codebook entry — come from `--seed`. Simulated cycle
//! counts depend on the structure and never on a value, which is what
//! lets the benchmark gate the modelled machine exactly while every
//! output still changes with the seed.

use issr_sparse::csr::CsrMatrix;
use issr_sparse::fiber::SparseFiber;
use issr_sparse::gen;
use issr_sparse::index::IndexValue;
use rand::rngs::StdRng;

/// The value stream of one run: everything drawn from `--seed`.
pub struct Values {
    rng: StdRng,
}

impl Values {
    /// The value stream for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { rng: gen::rng(seed) }
    }

    /// `len` normally distributed values.
    pub fn dense(&mut self, len: usize) -> Vec<f64> {
        gen::dense_vector(&mut self.rng, len)
    }

    /// `m`'s structure with fresh values.
    pub fn revalue_csr<I: IndexValue>(&mut self, m: &CsrMatrix<I>) -> CsrMatrix<I> {
        let vals = self.dense(m.nnz());
        CsrMatrix::new(m.nrows(), m.ncols(), m.ptr().to_vec(), m.idcs().to_vec(), vals)
            .expect("structure of a valid matrix stays valid")
    }

    /// `f`'s structure with fresh values.
    pub fn revalue_fiber<I: IndexValue>(&mut self, f: &SparseFiber<I>) -> SparseFiber<I> {
        let vals = self.dense(f.nnz());
        SparseFiber::new(f.dim(), f.idcs().to_vec(), vals)
            .expect("structure of a valid fiber stays valid")
    }

    /// `gen::csr_uniform` structure, seeded values.
    pub fn uniform(
        &mut self,
        structure_seed: u64,
        nrows: usize,
        ncols: usize,
        nnz: usize,
    ) -> CsrMatrix<u16> {
        let m = gen::csr_uniform::<u16>(&mut gen::rng(structure_seed), nrows, ncols, nnz);
        self.revalue_csr(&m)
    }

    /// `gen::csr_fixed_row_nnz` structure, seeded values.
    pub fn fixed_row_nnz(
        &mut self,
        structure_seed: u64,
        nrows: usize,
        ncols: usize,
        row_nnz: usize,
    ) -> CsrMatrix<u16> {
        let m = gen::csr_fixed_row_nnz::<u16>(&mut gen::rng(structure_seed), nrows, ncols, row_nnz);
        self.revalue_csr(&m)
    }

    /// The Fig. 4c generator (`gen::csr_clustered`, window four times the
    /// row length), seeded values.
    pub fn clustered(
        &mut self,
        structure_seed: u64,
        nrows: usize,
        ncols: usize,
        row_nnz: usize,
    ) -> CsrMatrix<u16> {
        let window = (row_nnz * 4).clamp(16, ncols);
        let m =
            gen::csr_clustered::<u16>(&mut gen::rng(structure_seed), nrows, ncols, row_nnz, window);
        self.revalue_csr(&m)
    }

    /// `gen::sparse_vector` structure, seeded values.
    pub fn sparse_vector(
        &mut self,
        structure_seed: u64,
        dim: usize,
        nnz: usize,
    ) -> SparseFiber<u16> {
        let f = gen::sparse_vector::<u16>(&mut gen::rng(structure_seed), dim, nnz);
        self.revalue_fiber(&f)
    }

    /// `gen::overlapping_pair` structure, seeded values.
    pub fn overlapping_pair(
        &mut self,
        structure_seed: u64,
        dim: usize,
        nnz: usize,
        overlap: f64,
    ) -> (SparseFiber<u16>, SparseFiber<u16>) {
        let (a, b) =
            gen::overlapping_pair::<u16>(&mut gen::rng(structure_seed), dim, nnz, nnz, overlap);
        (self.revalue_fiber(&a), self.revalue_fiber(&b))
    }
}
