//! Compressed sparse rows (CSR).
//!
//! A CSR matrix concatenates the sparse row fibers of a matrix and adds
//! a pointer array delimiting them (§III-A). Row pointers are 32-bit, as
//! in the paper's kernels, "enabling broad scaling in rows"; the column
//! indices are generic over the 16/32-bit width. A CSC matrix is the
//! CSR of its transpose ([`CsrMatrix::transpose`]): the paper's kernels
//! handle it by exchanging the roles of the two dense axes (§III-B).

use crate::fiber::FormatError;
use crate::index::IndexValue;
use std::sync::Arc;

/// A CSR matrix with `I`-width column indices.
///
/// The row pointers and values are shared (nothing mutates them after
/// construction), so [`Self::with_index_width`] and `clone` copy only
/// the index array.
///
/// # Examples
/// ```
/// use issr_sparse::csr::CsrMatrix;
/// // [[1, 0], [0, 2]]
/// let m = CsrMatrix::<u16>::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]);
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.to_dense(), vec![vec![1.0, 0.0], vec![0.0, 2.0]]);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct CsrMatrix<I> {
    nrows: usize,
    ncols: usize,
    ptr: Arc<Vec<u32>>,
    idcs: Vec<I>,
    vals: Arc<Vec<f64>>,
}

impl<I: IndexValue> CsrMatrix<I> {
    /// Builds from raw arrays, validating the invariants.
    ///
    /// # Errors
    /// Returns [`FormatError`] on inconsistent pointers, mismatched
    /// lengths, or out-of-range column indices.
    pub fn new(
        nrows: usize,
        ncols: usize,
        ptr: Vec<u32>,
        idcs: Vec<I>,
        vals: Vec<f64>,
    ) -> Result<Self, FormatError> {
        let m = Self { nrows, ncols, ptr: Arc::new(ptr), idcs, vals: Arc::new(vals) };
        m.validate()?;
        Ok(m)
    }

    /// Builds from `(row, col, value)` triplets in any order; duplicates
    /// are summed in input order.
    ///
    /// A counting sort by row scatters each triplet's `(col, value)` in
    /// input order, and each row is then stably sorted by column: the
    /// order of a stable `(row, col)` sort of the whole list.
    ///
    /// # Panics
    /// Panics if a coordinate is out of range.
    #[must_use]
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut start = vec![0usize; nrows + 1];
        for &(r, c, _) in triplets {
            assert!(r < nrows && c < ncols, "triplet ({r},{c}) out of range");
            start[r + 1] += 1;
        }
        for r in 0..nrows {
            start[r + 1] += start[r];
        }
        let mut next = start.clone();
        let mut scattered = vec![(0, 0.0); triplets.len()];
        for &(r, c, v) in triplets {
            scattered[next[r]] = (c, v);
            next[r] += 1;
        }
        Self::from_rows(nrows, ncols, triplets.len(), |r, row| {
            row.extend_from_slice(&scattered[start[r]..start[r + 1]]);
        })
    }

    /// Assembles a matrix row by row: `fill(r, row)` appends row `r`'s
    /// `(col, value)` entries to an empty `row`, in any order. Each row
    /// is stably sorted by column and its duplicates are summed in the
    /// order they were appended. `nnz` sizes the output arrays; the only
    /// other memory is one row of scratch.
    pub(crate) fn from_rows(
        nrows: usize,
        ncols: usize,
        nnz: usize,
        mut fill: impl FnMut(usize, &mut Vec<(usize, f64)>),
    ) -> Self {
        let mut ptr = Vec::with_capacity(nrows + 1);
        ptr.push(0u32);
        let mut idcs: Vec<I> = Vec::with_capacity(nnz);
        let mut vals: Vec<f64> = Vec::with_capacity(nnz);
        let mut row = Vec::new();
        for r in 0..nrows {
            row.clear();
            fill(r, &mut row);
            row.sort_by_key(|&(c, _)| c);
            let row_start = idcs.len();
            for &(c, v) in &row {
                if idcs.len() > row_start && idcs.last().map(|i| i.to_usize()) == Some(c) {
                    *vals.last_mut().expect("non-empty") += v;
                } else {
                    idcs.push(I::from_usize(c));
                    vals.push(v);
                }
            }
            ptr.push(u32::try_from(idcs.len()).expect("nonzero count fits 32-bit row pointers"));
        }
        let m = Self { nrows, ncols, ptr: Arc::new(ptr), idcs, vals: Arc::new(vals) };
        debug_assert!(m.validate().is_ok());
        m
    }

    /// Internal consistency check, in place.
    ///
    /// # Errors
    /// Returns the violated invariant.
    pub fn validate(&self) -> Result<(), FormatError> {
        let &Self { nrows, ncols, ref ptr, ref idcs, ref vals } = self;
        if idcs.len() != vals.len() {
            return Err(FormatError::LengthMismatch { idcs: idcs.len(), vals: vals.len() });
        }
        if ptr.len() != nrows + 1 {
            return Err(FormatError::PtrBounds { expected: nrows + 1, got: ptr.len() });
        }
        if ptr[0] != 0 || ptr[nrows] as usize != vals.len() {
            return Err(FormatError::PtrBounds { expected: vals.len(), got: ptr[nrows] as usize });
        }
        for r in 0..nrows {
            if ptr[r] > ptr[r + 1] {
                return Err(FormatError::NonMonotonicPtr { row: r });
            }
        }
        for &c in idcs {
            if c.to_usize() >= ncols {
                return Err(FormatError::IndexOutOfRange { index: c.to_usize(), dim: ncols });
            }
        }
        Ok(())
    }

    /// Number of rows.
    #[must_use]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[must_use]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Average nonzeros per row (the x-axis of Figs. 4b/4c).
    #[must_use]
    pub fn avg_row_nnz(&self) -> f64 {
        if self.nrows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.nrows as f64
        }
    }

    /// Row pointer array (`nrows + 1` entries).
    #[must_use]
    pub fn ptr(&self) -> &[u32] {
        &self.ptr
    }

    /// Column index array.
    #[must_use]
    pub fn idcs(&self) -> &[I] {
        &self.idcs
    }

    /// Value array.
    #[must_use]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// The half-open nonzero range of row `r`.
    #[must_use]
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.ptr[r] as usize..self.ptr[r + 1] as usize
    }

    /// Iterates `(col, value)` of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.row_range(r);
        self.idcs[range.clone()].iter().zip(&self.vals[range]).map(|(&c, &v)| (c.to_usize(), v))
    }

    /// Densifies (rows of columns).
    #[must_use]
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; self.ncols]; self.nrows];
        for (r, row_out) in out.iter_mut().enumerate() {
            for (c, v) in self.row(r) {
                row_out[c] += v;
            }
        }
        out
    }

    /// Transposes into CSC-of-the-same-matrix, i.e. returns the CSR of
    /// the transpose.
    #[must_use]
    pub fn transpose(&self) -> CsrMatrix<I> {
        let mut triplets = Vec::with_capacity(self.nnz());
        for r in 0..self.nrows {
            for (c, v) in self.row(r) {
                triplets.push((c, r, v));
            }
        }
        CsrMatrix::from_triplets(self.ncols, self.nrows, &triplets)
    }

    /// Converts the index width, sharing the row pointers and values.
    #[must_use]
    pub fn with_index_width<J: IndexValue>(&self) -> CsrMatrix<J> {
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            ptr: Arc::clone(&self.ptr),
            idcs: self.idcs.iter().map(|&i| J::from_usize(i.to_usize())).collect(),
            vals: Arc::clone(&self.vals),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix<u32> {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
    }

    #[test]
    fn triplets_build_valid_csr() {
        let m = sample();
        assert_eq!(m.ptr(), &[0, 2, 2, 4]);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.avg_row_nnz(), 4.0 / 3.0);
        assert_eq!(
            m.to_dense(),
            vec![vec![1.0, 0.0, 2.0], vec![0.0, 0.0, 0.0], vec![3.0, 4.0, 0.0]]
        );
    }

    #[test]
    fn empty_rows_are_represented() {
        let m = sample();
        assert_eq!(m.row(1).count(), 0);
        assert_eq!(m.row_range(1), 2..2);
    }

    #[test]
    fn duplicate_triplets_sum() {
        let m = CsrMatrix::<u32>::from_triplets(1, 2, &[(0, 1, 1.0), (0, 1, 2.5)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.to_dense()[0][1], 3.5);
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        let tt = t.transpose();
        assert_eq!(tt.to_dense(), m.to_dense());
    }

    #[test]
    fn validation_rejects_bad_ptr() {
        let err = CsrMatrix::<u32>::new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]);
        assert!(err.is_err());
    }

    #[test]
    fn validation_rejects_out_of_range_col() {
        let err = CsrMatrix::<u16>::new(1, 2, vec![0, 1], vec![2u16], vec![1.0]);
        assert!(matches!(err, Err(FormatError::IndexOutOfRange { .. })));
    }

    #[test]
    fn width_conversion() {
        let m = sample().with_index_width::<u16>();
        assert_eq!(m.idcs(), &[0u16, 2, 0, 1]);
        assert!(m.validate().is_ok());
    }
}
