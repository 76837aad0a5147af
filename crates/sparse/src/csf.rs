//! Compressed sparse fiber (CSF) tensors.
//!
//! CSF generalizes CSR to higher orders by nesting fibers (§III-A,
//! \[10\]): an order-3 tensor stores a fiber of slice indices, each slice
//! a fiber of row indices, each row a fiber of column indices with the
//! values at the leaves. The ISSR accelerates the innermost
//! (fiber × dense) products while the core walks the upper levels.

use crate::index::IndexValue;

/// An order-3 CSF tensor with `I`-width leaf indices.
///
/// # Examples
/// ```
/// use issr_sparse::csf::CsfTensor;
/// let t = CsfTensor::<u16>::from_coords(
///     [2, 3, 4],
///     &[([0, 1, 2], 5.0), ([1, 0, 0], -1.0)],
/// );
/// assert_eq!(t.nnz(), 2);
/// assert_eq!(t.dims(), [2, 3, 4]);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct CsfTensor<I> {
    dims: [usize; 3],
    /// Indices of nonempty slices (mode 0).
    slice_idcs: Vec<u32>,
    /// Row-fiber ranges per slice (`slice_ptr[s]..slice_ptr[s+1]`).
    slice_ptr: Vec<u32>,
    /// Indices of nonempty rows (mode 1).
    row_idcs: Vec<u32>,
    /// Leaf ranges per row.
    row_ptr: Vec<u32>,
    /// Leaf column indices (mode 2).
    leaf_idcs: Vec<I>,
    /// Leaf values.
    vals: Vec<f64>,
}

impl<I: IndexValue> CsfTensor<I> {
    /// Builds from coordinate/value pairs; duplicates are summed.
    ///
    /// # Panics
    /// Panics if a coordinate exceeds `dims`.
    #[must_use]
    pub fn from_coords(dims: [usize; 3], entries: &[([usize; 3], f64)]) -> Self {
        let mut sorted: Vec<([usize; 3], f64)> = entries.to_vec();
        sorted.sort_by_key(|&(c, _)| c);
        let mut t = Self {
            dims,
            slice_idcs: Vec::new(),
            slice_ptr: vec![0],
            row_idcs: Vec::new(),
            row_ptr: vec![0],
            leaf_idcs: Vec::new(),
            vals: Vec::new(),
        };
        for &([i, j, k], v) in &sorted {
            assert!(i < dims[0] && j < dims[1] && k < dims[2], "coordinate out of range");
            let same_slice = t.slice_idcs.last() == Some(&(i as u32));
            if !same_slice {
                t.slice_idcs.push(i as u32);
                t.slice_ptr.push(*t.slice_ptr.last().expect("non-empty"));
            }
            let same_row = same_slice && t.row_idcs.last() == Some(&(j as u32));
            if !same_row {
                t.row_idcs.push(j as u32);
                t.row_ptr.push(*t.row_ptr.last().expect("non-empty"));
                *t.slice_ptr.last_mut().expect("non-empty") += 1;
            }
            let same_leaf = same_row && t.leaf_idcs.last().map(|i| i.to_usize()) == Some(k);
            if same_leaf {
                *t.vals.last_mut().expect("non-empty") += v;
            } else {
                t.leaf_idcs.push(I::from_usize(k));
                t.vals.push(v);
                *t.row_ptr.last_mut().expect("non-empty") += 1;
            }
        }
        t
    }

    /// Tensor dimensions.
    #[must_use]
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Number of stored nonzeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of nonempty slices.
    #[must_use]
    pub fn n_slices(&self) -> usize {
        self.slice_idcs.len()
    }

    /// Iterates nonempty slices: `(slice_index, row_fiber_range)`.
    pub fn slices(&self) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
        self.slice_idcs
            .iter()
            .enumerate()
            .map(|(s, &i)| (i as usize, self.slice_ptr[s] as usize..self.slice_ptr[s + 1] as usize))
    }

    /// Row index and leaf range of compressed row `r`.
    #[must_use]
    pub fn row(&self, r: usize) -> (usize, std::ops::Range<usize>) {
        (self.row_idcs[r] as usize, self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize)
    }

    /// Leaf column indices.
    #[must_use]
    pub fn leaf_idcs(&self) -> &[I] {
        &self.leaf_idcs
    }

    /// Leaf values.
    #[must_use]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Iterates every `(i, j, k, value)` entry.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize, f64)> + '_ {
        self.slices().flat_map(move |(i, rows)| {
            rows.flat_map(move |r| {
                let (j, leaves) = self.row(r);
                leaves.map(move |l| (i, j, self.leaf_idcs[l].to_usize(), self.vals[l]))
            })
        })
    }

    /// Tensor-times-vector along mode 2: `Y[i][j] = Σ_k T[i][j][k] x[k]`,
    /// returning a dense matrix. This is the operation the paper's SpVV
    /// kernel accelerates per compressed row.
    ///
    /// # Panics
    /// Panics if `x.len() != dims[2]`.
    #[must_use]
    pub fn ttv(&self, x: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(x.len(), self.dims[2], "vector length mismatch");
        let mut out = vec![vec![0.0; self.dims[1]]; self.dims[0]];
        for (i, j, k, v) in self.iter() {
            out[i][j] += v * x[k];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsfTensor<u16> {
        CsfTensor::from_coords(
            [2, 2, 4],
            &[([0, 0, 1], 1.0), ([0, 0, 3], 2.0), ([0, 1, 0], 3.0), ([1, 1, 2], 4.0)],
        )
    }

    #[test]
    fn structure_counts() {
        let t = sample();
        assert_eq!(t.nnz(), 4);
        assert_eq!(t.n_slices(), 2);
        let entries: Vec<_> = t.iter().collect();
        assert_eq!(entries, [(0, 0, 1, 1.0), (0, 0, 3, 2.0), (0, 1, 0, 3.0), (1, 1, 2, 4.0)]);
    }

    #[test]
    fn duplicates_sum() {
        let t = CsfTensor::<u32>::from_coords([1, 1, 2], &[([0, 0, 1], 1.0), ([0, 0, 1], 2.0)]);
        assert_eq!(t.nnz(), 1);
        assert_eq!(t.vals(), &[3.0]);
    }

    #[test]
    fn ttv_matches_dense() {
        let t = sample();
        let x = [1.0, 10.0, 100.0, 1000.0];
        let y = t.ttv(&x);
        assert_eq!(y[0][0], 1.0 * 10.0 + 2.0 * 1000.0);
        assert_eq!(y[0][1], 3.0);
        assert_eq!(y[1][1], 4.0 * 100.0);
        assert_eq!(y[1][0], 0.0);
    }

    #[test]
    fn empty_tensor() {
        let t = CsfTensor::<u16>::from_coords([3, 3, 3], &[]);
        assert_eq!(t.nnz(), 0);
        assert_eq!(t.n_slices(), 0);
        assert_eq!(t.ttv(&[1.0, 1.0, 1.0]), vec![vec![0.0; 3]; 3]);
    }
}
