//! Sparse fibers: the value/index array pair underlying every format
//! the ISSR accelerates (§III-A).

use crate::index::IndexValue;
use std::sync::Arc;

/// A sparse fiber: nonzero values plus their positions along one axis.
///
/// This directly represents a sparse vector and is the building block of
/// CSR/CSC matrices and CSF tensors. The values are shared (nothing
/// mutates them after construction), so [`Self::with_index_width`]
/// copies only the index array.
///
/// # Examples
/// ```
/// use issr_sparse::fiber::SparseFiber;
/// let f = SparseFiber::<u16>::new(8, vec![1, 5], vec![2.0, -1.0])?;
/// assert_eq!(f.nnz(), 2);
/// assert_eq!(f.dim(), 8);
/// # Ok::<(), issr_sparse::FormatError>(())
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct SparseFiber<I> {
    dim: usize,
    idcs: Vec<I>,
    vals: Arc<Vec<f64>>,
}

/// Error constructing a sparse structure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FormatError {
    /// Index and value arrays differ in length.
    LengthMismatch { idcs: usize, vals: usize },
    /// An index is out of range for the axis dimension.
    IndexOutOfRange { index: usize, dim: usize },
    /// Row pointers are not monotonically non-decreasing.
    NonMonotonicPtr { row: usize },
    /// Row pointer bounds do not match the nonzero count.
    PtrBounds { expected: usize, got: usize },
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::LengthMismatch { idcs, vals } => {
                write!(f, "index array has {idcs} entries but value array has {vals}")
            }
            FormatError::IndexOutOfRange { index, dim } => {
                write!(f, "index {index} out of range for dimension {dim}")
            }
            FormatError::NonMonotonicPtr { row } => {
                write!(f, "row pointer decreases at row {row}")
            }
            FormatError::PtrBounds { expected, got } => {
                write!(f, "row pointers end at {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for FormatError {}

impl<I: IndexValue> SparseFiber<I> {
    /// Creates a fiber over an axis of size `dim`.
    ///
    /// # Errors
    /// Returns [`FormatError`] if arrays mismatch in length or an index
    /// exceeds `dim`.
    pub fn new(dim: usize, idcs: Vec<I>, vals: Vec<f64>) -> Result<Self, FormatError> {
        if idcs.len() != vals.len() {
            return Err(FormatError::LengthMismatch { idcs: idcs.len(), vals: vals.len() });
        }
        for &i in &idcs {
            if i.to_usize() >= dim {
                return Err(FormatError::IndexOutOfRange { index: i.to_usize(), dim });
            }
        }
        Ok(Self { dim, idcs, vals: Arc::new(vals) })
    }

    /// Axis dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored nonzeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The index array.
    #[must_use]
    pub fn idcs(&self) -> &[I] {
        &self.idcs
    }

    /// The value array.
    #[must_use]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Iterates `(index, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.idcs.iter().zip(self.vals.iter()).map(|(&i, &v)| (i.to_usize(), v))
    }

    /// Densifies into a `dim`-element vector.
    #[must_use]
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        for (i, v) in self.iter() {
            out[i] += v;
        }
        out
    }

    /// Converts the index width, sharing the values.
    #[must_use]
    pub fn with_index_width<J: IndexValue>(&self) -> SparseFiber<J> {
        SparseFiber {
            dim: self.dim,
            idcs: self.idcs.iter().map(|&i| J::from_usize(i.to_usize())).collect(),
            vals: Arc::clone(&self.vals),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_fiber() {
        let f = SparseFiber::<u32>::new(10, vec![0, 3, 9], vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(f.nnz(), 3);
        assert_eq!(f.to_dense(), [1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn length_mismatch_rejected() {
        let err = SparseFiber::<u32>::new(4, vec![0], vec![]).unwrap_err();
        assert_eq!(err, FormatError::LengthMismatch { idcs: 1, vals: 0 });
    }

    #[test]
    fn out_of_range_rejected() {
        let err = SparseFiber::<u16>::new(4, vec![4], vec![1.0]).unwrap_err();
        assert_eq!(err, FormatError::IndexOutOfRange { index: 4, dim: 4 });
    }

    #[test]
    fn width_conversion_preserves_content() {
        let f = SparseFiber::<u32>::new(100, vec![7, 42], vec![0.5, -0.5]).unwrap();
        let g: SparseFiber<u16> = f.with_index_width();
        assert_eq!(g.idcs(), &[7u16, 42]);
        assert_eq!(g.vals(), f.vals());
        assert_eq!(g.dim(), 100);
    }
}
