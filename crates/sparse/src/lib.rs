//! # issr-sparse
//!
//! Sparse tensor formats, dense operands, workload generators and
//! reference kernels for the ISSR reproduction.
//!
//! The ISSR accelerates any format whose major axis is a *sparse fiber*
//! — a value array plus an index array (§III-A): sparse vectors
//! ([`fiber::SparseFiber`]), CSR/CSC matrices ([`csr`]), and CSF tensors
//! ([`csf`]). Workloads are generated exactly as in §IV
//! (normally-distributed values, uniformly-distributed indices) by
//! [`gen`], the paper's SuiteSparse selection is mirrored by the
//! synthetic [`suite`](mod@suite), and [`reference`](mod@reference)
//! provides the oracles the simulated kernels are validated against.
//! Real matrices can be loaded via [`mm`] (Matrix Market).

#![forbid(unsafe_code)]

pub mod csf;
pub mod csr;
pub mod dense;
pub mod fiber;
pub mod gen;
pub mod index;
pub mod mm;
pub mod reference;
pub mod suite;

pub use csf::CsfTensor;
pub use csr::{CscMatrix, CsrMatrix};
pub use dense::{allclose, DenseMatrix};
pub use fiber::{FormatError, SparseFiber};
pub use index::IndexValue;
pub use suite::{suite, SuiteEntry};
