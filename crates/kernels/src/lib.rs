//! # issr-kernels
//!
//! The paper's kernels (§III): SpVV, CsrMV and CsrMM in BASE / SSR /
//! ISSR variants for 16- and 32-bit indices, the multicore cluster
//! CsrMV, the further indirection applications of §III-C (codebook
//! decoding, scatter/gather streaming), the sparse-sparse SpVV∩ /
//! SpMSpV kernels on the index joiner ([`spmspv`]), row-wise Gustavson
//! SpGEMM on the sparse-output subsystem ([`spgemm`]), their multicore
//! cluster versions ([`cluster_spmspv`], [`cluster_spgemm`]), and the
//! multi-cluster tiled out-of-TCDM drivers ([`system_csrmv`],
//! [`system_spgemm`]) that claim row panels from a shared main-memory
//! work queue.
//!
//! Every `run_*` is place → build → harness → read back: the
//! crate-private `harness` module (one function per machine level plus
//! the SpGEMM grow-and-retry loop) is the only code that constructs and
//! runs a simulator, and [`catalog()`] assembles every shipped program
//! through the same place and build steps.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod cluster_csrmv;
pub mod cluster_spgemm;
pub mod cluster_spmspv;
pub mod common;
pub mod csf_ttv;
pub mod csrmm;
pub mod csrmv;
mod handshake;
mod harness;
pub mod layout;
pub mod spgemm;
pub mod spmspv;
pub mod spvv;
pub mod stencil;
pub mod streaming;
pub mod system_csrmv;
pub mod system_spgemm;
pub mod variant;

pub use catalog::{catalog, CatalogEntry};
pub use cluster_csrmv::{
    build_cluster_csrmv, run_cluster_csrmv, ClusterCsrmvPlan, ClusterCsrmvRun,
};
pub use cluster_spgemm::{
    build_cluster_spgemm, run_cluster_spgemm, run_cluster_spgemm_recover, ClusterSpgemmPlan,
    ClusterSpgemmRecovery, ClusterSpgemmRun,
};
pub use cluster_spmspv::{
    build_cluster_spmspv, run_cluster_spmspv, ClusterSpmspvPlan, ClusterSpmspvRun,
};
pub use csf_ttv::{run_csf_ttv, CsfTtvRun};
pub use csrmm::{build_csrmm, run_csrmm, CsrmmAddrs, CsrmmRun};
pub use csrmv::{build_csrmv, run_csrmv, CsrmvAddrs, CsrmvRun};
pub use spgemm::{
    build_spgemm, build_spgemm_capped, run_spgemm, run_spgemm_recover, SpgemmAddrs, SpgemmRecovery,
    SpgemmRun,
};
pub use spmspv::{
    build_spmspv, build_spvv_ss, build_spvv_ss_dyn, run_spmspv, run_spvv_ss, run_spvv_ss_dyn,
    SpmspvAddrs, SpmspvRun, SpvvSsAddrs, SpvvSsRun,
};
pub use spvv::{build_spvv, run_spvv, SpvvAddrs, SpvvRun};
pub use stencil::{build_stencil, run_stencil, SparseStencil, StencilAddrs, StencilRun};
pub use streaming::{
    build_codebook_spvv, build_gather, build_scatter, run_codebook_spvv, run_gather, run_scatter,
    CodebookSpvvAddrs, StreamAddrs, StreamRun,
};
pub use system_csrmv::{build_system_csrmv, run_system_csrmv, SystemCsrmvRun};
pub use system_spgemm::{
    build_system_spgemm, run_system_spgemm, SystemSpgemmPlan, SystemSpgemmRun,
};
pub use variant::{issr_accumulators, KernelIndex, Variant};
