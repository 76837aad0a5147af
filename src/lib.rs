//! # issr
//!
//! Facade crate for the ISSR reproduction (DATE 2021,
//! arXiv:2011.08070): re-exports every workspace crate under one roof
//! for the examples and integration tests.
//!
//! Start with [`kernels`] (the paper's SpVV/CsrMV/CsrMM kernels and the
//! harnesses that run them on the simulated Snitch core complex and
//! cluster), [`sparse`] (formats and workload generators), and the
//! `issr-bench` binaries that regenerate the paper's figures.
//!
//! Beyond the paper, the streamer carries the SSSR-style sparse-sparse
//! **index joiner** (arXiv:2305.05559): see [`core::joiner`] and the
//! SpVV∩ / SpMSpV kernels in `kernels::spmspv` (`examples/spmspv.rs`
//! walks through it; `issr-bench --bin joiner` sweeps it) — and its
//! write-side counterpart, the **SpAcc** sparse accumulator
//! ([`core::spacc`]), which turns a lane's write stream into compressed
//! CSR rows and powers row-wise SpGEMM in `kernels::spgemm` plus the
//! cluster versions in `kernels::cluster_spmspv` /
//! `kernels::cluster_spgemm` (`examples/spgemm.rs`; `issr-bench --bin
//! spgemm`).
//!
//! # Examples
//! ```
//! use issr::kernels::spvv::run_spvv;
//! use issr::kernels::variant::Variant;
//! use issr::sparse::{gen, reference};
//!
//! let mut rng = gen::rng(7);
//! let a = gen::sparse_vector::<u16>(&mut rng, 256, 64);
//! let b = gen::dense_vector(&mut rng, 256);
//! let run = run_spvv(Variant::Issr, &a, &b).expect("kernel finishes");
//! let expect = reference::spvv(&a, &b);
//! assert!((run.result - expect).abs() < 1e-9 * expect.abs().max(1.0));
//! ```

#![forbid(unsafe_code)]

pub use issr_cluster as cluster;
pub use issr_core as core;
pub use issr_isa as isa;
pub use issr_kernels as kernels;
pub use issr_lint as lint;
pub use issr_mem as mem;
pub use issr_model as model;
pub use issr_snitch as snitch;
pub use issr_sparse as sparse;
pub use issr_system as system;
