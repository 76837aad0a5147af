//! # issr-cluster
//!
//! The Snitch cluster of §II-C: eight worker core complexes in two
//! hives with shared L1 instruction caches, a lightweight data-movement
//! core complex (DMCC) driving the 512-bit DMA engine, a 32-bank /
//! 256 KiB word-interleaved TCDM, a hardware barrier, and an ideal
//! 512-bit duplex main memory behind the cluster crossbar.
//!
//! This is the system-level setup of §IV-B: all data starts in main
//! memory, the DMA double-buffers matrix blocks into the TCDM, workers
//! share rows, and bank conflicts from indirection's random access
//! patterns lower the ISSR's peak utilization from 0.80 to ≈ 0.71.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod scan;

pub use cluster::{Cluster, ClusterAttribution, ClusterParams, ClusterSummary};
pub use scan::{emit_exclusive_prefix, scan_array_bytes};
