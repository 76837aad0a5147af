//! Multi-cluster scale-out of the ISSR cluster.
//!
//! The paper's single Snitch cluster is the building block of its
//! successor systems: Occamy scales the same SSR/ISSR cores to hundreds
//! of harts across many clusters behind shared HBM, and at that scale
//! main-memory bandwidth — not the FPU — becomes the binding
//! constraint. This crate provides that system level: a [`System`] of N
//! [`issr_cluster::cluster::Cluster`]s sharing one
//! [`issr_mem::main_mem::MainMemory`] behind a bandwidth-arbitrated
//! interconnect model, with contention counted and surfaced through
//! [`SystemSummary`].

#![forbid(unsafe_code)]

pub mod system;
