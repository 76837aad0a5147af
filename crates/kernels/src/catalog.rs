//! The shipped-kernel catalog: one assembled program per kernel builder,
//! variant and index width, for tools that sweep "every kernel this
//! crate can emit" — the `issr-lint` binary and its clean-kernel gate,
//! above all.
//!
//! Programs are generated per workload (addresses and counts are baked
//! in), so the catalog runs each kernel's own place step on a small
//! seeded operand — into a scratch memory image for the single-CC
//! kernels, through the plan constructors for the cluster and system
//! ones — and hands the result to the kernel's own `build_*`: every
//! entry is laid out exactly as its `run_*` would simulate it.
//!
//! Every entry runs on one of the two named core complexes,
//! `CcParams::paper` or `CcParams::sssr`:
//! [`CatalogEntry::needs_sparse_units`] says which, and
//! `issr_lint::lint_shipped` lints the entry against that value. One
//! builder is not in the catalog: codebook SpVV
//! ([`crate::streaming::build_codebook_spvv`]) runs on two ISSRs
//! (`HwCaps::CODEBOOK`), and the lint gate
//! (`crates/lint/tests/kernels_clean.rs`) checks it against that
//! description.

use crate::cluster_csrmv::{build_cluster_csrmv, ClusterCsrmvPlan};
use crate::cluster_spgemm::{build_cluster_spgemm, ClusterSpgemmPlan};
use crate::cluster_spmspv::{build_cluster_spmspv, ClusterSpmspvPlan};
use crate::csrmm::{build_csrmm, place_csrmm};
use crate::csrmv::{build_csrmv, place_csrmv};
use crate::harness::single_cc_arena as arena;
use crate::spgemm::{build_spgemm, place_spgemm};
use crate::spmspv::{
    build_spmspv, build_spvv_ss, build_spvv_ss_dyn, build_spvv_ss_term, place_spmspv, place_spvv_ss,
};
use crate::spvv::{build_spvv, place_spvv};
use crate::stencil::{build_stencil, place_stencil, SparseStencil};
use crate::streaming::{build_gather, build_scatter, place_stream};
use crate::system_csrmv::build_system_csrmv;
use crate::system_spgemm::{build_system_spgemm, SystemSpgemmPlan};
use crate::variant::{KernelIndex, Variant};
use issr_cluster::cluster::ClusterParams;
use issr_isa::asm::Program;
use issr_mem::array::MemArray;
use issr_snitch::cc::SINGLE_CC_ARENA;
use issr_sparse::dense::DenseMatrix;
use issr_sparse::gen;

/// One shipped kernel program.
pub struct CatalogEntry {
    /// Kernel, variant and index width, e.g. `"spvv/issr/u16"`.
    pub name: String,
    /// The assembled program.
    pub program: Program,
    /// Whether the program targets the sparse-sparse stream units
    /// (index joiner / sparse accumulator) and therefore runs on
    /// `CcParams::sssr` rather than `CcParams::paper`.
    pub needs_sparse_units: bool,
}

/// Every builder's programs for index width `I` (`tag`).
fn entries<I: KernelIndex>(tag: &str, out: &mut Vec<CatalogEntry>) {
    let mut rng = gen::rng(0x1551);
    let v = gen::sparse_vector::<I>(&mut rng, 64, 12);
    let w = gen::sparse_vector::<I>(&mut rng, 64, 14);
    let x = gen::dense_vector(&mut rng, 64);
    let m = gen::csr_uniform::<I>(&mut rng, 8, 64, 24);
    let dense = DenseMatrix::from_rows(64, 4, gen::dense_vector(&mut rng, 64 * 4));
    let a = gen::csr_uniform::<I>(&mut rng, 8, 8, 16);
    let b = gen::csr_uniform::<I>(&mut rng, 8, 16, 24);
    let c_nnz = issr_sparse::reference::spgemm_ptr(&a, &b)[a.nrows()];
    // Reach 11 over 64 elements: 53 outputs, so both widths lint the
    // group loop and a tail group (6·8 + 5 and 13·4 + 1).
    let stencil = SparseStencil { offsets: vec![0, 3, 4, 11], weights: vec![1.0, -2.0, 0.5, 3.0] };
    let n_workers = ClusterParams::default().n_workers as u32;
    // The placements store the operands somewhere; only the addresses
    // they return reach the programs.
    let image = &mut MemArray::new(SINGLE_CC_ARENA, 1 << 16);
    let spvv = place_spvv(&mut arena(), image, &v, &x);
    let csrmv = place_csrmv(&mut arena(), image, &m, &x);
    let csrmm = place_csrmm(&mut arena(), image, &m, &dense);
    let spgemm = place_spgemm(&mut arena(), image, &a, &b, c_nnz);
    let spmspv = place_spmspv(&mut arena(), image, &m, &w);
    let spvv_ss = place_spvv_ss(&mut arena(), image, &v, &w);
    let gather = place_stream(&mut arena(), image, &x, v.idcs(), v.nnz());
    let scatter = place_stream(&mut arena(), image, v.vals(), v.idcs(), v.dim());
    let stencil = place_stencil::<I>(&mut arena(), image, &stencil, &x);
    let csrmv_plan = ClusterCsrmvPlan::new(&m, n_workers);
    let spmspv_plan = ClusterSpmspvPlan::new(&m, &w, n_workers);
    let spgemm_plan = ClusterSpgemmPlan::new(&a, &b, n_workers);
    let mut add = |kernel: &str, variant: Variant, sparse_units: bool, program: Program| {
        out.push(CatalogEntry {
            name: format!("{kernel}/{}/{tag}", variant.name().to_lowercase()),
            program,
            needs_sparse_units: sparse_units && variant == Variant::Issr,
        });
    };
    for variant in Variant::ALL {
        add("spvv", variant, false, build_spvv::<I>(variant, spvv));
        add("csrmv", variant, false, build_csrmv::<I>(variant, csrmv));
        add("csrmm", variant, false, build_csrmm::<I>(variant, csrmm));
    }
    for variant in [Variant::Base, Variant::Issr] {
        add("spgemm", variant, true, build_spgemm::<I>(variant, a.nrows() as u32, spgemm));
        add("spmspv", variant, true, build_spmspv::<I>(variant, spmspv));
        add("spvv_ss", variant, true, build_spvv_ss::<I>(variant, spvv_ss));
        add("cluster_csrmv", variant, false, build_cluster_csrmv::<I>(variant, &csrmv_plan));
        add("system_csrmv", variant, false, build_system_csrmv::<I>(variant, &csrmv_plan));
        add("cluster_spmspv", variant, true, build_cluster_spmspv::<I>(variant, &spmspv_plan));
        add("cluster_spgemm", variant, true, build_cluster_spgemm::<I>(variant, &spgemm_plan));
        let plan = SystemSpgemmPlan::new(variant, &a, &b, n_workers);
        add("system_spgemm", variant, true, build_system_spgemm::<I>(variant, &plan));
    }
    add("spvv_ss_dyn", Variant::Issr, true, build_spvv_ss_dyn::<I>(spvv_ss));
    add("spvv_ss_term", Variant::Issr, true, build_spvv_ss_term::<I>(spvv_ss));
    add("gather", Variant::Issr, false, build_gather::<I>(gather));
    add("scatter", Variant::Issr, false, build_scatter::<I>(scatter));
    add("stencil", Variant::Issr, false, build_stencil::<I>(stencil));
}

/// Builds every shipped kernel program on a representative nonzero
/// workload.
#[must_use]
pub fn catalog() -> Vec<CatalogEntry> {
    let mut out = Vec::new();
    entries::<u16>("u16", &mut out);
    entries::<u32>("u32", &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn catalog_is_nonempty_and_named_uniquely() {
        let entries = catalog();
        let mut names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), entries.len(), "catalog names must be unique");
        for e in &entries {
            assert!(!e.program.is_empty(), "{} assembled empty", e.name);
        }
    }

    /// Variants × index widths of every builder, written out: a new
    /// builder left out of the catalog (or of this table) fails here.
    #[test]
    fn every_builder_is_in_the_catalog_in_every_shape() {
        let mut per_kernel = BTreeMap::new();
        for e in catalog() {
            let kernel = e.name.split('/').next().expect("kernel/variant/width").to_owned();
            *per_kernel.entry(kernel).or_insert(0usize) += 1;
        }
        let expected = [
            ("spvv", 6),
            ("csrmv", 6),
            ("csrmm", 6),
            ("spgemm", 4),
            ("spmspv", 4),
            ("spvv_ss", 4),
            ("spvv_ss_dyn", 2),
            ("spvv_ss_term", 2),
            ("gather", 2),
            ("scatter", 2),
            ("stencil", 2),
            ("cluster_csrmv", 4),
            ("system_csrmv", 4),
            ("cluster_spmspv", 4),
            ("cluster_spgemm", 4),
            ("system_spgemm", 4),
        ];
        assert_eq!(per_kernel, expected.iter().map(|&(k, n)| (k.to_owned(), n)).collect());
        assert_eq!(expected.iter().map(|&(_, n)| n).sum::<usize>(), 60);
    }
}
