//! Multicore cluster SpMSpV: sparse matrix × sparse vector on the
//! sparse-sparse streamer cluster.
//!
//! Mirrors [`crate::cluster_csrmv`]'s static row striping: `nrows` is
//! split into contiguous stripes of `⌈nrows / workers⌉` rows, worker *h*
//! owning stripe *h*; the shared sparse operand `x` stays resident.
//! Unlike CsrMV's DMA experiment the workload is TCDM-resident end to
//! end (the sparse-sparse kernels are latency-, not bandwidth-bound),
//! so no DMCC choreography is needed — every worker runs its stripe
//! independently and the cluster drains to quiescence.
//!
//! Per worker the row loop is the single-core kernel's
//! ([`crate::spmspv`]): BASE re-scans `x` with the software two-pointer
//! merge per row; ISSR launches one gather-A joiner job per row against
//! the statically configured B side (`x`), with the one-deep shadow
//! queue overlapping consecutive rows.

use crate::common::{emit_reduction_tree, emit_zero_accumulators, ACC0, FZ};
use crate::harness::{self, OnTrap};
use crate::layout::{
    csr_addrs, fiber_addrs, store_csr, store_fiber, tcdm_arena, CsrAddrs, FiberAddrs,
};
use crate::spmspv::{emit_base_row_merge, emit_gather_x_cfg};
use crate::variant::{issr_accumulators, log_width, KernelIndex, Variant};
use issr_cluster::cluster::{Cluster, ClusterParams, ClusterSummary};
use issr_core::cfg::{cfg_addr, reg as sreg};
use issr_isa::asm::{Assembler, Program};
use issr_isa::instr::Stagger;
use issr_isa::reg::{FpReg, IntReg as R};
use issr_isa::Csr;
use issr_snitch::cc::SimTimeout;
use issr_snitch::params::CcParams;
use issr_sparse::csr::CsrMatrix;
use issr_sparse::fiber::SparseFiber;

/// The planned layout of one cluster SpMSpV run.
#[derive(Clone, Debug)]
pub struct ClusterSpmspvPlan {
    a: CsrAddrs,
    x: FiberAddrs,
    y: u32,
    nrows: u32,
    rows_per_worker: u32,
    n_workers: u32,
}

impl ClusterSpmspvPlan {
    /// Plans the TCDM-resident layout and the row striping.
    ///
    /// # Panics
    /// Panics if the workload does not fit the TCDM.
    #[must_use]
    pub fn new<I: KernelIndex>(m: &CsrMatrix<I>, x: &SparseFiber<I>, n_workers: u32) -> Self {
        let mut arena = tcdm_arena();
        let a = csr_addrs::<I>(&mut arena, m.nrows() as u32, m.nnz() as u32);
        let x_addrs = fiber_addrs::<I>(&mut arena, x.nnz() as u32);
        let nrows = m.nrows() as u32;
        let y = arena.alloc(nrows.max(1) * 8, 8);
        Self {
            a,
            x: x_addrs,
            y,
            nrows,
            rows_per_worker: nrows.div_ceil(n_workers.max(1)),
            n_workers,
        }
    }

    /// Writes the workload into the cluster TCDM.
    pub fn marshal<I: KernelIndex>(
        &self,
        cluster: &mut Cluster,
        m: &CsrMatrix<I>,
        x: &SparseFiber<I>,
    ) {
        let mem = cluster.tcdm.array_mut();
        store_csr(mem, self.a, m);
        store_fiber(mem, self.x, x);
    }

    /// Reads the result vector back from the TCDM.
    #[must_use]
    pub fn read_y(&self, cluster: &Cluster) -> Vec<f64> {
        cluster.tcdm.array().load_f64_slice(self.y, self.nrows as usize)
    }
}

/// Emits the row-striped worker prologue shared by the cluster kernels:
/// computes the stripe `[a0, a0 + s2)` from the hartid (halting harts
/// with no rows), points `s0` at `&a.ptr[start + 1]`, seeds the A
/// cursors `s4`/`s5` from `ptr[start]` and `s1` at the worker's output
/// cursor `out_base + (start << out_shift)` (the dense `y` row for
/// SpMSpV, the resident `c.ptr` entry for SpGEMM).
pub(crate) fn emit_stripe_prologue<I: KernelIndex>(
    asm: &mut Assembler,
    rows_per_worker: u32,
    nrows: u32,
    a: CsrAddrs,
    out_base: u32,
    out_shift: i32,
) {
    let log_w = log_width::<I>();
    asm.li(R::T0, i64::from(rows_per_worker));
    asm.mul(R::A0, R::A7, R::T0); //    start row
    asm.li(R::T1, i64::from(nrows));
    let some_rows = asm.new_label();
    asm.blt(R::A0, R::T1, some_rows);
    asm.halt(); //                      stripe past the end
    asm.bind(some_rows);
    asm.sub(R::S2, R::T1, R::A0); //    rows remaining after start
    let clamp_ok = asm.new_label();
    asm.blt(R::S2, R::T0, clamp_ok);
    asm.mv(R::S2, R::T0); //            my row count = min(rpw, remaining)
    asm.bind(clamp_ok);
    asm.slli(R::T2, R::A0, 2);
    asm.li_addr(R::T3, a.ptr);
    asm.add(R::T2, R::T2, R::T3); //    &ptr[start]
    asm.lw(R::T4, R::T2, 0); //         ptr[start]
    asm.addi(R::S0, R::T2, 4);
    asm.slli(R::T5, R::T4, log_w);
    asm.li_addr(R::S4, a.idcs);
    asm.add(R::S4, R::S4, R::T5); //    A index cursor
    asm.slli(R::T5, R::T4, 3);
    asm.li_addr(R::S5, a.vals);
    asm.add(R::S5, R::S5, R::T5); //    A value cursor
    asm.slli(R::T5, R::A0, out_shift);
    asm.li_addr(R::S1, out_base);
    asm.add(R::S1, R::S1, R::T5); //    output cursor at `start`
}

/// Builds the SPMD cluster program (workers `0..n`; the DMCC, hart `n`,
/// halts immediately — the workload is resident).
///
/// # Panics
/// Panics for [`Variant::Ssr`] (see [`crate::spmspv::build_spvv_ss`]).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn build_cluster_spmspv<I: KernelIndex>(variant: Variant, plan: &ClusterSpmspvPlan) -> Program {
    assert!(
        matches!(variant, Variant::Base | Variant::Issr),
        "cluster SpMSpV defines BASE and ISSR variants only"
    );
    let log_w = log_width::<I>();
    let n_acc = issr_accumulators(I::IDX_SIZE);
    let mut asm = Assembler::new();
    asm.csrr(R::A7, Csr::MHartId);
    let worker = asm.new_label();
    asm.li(R::T0, i64::from(plan.n_workers));
    asm.blt(R::A7, R::T0, worker);
    asm.halt(); // the DMCC has nothing to move
    asm.bind(worker);
    asm.symbol("worker");
    emit_stripe_prologue::<I>(&mut asm, plan.rows_per_worker, plan.nrows, plan.a, plan.y, 3);
    match variant {
        Variant::Issr => {
            emit_gather_x_cfg::<I>(&mut asm, plan.x);
            asm.roi_begin();
            let outer = asm.bind_label();
            asm.symbol("issr_row");
            let zero_row = asm.new_label();
            let row_done = asm.new_label();
            asm.lw(R::T5, R::S0, 0); //          ptr[i+1]
            asm.addi(R::S0, R::S0, 4);
            // Row nnz from the byte distance to the cursor's element.
            asm.slli(R::T1, R::T5, log_w);
            asm.li_addr(R::T2, plan.a.idcs);
            asm.add(R::T1, R::T1, R::T2); //     row end address
            asm.sub(R::T1, R::T1, R::S4); //     row bytes
            asm.srli(R::T1, R::T1, log_w); //    row nnz
            asm.beqz(R::T1, zero_row);
            asm.scfgwi(R::T1, cfg_addr(sreg::JOIN_NNZ_A, 0));
            asm.scfgwi(R::S5, cfg_addr(sreg::DATA_BASE, 0));
            asm.scfgwi(R::S4, cfg_addr(sreg::RPTR[0], 0)); // launch (retries)
            emit_zero_accumulators(&mut asm, ACC0, n_acc);
            asm.addi(R::T2, R::T1, -1);
            asm.frep_outer(R::T2, 1, Stagger::accumulator(n_acc));
            asm.fmadd_d(ACC0, FpReg::FT0, FpReg::FT1, ACC0);
            emit_reduction_tree(&mut asm, ACC0, n_acc);
            asm.fsd(ACC0, R::S1, 0);
            // Advance the A cursors behind the launch.
            asm.slli(R::T2, R::T1, log_w);
            asm.add(R::S4, R::S4, R::T2);
            asm.slli(R::T2, R::T1, 3);
            asm.add(R::S5, R::S5, R::T2);
            asm.j(row_done);
            asm.bind(zero_row);
            asm.fsd(FZ, R::S1, 0);
            asm.bind(row_done);
            asm.addi(R::S1, R::S1, 8);
            asm.addi(R::S2, R::S2, -1);
            asm.bnez(R::S2, outer);
            asm.roi_end();
            asm.csrci(Csr::Ssr, 1);
        }
        _ => {
            // BASE: the software two-pointer merge, x re-scanned per row.
            asm.li_addr(R::S6, plan.x.idcs);
            asm.li_addr(R::S7, plan.x.vals);
            asm.li_addr(R::S8, plan.x.idcs + plan.x.nnz * I::BYTES);
            asm.roi_begin();
            let outer = asm.bind_label();
            asm.symbol("base_row");
            asm.lw(R::T5, R::S0, 0); //          ptr[i+1]
            asm.addi(R::S0, R::S0, 4);
            asm.fcvt_d_w(FpReg::FS0, R::ZERO);
            asm.slli(R::T4, R::T5, log_w); //    row index end
            asm.li_addr(R::T6, plan.a.idcs);
            asm.add(R::T4, R::T4, R::T6);
            emit_base_row_merge::<I>(&mut asm, outer);
            asm.roi_end();
        }
    }
    asm.halt();
    asm.finish().expect("cluster SpMSpV program assembles")
}

/// Result of one cluster SpMSpV run.
#[derive(Clone, Debug)]
pub struct ClusterSpmspvRun {
    /// The computed result vector (dense, `nrows` elements).
    pub y: Vec<f64>,
    /// Cluster-wide summary.
    pub summary: ClusterSummary,
}

/// Runs cluster SpMSpV end to end (marshal → simulate → read back) on
/// the sparse-sparse streamer cluster.
///
/// # Errors
/// Returns [`SimTimeout`] if the cluster deadlocks or exceeds its cycle
/// budget (a bug).
pub fn run_cluster_spmspv<I: KernelIndex>(
    variant: Variant,
    m: &CsrMatrix<I>,
    x: &SparseFiber<I>,
) -> Result<ClusterSpmspvRun, SimTimeout> {
    let params = ClusterParams { cc: CcParams::sssr(), ..ClusterParams::default() };
    let plan = ClusterSpmspvPlan::new(m, x, params.n_workers as u32);
    let merge_steps = m.nnz() as u64 + m.nrows() as u64 * (x.nnz() as u64 + 8);
    let (cluster, summary) = harness::cluster(
        params,
        OnTrap::Panic,
        build_cluster_spmspv::<I>(variant, &plan),
        |cluster| plan.marshal(cluster, m, x),
        1_000_000 + 64 * merge_steps,
    )?;
    Ok(ClusterSpmspvRun { y: plan.read_y(&cluster), summary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use issr_sparse::dense::allclose;
    use issr_sparse::{gen, reference};

    fn check<I: KernelIndex>(
        variant: Variant,
        nrows: usize,
        ncols: usize,
        nnz: usize,
        x_nnz: usize,
        seed: u64,
    ) {
        let mut rng = gen::rng(seed);
        let m = gen::csr_uniform::<I>(&mut rng, nrows, ncols, nnz);
        let x = gen::sparse_vector::<I>(&mut rng, ncols, x_nnz);
        let run = run_cluster_spmspv(variant, &m, &x).expect("cluster run finishes");
        assert!(run.summary.traps.is_empty(), "unexpected traps: {:?}", run.summary.traps);
        let expect = reference::spmspv(&m, &x);
        assert!(
            allclose(&run.y, &expect, 1e-12, 1e-12),
            "{variant} cluster {nrows}x{ncols} nnz={nnz} x_nnz={x_nnz}"
        );
    }

    #[test]
    fn base_cluster_spmspv_matches_reference() {
        check::<u16>(Variant::Base, 64, 256, 1200, 48, 300);
        check::<u32>(Variant::Base, 64, 256, 1200, 48, 301);
        check::<u16>(Variant::Base, 5, 64, 80, 16, 302); // fewer rows than workers
    }

    #[test]
    fn issr_cluster_spmspv_matches_reference() {
        check::<u16>(Variant::Issr, 64, 256, 1200, 48, 310);
        check::<u32>(Variant::Issr, 64, 256, 1200, 48, 311);
        check::<u16>(Variant::Issr, 5, 64, 80, 16, 312); // fewer rows than workers
        check::<u16>(Variant::Issr, 40, 128, 200, 0, 313); // empty x
        check::<u32>(Variant::Issr, 24, 96, 0, 12, 314); // empty matrix
    }

    /// The joiner cluster beats the software-merge cluster once rows
    /// carry enough nonzeros.
    #[test]
    fn cluster_joiner_beats_software_merge() {
        let mut rng = gen::rng(320);
        let m = gen::csr_fixed_row_nnz::<u16>(&mut rng, 128, 1024, 48);
        let x = gen::sparse_vector::<u16>(&mut rng, 1024, 256);
        let base = run_cluster_spmspv(Variant::Base, &m, &x).unwrap();
        let issr = run_cluster_spmspv(Variant::Issr, &m, &x).unwrap();
        let speedup = issr_trace::ratio(base.summary.cycles as f64, issr.summary.cycles as f64);
        assert!(speedup > 2.0, "cluster SpMSpV speedup {speedup:.2}");
    }
}
