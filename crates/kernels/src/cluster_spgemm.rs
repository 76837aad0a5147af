//! Multicore cluster SpGEMM: `C = A·B` with all three matrices sparse,
//! row-striped over the sparse-output streamer cluster.
//!
//! Row-wise Gustavson parallelizes embarrassingly over C rows — worker
//! *h* owns the contiguous stripe of `⌈nrows / workers⌉` rows, exactly
//! [`crate::cluster_csrmv`]'s static split. What does *not* parallelize
//! trivially is the packed output: row offsets depend on every earlier
//! row's data-dependent length.
//!
//! # Device-owned allocation
//!
//! The device owns the two-pass allocation end to end — the host only
//! provides a capacity upper bound (the Gustavson expansion volume) for
//! the output region; every packed offset is computed on-device:
//!
//! 1. **Symbolic phase** — each worker walks its stripe once and counts
//!    every row's output nonzeros. The ISSR variant runs **count-only
//!    SpAcc feeds** ([`issr_core::cfg::acc_count_cfg_word`]): the unit
//!    union-merges each `B[k,:]` column-index stream into its row
//!    buffer with *no value traffic at all* — no SSR job, no FREP, no
//!    FPU — then the worker reads `ACC_NNZ` and resets the buffer with
//!    `ACC_CLEAR`. The BASE variant runs its software union-merge and
//!    takes the accumulator length. Either way the worker stores the
//!    *stripe-local inclusive prefix* into `c.ptr[r+1]` as it goes.
//! 2. **Prefix-sum barrier** — the cluster-wide packed offsets come
//!    from [`issr_cluster::scan::emit_exclusive_prefix`]: a log-tree
//!    (Hillis–Steele) scan over the per-worker stripe totals, built
//!    from the hardware barrier, after which each worker adds its
//!    exclusive base to its stripe's `c.ptr` entries. One more barrier
//!    publishes the finished row pointer.
//! 3. **Numeric phase** — the original row loop, reading the now
//!    device-resident `c.ptr[r]` and writing rows straight into their
//!    exact packed slots. Adjacent rows from different workers may
//!    share a 64-bit index word at their boundary — both the SpAcc
//!    drain (ISSR) and the core's halfword stores (BASE) write with
//!    byte strobes, so the races compose.
//!
//! Per row the numeric body is the single-core kernel's
//! ([`crate::spgemm`]): BASE software union-merge through per-worker
//! ping-pong scratch; ISSR the SSR + FREP `fmul` expansion feeding the
//! SpAcc, drained per row. The in-order SpAcc job queue sequences each
//! row's feeds before its drain without any polling, and the
//! double-buffered row storage overlaps a row's drain with the next
//! row's first feed.

use crate::common::{emit_spacc_cfg, SETUP_SCRATCH};
use crate::harness::{
    self, Grown,
    OnTrap::{self, Panic, Report},
};
use crate::layout::{csr_addrs, store_csr, tcdm_arena, CsrAddrs};
use crate::spgemm::{
    emit_a_row_end, emit_base_k_merge, emit_base_row_copy, emit_base_scratch,
    emit_base_symbolic_rows, emit_indexed_addr, emit_issr_k_expand, emit_issr_symbolic_rows,
    emit_spacc_wait, expansion_volume, output_width, Base,
};
use crate::variant::{log_width, KernelIndex, Variant};
use issr_cluster::cluster::{Cluster, ClusterParams, ClusterSummary};
use issr_cluster::scan::{emit_exclusive_prefix, scan_array_bytes};
use issr_core::cfg::{acc_count_cfg_word, cfg_addr, reg as sreg, SPACC_ROW_CAP_RESET};
use issr_isa::asm::{Assembler, Program};
use issr_isa::reg::IntReg as R;
use issr_isa::Csr;
use issr_snitch::cc::SimTimeout;
use issr_snitch::params::CcParams;
use issr_sparse::csr::CsrMatrix;

/// The planned layout of one cluster SpGEMM run.
#[derive(Clone, Debug)]
pub struct ClusterSpgemmPlan {
    a: CsrAddrs,
    b: CsrAddrs,
    /// C region; `nnz` is a *capacity upper bound* (expansion volume) —
    /// the exact packed offsets are computed on-device.
    c: CsrAddrs,
    /// Ping-pong scratch of the prefix-sum barrier (host-zeroed).
    totals: [u32; 2],
    /// Per-worker BASE scratch block base (see `scratch` layout below).
    scratch_base: u32,
    /// One worker's scratch block size in bytes.
    scratch_stride: u32,
    /// Bytes of one scratch index array within a block.
    scratch_idx_bytes: u32,
    /// Row capacity of one scratch array (elements).
    row_cap: u32,
    /// SpAcc row-buffer capacity each ISSR worker programs
    /// (`ACC_BUF_CAP`); the reset value by default, optimistic for the
    /// grow-and-retry flow.
    acc_cap: u32,
    nrows: u32,
    ncols: u32,
    rows_per_worker: u32,
    n_workers: u32,
}

impl ClusterSpgemmPlan {
    /// Plans the TCDM-resident layout: operands, the output region
    /// (sized by the expansion-volume upper bound — no host symbolic
    /// pass), prefix-scan scratch, and per-worker merge scratch.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree or the workload does not
    /// fit the TCDM.
    #[must_use]
    pub fn new<I: KernelIndex>(a: &CsrMatrix<I>, b: &CsrMatrix<I>, n_workers: u32) -> Self {
        assert_eq!(b.nrows(), a.ncols(), "inner dimensions must agree");
        let cap = expansion_volume(a, b).min(a.nrows() as u64 * b.ncols() as u64);
        let cap = u32::try_from(cap).expect("expansion volume fits u32");
        let mut arena = tcdm_arena();
        let a_addrs = csr_addrs::<I>(&mut arena, a.nrows() as u32, a.nnz() as u32);
        let b_addrs = csr_addrs::<I>(&mut arena, b.nrows() as u32, b.nnz() as u32);
        let c_addrs = csr_addrs::<I>(&mut arena, a.nrows() as u32, cap);
        let totals = [
            arena.alloc(scan_array_bytes(n_workers), 8),
            arena.alloc(scan_array_bytes(n_workers), 8),
        ];
        // Per-worker ping-pong merge scratch (BASE only, always planned):
        // [idx0 | idx1 | val0 | val1], each row_cap elements.
        let row_cap = (b.ncols() as u32).max(1);
        let scratch_idx_bytes = (row_cap * I::BYTES + 7) & !7;
        let scratch_stride = 2 * scratch_idx_bytes + 2 * row_cap * 8;
        let scratch_base = arena.alloc(n_workers * scratch_stride, 8);
        Self {
            a: a_addrs,
            b: b_addrs,
            c: c_addrs,
            totals,
            scratch_base,
            scratch_stride,
            scratch_idx_bytes,
            row_cap,
            acc_cap: SPACC_ROW_CAP_RESET,
            nrows: a.nrows() as u32,
            ncols: b.ncols() as u32,
            rows_per_worker: (a.nrows() as u32).div_ceil(n_workers.max(1)),
            n_workers,
        }
    }

    /// Allocated output capacity (the expansion-volume upper bound).
    #[must_use]
    pub fn c_cap(&self) -> u32 {
        self.c.nnz
    }

    /// Overrides the SpAcc row-buffer capacity the ISSR workers
    /// program. An optimistic capacity arms the overflow trap the
    /// grow-and-retry harness ([`run_cluster_spgemm_recover`]) recovers
    /// from.
    #[must_use]
    pub fn with_acc_cap(mut self, acc_cap: u32) -> Self {
        self.acc_cap = acc_cap.max(1);
        self
    }

    /// Writes the operands into the TCDM and zeroes the device-computed
    /// row pointer's anchor and the prefix-scan scratch. Nothing
    /// data-dependent about C crosses the host/device boundary.
    pub fn marshal<I: KernelIndex>(
        &self,
        cluster: &mut Cluster,
        a: &CsrMatrix<I>,
        b: &CsrMatrix<I>,
    ) {
        let mem = cluster.tcdm.array_mut();
        store_csr(mem, self.a, a);
        store_csr(mem, self.b, b);
        mem.store_u32(self.c.ptr, 0);
        for base in self.totals {
            for j in 0..scan_array_bytes(self.n_workers) / 4 {
                mem.store_u32(base + j * 4, 0);
            }
        }
    }

    /// Reads the product back from the TCDM — row pointer included, so
    /// the device-computed counts, scan offsets and packed rows are all
    /// validated by the CSR readback.
    ///
    /// # Panics
    /// Panics if the stored structure is not a valid CSR matrix.
    #[must_use]
    pub fn read_c<I: KernelIndex>(&self, cluster: &Cluster) -> CsrMatrix<I> {
        crate::layout::read_csr_out::<I>(
            cluster.tcdm.array(),
            crate::layout::CsrOutAddrs {
                ptr: self.c.ptr,
                idcs: self.c.idcs,
                vals: self.c.vals,
                nnz_cap: self.c.nnz,
            },
            self.nrows as usize,
            self.ncols as usize,
        )
    }
}

/// Builds the SPMD cluster program (workers `0..n`; the DMCC, hart `n`,
/// halts immediately — the workload is resident).
///
/// # Panics
/// Panics for [`Variant::Ssr`] (see [`crate::spgemm::build_spgemm`]).
#[must_use]
pub fn build_cluster_spgemm<I: KernelIndex>(variant: Variant, plan: &ClusterSpgemmPlan) -> Program {
    assert!(
        matches!(variant, Variant::Base | Variant::Issr),
        "cluster SpGEMM defines BASE and ISSR variants only"
    );
    let mut asm = Assembler::new();
    asm.csrr(R::A7, Csr::MHartId);
    let worker = asm.new_label();
    asm.li(R::T0, i64::from(plan.n_workers));
    asm.blt(R::A7, R::T0, worker);
    asm.halt(); // the DMCC has nothing to move
    asm.bind(worker);
    asm.symbol("worker");
    match variant {
        Variant::Issr => emit_issr_worker::<I>(&mut asm, plan),
        _ => emit_base_worker::<I>(&mut asm, plan),
    }
    asm.halt();
    asm.finish().expect("cluster SpGEMM program assembles")
}

/// Emits the shared symbolic epilogue: local stripe total in `s10` →
/// log-tree scan → add the exclusive base `s3` to this stripe's
/// `c.ptr[r+1]` entries → barrier publishing the finished row pointer.
/// Clobbers `t0`–`t6` and `a7` (re-read from `mhartid`).
fn emit_scan_and_apply(asm: &mut Assembler, plan: &ClusterSpgemmPlan) {
    asm.symbol("scan");
    asm.csrr(R::A7, Csr::MHartId); // BASE's merge clobbers a7
    emit_exclusive_prefix(asm, plan.n_workers, plan.totals);
    // Re-derive the stripe bounds and add the packed base.
    asm.symbol("apply_offsets");
    asm.li(R::T0, i64::from(plan.rows_per_worker));
    asm.mul(R::T1, R::A7, R::T0); // start row
    asm.li(R::T2, i64::from(plan.nrows));
    asm.sub(R::T3, R::T2, R::T1); // rows remaining after start
    let clamped = asm.new_label();
    asm.blt(R::T3, R::T0, clamped);
    asm.mv(R::T3, R::T0);
    asm.bind(clamped);
    asm.slli(R::T4, R::T1, 2);
    asm.li_addr(R::T5, plan.c.ptr + 4);
    asm.add(R::T4, R::T4, R::T5); // &c.ptr[start + 1]
    let head = asm.bind_label();
    asm.lw(R::T6, R::T4, 0);
    asm.add(R::T6, R::T6, R::S3);
    asm.sw(R::T6, R::T4, 0);
    asm.addi(R::T4, R::T4, 4);
    asm.addi(R::T3, R::T3, -1);
    asm.bnez(R::T3, head);
    // Publish: the numeric phase reads c.ptr[start], which the
    // *previous* worker's apply loop wrote.
    asm.csrr(R::ZERO, Csr::Barrier);
}

/// The stripe prologue both workers run before each phase: stripe
/// bounds and A cursors, `s1` on `&c.ptr[start]` (halts empty harts).
fn emit_stripe_cursors<I: KernelIndex>(asm: &mut Assembler, plan: &ClusterSpgemmPlan) {
    let (rows, nrows) = (plan.rows_per_worker, plan.nrows);
    crate::cluster_spmspv::emit_stripe_prologue::<I>(asm, rows, nrows, plan.a, plan.c.ptr, 2);
}

/// ISSR worker: count-only symbolic pass, prefix-sum barrier, then the
/// SSR + FREP expansion into the SpAcc with one drain per row at the
/// device-computed packed offsets.
///
/// Register roles (both phases): `s0` `&a.ptr[r+1]`, `s1` c.ptr cursor,
/// `s2` rows remaining, `s4`/`s5` A cursors, `s6` `b.ptr`, `s7`
/// `b.idcs`, `s8` `b.vals`, `s9` A-row end, `s10` local prefix, `s3`
/// scan base; numeric adds `a2`/`a3` C output cursors.
#[allow(clippy::too_many_lines)]
fn emit_issr_worker<I: KernelIndex>(asm: &mut Assembler, plan: &ClusterSpgemmPlan) {
    let log_w = log_width::<I>();
    // Stripe + A cursors; s1 lands on &c.ptr[start] (halts empty harts).
    emit_stripe_cursors::<I>(asm, plan);
    asm.li_addr(R::S6, plan.b.ptr);
    asm.li_addr(R::S7, plan.b.idcs);
    asm.li_addr(R::S8, plan.b.vals);
    asm.li(SETUP_SCRATCH, 8);
    asm.scfgwi(SETUP_SCRATCH, cfg_addr(sreg::STRIDES[0], 0));
    // Row-buffer capacity for both passes (count-only symbolic feeds
    // merge into the same buffer, so an optimistic capacity traps
    // there first — before any value traffic is wasted).
    asm.li(SETUP_SCRATCH, i64::from(plan.acc_cap));
    asm.scfgwi(SETUP_SCRATCH, cfg_addr(sreg::ACC_BUF_CAP, 0));
    asm.roi_begin();
    // --- symbolic: count-only SpAcc feeds, no value traffic ---
    asm.li(SETUP_SCRATCH, i64::from(acc_count_cfg_word(I::IDX_SIZE)));
    asm.scfgwi(SETUP_SCRATCH, cfg_addr(sreg::ACC_CFG, 0));
    emit_issr_symbolic_rows::<I>(asm, Base::Addr(plan.a.idcs));
    // --- prefix-sum barrier + offset apply ---
    emit_scan_and_apply(asm, plan);
    // --- numeric: re-seed the cursors, restore value mode ---
    emit_stripe_cursors::<I>(asm, plan);
    emit_spacc_cfg::<I>(asm);
    asm.csrsi(Csr::Ssr, 1);
    let row = asm.bind_label();
    asm.symbol("issr_row");
    let flush = asm.new_label();
    emit_a_row_end::<I>(asm, R::S9, Base::Addr(plan.a.idcs));
    // Packed output cursors from the device-computed row pointer.
    asm.lw(R::A4, R::S1, 0); //     c.ptr[r]
    asm.addi(R::S1, R::S1, 4);
    emit_indexed_addr(asm, R::A2, R::A4, log_w, Base::Addr(plan.c.idcs));
    emit_indexed_addr(asm, R::A3, R::A4, 3, Base::Addr(plan.c.vals));
    emit_issr_k_expand::<I>(asm, flush);
    asm.bind(flush);
    asm.symbol("issr_flush");
    // The in-order job queue sequences the drain after this row's feeds
    // — and the double-buffered SpAcc overlaps it with the next row.
    asm.scfgwi(R::A3, cfg_addr(sreg::ACC_VAL_OUT, 0));
    asm.scfgwi(R::A2, cfg_addr(sreg::ACC_DRAIN, 0)); // drain launch (retries)
    asm.addi(R::S2, R::S2, -1);
    asm.bnez(R::S2, row);
    // Let the last drain retire inside the measured region.
    emit_spacc_wait(asm, 1);
    asm.roi_end();
    asm.csrci(Csr::Ssr, 1);
}

/// BASE worker: the software union-merge runs twice — a counting pass
/// (accumulator length only) feeding the prefix-sum barrier, then the
/// numeric pass packing rows at the device-computed offsets.
///
/// Register roles as in [`crate::spgemm`]'s BASE emitter, plus `s1` the
/// c.ptr cursor, `a5` the symbolic pass's running local prefix and `a4`
/// the numeric row's packed element offset; `s11` `b.ptr`.
fn emit_base_worker<I: KernelIndex>(asm: &mut Assembler, plan: &ClusterSpgemmPlan) {
    let log_w = log_width::<I>();
    emit_stripe_cursors::<I>(asm, plan);
    emit_base_scratch(
        asm,
        plan.scratch_stride,
        plan.scratch_base,
        plan.scratch_idx_bytes,
        i64::from(plan.row_cap) * 8,
        plan.b.ptr,
    );
    asm.roi_begin();
    // --- symbolic: merge each row, keep only the length ---
    let a_idcs = Base::Addr(plan.a.idcs);
    emit_base_symbolic_rows::<I>(asm, a_idcs, R::A5, plan.b.idcs, plan.b.vals);
    // --- prefix-sum barrier + offset apply ---
    emit_scan_and_apply(asm, plan);
    // --- numeric: re-seed cursors (scratch pointers stay valid; the
    // ping-pong swaps leave them pointing at the two buffers) ---
    emit_stripe_cursors::<I>(asm, plan);
    let row = asm.bind_label();
    asm.symbol("base_row");
    let flush = asm.new_label();
    asm.li(R::S10, 0);
    emit_a_row_end::<I>(asm, R::A6, a_idcs);
    asm.lw(R::A4, R::S1, 0); // c.ptr[r] (device-computed)
    asm.addi(R::S1, R::S1, 4);
    emit_base_k_merge::<I>(asm, plan.b.idcs, plan.b.vals, flush);
    // Row finished: pack the accumulator at the device-owned offsets.
    asm.bind(flush);
    asm.symbol("base_flush");
    emit_indexed_addr(asm, R::T0, R::A4, log_w, Base::Addr(plan.c.idcs)); // C index cursor
    emit_indexed_addr(asm, R::T1, R::A4, 3, Base::Addr(plan.c.vals)); // C value cursor
    emit_base_row_copy::<I>(asm);
    asm.addi(R::S2, R::S2, -1);
    asm.bnez(R::S2, row);
    asm.roi_end();
}

/// Result of one cluster SpGEMM run.
#[derive(Clone, Debug)]
pub struct ClusterSpgemmRun {
    /// The computed sparse product, read back and format-validated.
    pub c: CsrMatrix<u32>,
    /// Cluster-wide summary (per-worker SpAcc statistics included).
    pub summary: ClusterSummary,
}

/// Runs cluster SpGEMM end to end on the default eight-worker,
/// double-buffered cluster (plan → marshal → simulate → read back).
/// Both passes of the two-pass allocation run on-device.
///
/// # Errors
/// Returns [`SimTimeout`] if the cluster deadlocks or exceeds its cycle
/// budget (a bug).
///
/// # Panics
/// Panics if the inner dimensions disagree, on [`Variant::Ssr`], or if
/// the workers build a malformed output (the readback validates).
pub fn run_cluster_spgemm<I: KernelIndex>(
    variant: Variant,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
) -> Result<ClusterSpgemmRun, SimTimeout> {
    run_cluster_spgemm_on(variant, a, b, ClusterParams::default().n_workers, true)
}

/// [`run_cluster_spgemm`] with an explicit worker count and SpAcc
/// buffer mode (the property suite sweeps 1/2/4/8 workers; the
/// benchmark compares single- vs. double-buffered drains).
///
/// # Errors
/// Returns [`SimTimeout`] if the cluster deadlocks or exceeds its cycle
/// budget (a bug).
///
/// # Panics
/// As [`run_cluster_spgemm`].
pub fn run_cluster_spgemm_on<I: KernelIndex>(
    variant: Variant,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    n_workers: usize,
    double_buffer: bool,
) -> Result<ClusterSpgemmRun, SimTimeout> {
    let sim =
        cluster_spgemm_sim(variant, a, b, n_workers, double_buffer, SPACC_ROW_CAP_RESET, Panic)?;
    Ok(read_product::<I>(sim))
}

/// A finished cluster SpGEMM simulation, before the read-back.
type ClusterSpgemmSim = (ClusterSpgemmPlan, Cluster, ClusterSummary);

/// One marshalled cluster run with an explicit SpAcc row-buffer mode
/// and capacity.
fn cluster_spgemm_sim<I: KernelIndex>(
    variant: Variant,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    n_workers: usize,
    double_buffer: bool,
    acc_cap: u32,
    on_trap: OnTrap,
) -> Result<ClusterSpgemmSim, SimTimeout> {
    let cc = CcParams { spacc_double_buffer: double_buffer, ..CcParams::sssr() };
    let params = ClusterParams { n_workers, cc, ..ClusterParams::default() };
    let plan = ClusterSpgemmPlan::new(a, b, n_workers as u32).with_acc_cap(acc_cap);
    // Both passes walk the expansion; budget the symbolic pass like a
    // second numeric one.
    let volume = expansion_volume(a, b);
    let budget = 4_000_000 + 1024 * (2 * volume + u64::from(plan.c_cap()) + a.nrows() as u64);
    let program = build_cluster_spgemm::<I>(variant, &plan);
    let (cluster, summary) =
        harness::cluster(params, on_trap, program, |cluster| plan.marshal(cluster, a, b), budget)?;
    Ok((plan, cluster, summary))
}

/// Reads the product of a clean run back (faulted stripes leave the
/// output region partially written).
fn read_product<I: KernelIndex>((plan, cluster, summary): ClusterSpgemmSim) -> ClusterSpgemmRun {
    ClusterSpgemmRun { c: plan.read_c::<I>(&cluster).with_index_width::<u32>(), summary }
}

/// Result of a grow-and-retry cluster SpGEMM run
/// ([`run_cluster_spgemm_recover`]).
#[derive(Clone, Debug)]
pub struct ClusterSpgemmRecovery {
    /// The final, clean run (oracle-identical product).
    pub run: ClusterSpgemmRun,
    /// Attempts that trapped on SpAcc overflow before the capacity
    /// sufficed (any worker trapping counts once).
    pub retries: u32,
    /// The capacity the clean run used.
    pub final_cap: u32,
}

/// Cluster SpGEMM with an optimistic per-worker SpAcc capacity and
/// trap-driven grow-and-retry: a worker whose stripe holds an
/// overflowing row latches the overflow, parks, and is masked out of
/// the barrier while its siblings drain; the harness doubles
/// `ACC_BUF_CAP` (clamped to the output width) and replays. The
/// symbolic (count-only) pass shares the row buffer, so oversized rows
/// trap before any numeric value traffic is spent on them.
///
/// # Errors
/// Returns [`SimTimeout`] if an attempt deadlocks (a bug).
///
/// # Panics
/// Panics on zero `initial_cap`, on any non-overflow trap, or if
/// overflow persists at the full row capacity (a model bug).
pub fn run_cluster_spgemm_recover<I: KernelIndex>(
    variant: Variant,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    n_workers: usize,
    initial_cap: u32,
) -> Result<ClusterSpgemmRecovery, SimTimeout> {
    let Grown { run, retries, final_cap } = harness::grow_and_retry(
        initial_cap,
        output_width(b),
        |cap| cluster_spgemm_sim(variant, a, b, n_workers, true, cap, Report),
        |(_, _, summary)| &summary.traps,
    )?;
    Ok(ClusterSpgemmRecovery { run: read_product::<I>(run), retries, final_cap })
}

#[cfg(test)]
mod tests {
    use super::*;
    use issr_sparse::{gen, reference};

    fn check<I: KernelIndex>(
        variant: Variant,
        nrows: usize,
        inner: usize,
        ncols: usize,
        nnz_a: usize,
        nnz_b: usize,
        seed: u64,
    ) {
        let mut rng = gen::rng(seed);
        let a = gen::csr_uniform::<I>(&mut rng, nrows, inner, nnz_a);
        let b = gen::csr_uniform::<I>(&mut rng, inner, ncols, nnz_b);
        let run = run_cluster_spgemm(variant, &a, &b).expect("cluster run finishes");
        assert!(run.summary.traps.is_empty(), "unexpected traps: {:?}", run.summary.traps);
        let expect = reference::spgemm(&a, &b).with_index_width::<u32>();
        assert_eq!(run.c.ptr(), expect.ptr(), "{variant} {nrows}x{inner}x{ncols} row pointers");
        assert_eq!(run.c.idcs(), expect.idcs(), "{variant} column indices");
        for (got, want) in run.c.vals().iter().zip(expect.vals()) {
            assert!(
                (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                "{variant} {nrows}x{inner}x{ncols}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn base_cluster_spgemm_matches_reference() {
        check::<u16>(Variant::Base, 24, 32, 48, 120, 160, 400);
        check::<u32>(Variant::Base, 24, 32, 48, 120, 160, 401);
        check::<u16>(Variant::Base, 5, 16, 16, 20, 40, 402); // fewer rows than workers
    }

    #[test]
    fn issr_cluster_spgemm_matches_reference() {
        check::<u16>(Variant::Issr, 24, 32, 48, 120, 160, 410);
        check::<u32>(Variant::Issr, 24, 32, 48, 120, 160, 411);
        check::<u16>(Variant::Issr, 5, 16, 16, 20, 40, 412); // fewer rows than workers
        check::<u16>(Variant::Issr, 16, 16, 16, 0, 40, 413); // empty A
        check::<u32>(Variant::Issr, 16, 16, 16, 40, 0, 414); // empty B
    }

    /// Odd row lengths at worker stripe boundaries exercise the strobed
    /// shared-word writes between adjacent workers (16-bit indices).
    #[test]
    fn issr_cluster_spgemm_odd_worker_boundaries() {
        let mut triplets = Vec::new();
        for r in 0..17usize {
            for j in 0..=(r % 3) {
                triplets.push((r, (j * 5 + r) % 24, 1.0 + (r + j) as f64 * 0.25));
            }
        }
        let a = CsrMatrix::<u16>::from_triplets(17, 24, &triplets);
        let b_triplets: Vec<(usize, usize, f64)> = (0..24)
            .flat_map(|k| (0..5).map(move |j| (k, (k * 3 + j * 7) % 13, 0.5 * (k + j + 1) as f64)))
            .collect();
        let b = CsrMatrix::<u16>::from_triplets(24, 13, &b_triplets);
        let run = run_cluster_spgemm(Variant::Issr, &a, &b).unwrap();
        let expect = reference::spgemm(&a, &b).with_index_width::<u32>();
        assert_eq!(run.c.ptr(), expect.ptr());
        assert_eq!(run.c.idcs(), expect.idcs());
        // Every worker with rows must have drained through its SpAcc.
        let active = run.summary.spacc_stats.iter().filter(|s| s.drains > 0).count();
        assert!(active >= 2, "row striping must engage multiple SpAcc units");
    }

    /// The symbolic phase runs on the workers: count-only feeds show up
    /// in the SpAcc statistics, no host row pointer exists, and the
    /// device-computed one matches the oracle.
    #[test]
    fn symbolic_phase_is_device_owned() {
        let mut rng = gen::rng(430);
        let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, 16, 24, 3);
        let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, 24, 40, 6);
        let run = run_cluster_spgemm(Variant::Issr, &a, &b).unwrap();
        let expect = reference::spgemm(&a, &b).with_index_width::<u32>();
        assert_eq!(run.c.ptr(), expect.ptr(), "device-owned row pointer");
        let count_feeds: u64 = run.summary.spacc_stats.iter().map(|s| s.count_feeds).sum();
        let feeds: u64 = run.summary.spacc_stats.iter().map(|s| s.feeds).sum();
        // One count-only feed and one numeric feed per A nonzero with a
        // nonempty B row (every B row has 6 nonzeros here).
        assert_eq!(count_feeds, a.nnz() as u64, "one symbolic feed per expansion");
        assert_eq!(feeds, 2 * a.nnz() as u64, "symbolic + numeric passes");
    }

    /// The hardware cluster beats the software-merge cluster, both
    /// running the fully device-owned two-pass flow.
    #[test]
    fn cluster_spgemm_issr_beats_base() {
        let mut rng = gen::rng(420);
        let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, 32, 48, 4);
        let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, 48, 160, 20);
        let base = run_cluster_spgemm(Variant::Base, &a, &b).unwrap();
        let issr = run_cluster_spgemm(Variant::Issr, &a, &b).unwrap();
        let speedup = issr_trace::ratio(base.summary.cycles as f64, issr.summary.cycles as f64);
        assert!(speedup > 2.0, "cluster SpGEMM speedup {speedup:.2}");
    }

    /// Double-buffered SpAcc drains overlap the next row's feeds: the
    /// overlap counter moves and the cluster does not get slower.
    #[test]
    fn double_buffering_overlaps_drains() {
        let mut rng = gen::rng(421);
        let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, 16, 32, 4);
        let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, 32, 96, 16);
        let double = run_cluster_spgemm_on(Variant::Issr, &a, &b, 8, true).unwrap();
        let single = run_cluster_spgemm_on(Variant::Issr, &a, &b, 8, false).unwrap();
        assert_eq!(double.c.ptr(), single.c.ptr(), "buffer mode cannot change the result");
        assert_eq!(double.c.idcs(), single.c.idcs());
        let overlap: u64 = double.summary.spacc_stats.iter().map(|s| s.overlap_cycles).sum();
        assert!(overlap > 0, "double buffering must win overlap cycles");
        let single_overlap: u64 = single.summary.spacc_stats.iter().map(|s| s.overlap_cycles).sum();
        assert_eq!(single_overlap, 0, "single-buffer mode serializes drain and feed");
        assert!(
            double.summary.cycles <= single.summary.cycles,
            "double buffering must not slow the cluster ({} vs {})",
            double.summary.cycles,
            single.summary.cycles
        );
    }
}
