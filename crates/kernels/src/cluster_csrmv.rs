//! Multicore cluster CsrMV (§IV-B).
//!
//! The paper's system-level experiment: all data starts in main memory;
//! the DMCC double-buffers matrix blocks (values + indices) into the
//! TCDM with the 512-bit DMA while eight workers process the previous
//! block, rows statically distributed among them: each worker takes a
//! contiguous `ceil(rows / workers)` of the block's rows. The planner
//! cuts every block but the last to a multiple of the worker count
//! whenever that many rows fit ([`ClusterCsrmvPlan::new`]), so in a full
//! block every worker has the same number of rows. The dense vector, row
//! pointers and block descriptors are DMAed once up front and stay
//! resident; the result vector accumulates in the TCDM and is written
//! back at the end. DMCC and workers hand the blocks over through the
//! tile handshake of the crate-private `handshake` module.

use crate::common::FZ;
use crate::csrmv::{emit_issr_row_bounds, emit_issr_row_loop, emit_sw_row_loop};
use crate::handshake::{emit_dma_poll, emit_slice_issue, emit_slice_prepare, FlagArea, Slice};
use crate::harness::{self, OnTrap};
use crate::layout::TCDM_DATA_BASE;
use crate::variant::{KernelIndex, Variant};
use issr_cluster::cluster::{Cluster, ClusterParams, ClusterSummary};
use issr_core::cfg::{cfg_addr, idx_cfg_word, reg as sreg};
use issr_isa::asm::{Assembler, Label, Program};
use issr_isa::reg::IntReg as R;
use issr_isa::Csr;
use issr_mem::map::{MAIN_BASE, TCDM_BASE, TCDM_SIZE};
use issr_snitch::cc::SimTimeout;
use issr_sparse::csr::CsrMatrix;

/// Per-buffer size (two of these sit at the top of the TCDM).
pub const BUF_BYTES: u32 = 1 << 16;
/// Bytes of each buffer reserved for matrix values.
pub const VALS_CAP: u32 = 48 * 1024;
/// Bytes of each buffer reserved for (word-aligned) index chunks.
pub const IDX_CAP: u32 = BUF_BYTES - VALS_CAP;

/// Nonzeros one buffer holds: values under [`VALS_CAP`], and indices
/// under [`IDX_CAP`] with a word of slack for the 8-aligned chunk start.
fn block_elems<I: KernelIndex>() -> u32 {
    (VALS_CAP / 8).min((IDX_CAP - 8) / I::BYTES)
}

const BUF_A: u32 = TCDM_BASE + TCDM_SIZE - 2 * BUF_BYTES;

/// The planned layout of one cluster CsrMV run.
#[derive(Clone, Debug)]
pub struct ClusterCsrmvPlan {
    /// The tile handshake's flags, laid out for the worker count.
    pub(crate) flags: FlagArea,
    pub(crate) nrows: u32,
    /// The double-buffered row blocks.
    pub(crate) blocks: Vec<Slice>,
    // Main memory.
    main_vals: u32,
    main_idcs: u32,
    pub(crate) main_meta: u32,
    pub(crate) main_y: u32,
    pub(crate) meta_bytes: u32,
    /// Hardware fetch-and-add ticket word of the multi-cluster work
    /// queue (unused by the single-cluster kernel).
    pub(crate) main_queue: u32,
    // TCDM.
    pub(crate) tcdm_x: u32,
    pub(crate) tcdm_ptr: u32,
    pub(crate) tcdm_desc: u32,
    pub(crate) tcdm_y: u32,
}

impl ClusterCsrmvPlan {
    /// Plans blocks and addresses for `m` on `n_workers` workers.
    ///
    /// Each block takes as many whole rows as its buffer holds (greedy
    /// fill under the element capacity). Every block but the last is then
    /// cut back to a multiple of `n_workers` rows whenever at least
    /// `n_workers` rows fit, because the workers split a block's rows
    /// `ceil(rows / n_workers)` apiece: a block of `f` rows makes its
    /// busiest worker take `ceil(f / n) / f ≥ 1 / n` of them, and
    /// `n · floor(f / n)` rows reach exactly `1 / n`. Without the cut, a
    /// 35-row block leaves the eighth worker of eight idle.
    ///
    /// # Panics
    /// Panics if `n_workers` is zero or above the flag area's limit, a
    /// single row exceeds the block capacity or the resident data does
    /// not fit the TCDM (the paper's matrices all fit).
    #[must_use]
    pub fn new<I: KernelIndex>(m: &CsrMatrix<I>, n_workers: u32) -> Self {
        assert!(n_workers > 0, "a cluster CsrMV needs at least one worker");
        let flags = FlagArea::csrmv(n_workers);
        let nrows = m.nrows() as u32;
        let max_elems = block_elems::<I>();
        // Main-memory layout: vals | idcs | meta [x | ptr | desc] | y.
        let mut main = crate::layout::Arena::new(MAIN_BASE, issr_mem::map::MAIN_SIZE);
        let nnz = m.nnz() as u32;
        let main_vals = main.alloc(nnz.max(1) * 8 + 8, 8);
        let main_idcs = main.alloc((nnz.max(1) * I::BYTES + 15) & !7, 8);
        let mut blocks = Vec::new();
        let ptr = m.ptr();
        let mut row = 0u32;
        while row < nrows {
            let nnz_start = ptr[row as usize];
            let mut end = row + 1;
            while end < nrows && ptr[end as usize + 1] - nnz_start <= max_elems {
                end += 1;
            }
            let fit = end - row;
            if end < nrows && fit >= n_workers {
                end -= fit % n_workers;
            }
            assert!(
                ptr[end as usize] - nnz_start <= max_elems,
                "row {row} alone exceeds the block capacity of {max_elems} nonzeros"
            );
            let block = Slice::new::<I>(ptr, row..end, main_vals, main_idcs);
            assert!(block.idcs_len <= IDX_CAP, "index chunk exceeds buffer");
            blocks.push(block);
            row = end;
        }
        let x_bytes = m.ncols() as u32 * 8;
        let ptr_bytes = ((nrows + 1) * 4 + 7) & !7;
        let desc_bytes = (blocks.len() as u32 * 32).max(8);
        let meta_bytes = x_bytes + ptr_bytes + desc_bytes;
        let main_meta = main.alloc(meta_bytes, 8);
        let main_y = main.alloc(nrows.max(1) * 8, 8);
        let main_queue = main.alloc(8, 8);
        // TCDM layout mirrors the meta block contiguously.
        let tcdm_x = TCDM_DATA_BASE;
        let tcdm_ptr = tcdm_x + x_bytes;
        let tcdm_desc = tcdm_ptr + ptr_bytes;
        let tcdm_y = tcdm_desc + desc_bytes;
        assert!(
            tcdm_y + nrows.max(1) * 8 <= BUF_A,
            "resident data (x, ptr, descriptors, y) does not fit below the block buffers"
        );
        // The ISSR row loop's read past the last row pointer lands in the
        // padding word or in the first descriptor, resident data.
        let over_read = crate::csrmv::ptr_over_read(tcdm_ptr, nrows);
        assert!(over_read + 4 <= tcdm_y, "the read past ptr[{nrows}] leaves the resident data");
        Self {
            flags,
            nrows,
            blocks,
            main_vals,
            main_idcs,
            main_meta,
            main_y,
            meta_bytes,
            main_queue,
            tcdm_x,
            tcdm_ptr,
            tcdm_desc,
            tcdm_y,
        }
    }

    /// Number of planned blocks.
    #[must_use]
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Writes the workload into cluster main memory.
    pub fn marshal<I: KernelIndex>(&self, cluster: &mut Cluster, m: &CsrMatrix<I>, x: &[f64]) {
        self.marshal_into(cluster.main.array_mut(), m, x);
    }

    /// [`ClusterCsrmvPlan::marshal`] against a bare memory array (the
    /// multi-cluster system owns the shared main memory itself).
    pub fn marshal_into<I: KernelIndex>(
        &self,
        mem: &mut issr_mem::array::MemArray,
        m: &CsrMatrix<I>,
        x: &[f64],
    ) {
        mem.store_f64_slice(self.main_vals, m.vals());
        I::store_slice(mem, self.main_idcs, m.idcs());
        // Meta block: x, ptr, descriptors — contiguous, DMAed in one go
        // to the TCDM, so staged at the TCDM layout's offsets.
        let staged = |tcdm: u32| self.main_meta + (tcdm - self.tcdm_x);
        mem.store_f64_slice(self.main_meta, x);
        mem.store_u32_slice(staged(self.tcdm_ptr), m.ptr());
        for (i, b) in self.blocks.iter().enumerate() {
            b.store(mem, staged(self.tcdm_desc) + (i as u32) * 32, 0);
        }
    }

    /// Reads the result vector back from main memory.
    #[must_use]
    pub fn read_y(&self, cluster: &Cluster) -> Vec<f64> {
        self.read_y_from(cluster.main.array())
    }

    /// [`ClusterCsrmvPlan::read_y`] against a bare memory array.
    #[must_use]
    pub fn read_y_from(&self, mem: &issr_mem::array::MemArray) -> Vec<f64> {
        mem.load_f64_slice(self.main_y, self.nrows as usize)
    }

    /// Address of the work-queue ticket word in main memory.
    #[must_use]
    pub fn queue_addr(&self) -> u32 {
        self.main_queue
    }
}

/// How a CsrMV worker learns its next block.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum TileOrder {
    /// Block `seq`, all `nblocks` in sequence (the cluster kernel).
    Static,
    /// The block the DMCC claimed for `seq`, until the sentinel (the
    /// system kernel).
    Claimed,
}

/// Emits the hart dispatch and the worker of the DMA-fed CsrMV kernels
/// (walking blocks in `order`); returns the DMCC's entry label.
pub(crate) fn emit_worker<I: KernelIndex>(
    asm: &mut Assembler,
    variant: Variant,
    plan: &ClusterCsrmvPlan,
    order: TileOrder,
) -> Label {
    let flags = plan.flags;
    assert!(flags.n_workers.is_power_of_two(), "the static row split shifts by log2(workers)");
    assert!(
        matches!(variant, Variant::Base | Variant::Issr),
        "cluster and system CsrMV are evaluated for BASE and ISSR (paper Fig. 4c)"
    );
    let nblocks = plan.blocks.len() as u32;
    asm.csrr(R::A7, Csr::MHartId);
    let dmcc_entry = asm.new_label();
    asm.li(R::T0, i64::from(flags.n_workers));
    asm.beq(R::A7, R::T0, dmcc_entry);
    asm.symbol("worker");
    flags.emit_wait_meta(asm);
    // Static state: descriptor base, sequence counter, block count, y
    // stride (the row loops advance `s1` by `s8`), done-flag slot.
    asm.li_addr(R::S9, plan.tcdm_desc);
    asm.li(R::S10, 0);
    if order == TileOrder::Static {
        asm.li(R::S11, i64::from(nblocks));
    }
    asm.li(R::S8, 8);
    flags.emit_done_slot(asm, R::A6);
    if variant == Variant::Issr {
        // Invariant lane configuration: value stride (`s8`), index mode,
        // x base (from the TCDM base `emit_wait_meta` left in `t0`); and
        // the row loop's bounds.
        asm.scfgwi(R::S8, cfg_addr(sreg::STRIDES[0], 0));
        asm.li(R::T1, i64::from(idx_cfg_word(I::IDX_SIZE, 0)));
        asm.scfgwi(R::T1, cfg_addr(sreg::IDX_CFG, 1));
        asm.addi(R::T0, R::T0, i32::try_from(plan.tcdm_x - TCDM_BASE).expect("x sits low"));
        asm.scfgwi(R::T0, cfg_addr(sreg::DATA_BASE, 1));
        emit_issr_row_bounds::<I>(asm);
        asm.csrsi(Csr::Ssr, 1);
        asm.fcvt_d_w(FZ, R::ZERO);
    }
    asm.roi_begin();
    let worker_end = asm.new_label();
    if order == TileOrder::Static && nblocks == 0 {
        asm.j(worker_end);
    }
    let block_loop = asm.bind_label();
    asm.symbol("worker_block");
    let claimed = order == TileOrder::Claimed;
    flags.emit_wait_tile(asm, R::S10, claimed.then_some(worker_end));
    let blk = if claimed { R::T4 } else { R::S10 };
    let signal_done = asm.new_label();
    emit_block_body::<I>(asm, variant, plan, blk, signal_done);
    asm.bind(signal_done);
    flags.emit_signal_done(asm, R::S10, R::T0, R::A6);
    asm.addi(R::S10, R::S10, 1);
    match order {
        TileOrder::Static => asm.blt(R::S10, R::S11, block_loop),
        TileOrder::Claimed => asm.j(block_loop),
    }
    asm.bind(worker_end);
    asm.roi_end();
    if variant == Variant::Issr {
        asm.csrci(Csr::Ssr, 1);
    }
    asm.halt();
    dmcc_entry
}

/// Emits `dst` = base of the block buffer `s10 & 1` (values at `+0`,
/// indices at `+VALS_CAP`). Clobbers `t1`.
fn emit_buffer_base(asm: &mut Assembler, dst: R) {
    asm.andi(dst, R::S10, 1);
    asm.slli(dst, dst, 16);
    asm.li_addr(R::T1, BUF_A);
    asm.add(dst, dst, R::T1);
}

/// Emits the per-block worker body: reads the descriptor `blk` indexes
/// (via `s9` = descriptor base), derives this worker's row slice, seeds
/// the cursors into the double buffer `s10 & 1` and runs the row loop;
/// branches to `signal_done` when the worker has no rows in the block.
/// Register contract: `a7` hartid, `s8` the y stride (8), `s9`
/// descriptor base, `s10` block sequence number (buffer parity);
/// everything else is clobbered.
fn emit_block_body<I: KernelIndex>(
    asm: &mut Assembler,
    variant: Variant,
    plan: &ClusterCsrmvPlan,
    blk: R,
    signal_done: Label,
) {
    let n_workers = plan.flags.n_workers;
    let log_w = if I::BYTES == 2 { 1 } else { 2 };
    // Descriptor fields.
    asm.slli(R::T4, blk, 5);
    asm.add(R::T4, R::T4, R::S9);
    asm.lw(R::A0, R::T4, 0); // row_start
    asm.lw(R::A1, R::T4, 4); // row_count
    asm.lw(R::A2, R::T4, 8); // nnz_start
                             // My row slice: rpw = ceil(row_count / workers); my_off = h * rpw.
                             // The planner makes every block but the last a multiple of the
                             // worker count (when that many rows fit), so no worker idles there.
    asm.addi(R::T5, R::A1, i32::try_from(n_workers - 1).expect("small"));
    asm.srli(R::T5, R::T5, n_workers.trailing_zeros() as i32);
    asm.mul(R::T6, R::T5, R::A7);
    asm.sub(R::A3, R::A1, R::T6); // rows remaining after my offset
    asm.blez(R::A3, signal_done); // no rows for me in this block
    let clamp_ok = asm.new_label();
    asm.bge(R::A3, R::T5, clamp_ok);
    asm.mv(R::T5, R::A3); // my_count = min(rpw, remaining)
    asm.bind(clamp_ok);
    asm.add(R::A4, R::A0, R::T6); // my_start
                                  // Row-pointer window: s3 = ptr[my_start]; s0 = &ptr[my_start + 1].
    asm.slli(R::T0, R::A4, 2);
    asm.li_addr(R::T1, plan.tcdm_ptr);
    asm.add(R::T0, R::T0, R::T1);
    asm.lw(R::S3, R::T0, 0);
    asm.addi(R::S0, R::T0, 4);
    asm.slli(R::T2, R::T5, 2);
    asm.add(R::T2, R::T2, R::T0);
    asm.lw(R::T2, R::T2, 0); // ptr[my_end]
    asm.mv(R::S2, R::T5); // row count for the row loop
                          // y cursor.
    asm.slli(R::T0, R::A4, 3);
    asm.li_addr(R::T1, plan.tcdm_y);
    asm.add(R::S1, R::T0, R::T1);
    asm.sub(R::A5, R::T2, R::S3); // my element count
                                  // Buffer bases for this block.
    emit_buffer_base(asm, R::T0);
    match variant {
        Variant::Issr => {
            let launch_done = asm.new_label();
            asm.beqz(R::A5, launch_done); // nothing streams this block
                                          // Launch SSR over my values.
            asm.addi(R::T1, R::A5, -1);
            asm.scfgwi(R::T1, cfg_addr(sreg::BOUNDS[0], 0));
            asm.scfgwi(R::T1, cfg_addr(sreg::BOUNDS[0], 1));
            asm.sub(R::T2, R::S3, R::A2); // element offset in buffer
            asm.slli(R::T2, R::T2, 3);
            asm.add(R::T2, R::T2, R::T0);
            asm.scfgwi(R::T2, cfg_addr(sreg::RPTR[0], 0));
            // Launch ISSR over my indices (buffer chunk is 8-aligned from
            // `idcs_src`; the serializer absorbs the sub-word offset).
            asm.slli(R::T2, R::S3, log_w);
            asm.slli(R::T3, R::A2, log_w);
            asm.andi(R::T3, R::T3, -8);
            asm.sub(R::T2, R::T2, R::T3);
            asm.add(R::T2, R::T2, R::T0);
            asm.li(R::T3, i64::from(VALS_CAP));
            asm.add(R::T2, R::T2, R::T3);
            asm.scfgwi(R::T2, cfg_addr(sreg::RPTR[0], 1));
            asm.bind(launch_done);
            emit_issr_row_loop::<I>(asm);
        }
        _ => {
            // BASE: software cursors into the buffer.
            // Virtual value base: buf_vals - 8 * nnz_start.
            asm.slli(R::T1, R::A2, 3);
            asm.sub(R::S7, R::T0, R::T1);
            asm.slli(R::T1, R::S3, 3);
            asm.add(R::S5, R::S7, R::T1); // vals cursor at ptr[my_start]
                                          // Virtual index base: buf_idcs - align8(W * nnz_start).
            asm.slli(R::T1, R::A2, log_w);
            asm.andi(R::T1, R::T1, -8);
            asm.li(R::T2, i64::from(VALS_CAP));
            asm.add(R::T2, R::T2, R::T0);
            asm.sub(R::T2, R::T2, R::T1); // virtual idx base
            asm.slli(R::T1, R::S3, log_w);
            asm.add(R::S4, R::T2, R::T1); // idx cursor
            asm.li_addr(R::S6, plan.tcdm_x);
            // emit_sw_row_loop(BASE) computes row ends against s7.
            emit_sw_row_loop::<I>(asm, Variant::Base, 3);
        }
    }
    // y-fence: the row loops store y through the FPU LSU, the done flag
    // goes through the core LSU, and the shared-port mux arbitrates the
    // two — an integer flag store could overtake the last y store. Pull
    // the final y word back through the FPU LSU (ordered behind the
    // store) and sync it into an integer register so the fall-through
    // path cannot signal done before its y rows are in the TCDM — the
    // per-block DMA write-back reads them right after.
    asm.fld(issr_isa::reg::FpReg::FT6, R::S1, -8);
    asm.fcvt_w_d(R::T0, issr_isa::reg::FpReg::FT6);
    asm.add(R::ZERO, R::T0, R::T0);
}

/// Emits `t4` = the address of descriptor `blk`. Clobbers `t5`.
pub(crate) fn emit_desc_addr(asm: &mut Assembler, plan: &ClusterCsrmvPlan, blk: R) {
    asm.slli(R::T4, blk, 5);
    asm.li_addr(R::T5, plan.tcdm_desc);
    asm.add(R::T4, R::T4, R::T5);
}

/// Emits the prepare step of the DMCC's fetch of block `blk` into
/// buffer `s10 & 1` ([`emit_slice_prepare`]).
pub(crate) fn emit_block_prepare(asm: &mut Assembler, plan: &ClusterCsrmvPlan, blk: R) {
    emit_desc_addr(asm, plan, blk);
    emit_slice_prepare(asm, VALS_CAP, |asm| emit_buffer_base(asm, R::A4));
}

/// Builds the SPMD cluster program (all harts run it; the DMCC is hart
/// `n_workers`).
#[must_use]
pub fn build_cluster_csrmv<I: KernelIndex>(variant: Variant, plan: &ClusterCsrmvPlan) -> Program {
    let flags = plan.flags;
    let nblocks = plan.blocks.len() as u32;
    let mut asm = Assembler::new();
    let dmcc_entry = emit_worker::<I>(&mut asm, variant, plan, TileOrder::Static);
    asm.bind(dmcc_entry);
    asm.symbol("dmcc");
    // Meta transfer: x | ptr | descriptors in one DMA.
    flags.emit_meta_transfer(&mut asm, plan.main_meta, plan.tcdm_x, plan.meta_bytes, |_| {});
    asm.li(R::S11, i64::from(nblocks));
    let dmcc_finish = asm.new_label();
    if nblocks == 0 {
        asm.j(dmcc_finish);
    }
    let dmcc_loop = asm.bind_label();
    asm.symbol("dmcc_block");
    emit_block_prepare(&mut asm, plan, R::S10);
    flags.emit_buffer_guard(&mut asm);
    emit_slice_issue(&mut asm);
    emit_dma_poll(&mut asm);
    flags.emit_ready(&mut asm);
    asm.addi(R::S10, R::S10, 1);
    asm.blt(R::S10, R::S11, dmcc_loop);
    asm.bind(dmcc_finish);
    // Wait for all workers to finish the last block, then write the
    // result back.
    flags.emit_wait_done(&mut asm, R::S11);
    if plan.nrows > 0 {
        asm.li_addr(R::A0, plan.tcdm_y);
        asm.li_addr(R::A1, plan.main_y);
        asm.dmsrc(R::A0, R::ZERO);
        asm.dmdst(R::A1, R::ZERO);
        asm.li(R::A2, i64::from(plan.nrows) * 8);
        asm.dmcpyi(R::S7, R::A2, 0);
        emit_dma_poll(&mut asm);
    }
    asm.halt();
    asm.finish().expect("cluster CsrMV program assembles")
}

/// Result of one cluster CsrMV run.
#[derive(Clone, Debug)]
pub struct ClusterCsrmvRun {
    /// The result vector, read back from main memory.
    pub y: Vec<f64>,
    /// Cluster-wide summary.
    pub summary: ClusterSummary,
}

/// Runs cluster CsrMV end to end (marshal → simulate → read back).
///
/// # Errors
/// Returns [`SimTimeout`] if the cluster deadlocks or exceeds its cycle
/// budget (a bug).
pub fn run_cluster_csrmv<I: KernelIndex>(
    variant: Variant,
    m: &CsrMatrix<I>,
    x: &[f64],
) -> Result<ClusterCsrmvRun, SimTimeout> {
    run_cluster_csrmv_with(variant, m, x, ClusterParams::default())
}

/// [`run_cluster_csrmv`] with explicit cluster parameters (worker-count
/// scaling studies, instruction-cache ablations).
///
/// # Errors
/// Returns [`SimTimeout`] if the cluster deadlocks or exceeds its cycle
/// budget (a bug).
pub fn run_cluster_csrmv_with<I: KernelIndex>(
    variant: Variant,
    m: &CsrMatrix<I>,
    x: &[f64],
    params: ClusterParams,
) -> Result<ClusterCsrmvRun, SimTimeout> {
    let plan = ClusterCsrmvPlan::new(m, params.n_workers as u32);
    let (cluster, summary) = harness::cluster(
        params,
        OnTrap::Panic,
        build_cluster_csrmv::<I>(variant, &plan),
        |cluster| plan.marshal(cluster, m, x),
        1_000_000 + 32 * m.nnz() as u64 + 512 * m.nrows() as u64,
    )?;
    Ok(ClusterCsrmvRun { y: plan.read_y(&cluster), summary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use issr_sparse::dense::allclose;
    use issr_sparse::{gen, reference};

    fn check<I: KernelIndex>(variant: Variant, nrows: usize, ncols: usize, nnz: usize, seed: u64) {
        let mut rng = gen::rng(seed);
        let m = gen::csr_uniform::<I>(&mut rng, nrows, ncols, nnz);
        let x = gen::dense_vector(&mut rng, ncols);
        let run = run_cluster_csrmv(variant, &m, &x).expect("cluster run finishes");
        let expect = reference::csrmv(&m, &x);
        assert!(
            allclose(&run.y, &expect, 1e-12, 1e-12),
            "{variant} cluster {nrows}x{ncols} nnz={nnz}"
        );
    }

    #[test]
    fn issr_single_block_matches_reference() {
        check::<u16>(Variant::Issr, 64, 128, 600, 50);
        check::<u32>(Variant::Issr, 64, 128, 600, 51);
    }

    #[test]
    fn base_single_block_matches_reference() {
        check::<u16>(Variant::Base, 64, 128, 600, 52);
    }

    #[test]
    fn multi_block_double_buffering_matches_reference() {
        // > 6144 elements forces several blocks through both buffers.
        check::<u16>(Variant::Issr, 400, 256, 16_000, 53);
    }

    #[test]
    fn multi_block_base_matches_reference() {
        check::<u16>(Variant::Base, 400, 256, 16_000, 54);
    }

    #[test]
    fn empty_and_unbalanced_rows() {
        // Rows 0 and 5 dense, everything else empty; fewer rows than cores.
        let mut triplets = Vec::new();
        for j in 0..40 {
            triplets.push((0, j, j as f64 + 1.0));
            triplets.push((5, (j * 3) % 64, 0.5 * j as f64));
        }
        let m = CsrMatrix::<u16>::from_triplets(6, 64, &triplets);
        let x: Vec<f64> = (0..64).map(|i| f64::from(i as u32) * 0.25).collect();
        let run = run_cluster_csrmv(Variant::Issr, &m, &x).unwrap();
        assert!(allclose(&run.y, &reference::csrmv(&m, &x), 1e-12, 1e-12));
    }

    /// The planner's rule over uniform, fixed-row and clustered shapes,
    /// 1/2/4/8 workers and both index widths: the blocks cover the rows
    /// contiguously within both buffer capacities, and every block but
    /// the last that fits at least `n` rows holds a multiple of `n` rows,
    /// never fewer than `n · floor(fit / n)`.
    #[test]
    fn blocks_hold_whole_rows_per_worker() {
        fn check_plan<I: KernelIndex>(shape: &str, m: &CsrMatrix<I>) {
            let ptr = m.ptr();
            let nrows = m.nrows() as u32;
            let cap = block_elems::<I>();
            for n in [1, 2, 4, 8] {
                let plan = ClusterCsrmvPlan::new(m, n);
                let mut row = 0;
                for (i, b) in plan.blocks.iter().enumerate() {
                    let at = format!("{shape}, {}-byte indices, {n} workers, block {i}", I::BYTES);
                    assert_eq!((b.row_start, b.nnz_start), (row, ptr[row as usize]), "{at}: gap");
                    let end = row + b.row_count;
                    let nnz_end = ptr[end as usize];
                    assert!(b.row_count > 0 && nnz_end - b.nnz_start <= cap, "{at}: capacity");
                    assert!(b.vals_len <= VALS_CAP && b.idcs_len <= IDX_CAP, "{at}: buffer");
                    let idx = |r: u32| plan.main_idcs + ptr[r as usize] * I::BYTES;
                    assert!(b.idcs_src <= idx(row) && idx(end) <= b.idcs_src + b.idcs_len, "{at}");
                    let fit = (row + 2..=nrows)
                        .take_while(|&e| ptr[e as usize] - b.nnz_start <= cap)
                        .count() as u32
                        + 1;
                    if end < nrows && fit >= n {
                        assert_eq!(b.row_count % n, 0, "{at}: {} of {fit} rows", b.row_count);
                    }
                    assert!(b.row_count >= n * (fit / n), "{at}: {} of {fit} rows", b.row_count);
                    row = end;
                }
                assert_eq!(row, nrows, "{shape}, {n} workers: rows left unplanned");
            }
        }
        let mut rng = gen::rng(0x000B_10C5);
        let shapes = [
            ("uniform", gen::csr_uniform::<u32>(&mut rng, 600, 512, 30_000)),
            ("173 nnz/row", gen::csr_fixed_row_nnz::<u32>(&mut rng, 288, 1024, 173)),
            ("1000 nnz/row", gen::csr_fixed_row_nnz::<u32>(&mut rng, 30, 2048, 1000)),
            ("clustered", gen::csr_clustered::<u32>(&mut rng, 1000, 4096, 40, 64)),
        ];
        for (shape, m) in &shapes {
            check_plan(shape, m);
            check_plan(shape, &m.with_index_width::<u16>());
        }
    }

    /// psmigr_1's density, 173 nnz/row, fills 35 rows per block; cut to
    /// 32, every worker runs four rows of every block (at 35 the eighth
    /// worker ran none, and only one row of the tail block). Reference
    /// exact, every worker within 2 % of the mean ROI fmadds, and the
    /// system kernel bit-identical at 1/2/4 clusters.
    #[test]
    fn full_blocks_keep_every_worker_busy() {
        let mut rng = gen::rng(76);
        let m = gen::csr_fixed_row_nnz::<u16>(&mut rng, 288, 1024, 173);
        let x = gen::dense_vector(&mut rng, 1024);
        let rows: Vec<u32> =
            ClusterCsrmvPlan::new(&m, 8).blocks.iter().map(|b| b.row_count).collect();
        assert_eq!(rows, [32; 9]);
        let run = run_cluster_csrmv(Variant::Issr, &m, &x).unwrap();
        assert!(allclose(&run.y, &reference::csrmv(&m, &x), 1e-12, 1e-12));
        let fmadds: Vec<u64> = run.summary.worker_metrics.iter().map(|w| w.roi.fmadds).collect();
        let mean = fmadds.iter().sum::<u64>() as f64 / fmadds.len() as f64;
        assert!(
            fmadds.iter().all(|&f| (f as f64 - mean).abs() <= 0.02 * mean),
            "ROI fmadds per worker {fmadds:?} (mean {mean:.0})"
        );
        crate::system_csrmv::tests::check_identity_on(Variant::Issr, &m, &x, 8);
    }

    /// Fig. 4c's short rows run from the L0: at 2 and 4 nnz/row every
    /// row stays inside the row loop's compact block, so a worker's L0
    /// misses are its warm-up and do not grow when its row count
    /// doubles (512 → 1,024 rows, one block either way).
    #[test]
    fn short_rows_stay_in_the_l0() {
        let l0_misses = |nrows: usize, row_nnz: usize| -> Vec<u64> {
            let mut rng = gen::rng(0x000F_164C + row_nnz as u64);
            let m = gen::csr_clustered::<u16>(&mut rng, nrows, 2048, row_nnz, 16);
            let x = gen::dense_vector(&mut rng, 2048);
            let params = ClusterParams::default();
            let plan = ClusterCsrmvPlan::new(&m, params.n_workers as u32);
            assert_eq!(plan.n_blocks(), 1, "{nrows} rows of {row_nnz}");
            let program = build_cluster_csrmv::<u16>(Variant::Issr, &plan);
            let marshal = |cluster: &mut Cluster| plan.marshal(cluster, &m, &x);
            let (cluster, _) =
                harness::cluster(params, OnTrap::Panic, program, marshal, 1_000_000).unwrap();
            assert!(allclose(&plan.read_y(&cluster), &reference::csrmv(&m, &x), 1e-12, 1e-12));
            cluster.workers.iter().map(|w| w.l0().expect("the cluster has L0s").misses).collect()
        };
        for row_nnz in [2, 4] {
            let (short, long) = (l0_misses(512, row_nnz), l0_misses(1024, row_nnz));
            assert!(
                long.iter().zip(&short).all(|(l, s)| l <= s),
                "{row_nnz} nnz/row: L0 misses per worker {short:?} at 512 rows, {long:?} at 1,024"
            );
        }
    }

    /// The row loop loads each row's end a row ahead, so a load to `t5`
    /// can be in flight when a later instruction writes `t5`; the core
    /// orders the two writes (WAW). plat1919's shape (1919 × 1919, 32,399
    /// uniform nonzeros, the benchmark's structure seed) runs many blocks
    /// under TCDM contention, the schedule that exposed it.
    #[test]
    fn plat1919_shape_matches_reference() {
        let m = gen::csr_uniform::<u16>(&mut gen::rng(0x1553_0016), 1919, 1919, 32_399);
        let x = gen::dense_vector(&mut gen::rng(1), 1919);
        let run = run_cluster_csrmv(Variant::Issr, &m, &x).unwrap();
        assert!(allclose(&run.y, &reference::csrmv(&m, &x), 1e-12, 1e-12));
    }

    /// The last row of the matrix reads the word after the row pointers
    /// and drops it. With an even pointer count (63 rows) there is no
    /// padding word: the read lands on the first block descriptor, and
    /// the result is still the oracle's, in both widths.
    #[test]
    fn the_read_past_the_row_pointers_lands_on_the_descriptors() {
        fn check<I: KernelIndex>() {
            let mut rng = gen::rng(0x0E4D);
            let m = gen::csr_uniform::<I>(&mut rng, 63, 128, 300);
            let x = gen::dense_vector(&mut rng, 128);
            let plan = ClusterCsrmvPlan::new(&m, 8);
            let end = crate::csrmv::ptr_over_read(plan.tcdm_ptr, plan.nrows);
            assert_eq!(end, plan.tcdm_desc, "the window ends at the descriptors");
            let run = run_cluster_csrmv(Variant::Issr, &m, &x).unwrap();
            assert!(allclose(&run.y, &reference::csrmv(&m, &x), 1e-12, 1e-12));
        }
        check::<u16>();
        check::<u32>();
    }

    /// Fig. 4c's headline: the ISSR-16 cluster kernel beats BASE by a
    /// large factor on reasonably dense matrices.
    #[test]
    fn cluster_speedup_on_dense_rows() {
        let mut rng = gen::rng(60);
        let m = gen::csr_fixed_row_nnz::<u16>(&mut rng, 256, 512, 64);
        let x = gen::dense_vector(&mut rng, 512);
        let base = run_cluster_csrmv(Variant::Base, &m, &x).unwrap();
        let issr = run_cluster_csrmv(Variant::Issr, &m, &x).unwrap();
        let speedup = issr_trace::ratio(base.summary.cycles as f64, issr.summary.cycles as f64);
        assert!(
            speedup > 3.0 && speedup < 7.3,
            "cluster ISSR-16 speedup {speedup:.2} out of plausible band"
        );
        // Bank conflicts must be visible in the ISSR run (random gathers).
        assert!(issr.summary.tcdm_stats.conflicts > 0);
    }
}
