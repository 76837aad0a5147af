//! Multicore cluster CsrMV (§IV-B).
//!
//! The paper's system-level experiment: all data starts in main memory;
//! the DMCC double-buffers matrix blocks into the TCDM with the 512-bit
//! DMA while eight workers process the previous block, rows statically
//! distributed among them: each worker takes a contiguous
//! `ceil(rows / workers)` of the block's rows. The planner cuts every
//! block but the last to a multiple of the worker count whenever that
//! many rows fit ([`ClusterCsrmvPlan::new`]), so in a full block every
//! worker has the same number of rows.
//!
//! **What moves when.** The *meta transfer* carries the resident data
//! once, up front: the dense vector, the row pointers and the block
//! descriptors (the DMCC's copy sources and lengths). Each *block* moves
//! in two transfers into buffer `seq & 1`: its values, and its index
//! chunk behind the block's **slice table** — one 32-byte record per
//! worker, which the planner derives on the host (row-pointer window,
//! row count, `y` cursor, `ptr` of the first row, element count − 1 and
//! both stream starts). A worker reads its record from
//! the buffer it computes on, so it derives nothing per block, and the
//! table costs the meta transfer nothing. Block 0 is known when the
//! program is built: the DMCC queues its two transfers from immediates
//! right behind the meta transfer and polls them after it raises `meta`,
//! and the workers' invariant set-up runs while the meta transfer
//! moves. The result vector accumulates in the TCDM and is written back
//! at the end. DMCC and workers hand the blocks over through the tile
//! handshake of the crate-private `handshake` module.

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
/// Bytes of each buffer reserved for the slice table and the
/// (word-aligned) index chunk behind it.
pub const IDX_CAP: u32 = BUF_BYTES - VALS_CAP;

/// Bytes of one worker's record in a block's slice table.
const SLICE_BYTES: u32 = 32;

/// Bytes of a block's slice table for `n_workers`: whole multiples of
/// the 32 banks' 256-byte period, so the index chunk behind it keeps the
/// banks it had at the region's start.
fn table_bytes(n_workers: u32) -> u32 {
    (n_workers * SLICE_BYTES).next_multiple_of(256)
}

/// Nonzeros one buffer holds: values under [`VALS_CAP`], and indices
/// under [`IDX_CAP`] less the slice table, with a word of slack for the
/// 8-aligned chunk start.
fn block_elems<I: KernelIndex>(table: u32) -> u32 {
    (VALS_CAP / 8).min((IDX_CAP - table - 8) / I::BYTES)
}

const BUF_A: u32 = TCDM_BASE + TCDM_SIZE - 2 * BUF_BYTES;

/// One worker's share of a block, derived by the planner: the
/// contiguous `ceil(rows / workers)` rows at `hart · ceil(rows /
/// workers)`, clamped to the block, and where their nonzeros stream
/// from in buffer A (buffer B is [`BUF_BYTES`] higher).
#[derive(Clone, Copy, Debug)]
struct WorkerSlice {
    row_start: u32,
    /// Zero for a worker without rows in the block.
    row_count: u32,
    /// `ptr[row_start]`.
    nnz_start: u32,
    nnz: u32,
    /// The first value's address in buffer A.
    vals_at: u32,
    /// The word holding the first index, in buffer A.
    idcs_at: u32,
}

/// The planned layout of one cluster CsrMV run.
#[derive(Clone, Debug)]
pub struct ClusterCsrmvPlan {
    /// The tile handshake's flags, laid out for the worker count.
    pub(crate) flags: FlagArea,
    pub(crate) nrows: u32,
    /// The double-buffered row blocks. A block's index source is its
    /// staged slice table and index chunk.
    pub(crate) blocks: Vec<Slice>,
    /// Every block's slice table, `n_workers` records a block.
    slices: Vec<WorkerSlice>,
    /// Bytes of a block's slice table ([`table_bytes`]).
    table: u32,
    // Main memory.
    main_vals: u32,
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
    /// Plans blocks, slice tables and addresses for `m` on `n_workers`
    /// workers.
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
        let table = table_bytes(n_workers);
        let max_elems = block_elems::<I>(table);
        // Main-memory layout: vals | staged index chunks | meta [x | ptr |
        // desc] | y.
        let mut main = crate::layout::Arena::new(MAIN_BASE, issr_mem::map::MAIN_SIZE);
        let nnz = m.nnz() as u32;
        let main_vals = main.alloc(nnz.max(1) * 8 + 8, 8);
        let mut blocks = Vec::new();
        let mut slices = Vec::new();
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
            // The index window is planned against an 8-aligned origin and
            // staged behind the block's slice table below.
            let block = Slice::new::<I>(ptr, row..end, main_vals, 0);
            assert!(table + block.idcs_len <= IDX_CAP, "index chunk exceeds buffer");
            let per_worker = block.row_count.div_ceil(n_workers);
            for h in 0..n_workers {
                let first = (h * per_worker).min(block.row_count);
                let count = per_worker.min(block.row_count - first);
                let start = ptr[(row + first) as usize];
                slices.push(WorkerSlice {
                    row_start: row + first,
                    row_count: count,
                    nnz_start: start,
                    nnz: ptr[(row + first + count) as usize] - start,
                    vals_at: BUF_A + 8 * (start - nnz_start),
                    idcs_at: BUF_A + VALS_CAP + table + start * I::BYTES - block.idcs_src,
                });
            }
            blocks.push(block);
            row = end;
        }
        let stage_bytes = blocks.iter().map(|b| table + b.idcs_len).sum::<u32>();
        let mut stage = main.alloc(stage_bytes.max(8), 8);
        for b in &mut blocks {
            b.idcs_src = stage;
            b.idcs_len += table;
            stage += b.idcs_len;
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
            slices,
            table,
            main_vals,
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

    /// The slice table of block `b`, one record per worker (module
    /// docs): `&ptr[start + 1]`, row count, `&y[start]`, `ptr[start]`,
    /// element count − 1, the value and index stream starts in buffer A,
    /// and a pad word. A worker without rows reads an all-zero record.
    fn slice_table(&self, b: usize) -> Vec<u32> {
        let n = self.flags.n_workers as usize;
        let mut words = Vec::with_capacity((self.table / 4) as usize);
        for s in &self.slices[b * n..(b + 1) * n] {
            let record = if s.row_count == 0 {
                [0; 8]
            } else {
                [
                    self.tcdm_ptr + 4 * (s.row_start + 1),
                    s.row_count,
                    self.tcdm_y + 8 * s.row_start,
                    s.nnz_start,
                    s.nnz.wrapping_sub(1),
                    s.vals_at,
                    s.idcs_at,
                    0,
                ]
            };
            words.extend(record);
        }
        words.resize((self.table / 4) as usize, 0);
        words
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
        // Each block's index source: its slice table, then the 8-aligned
        // window of the index array that covers its nonzeros.
        for (i, b) in self.blocks.iter().enumerate() {
            mem.store_u32_slice(b.idcs_src, &self.slice_table(i));
            let first = ((b.nnz_start * I::BYTES) & !7) / I::BYTES;
            let last = (first + (b.idcs_len - self.table) / I::BYTES).min(m.nnz() as u32);
            I::store_slice(mem, b.idcs_src + self.table, &m.idcs()[first as usize..last as usize]);
        }
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
    // Invariant set-up, ahead of the meta wait so that its cold lines
    // fill while the meta transfer moves: sequence counter, block count,
    // y stride (the row loops advance `s1` by `s8`), done slot, and
    // `a5` = this worker's record in buffer A's slice table.
    asm.li(R::S10, 0);
    if order == TileOrder::Static {
        asm.li(R::S11, i64::from(nblocks));
    }
    asm.li(R::S8, 8);
    flags.emit_done_slot(asm, R::A6);
    asm.li_addr(R::A5, BUF_A + VALS_CAP);
    asm.slli(R::T1, R::A7, SLICE_BYTES.trailing_zeros() as i32);
    asm.add(R::A5, R::A5, R::T1);
    match variant {
        Variant::Issr => {
            // Lane configuration: value stride (`s8`), index mode, x
            // base; the row loop's bounds; streams on.
            asm.scfgwi(R::S8, cfg_addr(sreg::STRIDES[0], 0));
            asm.li(R::T1, i64::from(idx_cfg_word(I::IDX_SIZE, 0)));
            asm.scfgwi(R::T1, cfg_addr(sreg::IDX_CFG, 1));
            asm.li_addr(R::T0, plan.tcdm_x);
            asm.scfgwi(R::T0, cfg_addr(sreg::DATA_BASE, 1));
            emit_issr_row_bounds::<I>(asm);
            asm.csrsi(Csr::Ssr, 1);
            asm.fcvt_d_w(FZ, R::ZERO);
        }
        _ => asm.li_addr(R::S6, plan.tcdm_x), // the BASE gathers' x base
    }
    flags.emit_wait_meta(asm);
    asm.roi_begin();
    let worker_end = asm.new_label();
    if order == TileOrder::Static && nblocks == 0 {
        asm.j(worker_end);
    }
    let block_loop = asm.bind_label();
    asm.symbol("worker_block");
    let claimed = order == TileOrder::Claimed;
    flags.emit_wait_tile(asm, R::S10, claimed.then_some(worker_end));
    let signal_done = asm.new_label();
    emit_block_body::<I>(asm, variant, signal_done);
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
/// slice table and indices at `+VALS_CAP`). Clobbers `t1`.
fn emit_buffer_base(asm: &mut Assembler, dst: R) {
    asm.andi(dst, R::S10, 1);
    asm.slli(dst, dst, 16);
    asm.li_addr(R::T1, BUF_A);
    asm.add(dst, dst, R::T1);
}

/// Emits the per-block worker body: reads this worker's record from
/// the slice table of buffer `s10 & 1` (`a5` is the record in buffer
/// A), seeds the cursors and streams from it and runs the row loop;
/// branches to `signal_done` when the worker has no rows in the block.
/// Register contract: `a5` the record, `s6` the x base (BASE), `s8` the
/// y stride (8), `s10` block sequence number (buffer parity);
/// everything else but `a6`/`a7` is clobbered.
fn emit_block_body<I: KernelIndex>(asm: &mut Assembler, variant: Variant, signal_done: Label) {
    // t0 = the buffer's offset from buffer A; t4 = the record.
    asm.andi(R::T0, R::S10, 1);
    asm.slli(R::T0, R::T0, BUF_BYTES.trailing_zeros() as i32);
    asm.add(R::T4, R::T0, R::A5);
    asm.lw(R::S2, R::T4, 4); // row count
    asm.lw(R::S0, R::T4, 0); // &ptr[start + 1]
    asm.lw(R::S1, R::T4, 8); // &y[start]
    asm.lw(R::S3, R::T4, 12); // ptr[start]
    match variant {
        Variant::Issr => {
            asm.lw(R::T1, R::T4, 16); // element count - 1
            asm.lw(R::T2, R::T4, 20); // value stream start in buffer A
            asm.lw(R::T3, R::T4, 24); // index stream start in buffer A
            asm.blez(R::S2, signal_done); // no rows for me in this block
            let launch_done = asm.new_label();
            asm.blt(R::T1, R::ZERO, launch_done); // nothing streams this block
            asm.scfgwi(R::T1, cfg_addr(sreg::BOUNDS[0], 0));
            asm.scfgwi(R::T1, cfg_addr(sreg::BOUNDS[0], 1));
            asm.add(R::T2, R::T2, R::T0);
            asm.scfgwi(R::T2, cfg_addr(sreg::RPTR[0], 0));
            // The serializer absorbs the index's sub-word offset.
            asm.add(R::T3, R::T3, R::T0);
            asm.scfgwi(R::T3, cfg_addr(sreg::RPTR[0], 1));
            asm.bind(launch_done);
            emit_issr_row_loop::<I>(asm);
        }
        _ => {
            // BASE: software cursors into the buffer, and the virtual
            // value base `s7` = cursor - 8 * ptr[start] the row ends
            // are computed against.
            asm.lw(R::S5, R::T4, 20);
            asm.lw(R::S4, R::T4, 24);
            asm.blez(R::S2, signal_done); // no rows for me in this block
            asm.add(R::S5, R::S5, R::T0);
            asm.add(R::S4, R::S4, R::T0);
            asm.slli(R::T1, R::S3, 3);
            asm.sub(R::S7, R::S5, R::T1);
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
    // Meta transfer: x | ptr | descriptors in one DMA, with block 0's
    // two transfers queued behind it from immediates (`s9` = the id of
    // its index transfer).
    let first = plan.blocks.first().copied();
    let in_flight = |asm: &mut Assembler| {
        if let Some(b) = first {
            asm.li_addr(R::A0, b.vals_src);
            asm.li(R::A1, i64::from(b.vals_len));
            asm.li_addr(R::A2, b.idcs_src);
            asm.li(R::A3, i64::from(b.idcs_len));
            asm.li_addr(R::A4, BUF_A);
            asm.li_addr(R::A5, BUF_A + VALS_CAP);
            emit_slice_issue(asm, R::S9);
        }
    };
    flags.emit_meta_transfer(&mut asm, plan.main_meta, plan.tcdm_x, plan.meta_bytes, in_flight);
    asm.li(R::S11, i64::from(nblocks));
    if first.is_some() {
        // `meta` is up: poll block 0 and publish it.
        asm.mv(R::S7, R::S9);
        emit_dma_poll(&mut asm);
        flags.emit_ready(&mut asm);
        asm.addi(R::S10, R::S10, 1);
    }
    if nblocks > 1 {
        let dmcc_loop = asm.bind_label();
        asm.symbol("dmcc_block");
        emit_block_prepare(&mut asm, plan, R::S10);
        flags.emit_buffer_guard(&mut asm);
        emit_slice_issue(&mut asm, R::S7);
        emit_dma_poll(&mut asm);
        flags.emit_ready(&mut asm);
        asm.addi(R::S10, R::S10, 1);
        asm.blt(R::S10, R::S11, dmcc_loop);
    }
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
            for n in [1, 2, 4, 8] {
                let plan = ClusterCsrmvPlan::new(m, n);
                let cap = block_elems::<I>(plan.table);
                let mut row = 0;
                for (i, b) in plan.blocks.iter().enumerate() {
                    let at = format!("{shape}, {}-byte indices, {n} workers, block {i}", I::BYTES);
                    assert_eq!((b.row_start, b.nnz_start), (row, ptr[row as usize]), "{at}: gap");
                    let end = row + b.row_count;
                    let nnz_end = ptr[end as usize];
                    assert!(b.row_count > 0 && nnz_end - b.nnz_start <= cap, "{at}: capacity");
                    assert!(b.vals_len <= VALS_CAP && b.idcs_len <= IDX_CAP, "{at}: buffer");
                    // The staged window behind the slice table covers the
                    // block's indices.
                    let window = (b.nnz_start * I::BYTES) & !7;
                    let idx = |r: u32| ptr[r as usize] * I::BYTES;
                    let staged = b.idcs_len - plan.table;
                    assert!(window <= idx(row) && idx(end) <= window + staged, "{at}");
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

    /// The planner's slice tables equal the derivation the workers ran
    /// on every block before the tables existed: `rpw = ceil(rows / n)`
    /// (a shift by log2 n), `off = h · rpw`, no rows when `rows − off ≤
    /// 0`, else `min(rpw, rows − off)` rows from `row_start + off`, whose
    /// streams start at the first row's nonzero (the index chunk now
    /// behind the table). At 1, 2, 4, 8 and 16 workers, both widths,
    /// over a short last block, empty rows and workers without rows.
    #[test]
    fn planned_slices_equal_the_runtime_derivation() {
        fn check_plan<I: KernelIndex>(shape: &str, m: &CsrMatrix<I>) -> [bool; 2] {
            let ptr = |r: u32| m.ptr()[r as usize];
            let mut seen = [false; 2]; // a short last block, a worker without rows
            for n in [1u32, 2, 4, 8, 16] {
                let plan = ClusterCsrmvPlan::new(m, n);
                assert_eq!(plan.slices.len(), plan.blocks.len() * n as usize);
                let first_rows = plan.blocks[0].row_count;
                for (i, b) in plan.blocks.iter().enumerate() {
                    seen[0] |= b.row_count % n != 0 || b.row_count < first_rows;
                    let table = plan.slice_table(i);
                    assert_eq!(table.len() * 4, plan.table as usize);
                    let rpw = (b.row_count + n - 1) >> n.trailing_zeros();
                    for h in 0..n {
                        let at = format!(
                            "{shape}, {} bytes, {n} workers, block {i}, hart {h}",
                            I::BYTES
                        );
                        let s = plan.slices[(i as u32 * n + h) as usize];
                        let record = &table[8 * h as usize..8 * (h as usize + 1)];
                        let remaining = i64::from(b.row_count) - i64::from(h * rpw);
                        if remaining <= 0 {
                            seen[1] = true;
                            assert_eq!((s.row_count, record), (0, &[0; 8][..]), "{at}");
                            continue;
                        }
                        let count = rpw.min(remaining as u32);
                        let start = b.row_start + h * rpw;
                        let elems = ptr(start + count) - ptr(start);
                        let vals = BUF_A + 8 * (ptr(start) - b.nnz_start);
                        let chunk = ptr(start) * I::BYTES - ((b.nnz_start * I::BYTES) & !7);
                        let idcs = BUF_A + VALS_CAP + plan.table + chunk;
                        let planned = (s.row_start, s.row_count, s.nnz, s.vals_at, s.idcs_at);
                        assert_eq!(planned, (start, count, elems, vals, idcs), "{at}");
                        let words = [
                            plan.tcdm_ptr + 4 * (start + 1),
                            count,
                            plan.tcdm_y + 8 * start,
                            ptr(start),
                            elems.wrapping_sub(1),
                            vals,
                            idcs,
                            0,
                        ];
                        assert_eq!(record, words, "{at}");
                    }
                }
            }
            seen
        }
        let mut rng = gen::rng(0x5_11CE);
        let mut triplets = Vec::new();
        for r in (0..90).filter(|r| r % 3 != 1) {
            for j in 0..(r % 7) * 30 {
                triplets.push((r, (j * 11 + r) % 512, 1.0 + j as f64));
            }
        }
        let shapes = [
            ("uniform", gen::csr_uniform::<u32>(&mut rng, 400, 256, 16_000)),
            ("empty rows", CsrMatrix::<u32>::from_triplets(90, 512, &triplets)),
            ("6 rows", CsrMatrix::<u32>::from_triplets(6, 64, &[(0, 3, 2.0), (5, 60, -1.0)])),
        ];
        let mut seen = [false; 2];
        for (shape, m) in &shapes {
            for (s, t) in seen.iter_mut().zip(check_plan(shape, m)) {
                *s |= t;
            }
            for (s, t) in seen.iter_mut().zip(check_plan(shape, &m.with_index_width::<u16>())) {
                *s |= t;
            }
        }
        assert_eq!(seen, [true; 2], "a short last block and a worker without rows");
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
