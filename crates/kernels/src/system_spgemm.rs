//! Multi-cluster SpGEMM: `C = A·B` with a full-size (larger-than-TCDM)
//! left operand, row panels of `A` claimed dynamically by N clusters.
//!
//! The partition generalizes [`crate::cluster_csrmv`]'s ping-pong
//! scheme to a sparse *output*: `B` stays TCDM-resident on every
//! cluster (Gustavson needs random access to its rows), `A`'s full row
//! pointer is resident too, and `A`'s values + indices stream through
//! per-cluster double buffers panel by panel. Each cluster's DMCC
//! claims panels from the shared main-memory work queue (hardware
//! fetch-and-add ticket, as in [`crate::system_csrmv`]), DMAs the
//! panel's `A` data in, and — one panel behind the workers — drains the
//! finished *output panel* (`c.ptr` window, packed indices, values)
//! back to per-panel main-memory regions. Output regions are word-
//! aligned with padding, so the whole-word DMA stores are strobe-safe
//! by construction: no transfer can clobber a neighbouring panel.
//!
//! Within a cluster each panel runs the device-owned two-pass flow of
//! [`crate::cluster_spgemm`], with one structural change: the
//! prefix-sum barrier is replaced by a **flag-based offset exchange**
//! (per-worker stripe totals in parity-buffered TCDM arrays, each
//! worker summing its predecessors') because the hardware barrier would
//! have to include the DMCC, whose claim loop has a data-dependent
//! iteration count. The exchange is race-free under the ready/done/
//! drained flag protocol: a totals slot of parity `p` is only rewritten
//! after every worker passed the numeric phase that read it.
//!
//! Per row the numeric body is the single-core kernel's — the SSR +
//! FREP `fmul` expansion feeding the SpAcc (ISSR) or the software
//! union-merge (BASE) — in the same per-row order, so the product is
//! bit-identical to the single-cluster kernels whatever the cluster
//! count or claim interleaving. The host stitches the per-panel regions
//! into one CSR matrix and validates the format on readback.

use crate::common::{
    emit_meta_transfer, emit_parity_slot, emit_spacc_cfg, emit_wait_all_done, SETUP_SCRATCH,
};
use crate::harness;
use crate::layout::{csr_addrs, store_csr, tcdm_arena, Arena, CsrAddrs, TCDM_DATA_BASE};
use crate::spgemm::{
    emit_a_row_end, emit_base_k_merge, emit_base_row_copy, emit_base_scratch,
    emit_base_symbolic_rows, emit_indexed_addr, emit_issr_k_expand, emit_issr_symbolic_rows,
    emit_spacc_wait, Base,
};
use crate::variant::{log_width, KernelIndex, Variant};
use issr_core::cfg::{acc_count_cfg_word, cfg_addr, reg as sreg};
use issr_core::HwCaps;
use issr_isa::asm::{Assembler, Program};
use issr_isa::reg::{FpReg, IntReg as R};
use issr_isa::Csr;
use issr_mem::map::{MAIN_BASE, MAIN_SIZE, TCDM_BASE};
use issr_snitch::cc::SimTimeout;
use issr_sparse::csr::CsrMatrix;
use issr_system::system::{SystemParams, SystemSummary};

// ---- flag area (below the data region, per cluster) ----
const S_META: u32 = TCDM_BASE;
const S_READY: u32 = TCDM_BASE + 0x08; // 2 slots
const S_BLK: u32 = TCDM_BASE + 0x18; //   2 slots (claimed panel id; < 0 ends)
const S_DONE: u32 = TCDM_BASE + 0x28; //  8 slots (monotonic per worker)
const S_DRAINED: u32 = TCDM_BASE + 0x68; // 2 slots (output buffer freed)

/// Descriptor stride in bytes (12 u32 fields, padded).
const DESC_BYTES: u32 = 48;
/// Per-worker spill slot stride (7 words, padded).
const SPILL_BYTES: u32 = 64;

fn align8(bytes: u32) -> u32 {
    (bytes + 7) & !7
}

/// One claimed unit of work: a contiguous run of `A` rows whose data
/// fits the panel buffers and whose expansion fits the output buffer.
#[derive(Clone, Copy, Debug)]
struct Panel {
    row_start: u32,
    row_count: u32,
    nnz_start: u32,
    /// Gustavson expansion volume of the panel (output capacity bound).
    exp: u32,
    // Main-memory sources of the A data (filled once bases are known).
    vals_src: u32,
    vals_len: u32,
    idcs_src: u32,
    idcs_len: u32,
    // Main-memory destinations of the output panel.
    c_ptr_dst: u32,
    c_idcs_dst: u32,
    c_vals_dst: u32,
}

/// The planned layout of one system SpGEMM run.
#[derive(Clone, Debug)]
pub struct SystemSpgemmPlan {
    n_workers: u32,
    nrows: u32,
    ncols: u32,
    panels: Vec<Panel>,
    // Main memory.
    main_a_vals: u32,
    main_a_idcs: u32,
    main_meta: u32,
    meta_bytes: u32,
    main_queue: u32,
    // TCDM (identical on every cluster).
    t_b: CsrAddrs,
    t_aptr: u32,
    t_desc: u32,
    t_totval: u32,
    t_totflag: u32,
    t_spill: u32,
    t_scratch: u32,
    scratch_stride: u32,
    scratch_idx_bytes: u32,
    // A panel double buffer: [vals | idcs] × 2.
    abuf: u32,
    abuf_stride: u32,
    a_vals_cap: u32,
    // C panel double buffer: [ptr window | vals | idcs] × 2.
    cbuf: u32,
    cbuf_stride: u32,
    cptrw_bytes: u32,
    cvals_bytes: u32,
    /// Panel capacity limits the greedy partition enforced.
    a_elem_cap: u32,
    c_elem_cap: u32,
    max_rows: u32,
}

impl SystemSpgemmPlan {
    /// Plans the partition and both memory layouts for `variant`
    /// (BASE additionally reserves its per-worker merge scratch, which
    /// scales with `B`'s width — ISSR plans skip it, so wide resident
    /// operands stay in reach of the hardware variant). `B` (and `A`'s
    /// row pointer) must be TCDM-resident; `A`'s values/indices and
    /// the output may be arbitrarily larger than the TCDM.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree, the resident data does
    /// not fit, or a single row exceeds the panel capacities.
    #[must_use]
    pub fn new<I: KernelIndex>(
        variant: Variant,
        a: &CsrMatrix<I>,
        b: &CsrMatrix<I>,
        n_workers: u32,
    ) -> Self {
        Self::with_panel_caps(variant, a, b, n_workers, u32::MAX, u32::MAX)
    }

    /// [`SystemSpgemmPlan::new`] with explicit upper bounds on the
    /// per-panel element and expansion capacities (the tests and the
    /// smoke bench force multi-panel runs on small inputs with this).
    ///
    /// # Panics
    /// As [`SystemSpgemmPlan::new`].
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn with_panel_caps<I: KernelIndex>(
        variant: Variant,
        a: &CsrMatrix<I>,
        b: &CsrMatrix<I>,
        n_workers: u32,
        a_elem_cap_limit: u32,
        c_elem_cap_limit: u32,
    ) -> Self {
        assert_eq!(b.nrows(), a.ncols(), "inner dimensions must agree");
        let nrows = a.nrows() as u32;
        let ncols = b.ncols() as u32;
        // ---- resident TCDM allocations ----
        let mut arena = tcdm_arena();
        let t_b = csr_addrs::<I>(&mut arena, b.nrows() as u32, b.nnz() as u32);
        let t_aptr = arena.alloc(align8((nrows + 1) * 4), 8);
        // Descriptor region: the panel count is bounded by the row count
        // (every panel holds at least one row); allocate after the
        // partition below. Reserve the offset-exchange arrays first.
        let t_totval = arena.alloc(2 * 64, 8);
        let t_totflag = arena.alloc(2 * 64, 8);
        let t_spill = arena.alloc(n_workers * SPILL_BYTES, 8);
        // BASE ping-pong merge scratch, as in the cluster kernel; the
        // ISSR variant accumulates in the SpAcc and skips it (its size
        // scales with B's width and would crowd out the panel buffers).
        let row_cap = ncols.max(1);
        let scratch_idx_bytes = align8(row_cap * I::BYTES);
        let scratch_stride = 2 * scratch_idx_bytes + 2 * row_cap * 8;
        let t_scratch = if variant == Variant::Issr {
            arena.alloc(8, 8)
        } else {
            arena.alloc(n_workers * scratch_stride, 8)
        };
        // ---- greedy panel partition under the remaining space ----
        // Reserve room for descriptors pessimistically, then split what
        // is left: a third to the A double buffer, the rest to the C
        // double buffer (output elements are wider than inputs).
        let per_row_exp: Vec<u64> = (0..a.nrows())
            .map(|r| a.row(r).map(|(k, _)| b.row_range(k).len() as u64).sum::<u64>())
            .collect();
        // Bound the descriptor table (and with it the row-pointer
        // window) instead of reserving one descriptor per row — the
        // pessimistic reserve would crowd out the panel buffers on
        // tall operands.
        let max_panels = nrows.clamp(1, 1024);
        let max_rows_global = nrows.clamp(1, 512);
        let desc_reserve = align8(max_panels * DESC_BYTES);
        let free = arena.remaining().saturating_sub(desc_reserve + 64);
        let a_bytes = free / 6; //           × 2 buffers
        let c_bytes = free / 3; //           × 2 buffers
        let a_elem_cap =
            ((a_bytes.saturating_sub(16)) / (8 + I::BYTES)).min(a_elem_cap_limit).max(1);
        let cptrw_bytes = align8((max_rows_global + 1) * 4);
        let c_elem_cap = ((c_bytes.saturating_sub(cptrw_bytes + 16)) / (8 + I::BYTES))
            .min(c_elem_cap_limit)
            .max(1);
        let ptr = a.ptr();
        let mut panels: Vec<Panel> = Vec::new();
        let mut row = 0u32;
        while row < nrows {
            let nnz_start = ptr[row as usize];
            let mut end = row;
            let mut exp = 0u64;
            while end < nrows {
                let row_elems = ptr[end as usize + 1] - nnz_start;
                let row_exp = exp + per_row_exp[end as usize];
                let rows = end - row + 1;
                if rows > max_rows_global
                    || row_elems > a_elem_cap
                    || row_exp > u64::from(c_elem_cap)
                {
                    break;
                }
                exp = row_exp;
                end += 1;
            }
            assert!(
                end > row,
                "row {row} alone exceeds the panel capacity \
                 ({a_elem_cap} elements / {c_elem_cap} expansion)"
            );
            panels.push(Panel {
                row_start: row,
                row_count: end - row,
                nnz_start,
                exp: u32::try_from(exp).expect("panel expansion fits u32"),
                vals_src: 0,
                vals_len: 0,
                idcs_src: 0,
                idcs_len: 0,
                c_ptr_dst: 0,
                c_idcs_dst: 0,
                c_vals_dst: 0,
            });
            row = end;
        }
        // ---- finish the TCDM layout ----
        let n_desc = (panels.len() as u32).max(1);
        assert!(
            n_desc <= max_panels,
            "partition produced {n_desc} panels, above the {max_panels}-descriptor bound \
             (inputs this tall need a larger descriptor budget)"
        );
        let t_desc = arena.alloc(align8(n_desc * DESC_BYTES), 8);
        let a_vals_cap = a_elem_cap * 8 + 8;
        let a_idcs_cap = align8(a_elem_cap * I::BYTES) + 16;
        let abuf_stride = a_vals_cap + a_idcs_cap;
        let abuf = arena.alloc(2 * abuf_stride, 8);
        let cvals_bytes = c_elem_cap * 8 + 8;
        let cidcs_bytes = align8(c_elem_cap * I::BYTES) + 16;
        let cbuf_stride = cptrw_bytes + cvals_bytes + cidcs_bytes;
        let cbuf = arena.alloc(2 * cbuf_stride, 8);
        // ---- main-memory layout ----
        let mut main = Arena::new(MAIN_BASE, MAIN_SIZE);
        let nnz = a.nnz() as u32;
        let main_a_vals = main.alloc(nnz.max(1) * 8 + 8, 8);
        let main_a_idcs = main.alloc(align8(nnz.max(1) * I::BYTES) + 8, 8);
        let main_meta = main.alloc(arena_span(t_desc + align8(n_desc * DESC_BYTES)), 8);
        let main_queue = main.alloc(8, 8);
        for p in &mut panels {
            let nnz_end = ptr[(p.row_start + p.row_count) as usize];
            p.vals_src = main_a_vals + p.nnz_start * 8;
            p.vals_len = ((nnz_end - p.nnz_start) * 8).max(8);
            let idx_begin = main_a_idcs + p.nnz_start * I::BYTES;
            let idx_end = main_a_idcs + nnz_end * I::BYTES;
            p.idcs_src = idx_begin & !7;
            p.idcs_len = (align8(idx_end) - p.idcs_src).max(8);
            // Word-aligned, padded per-panel output regions: whole-word
            // DMA stores stay strobe-safe (no inter-panel sharing).
            p.c_ptr_dst = main.alloc(align8((p.row_count + 1) * 4) + 8, 8);
            p.c_vals_dst = main.alloc(p.exp.max(1) * 8 + 8, 8);
            p.c_idcs_dst = main.alloc(align8(p.exp.max(1) * I::BYTES) + 8, 8);
        }
        Self {
            n_workers,
            nrows,
            ncols,
            panels,
            main_a_vals,
            main_a_idcs,
            main_meta,
            meta_bytes: arena_span(t_desc + align8(n_desc * DESC_BYTES)),
            main_queue,
            t_b,
            t_aptr,
            t_desc,
            t_totval,
            t_totflag,
            t_spill,
            t_scratch,
            scratch_stride,
            scratch_idx_bytes,
            abuf,
            abuf_stride,
            a_vals_cap,
            cbuf,
            cbuf_stride,
            cptrw_bytes,
            cvals_bytes,
            a_elem_cap,
            c_elem_cap,
            max_rows: max_rows_global,
        }
    }

    /// Number of planned panels.
    #[must_use]
    pub fn n_panels(&self) -> usize {
        self.panels.len()
    }

    /// The partition's effective capacities `(a_elems, c_elems,
    /// max_rows)` per panel (scaling diagnostics).
    #[must_use]
    pub fn panel_caps(&self) -> (u32, u32, u32) {
        (self.a_elem_cap, self.c_elem_cap, self.max_rows)
    }

    /// Address of the work-queue ticket word in main memory.
    #[must_use]
    pub fn queue_addr(&self) -> u32 {
        self.main_queue
    }

    /// Translates a resident TCDM address to its main-memory staging
    /// slot inside the meta block.
    fn meta_addr(&self, tcdm_addr: u32) -> u32 {
        self.main_meta + (tcdm_addr - TCDM_DATA_BASE)
    }

    /// Writes the workload into the shared main memory: `A`'s arrays,
    /// and the meta block (`B`, `A`'s row pointer, panel descriptors)
    /// that every cluster DMAs into its TCDM once.
    pub fn marshal<I: KernelIndex>(
        &self,
        mem: &mut issr_mem::array::MemArray,
        a: &CsrMatrix<I>,
        b: &CsrMatrix<I>,
    ) {
        mem.store_f64_slice(self.main_a_vals, a.vals());
        I::store_slice(mem, self.main_a_idcs, a.idcs());
        let staged_b = CsrAddrs {
            ptr: self.meta_addr(self.t_b.ptr),
            idcs: self.meta_addr(self.t_b.idcs),
            vals: self.meta_addr(self.t_b.vals),
            nrows: self.t_b.nrows,
            nnz: self.t_b.nnz,
        };
        store_csr(mem, staged_b, b);
        mem.store_u32_slice(self.meta_addr(self.t_aptr), a.ptr());
        for (i, p) in self.panels.iter().enumerate() {
            let d = self.meta_addr(self.t_desc) + (i as u32) * DESC_BYTES;
            mem.store_u32_slice(
                d,
                &[
                    p.row_start,
                    p.row_count,
                    p.nnz_start,
                    p.exp,
                    p.vals_src,
                    p.vals_len,
                    p.idcs_src,
                    p.idcs_len,
                    p.c_ptr_dst,
                    p.c_idcs_dst,
                    p.c_vals_dst,
                    0,
                ],
            );
        }
    }

    /// Stitches the per-panel output regions back into one CSR product,
    /// validating the format on the way.
    ///
    /// # Panics
    /// Panics if a panel's stored structure is malformed.
    #[must_use]
    pub fn stitch<I: KernelIndex>(&self, mem: &issr_mem::array::MemArray) -> CsrMatrix<u32> {
        let mut ptr: Vec<u32> = vec![0];
        let mut idcs: Vec<u32> = Vec::new();
        let mut vals: Vec<f64> = Vec::new();
        for p in &self.panels {
            let win = mem.load_u32_slice(p.c_ptr_dst, p.row_count as usize + 1);
            assert_eq!(win[0], 0, "panel-local row pointer starts at zero");
            let nnz_p = *win.last().expect("window nonempty") as usize;
            assert!(nnz_p <= p.exp.max(1) as usize, "panel overflowed its output region");
            let base = *ptr.last().expect("ptr nonempty");
            ptr.extend(win[1..].iter().map(|&o| base + o));
            idcs.extend(
                I::load_slice(mem, p.c_idcs_dst, nnz_p)
                    .into_iter()
                    .map(|i| u32::try_from(i.to_usize()).expect("index fits u32")),
            );
            vals.extend(mem.load_f64_slice(p.c_vals_dst, nnz_p));
        }
        CsrMatrix::new(self.nrows as usize, self.ncols as usize, ptr, idcs, vals)
            .expect("stitched system SpGEMM output is well formed")
    }
}

/// Bytes of the resident meta block `[B | a.ptr | descriptors]`.
fn arena_span(end: u32) -> u32 {
    end - TCDM_DATA_BASE
}

// ---------------------------------------------------------------------
// Program builder
// ---------------------------------------------------------------------

/// Emits `rd = SPILL + hart * SPILL_BYTES` (`a7` holds the hart id).
/// Clobbers `t5` (must differ from `rd`).
fn emit_spill_base(asm: &mut Assembler, plan: &SystemSpgemmPlan, rd: R) {
    asm.slli(rd, R::A7, 6);
    asm.li_addr(R::T5, plan.t_spill);
    asm.add(rd, rd, R::T5);
}

/// Emits `t6 = done[hart]` — the worker's panel sequence number lives
/// in its monotonic done flag (`a7` holds the hart id). Clobbers `t0`,
/// `t1`.
fn emit_load_seq(asm: &mut Assembler) {
    asm.slli(R::T0, R::A7, 3);
    asm.li_addr(R::T1, S_DONE);
    asm.add(R::T0, R::T0, R::T1);
    asm.lw(R::T6, R::T0, 0);
}

/// Emits `t0 = array + (seq & 1) * 64 + idx_reg * 8` for the parity-
/// buffered offset-exchange arrays. Clobbers `t1`, `t2`.
fn emit_tot_slot(asm: &mut Assembler, array: u32, seq_reg: R, idx_reg: R) {
    asm.andi(R::T0, seq_reg, 1);
    asm.slli(R::T0, R::T0, 6);
    asm.slli(R::T2, idx_reg, 3);
    asm.add(R::T0, R::T0, R::T2);
    asm.li_addr(R::T1, array);
    asm.add(R::T0, R::T0, R::T1);
}

/// Spill-slot offsets (per worker, per panel).
mod spill {
    /// C output buffer base of this panel's parity.
    pub const CBUF: i32 = 0;
    /// Virtual A index base: `abuf_idcs - align8(nnz_start * W)`.
    pub const VIDX: i32 = 8;
    /// Virtual A value base: `abuf_vals - nnz_start * 8`.
    pub const VVAL: i32 = 16;
    /// Panel-local first row of this worker's stripe.
    pub const OFF: i32 = 24;
    /// `&a.ptr[global first row]` (resident row pointer cursor).
    pub const APTR: i32 = 32;
    /// Stripe row count.
    pub const CNT: i32 = 40;
    /// Panel row count (last-stripe detection in the exchange).
    pub const ROWS: i32 = 48;
}

/// Builds the SPMD system program for `variant`.
///
/// # Panics
/// Panics for [`Variant::Ssr`] (SpGEMM defines BASE and ISSR only) or a
/// non-power-of-two worker count.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn build_system_spgemm<I: KernelIndex>(variant: Variant, plan: &SystemSpgemmPlan) -> Program {
    assert!(plan.n_workers.is_power_of_two(), "the stripe split shifts by log2(workers)");
    assert!(
        matches!(variant, Variant::Base | Variant::Issr),
        "system SpGEMM defines BASE and ISSR variants only"
    );
    let mut asm = Assembler::new();
    asm.csrr(R::A7, Csr::MHartId);
    let dmcc_entry = asm.new_label();
    asm.li(R::T0, i64::from(plan.n_workers));
    asm.beq(R::A7, R::T0, dmcc_entry);
    emit_worker::<I>(&mut asm, variant, plan);
    asm.bind(dmcc_entry);
    emit_dmcc(&mut asm, plan, log_width::<I>());
    asm.finish().expect("system SpGEMM program assembles")
}

/// Emits the worker loop (both variants share the panel choreography;
/// the symbolic/numeric bodies dispatch on `variant`).
#[allow(clippy::too_many_lines)]
fn emit_worker<I: KernelIndex>(asm: &mut Assembler, variant: Variant, plan: &SystemSpgemmPlan) {
    let log_w = log_width::<I>();
    asm.symbol("worker");
    // Wait for resident data.
    asm.li_addr(R::T0, S_META);
    let spin_meta = asm.bind_label();
    asm.lw(R::T1, R::T0, 0);
    asm.beqz(R::T1, spin_meta);
    if variant == Variant::Issr {
        // Static SpAcc/SSR state: value stride, row-buffer capacity (the
        // full output width — no overflow possible; the trap-driven
        // optimistic sizing stays a single-cluster feature for now).
        asm.li(SETUP_SCRATCH, 8);
        asm.scfgwi(SETUP_SCRATCH, cfg_addr(sreg::STRIDES[0], 0));
        asm.li(SETUP_SCRATCH, i64::from(plan.ncols.max(1)));
        asm.scfgwi(SETUP_SCRATCH, cfg_addr(sreg::ACC_BUF_CAP, 0));
    }
    asm.roi_begin();
    let worker_end = asm.new_label();
    let panel_done = asm.new_label();
    let wloop = asm.bind_label();
    asm.symbol("worker_panel");
    asm.csrr(R::A7, Csr::MHartId);
    emit_load_seq(asm); // t6 = seq
                        // Wait ready[seq & 1] >= seq + 1, then read the claimed panel.
    emit_parity_slot(asm, S_READY, R::T6);
    asm.addi(R::T3, R::T6, 1);
    let spin_ready = asm.bind_label();
    asm.lw(R::T2, R::T0, 0);
    asm.blt(R::T2, R::T3, spin_ready);
    emit_parity_slot(asm, S_BLK, R::T6);
    asm.lw(R::T4, R::T0, 0);
    asm.blt(R::T4, R::ZERO, worker_end); // sentinel
                                         // Descriptor address: t_desc + g * 48.
    asm.slli(R::T5, R::T4, 4);
    asm.slli(R::T4, R::T4, 5);
    asm.add(R::T4, R::T4, R::T5);
    asm.li_addr(R::T5, plan.t_desc);
    asm.add(R::T4, R::T4, R::T5);
    asm.lw(R::A0, R::T4, 0); // row_start
    asm.lw(R::A1, R::T4, 4); // row_count
    asm.lw(R::A2, R::T4, 8); // nnz_start
                             // Wait for the DMCC to have drained the output buffer this
                             // panel writes (drained[seq & 1] >= seq - 1; trivially true
                             // for the first two panels).
    asm.addi(R::T3, R::T6, -1);
    let no_drain_wait = asm.new_label();
    asm.blez(R::T3, no_drain_wait);
    emit_parity_slot(asm, S_DRAINED, R::T6);
    let spin_drained = asm.bind_label();
    asm.lw(R::T2, R::T0, 0);
    asm.blt(R::T2, R::T3, spin_drained);
    asm.bind(no_drain_wait);
    // ---- per-panel spills (this worker's stripe geometry) ----
    emit_spill_base(asm, plan, R::A6);
    // C buffer base of this parity.
    asm.andi(R::T0, R::T6, 1);
    asm.li(R::T1, i64::from(plan.cbuf_stride));
    asm.mul(R::T0, R::T0, R::T1);
    asm.li_addr(R::T1, plan.cbuf);
    asm.add(R::T0, R::T0, R::T1);
    asm.sw(R::T0, R::A6, spill::CBUF);
    // A buffer base of this parity; virtual value/index bases.
    asm.andi(R::T1, R::T6, 1);
    asm.li(R::T2, i64::from(plan.abuf_stride));
    asm.mul(R::T1, R::T1, R::T2);
    asm.li_addr(R::T2, plan.abuf);
    asm.add(R::T1, R::T1, R::T2); // abuf vals base
    asm.slli(R::T3, R::A2, 3);
    asm.sub(R::T3, R::T1, R::T3);
    asm.sw(R::T3, R::A6, spill::VVAL);
    asm.slli(R::T3, R::A2, log_w);
    asm.andi(R::T3, R::T3, -8);
    asm.li(R::T2, i64::from(plan.a_vals_cap));
    asm.add(R::T2, R::T2, R::T1);
    asm.sub(R::T2, R::T2, R::T3);
    asm.sw(R::T2, R::A6, spill::VIDX);
    // Stripe: rpw = ceil(row_count / workers), off = hart * rpw.
    asm.addi(R::T5, R::A1, i32::try_from(plan.n_workers - 1).expect("small"));
    asm.srli(R::T5, R::T5, plan.n_workers.trailing_zeros() as i32);
    asm.mul(R::T3, R::T5, R::A7);
    asm.sub(R::T2, R::A1, R::T3); // rows remaining after my offset
    let zero_stripe = asm.new_label();
    asm.blez(R::T2, zero_stripe);
    let clamp_ok = asm.new_label();
    asm.bge(R::T2, R::T5, clamp_ok);
    asm.mv(R::T5, R::T2);
    asm.bind(clamp_ok);
    asm.sw(R::T3, R::A6, spill::OFF);
    asm.sw(R::T5, R::A6, spill::CNT);
    asm.sw(R::A1, R::A6, spill::ROWS);
    asm.add(R::T0, R::A0, R::T3);
    asm.slli(R::T0, R::T0, 2);
    asm.li_addr(R::T1, plan.t_aptr);
    asm.add(R::T0, R::T0, R::T1);
    asm.sw(R::T0, R::A6, spill::APTR);
    // ---- symbolic phase: stripe-local output counts ----
    match variant {
        Variant::Issr => emit_issr_symbolic::<I>(asm, plan),
        _ => emit_base_symbolic::<I>(asm, plan),
    }
    // ---- offset exchange (replaces the cluster's scan barrier) ----
    emit_offset_exchange(asm, plan);
    // ---- numeric phase at the exchanged packed offsets ----
    match variant {
        Variant::Issr => emit_issr_numeric::<I>(asm, plan),
        _ => emit_base_numeric::<I>(asm, plan),
    }
    asm.j(panel_done);
    // Zero-stripe path: publish a zero total for the exchange, skip
    // both phases (nothing read, nothing written).
    asm.bind(zero_stripe);
    asm.symbol("worker_zero_stripe");
    emit_tot_slot(asm, plan.t_totval, R::T6, R::A7);
    asm.sw(R::ZERO, R::T0, 0);
    emit_tot_slot(asm, plan.t_totflag, R::T6, R::A7);
    asm.addi(R::T2, R::T6, 1);
    asm.sw(R::T2, R::T0, 0);
    asm.bind(panel_done);
    asm.symbol("worker_panel_done");
    asm.csrr(R::A7, Csr::MHartId);
    emit_load_seq(asm); // t6 = seq (t0 holds the done slot address)
    asm.addi(R::T6, R::T6, 1);
    asm.sw(R::T6, R::T0, 0);
    asm.j(wloop);
    asm.bind(worker_end);
    asm.roi_end();
    asm.halt();
}

/// ISSR symbolic: count-only SpAcc feeds over the panel stripe, the
/// stripe-local inclusive prefix written into the C-buffer row-pointer
/// window. Mirrors the cluster kernel's symbolic loop with runtime
/// (virtual) A bases.
fn emit_issr_symbolic<I: KernelIndex>(asm: &mut Assembler, plan: &SystemSpgemmPlan) {
    let log_w = log_width::<I>();
    asm.symbol("issr_sym");
    asm.li(SETUP_SCRATCH, i64::from(acc_count_cfg_word(I::IDX_SIZE)));
    asm.scfgwi(SETUP_SCRATCH, cfg_addr(sreg::ACC_CFG, 0));
    asm.li_addr(R::S6, plan.t_b.ptr);
    asm.li_addr(R::S7, plan.t_b.idcs);
    emit_stripe_cursors(asm, log_w, false);
    asm.lw(R::S2, R::A6, spill::CNT);
    emit_issr_symbolic_rows::<I>(asm, Base::Reg(R::A5));
}

/// Loads the stripe cursors from the spill slots at `a6`: `s0` →
/// `&a.ptr[first row + 1]`, `a5` the virtual A index base and `s4` the
/// A index cursor, with `with_vals` `s5` the A value cursor, `s1` →
/// `&cptr_win[off]` (entries at +4); `t2` keeps the C buffer base.
/// Clobbers `t1`–`t3`.
fn emit_stripe_cursors(asm: &mut Assembler, log_w: i32, with_vals: bool) {
    asm.lw(R::S0, R::A6, spill::APTR);
    asm.lw(R::T1, R::S0, 0); // a.ptr[my first row] (global elements)
    asm.addi(R::S0, R::S0, 4);
    asm.lw(R::A5, R::A6, spill::VIDX);
    asm.slli(R::T2, R::T1, log_w);
    asm.add(R::S4, R::A5, R::T2); // A index cursor
    if with_vals {
        asm.lw(R::T3, R::A6, spill::VVAL);
        asm.slli(R::T2, R::T1, 3);
        asm.add(R::S5, R::T3, R::T2); // A value cursor
    }
    asm.lw(R::T2, R::A6, spill::CBUF);
    asm.lw(R::T3, R::A6, spill::OFF);
    asm.slli(R::T3, R::T3, 2);
    asm.add(R::S1, R::T2, R::T3);
}

/// BASE symbolic: the software union-merge per row, keeping only the
/// accumulator length (running prefix in `s3`, moved to `s10` for the
/// exchange).
fn emit_base_symbolic<I: KernelIndex>(asm: &mut Assembler, plan: &SystemSpgemmPlan) {
    asm.symbol("base_sym");
    emit_system_base_scratch(asm, plan);
    // a6 is consumed after this: the merge needs it as the A-row end
    // register.
    emit_stripe_cursors(asm, log_width::<I>(), true);
    asm.lw(R::S2, R::A6, spill::CNT);
    emit_base_symbolic_rows::<I>(asm, Base::Reg(R::A5), R::S3, plan.t_b.idcs, plan.t_b.vals);
}

/// The BASE per-worker scratch pointers of this plan (see
/// [`emit_base_scratch`]).
fn emit_system_base_scratch(asm: &mut Assembler, plan: &SystemSpgemmPlan) {
    emit_base_scratch(
        asm,
        plan.scratch_stride,
        plan.t_scratch,
        plan.scratch_idx_bytes,
        i64::from((plan.scratch_stride - 2 * plan.scratch_idx_bytes) / 2),
        plan.t_b.ptr,
    );
}

/// The flag-based offset exchange: publish this worker's stripe total
/// (`s10`) into the parity-buffered arrays, sum every predecessor's
/// total into the exclusive base `s3`, seed the stripe's row-pointer
/// boundary entry with it and add it to the stripe's inclusive
/// entries. Writers of a parity slot are gated by the drained/ready
/// flags, so a slot is never rewritten before every reader has passed.
fn emit_offset_exchange(asm: &mut Assembler, plan: &SystemSpgemmPlan) {
    asm.symbol("offset_exchange");
    asm.csrr(R::A7, Csr::MHartId); // BASE's merge clobbers a7
    emit_load_seq(asm); //            t6 = seq
    emit_tot_slot(asm, plan.t_totval, R::T6, R::A7);
    asm.sw(R::S10, R::T0, 0);
    emit_tot_slot(asm, plan.t_totflag, R::T6, R::A7);
    asm.addi(R::T2, R::T6, 1);
    asm.sw(R::T2, R::T0, 0);
    // Exclusive base: sum totals of workers 0 .. hart.
    asm.li(R::S3, 0);
    asm.li(R::T3, 0); // j
    let j_loop = asm.bind_label();
    let j_done = asm.new_label();
    asm.bge(R::T3, R::A7, j_done);
    emit_tot_slot(asm, plan.t_totflag, R::T6, R::T3);
    asm.addi(R::T4, R::T6, 1);
    let spin = asm.bind_label();
    asm.lw(R::T2, R::T0, 0);
    asm.blt(R::T2, R::T4, spin);
    emit_tot_slot(asm, plan.t_totval, R::T6, R::T3);
    asm.lw(R::T2, R::T0, 0);
    asm.add(R::S3, R::S3, R::T2);
    asm.addi(R::T3, R::T3, 1);
    asm.j(j_loop);
    asm.bind(j_done);
    // Apply — every window entry has exactly one writer (the interior
    // adds are read-modify-writes, so a shared boundary entry would
    // race): this worker stores its own boundary `win[off] = base`,
    // adds the base to its interior entries `win[off+1 .. off+cnt-1]`,
    // and only the *last* stripe writes the panel total
    // `win[row_count] = base + stripe total` (it has no successor).
    emit_spill_base(asm, plan, R::A6);
    asm.lw(R::T2, R::A6, spill::CBUF);
    asm.lw(R::T3, R::A6, spill::OFF);
    asm.slli(R::T3, R::T3, 2);
    asm.add(R::T4, R::T2, R::T3); // &cptr_win[off]
    asm.sw(R::S3, R::T4, 0); //      my boundary (sole writer)
    asm.lw(R::T5, R::A6, spill::CNT);
    asm.addi(R::T5, R::T5, -1); //   interior entries
    let apply = asm.bind_label();
    let apply_done = asm.new_label();
    asm.blez(R::T5, apply_done);
    asm.lw(R::T0, R::T4, 4);
    asm.add(R::T0, R::T0, R::S3);
    asm.sw(R::T0, R::T4, 4);
    asm.addi(R::T4, R::T4, 4);
    asm.addi(R::T5, R::T5, -1);
    asm.j(apply);
    asm.bind(apply_done);
    // t4 = &win[off + cnt - 1]; the successor boundary sits at t4 + 4.
    let not_last = asm.new_label();
    asm.lw(R::T0, R::A6, spill::ROWS);
    asm.lw(R::T2, R::A6, spill::OFF);
    asm.lw(R::T3, R::A6, spill::CNT);
    asm.add(R::T2, R::T2, R::T3);
    asm.bne(R::T2, R::T0, not_last);
    asm.add(R::T1, R::S3, R::S10);
    asm.sw(R::T1, R::T4, 4); //      panel total (sole writer)
    asm.bind(not_last);
}

/// ISSR numeric: the SSR + FREP expansion into the SpAcc, drained per
/// row at the exchanged packed offsets into the C panel buffer.
fn emit_issr_numeric<I: KernelIndex>(asm: &mut Assembler, plan: &SystemSpgemmPlan) {
    let log_w = log_width::<I>();
    asm.symbol("issr_num");
    emit_spacc_cfg::<I>(asm); // back to value mode
    asm.csrsi(Csr::Ssr, 1);
    asm.li_addr(R::S6, plan.t_b.ptr);
    asm.li_addr(R::S7, plan.t_b.idcs);
    asm.li_addr(R::S8, plan.t_b.vals);
    emit_spill_base(asm, plan, R::A6);
    emit_stripe_cursors(asm, log_w, true); // s1: c.ptr window cursor (reads [s1])
    asm.li(R::T4, i64::from(plan.cptrw_bytes));
    asm.add(R::S3, R::T2, R::T4); // C value base
    asm.li(R::T4, i64::from(plan.cptrw_bytes + plan.cvals_bytes));
    asm.add(R::S11, R::T2, R::T4); // C index base
    asm.lw(R::S2, R::A6, spill::CNT);
    let row = asm.bind_label();
    asm.symbol("issr_num_row");
    let flush = asm.new_label();
    emit_a_row_end::<I>(asm, R::S9, Base::Reg(R::A5)); // virtual base
    asm.lw(R::A4, R::S1, 0); //      packed element offset (panel-local)
    asm.addi(R::S1, R::S1, 4);
    emit_indexed_addr(asm, R::A2, R::A4, log_w, Base::Reg(R::S11));
    emit_indexed_addr(asm, R::A3, R::A4, 3, Base::Reg(R::S3));
    emit_issr_k_expand::<I>(asm, flush);
    asm.bind(flush);
    asm.symbol("issr_num_flush");
    // The in-order job queue sequences the drain after this row's
    // feeds; double-buffered row storage overlaps it with the next row.
    asm.scfgwi(R::A3, cfg_addr(sreg::ACC_VAL_OUT, 0));
    asm.scfgwi(R::A2, cfg_addr(sreg::ACC_DRAIN, 0)); // launch (retries)
    asm.addi(R::S2, R::S2, -1);
    asm.bnez(R::S2, row);
    // Wait for the last drain before signalling done: the DMCC's
    // output DMA reads this buffer right after it sees the flag (its
    // descriptor reads, address arithmetic and transfer startup give
    // the final strobed words a wide landing margin on top of this).
    emit_spacc_wait(asm, 1);
    asm.csrci(Csr::Ssr, 1);
}

/// BASE numeric: the software union-merge per row, packed at the
/// exchanged offsets through [`emit_base_row_copy`].
fn emit_base_numeric<I: KernelIndex>(asm: &mut Assembler, plan: &SystemSpgemmPlan) {
    let log_w = log_width::<I>();
    asm.symbol("base_num");
    asm.csrr(R::A7, Csr::MHartId);
    emit_system_base_scratch(asm, plan);
    emit_spill_base(asm, plan, R::A6);
    emit_stripe_cursors(asm, log_w, true);
    asm.lw(R::S2, R::A6, spill::CNT);
    let row = asm.bind_label();
    asm.symbol("base_num_row");
    let flush = asm.new_label();
    asm.li(R::S10, 0);
    emit_a_row_end::<I>(asm, R::A6, Base::Reg(R::A5));
    asm.lw(R::A4, R::S1, 0); // packed element offset (panel-local)
    asm.addi(R::S1, R::S1, 4);
    emit_base_k_merge::<I>(asm, plan.t_b.idcs, plan.t_b.vals, flush);
    asm.bind(flush);
    asm.symbol("base_num_flush");
    // C cursors from the parity buffer (a7/spill re-derived per row —
    // the merge clobbers them).
    asm.csrr(R::A7, Csr::MHartId);
    emit_spill_base(asm, plan, R::T6);
    asm.lw(R::T1, R::T6, spill::CBUF);
    asm.li(R::T0, i64::from(plan.cptrw_bytes + plan.cvals_bytes));
    asm.add(R::T0, R::T0, R::T1);
    asm.slli(R::T2, R::A4, log_w);
    asm.add(R::T0, R::T0, R::T2); // C index cursor
    asm.li(R::T2, i64::from(plan.cptrw_bytes));
    asm.add(R::T1, R::T1, R::T2);
    asm.slli(R::T2, R::A4, 3);
    asm.add(R::T1, R::T1, R::T2); // C value cursor
    emit_base_row_copy::<I>(asm);
    asm.addi(R::S2, R::S2, -1);
    asm.bnez(R::S2, row);
    // Value-store fence: the row copies store C values through the FPU
    // LSU while the done flag goes through the core LSU; pull one value
    // word back through the FPU (ordered behind every store) and sync
    // it before signalling.
    asm.csrr(R::A7, Csr::MHartId);
    emit_spill_base(asm, plan, R::T6);
    asm.lw(R::T1, R::T6, spill::CBUF);
    asm.fld(FpReg::FT6, R::T1, i32::try_from(plan.cptrw_bytes).expect("small"));
    asm.fcvt_w_d(R::T0, FpReg::FT6);
    asm.add(R::ZERO, R::T0, R::T0);
}

/// Emits the DMCC: claim panels from the shared queue, double-buffer
/// the A panel data in, drain finished output panels to their main-
/// memory regions one panel behind the workers.
#[allow(clippy::too_many_lines)]
fn emit_dmcc(asm: &mut Assembler, plan: &SystemSpgemmPlan, log_w: i32) {
    asm.symbol("dmcc");
    let npanels = plan.panels.len() as u32;
    // Meta transfer: B | a.ptr | descriptors in one DMA.
    emit_meta_transfer(asm, plan.main_meta, TCDM_DATA_BASE, plan.meta_bytes, S_META);
    asm.li(R::S1, -1); // previously claimed panel id
    let dmcc_finish = asm.new_label();
    let claim_loop = asm.bind_label();
    asm.symbol("dmcc_claim");
    asm.li_addr(R::T0, plan.main_queue);
    asm.lw(R::S0, R::T0, 0); // hardware fetch-and-add
    asm.li(R::T1, i64::from(npanels));
    asm.bge(R::S0, R::T1, dmcc_finish);
    // Buffer guard: before overwriting A buffer seq & 1 (used by local
    // panel seq - 2), wait done >= seq - 1.
    let no_wait = asm.new_label();
    asm.addi(R::T0, R::S10, -2);
    asm.blt(R::T0, R::ZERO, no_wait);
    asm.addi(R::T3, R::S10, -1);
    emit_wait_all_done(asm, S_DONE, plan.n_workers, R::T3);
    asm.bind(no_wait);
    // DMA the claimed panel's A data into buffer seq & 1.
    emit_desc_addr(asm, plan, R::S0);
    asm.lw(R::A0, R::T4, 16); // vals_src
    asm.lw(R::A1, R::T4, 20); // vals_len
    asm.lw(R::A2, R::T4, 24); // idcs_src
    asm.lw(R::A3, R::T4, 28); // idcs_len
    asm.andi(R::T0, R::S10, 1);
    asm.li(R::T1, i64::from(plan.abuf_stride));
    asm.mul(R::T0, R::T0, R::T1);
    asm.li_addr(R::T1, plan.abuf);
    asm.add(R::T0, R::T0, R::T1);
    asm.dmsrc(R::A0, R::ZERO);
    asm.dmdst(R::T0, R::ZERO);
    asm.dmcpyi(R::ZERO, R::A1, 0);
    asm.li(R::T2, i64::from(plan.a_vals_cap));
    asm.add(R::T2, R::T2, R::T0);
    asm.dmsrc(R::A2, R::ZERO);
    asm.dmdst(R::T2, R::ZERO);
    asm.dmcpyi(R::ZERO, R::A3, 0);
    asm.addi(R::S7, R::S7, 2);
    let poll_panel = asm.bind_label();
    asm.dmstati(R::T3, 0);
    asm.blt(R::T3, R::S7, poll_panel);
    // Publish the claimed id, then the ready flag.
    emit_parity_slot(asm, S_BLK, R::S10);
    asm.sw(R::S0, R::T0, 0);
    emit_parity_slot(asm, S_READY, R::S10);
    asm.addi(R::T2, R::S10, 1);
    asm.sw(R::T2, R::T0, 0);
    // Drain the previous panel's output while the workers chew on the
    // panel just published.
    let no_prev = asm.new_label();
    asm.blt(R::S1, R::ZERO, no_prev);
    asm.mv(R::T3, R::S10); // need done >= seq (previous panel finished)
    emit_wait_all_done(asm, S_DONE, plan.n_workers, R::T3);
    emit_panel_drain(asm, plan, log_w);
    asm.bind(no_prev);
    asm.mv(R::S1, R::S0);
    asm.addi(R::S10, R::S10, 1);
    asm.j(claim_loop);
    asm.bind(dmcc_finish);
    asm.symbol("dmcc_finish");
    let no_last = asm.new_label();
    asm.blt(R::S1, R::ZERO, no_last);
    asm.mv(R::T3, R::S10);
    emit_wait_all_done(asm, S_DONE, plan.n_workers, R::T3);
    emit_panel_drain(asm, plan, log_w);
    asm.bind(no_last);
    emit_parity_slot(asm, S_BLK, R::S10);
    asm.li(R::T2, -1);
    asm.sw(R::T2, R::T0, 0);
    emit_parity_slot(asm, S_READY, R::S10);
    asm.addi(R::T2, R::S10, 1);
    asm.sw(R::T2, R::T0, 0);
    asm.halt();
}

/// Emits `t4 = t_desc + id * 48` from the panel id in `id_reg`
/// (`id * 48 = id * 16 + id * 32`). Clobbers `t5`.
fn emit_desc_addr(asm: &mut Assembler, plan: &SystemSpgemmPlan, id_reg: R) {
    asm.slli(R::T4, id_reg, 4);
    asm.slli(R::T5, id_reg, 5);
    asm.add(R::T4, R::T4, R::T5);
    asm.li_addr(R::T5, plan.t_desc);
    asm.add(R::T4, R::T4, R::T5);
}

/// Emits the output drain of the panel whose id sits in `s1` (local
/// sequence `s10 - 1`): ptr window, then values and indices sized by
/// the device-computed panel nnz, all to the panel's word-padded main
/// regions; raises `drained[(s10 - 1) & 1] = s10`. Clobbers `t*`,
/// `a0`–`a4`; `s7` tracks issued transfers.
fn emit_panel_drain(asm: &mut Assembler, plan: &SystemSpgemmPlan, log_w: i32) {
    asm.symbol("dmcc_drain");
    emit_desc_addr(asm, plan, R::S1);
    asm.lw(R::A0, R::T4, 4); //  row_count
    asm.lw(R::A1, R::T4, 32); // c_ptr_dst
    asm.lw(R::A2, R::T4, 36); // c_idcs_dst
    asm.lw(R::A3, R::T4, 40); // c_vals_dst
                              // C buffer of the previous parity.
    asm.addi(R::T0, R::S10, -1);
    asm.andi(R::T0, R::T0, 1);
    asm.li(R::T1, i64::from(plan.cbuf_stride));
    asm.mul(R::T0, R::T0, R::T1);
    asm.li_addr(R::T1, plan.cbuf);
    asm.add(R::T0, R::T0, R::T1);
    // Panel nnz from the window's last entry.
    asm.slli(R::T2, R::A0, 2);
    asm.add(R::T2, R::T2, R::T0);
    asm.lw(R::A4, R::T2, 0);
    // 1. Row-pointer window.
    asm.dmsrc(R::T0, R::ZERO);
    asm.dmdst(R::A1, R::ZERO);
    asm.addi(R::T3, R::A0, 1);
    asm.slli(R::T3, R::T3, 2);
    asm.addi(R::T3, R::T3, 7);
    asm.andi(R::T3, R::T3, -8);
    asm.dmcpyi(R::ZERO, R::T3, 0);
    asm.addi(R::S7, R::S7, 1);
    // 2./3. Values and indices (skipped for an all-empty panel).
    let empty = asm.new_label();
    asm.beqz(R::A4, empty);
    asm.li(R::T2, i64::from(plan.cptrw_bytes));
    asm.add(R::T2, R::T2, R::T0);
    asm.dmsrc(R::T2, R::ZERO);
    asm.dmdst(R::A3, R::ZERO);
    asm.slli(R::T3, R::A4, 3);
    asm.dmcpyi(R::ZERO, R::T3, 0);
    asm.li(R::T2, i64::from(plan.cptrw_bytes + plan.cvals_bytes));
    asm.add(R::T2, R::T2, R::T0);
    asm.dmsrc(R::T2, R::ZERO);
    asm.dmdst(R::A2, R::ZERO);
    asm.slli(R::T3, R::A4, log_w);
    asm.addi(R::T3, R::T3, 7);
    asm.andi(R::T3, R::T3, -8);
    asm.dmcpyi(R::ZERO, R::T3, 0);
    asm.addi(R::S7, R::S7, 2);
    asm.bind(empty);
    let poll = asm.bind_label();
    asm.dmstati(R::T3, 0);
    asm.blt(R::T3, R::S7, poll);
    // Free the output buffer for the panel two ahead.
    asm.addi(R::T0, R::S10, -1);
    asm.andi(R::T0, R::T0, 1);
    asm.slli(R::T0, R::T0, 3);
    asm.li_addr(R::T1, S_DRAINED);
    asm.add(R::T0, R::T0, R::T1);
    asm.sw(R::S10, R::T0, 0);
}

// ---------------------------------------------------------------------
// Run harness
// ---------------------------------------------------------------------

/// Result of one system SpGEMM run.
#[derive(Clone, Debug)]
pub struct SystemSpgemmRun {
    /// The stitched sparse product, format-validated.
    pub c: CsrMatrix<u32>,
    /// System-wide summary (per-cluster summaries + contention stats).
    pub summary: SystemSummary,
    /// Panels the partition produced (scaling diagnostics).
    pub n_panels: usize,
}

/// Runs system SpGEMM end to end on `n_clusters` default clusters
/// (plan → marshal → simulate → stitch).
///
/// # Errors
/// Returns [`SimTimeout`] if the system deadlocks or exceeds its cycle
/// budget (a bug).
///
/// # Panics
/// Panics if the inner dimensions disagree, on [`Variant::Ssr`], or if
/// the workers build a malformed output (the stitch validates).
pub fn run_system_spgemm<I: KernelIndex>(
    variant: Variant,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    n_clusters: usize,
) -> Result<SystemSpgemmRun, SimTimeout> {
    let plan =
        SystemSpgemmPlan::new(variant, a, b, SystemParams::default().cluster.n_workers as u32);
    run_system_spgemm_planned(
        variant,
        a,
        b,
        plan,
        SystemParams { n_clusters, ..SystemParams::default() },
    )
}

/// [`run_system_spgemm`] with an explicit plan and system parameters
/// (forced multi-panel partitions, bandwidth sweeps).
///
/// # Errors
/// Returns [`SimTimeout`] if the system deadlocks or exceeds its cycle
/// budget (a bug).
///
/// # Panics
/// As [`run_system_spgemm`]. The plan's worker count must match
/// `params.cluster.n_workers`.
pub fn run_system_spgemm_planned<I: KernelIndex>(
    variant: Variant,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    plan: SystemSpgemmPlan,
    params: SystemParams,
) -> Result<SystemSpgemmRun, SimTimeout> {
    assert_eq!(
        plan.n_workers, params.cluster.n_workers as u32,
        "plan and system worker counts must agree"
    );
    let mut params = params;
    params.cluster.cc.streamer = HwCaps::SSSR;
    let volume: u64 = plan.panels.iter().map(|p| u64::from(p.exp)).sum();
    let (system, summary, _) = harness::system(
        params,
        None,
        build_system_spgemm::<I>(variant, &plan),
        plan.queue_addr(),
        |main| plan.marshal(main, a, b),
        4_000_000 + 1024 * (3 * volume + a.nnz() as u64 + u64::from(plan.nrows)),
    )?;
    Ok(SystemSpgemmRun {
        c: plan.stitch::<I>(system.main.array()),
        summary,
        n_panels: plan.panels.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_spgemm::run_cluster_spgemm;
    use issr_sparse::{gen, reference};

    fn val_bits(m: &CsrMatrix<u32>) -> Vec<u64> {
        m.vals().iter().map(|v| v.to_bits()).collect()
    }

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
        let expect = reference::spgemm(&a, &b).with_index_width::<u32>();
        let single = run_cluster_spgemm(variant, &a, &b).expect("cluster run finishes");
        for n_clusters in [1usize, 2] {
            let sys = run_system_spgemm(variant, &a, &b, n_clusters).expect("system run finishes");
            assert_eq!(sys.c.ptr(), expect.ptr(), "{variant} {n_clusters}-cluster row pointers");
            assert_eq!(sys.c.idcs(), expect.idcs(), "{variant} {n_clusters}-cluster indices");
            assert_eq!(
                val_bits(&sys.c),
                val_bits(&single.c),
                "{variant} {n_clusters}-cluster values must be bit-identical to the cluster kernel"
            );
        }
    }

    #[test]
    fn issr_system_spgemm_matches_cluster_and_oracle() {
        check::<u16>(Variant::Issr, 24, 32, 48, 120, 160, 500);
        check::<u32>(Variant::Issr, 24, 32, 48, 120, 160, 501);
    }

    #[test]
    fn base_system_spgemm_matches_cluster_and_oracle() {
        check::<u16>(Variant::Base, 24, 32, 48, 120, 160, 502);
    }

    /// A forced multi-panel partition must round-trip through the panel
    /// double buffers and per-panel output drains, bit-identically on 1,
    /// 2 and 4 clusters.
    #[test]
    fn forced_multi_panel_partition_is_bit_identical() {
        let mut rng = gen::rng(503);
        let a = gen::csr_uniform::<u16>(&mut rng, 64, 48, 600);
        let b = gen::csr_uniform::<u16>(&mut rng, 48, 64, 400);
        let expect = reference::spgemm(&a, &b).with_index_width::<u32>();
        let n_workers = SystemParams::default().cluster.n_workers as u32;
        let mut runs = Vec::new();
        for n_clusters in [1usize, 2, 4] {
            let plan = SystemSpgemmPlan::with_panel_caps(Variant::Issr, &a, &b, n_workers, 64, 512);
            assert!(plan.n_panels() >= 4, "caps must force several panels");
            let run = run_system_spgemm_planned(
                Variant::Issr,
                &a,
                &b,
                plan,
                SystemParams { n_clusters, ..SystemParams::default() },
            )
            .expect("system run finishes");
            assert_eq!(run.c.ptr(), expect.ptr(), "{n_clusters}-cluster row pointers");
            assert_eq!(run.c.idcs(), expect.idcs(), "{n_clusters}-cluster indices");
            runs.push(run);
        }
        for r in &runs[1..] {
            assert_eq!(val_bits(&r.c), val_bits(&runs[0].c), "cluster count cannot change bits");
        }
        // With two clusters and several panels both must claim work.
        let active = runs[1].summary.clusters.iter().filter(|c| c.dma_stats.words_in > 0).count();
        assert_eq!(active, 2, "both clusters must claim panels");
    }

    /// Degenerate shapes survive the partition and the flag protocol.
    #[test]
    fn degenerate_shapes() {
        // Empty A.
        check::<u16>(Variant::Issr, 8, 8, 8, 0, 20, 504);
        // Empty B.
        check::<u16>(Variant::Issr, 8, 8, 8, 20, 0, 505);
        // Fewer rows than workers.
        check::<u16>(Variant::Issr, 5, 16, 16, 20, 40, 506);
    }

    /// The symbolic phase runs on the workers (count-only SpAcc feeds
    /// appear in the per-cluster summaries), and the DMA/compute
    /// overlap counter moves on a multi-panel run.
    #[test]
    fn device_owned_symbolic_and_overlap() {
        let mut rng = gen::rng(507);
        let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, 48, 32, 6);
        let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, 32, 40, 8);
        let n_workers = SystemParams::default().cluster.n_workers as u32;
        let plan = SystemSpgemmPlan::with_panel_caps(Variant::Issr, &a, &b, n_workers, 48, 400);
        assert!(plan.n_panels() >= 3);
        let run = run_system_spgemm_planned(
            Variant::Issr,
            &a,
            &b,
            plan,
            SystemParams { n_clusters: 2, ..SystemParams::default() },
        )
        .unwrap();
        let count_feeds: u64 = run
            .summary
            .clusters
            .iter()
            .flat_map(|c| c.spacc_stats.iter())
            .map(|s| s.count_feeds)
            .sum();
        assert_eq!(count_feeds, a.nnz() as u64, "one symbolic feed per A nonzero");
        assert!(run.summary.overlap_cycles > 0, "panel DMA must overlap compute");
    }
}
