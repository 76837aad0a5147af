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
//! Within a cluster each panel runs the one-pass row loop of
//! [`crate::cluster_spgemm`]: the panel's rows are dealt to the workers
//! by predicted cost (worker h starts at the panel's row h) and each
//! worker walks its own through the link table, which sits in the
//! resident meta block after the descriptors, parallel to `A`'s row
//! pointer, and is DMAed once with `B`. A worker runs each row's numeric
//! body — the SSR + FREP `fmul` expansion feeding the SpAcc (ISSR) or
//! the software union-merge (BASE) — and passes the row's length along
//! the **offset chain**: it
//! waits for row r's flag, stores the panel-local offset
//! `ptr[r + 1] = ptr[r] + nnz` into the C buffer's row-pointer window,
//! raises row r + 1's flag, then drains or copies the row to `ptr[r]`.
//! The flag window is parity-buffered with the C buffer, and a panel's
//! tag is its local sequence number + 1: tags only grow, so no flag is
//! ever reset, and a parity's flags are rewritten only after every
//! worker finished the panel two back (the tile handshake of the
//! crate-private `handshake` module guarantees it, with its `drained`
//! slots). The owner of row 0 writes `ptr[0] = 0` and raises row 0's
//! flag.
//!
//! Per row the body and its order are the single-core kernel's, so the
//! product is bit-identical to the single-cluster kernels whatever the
//! cluster count or claim interleaving. The host stitches the per-panel
//! regions into one CSR matrix and validates the format on readback. A
//! trap ends the run at once (see [`crate::cluster_spgemm`]): the
//! trapped worker's chain successors could never finish.

use crate::handshake::{emit_dma_poll, emit_slice_prepare, FlagArea, Slice};
use crate::harness;
use crate::layout::{csr_addrs, store_csr, tcdm_arena, Arena, CsrAddrs, TCDM_DATA_BASE};
use crate::spgemm::{
    emit_chained_rows, emit_worker_setup, row_links, MergeScratch, C_IDCS, C_VALS, TAG,
};
use crate::variant::{log_width, KernelIndex, Variant};
use issr_core::HwCaps;
use issr_isa::asm::{Assembler, Program};
use issr_isa::reg::{FpReg, IntReg as R};
use issr_isa::Csr;
use issr_mem::map::{MAIN_BASE, MAIN_SIZE};
use issr_snitch::cc::SimTimeout;
use issr_sparse::csr::CsrMatrix;
use issr_system::system::{SystemParams, SystemSummary};

/// Descriptor stride in bytes (12 u32 fields, padded).
const DESC_BYTES: u32 = 48;

fn align8(bytes: u32) -> u32 {
    (bytes + 7) & !7
}

/// One claimed unit of work: a contiguous run of `A` rows whose data
/// fits the panel buffers and whose expansion fits the output buffer.
#[derive(Clone, Copy, Debug)]
struct Panel {
    /// The rows and the main-memory sources of their `A` data.
    a: Slice,
    /// Gustavson expansion volume of the panel (output capacity bound).
    exp: u32,
    // Main-memory destinations of the output panel.
    c_ptr_dst: u32,
    c_idcs_dst: u32,
    c_vals_dst: u32,
}

/// The planned layout of one system SpGEMM run.
#[derive(Clone, Debug)]
pub struct SystemSpgemmPlan {
    /// The tile handshake's flags, laid out for the worker count.
    flags: FlagArea,
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
    /// The link table, parallel to `a.ptr`: each panel's rows dealt by
    /// predicted cost, as each worker walks them.
    t_link: u32,
    link_table: Vec<u32>,
    scratch: MergeScratch,
    // A panel double buffer: [vals | idcs] × 2.
    abuf: u32,
    abuf_stride: u32,
    a_vals_cap: u32,
    // C panel double buffer: [ptr window | flag window | vals | idcs] × 2.
    cbuf: u32,
    cbuf_stride: u32,
    cptrw_bytes: u32,
    cvals_bytes: u32,
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
    /// Panics if the inner dimensions disagree, `n_workers` is above the
    /// flag area's limit, the resident data does not fit, or a single
    /// row exceeds the panel capacities.
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
        let flags = FlagArea::spgemm(n_workers);
        let nrows = a.nrows() as u32;
        let ncols = b.ncols() as u32;
        // ---- resident TCDM allocations ----
        let mut arena = tcdm_arena();
        let t_b = csr_addrs::<I>(&mut arena, b.nrows() as u32, b.nnz() as u32);
        let t_aptr = arena.alloc(align8((nrows + 1) * 4), 8);
        // The descriptor region is allocated after the partition below.
        // BASE ping-pong merge scratch, as in the cluster kernel; the
        // ISSR variant accumulates in the SpAcc and skips it (its size
        // scales with B's width and would crowd out the panel buffers).
        let scratch = if variant == Variant::Issr {
            MergeScratch::default()
        } else {
            MergeScratch::alloc::<I>(&mut arena, ncols, n_workers)
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
        let link_bytes = align8(nrows.max(1) * 4);
        let free = arena.remaining().saturating_sub(desc_reserve + link_bytes + 64);
        let a_bytes = free / 6; //           × 2 buffers
        let c_bytes = free / 3; //           × 2 buffers
        let a_elem_cap =
            ((a_bytes.saturating_sub(16)) / (8 + I::BYTES)).min(a_elem_cap_limit).max(1);
        let cptrw_bytes = align8((max_rows_global + 1) * 4);
        let c_elem_cap = ((c_bytes.saturating_sub(2 * cptrw_bytes + 16)) / (8 + I::BYTES))
            .min(c_elem_cap_limit)
            .max(1);
        let ptr = a.ptr();
        // Panels as (rows, expansion) until the main-memory bases are known.
        let mut cuts = Vec::new();
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
            cuts.push((row..end, u32::try_from(exp).expect("panel expansion fits u32")));
            row = end;
        }
        // ---- finish the TCDM layout ----
        let n_desc = (cuts.len() as u32).max(1);
        assert!(
            n_desc <= max_panels,
            "partition produced {n_desc} panels, above the {max_panels}-descriptor bound \
             (inputs this tall need a larger descriptor budget)"
        );
        let t_desc = arena.alloc(align8(n_desc * DESC_BYTES), 8);
        let t_link = arena.alloc(link_bytes, 8);
        let meta_bytes = t_link + link_bytes - TCDM_DATA_BASE; // B | a.ptr | descriptors | link
        let mut link_table = Vec::with_capacity(nrows as usize);
        for (rows, _) in &cuts {
            let rows = rows.start as usize..rows.end as usize;
            link_table.extend(row_links(a, b, rows, n_workers as usize));
        }
        let a_vals_cap = a_elem_cap * 8 + 8;
        let a_idcs_cap = align8(a_elem_cap * I::BYTES) + 16;
        let abuf_stride = a_vals_cap + a_idcs_cap;
        let abuf = arena.alloc(2 * abuf_stride, 8);
        let cvals_bytes = c_elem_cap * 8 + 8;
        let cidcs_bytes = align8(c_elem_cap * I::BYTES) + 16;
        let cbuf_stride = 2 * cptrw_bytes + cvals_bytes + cidcs_bytes;
        let cbuf = arena.alloc(2 * cbuf_stride, 8);
        // ---- main-memory layout ----
        let mut main = Arena::new(MAIN_BASE, MAIN_SIZE);
        let nnz = a.nnz() as u32;
        let main_a_vals = main.alloc(nnz.max(1) * 8 + 8, 8);
        let main_a_idcs = main.alloc(align8(nnz.max(1) * I::BYTES) + 8, 8);
        let main_meta = main.alloc(meta_bytes, 8);
        let main_queue = main.alloc(8, 8);
        // Word-aligned, padded per-panel output regions: whole-word DMA
        // stores stay strobe-safe (no inter-panel sharing).
        let panels = cuts
            .into_iter()
            .map(|(rows, exp)| Panel {
                a: Slice::new::<I>(ptr, rows.clone(), main_a_vals, main_a_idcs),
                exp,
                c_ptr_dst: main.alloc(align8((rows.end - rows.start + 1) * 4) + 8, 8),
                c_vals_dst: main.alloc(exp.max(1) * 8 + 8, 8),
                c_idcs_dst: main.alloc(align8(exp.max(1) * I::BYTES) + 8, 8),
            })
            .collect();
        Self {
            flags,
            nrows,
            ncols,
            panels,
            main_a_vals,
            main_a_idcs,
            main_meta,
            meta_bytes,
            main_queue,
            t_b,
            t_aptr,
            t_desc,
            t_link,
            link_table,
            scratch,
            abuf,
            abuf_stride,
            a_vals_cap,
            cbuf,
            cbuf_stride,
            cptrw_bytes,
            cvals_bytes,
        }
    }

    /// Number of planned panels.
    #[must_use]
    pub fn n_panels(&self) -> usize {
        self.panels.len()
    }

    /// Address of the work-queue ticket word in main memory.
    #[must_use]
    pub fn queue_addr(&self) -> u32 {
        self.main_queue
    }

    /// Offset of the C values in a C buffer.
    fn c_vals_off(&self) -> u32 {
        2 * self.cptrw_bytes
    }

    /// Offset of the C indices in a C buffer.
    fn c_idcs_off(&self) -> u32 {
        2 * self.cptrw_bytes + self.cvals_bytes
    }

    /// Translates a resident TCDM address to its main-memory staging
    /// slot inside the meta block.
    fn meta_addr(&self, tcdm_addr: u32) -> u32 {
        self.main_meta + (tcdm_addr - TCDM_DATA_BASE)
    }

    /// Writes the workload into the shared main memory: `A`'s arrays,
    /// and the meta block (`B`, `A`'s row pointer, panel descriptors,
    /// the link table) that every cluster DMAs into its TCDM once.
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
        mem.store_u32_slice(self.meta_addr(self.t_link), &self.link_table);
        for (i, p) in self.panels.iter().enumerate() {
            let d = self.meta_addr(self.t_desc) + (i as u32) * DESC_BYTES;
            p.a.store(mem, d, p.exp);
            mem.store_u32_slice(d + 32, &[p.c_ptr_dst, p.c_idcs_dst, p.c_vals_dst, 0]);
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
            let win = mem.load_u32_slice(p.c_ptr_dst, p.a.row_count as usize + 1);
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

// ---------------------------------------------------------------------
// Program builder
// ---------------------------------------------------------------------

/// Builds the SPMD system program for `variant`.
///
/// # Panics
/// Panics for [`Variant::Ssr`] (SpGEMM defines BASE and ISSR only).
#[must_use]
pub fn build_system_spgemm<I: KernelIndex>(variant: Variant, plan: &SystemSpgemmPlan) -> Program {
    assert!(
        matches!(variant, Variant::Base | Variant::Issr),
        "system SpGEMM defines BASE and ISSR variants only"
    );
    let mut asm = Assembler::new();
    asm.csrr(R::A7, Csr::MHartId);
    let dmcc_entry = asm.new_label();
    asm.li(R::T0, i64::from(plan.flags.n_workers));
    asm.beq(R::A7, R::T0, dmcc_entry);
    emit_worker::<I>(&mut asm, variant, plan);
    asm.bind(dmcc_entry);
    emit_dmcc(&mut asm, plan, log_width::<I>());
    asm.finish().expect("system SpGEMM program assembles")
}

/// Emits the worker loop: per claimed panel, the rows dealt to the
/// worker through [`emit_chained_rows`] on the panel's parity buffers,
/// virtual A bases and tag. The worker's panel sequence number lives in
/// its `done` flag.
fn emit_worker<I: KernelIndex>(asm: &mut Assembler, variant: Variant, plan: &SystemSpgemmPlan) {
    let log_w = log_width::<I>();
    let flags = plan.flags;
    asm.symbol("worker");
    flags.emit_wait_meta(asm);
    // The SpAcc row buffer holds a full output row, so no overflow is
    // possible (optimistic sizing stays a single-cluster feature).
    emit_worker_setup::<I>(asm, variant, plan.t_b, plan.ncols.max(1), plan.scratch);
    asm.roi_begin();
    let worker_end = asm.new_label();
    let panel_done = asm.new_label();
    let wloop = asm.bind_label();
    asm.symbol("worker_panel");
    asm.csrr(R::A7, Csr::MHartId);
    flags.emit_load_done(asm); // t6 = seq
    flags.emit_wait_tile(asm, R::T6, Some(worker_end));
    emit_desc_addr(asm, plan, R::T4);
    asm.lw(R::A0, R::T4, 0); // row_start
    asm.lw(R::A1, R::T4, 4); // row_count
    asm.lw(R::A2, R::T4, 8); // nnz_start
    flags.emit_wait_drained(asm, R::T6);
    asm.bge(R::A7, R::A1, panel_done); // no row of this panel is mine
    asm.addi(TAG, R::T6, 1);
    asm.andi(R::T5, R::T6, 1); // parity

    // C buffer of this parity: row-pointer and flag cursors at my first
    // row, value and index bases.
    asm.li(R::T0, i64::from(plan.cbuf_stride));
    asm.mul(R::T0, R::T5, R::T0);
    asm.li_addr(R::T1, plan.cbuf);
    asm.add(R::T0, R::T0, R::T1);
    asm.slli(R::T1, R::A7, 2);
    asm.add(R::S1, R::T0, R::T1); //   &ptr[h]
    asm.li(R::T2, i64::from(plan.cptrw_bytes));
    asm.add(R::S3, R::S1, R::T2); //   &flag[h]
    asm.li(R::T2, i64::from(plan.c_vals_off()));
    asm.add(C_VALS, R::T0, R::T2);
    asm.li(R::T2, i64::from(plan.c_idcs_off()));
    asm.add(C_IDCS, R::T0, R::T2);
    // A buffer of this parity, addressed through virtual bases that the
    // resident (global) row pointer's offsets index.
    asm.li(R::T0, i64::from(plan.abuf_stride));
    asm.mul(R::T0, R::T5, R::T0);
    asm.li_addr(R::T1, plan.abuf);
    asm.add(R::T0, R::T0, R::T1); //   A value buffer
    asm.slli(R::T1, R::A2, 3);
    asm.sub(R::A4, R::T0, R::T1);
    asm.slli(R::T1, R::A2, log_w);
    asm.andi(R::T1, R::T1, -8);
    asm.li(R::T2, i64::from(plan.a_vals_cap));
    asm.add(R::T2, R::T2, R::T0);
    asm.sub(R::A5, R::T2, R::T1);
    // Resident row-pointer and link cursors at my first row.
    asm.li_addr(R::T0, plan.t_aptr);
    asm.add(R::T1, R::A0, R::A7);
    asm.slli(R::T1, R::T1, 2);
    asm.add(R::S0, R::T0, R::T1);
    asm.li_addr(R::T0, plan.t_link);
    asm.add(R::S2, R::T0, R::T1);
    emit_chained_rows::<I>(asm, variant, plan.t_b);
    if variant == Variant::Base {
        // Value-store fence: the row copies store C values through the
        // FPU LSU while the done flag goes through the core LSU; pull
        // one value word back through the FPU (ordered behind every
        // store) and sync it before signalling.
        asm.fld(FpReg::FT6, C_VALS, 0);
        asm.fcvt_w_d(R::T0, FpReg::FT6);
        asm.add(R::ZERO, R::T0, R::T0);
    }
    // ISSR left the loop with every drain retired: the DMCC's output
    // DMA reads this buffer right after it sees the flag.
    asm.bind(panel_done);
    asm.symbol("worker_panel_done");
    asm.csrr(R::A7, Csr::MHartId);
    flags.emit_load_done(asm); // t6 = seq, t0 = its done slot
    flags.emit_signal_done(asm, R::T6, R::T6, R::T0);
    asm.j(wloop);
    asm.bind(worker_end);
    asm.roi_end();
    if variant == Variant::Issr {
        asm.csrci(Csr::Ssr, 1);
    }
    asm.halt();
}

/// Emits the DMCC: claim panels from the shared queue, double-buffer
/// the A panel data in, drain finished output panels to their main-
/// memory regions one panel behind the workers.
fn emit_dmcc(asm: &mut Assembler, plan: &SystemSpgemmPlan, log_w: i32) {
    asm.symbol("dmcc");
    let prepare = |asm: &mut Assembler| {
        emit_desc_addr(asm, plan, R::S0);
        emit_slice_prepare(asm, plan.a_vals_cap, |asm| {
            asm.andi(R::T0, R::S10, 1);
            asm.li(R::T1, i64::from(plan.abuf_stride));
            asm.mul(R::T0, R::T0, R::T1);
            asm.li_addr(R::T1, plan.abuf);
            asm.add(R::A4, R::T0, R::T1);
        });
    };
    let npanels = plan.panels.len() as u32;
    let drain = |asm: &mut Assembler| emit_panel_drain(asm, plan, log_w);
    // Meta transfer: B | a.ptr | descriptors | link in one DMA.
    let meta = (plan.main_meta, TCDM_DATA_BASE, plan.meta_bytes);
    plan.flags.emit_claim_loop(asm, meta, plan.main_queue, npanels, prepare, drain);
}

/// Emits `t4 = t_desc + id * 48` from the panel id in `id_reg` (which
/// may be `t4`; `id * 48 = id * 32 + id * 16`). Clobbers `t5`.
fn emit_desc_addr(asm: &mut Assembler, plan: &SystemSpgemmPlan, id_reg: R) {
    asm.slli(R::T5, id_reg, 5);
    asm.slli(R::T4, id_reg, 4);
    asm.add(R::T4, R::T4, R::T5);
    asm.li_addr(R::T5, plan.t_desc);
    asm.add(R::T4, R::T4, R::T5);
}

/// Emits the output drain of the panel whose id sits in `s1` (local
/// sequence `s10 - 2`): ptr window, then values and indices sized by
/// the device-computed panel nnz, all to the panel's word-padded main
/// regions, polled to completion; raises `drained[s10 & 1] = s10 - 1`.
/// Clobbers `t*`, `a0`–`a4`, `s7`.
fn emit_panel_drain(asm: &mut Assembler, plan: &SystemSpgemmPlan, log_w: i32) {
    emit_desc_addr(asm, plan, R::S1);
    asm.lw(R::A0, R::T4, 4); //  row_count
    asm.lw(R::A1, R::T4, 32); // c_ptr_dst
    asm.lw(R::A2, R::T4, 36); // c_idcs_dst
    asm.lw(R::A3, R::T4, 40); // c_vals_dst
                              // C buffer of parity (s10 - 2) & 1.
    asm.andi(R::T0, R::S10, 1);
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
    asm.dmcpyi(R::S7, R::T3, 0);
    // 2./3. Values and indices (skipped for an all-empty panel).
    let empty = asm.new_label();
    asm.beqz(R::A4, empty);
    asm.li(R::T2, i64::from(plan.c_vals_off()));
    asm.add(R::T2, R::T2, R::T0);
    asm.dmsrc(R::T2, R::ZERO);
    asm.dmdst(R::A3, R::ZERO);
    asm.slli(R::T3, R::A4, 3);
    asm.dmcpyi(R::ZERO, R::T3, 0);
    asm.li(R::T2, i64::from(plan.c_idcs_off()));
    asm.add(R::T2, R::T2, R::T0);
    asm.dmsrc(R::T2, R::ZERO);
    asm.dmdst(R::A2, R::ZERO);
    asm.slli(R::T3, R::A4, log_w);
    asm.addi(R::T3, R::T3, 7);
    asm.andi(R::T3, R::T3, -8);
    asm.dmcpyi(R::S7, R::T3, 0);
    asm.bind(empty);
    emit_dma_poll(asm);
    // Free the output buffer for the panel two ahead.
    plan.flags.emit_signal_drained(asm);
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
        plan.flags.n_workers, params.cluster.n_workers as u32,
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
    Ok(SystemSpgemmRun { c: plan.stitch::<I>(system.main.array()), summary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_spgemm::run_cluster_spgemm;
    use issr_cluster::cluster::ClusterParams;
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
        for n_clusters in [1usize, 2, 4] {
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
    /// 2 and 4 clusters of eight workers, and on 1 and 2 clusters of 16:
    /// there the flag area's `drained` slots follow `done[16]` (an area
    /// laid out for eight workers put them on `done[8]` and `done[9]`,
    /// and this product deadlocked).
    #[test]
    fn forced_multi_panel_partition_is_bit_identical() {
        let mut rng = gen::rng(503);
        let a = gen::csr_uniform::<u16>(&mut rng, 64, 48, 600);
        let b = gen::csr_uniform::<u16>(&mut rng, 48, 64, 400);
        check_forced(&a, &b, 8, (64, 512), &[1, 2, 4]);
        let mut rng = gen::rng(6);
        let a = gen::csr_uniform::<u16>(&mut rng, 96, 64, 400);
        let b = gen::csr_uniform::<u16>(&mut rng, 64, 80, 300);
        check_forced(&a, &b, 16, (128, 1_000), &[1, 2]);
    }

    /// `A·B` under the panel caps `(a_elems, c_elems)` on `clusters` of
    /// `n_workers` workers: several panels, the oracle's structure, the
    /// same bits at every cluster count, and both of two clusters claim.
    fn check_forced(
        a: &CsrMatrix<u16>,
        b: &CsrMatrix<u16>,
        n_workers: usize,
        (a_cap, c_cap): (u32, u32),
        clusters: &[usize],
    ) {
        let expect = reference::spgemm(a, b).with_index_width::<u32>();
        let cluster = ClusterParams { n_workers, ..ClusterParams::default() };
        let mut runs = Vec::new();
        for &n_clusters in clusters {
            let at = format!("{n_clusters} clusters of {n_workers} workers");
            let plan = SystemSpgemmPlan::with_panel_caps(
                Variant::Issr,
                a,
                b,
                n_workers as u32,
                a_cap,
                c_cap,
            );
            assert!(plan.n_panels() >= 4, "caps must force several panels");
            let params = SystemParams { n_clusters, cluster, ..SystemParams::default() };
            let run = run_system_spgemm_planned(Variant::Issr, a, b, plan, params)
                .expect("system run finishes");
            assert_eq!(run.c.ptr(), expect.ptr(), "{at}: row pointers");
            assert_eq!(run.c.idcs(), expect.idcs(), "{at}: indices");
            runs.push(run);
        }
        for r in &runs[1..] {
            assert_eq!(val_bits(&r.c), val_bits(&runs[0].c), "cluster count cannot change bits");
        }
        // With two clusters and several panels both must claim work.
        let active = runs[1].summary.clusters.iter().filter(|c| c.dma_stats.words_in > 0).count();
        assert_eq!(active, 2, "both clusters must claim panels");
    }

    /// Two and three panels on 1, 2 and 4 clusters of 8 and of 16
    /// workers, in both variants, stitch to the oracle's structure and
    /// the cluster kernel's bits: the claim loop's finish pass drains
    /// both panels it can still hold (`L − 2` and `L − 1`) on a cluster
    /// that claimed two or more, one on a cluster that claimed one, and
    /// none on a cluster that claimed nothing. At 16 workers the
    /// unrolled all-worker `done` wait runs 16 slots inside the pass
    /// loop.
    #[test]
    fn finish_path_drains_the_last_two_panels() {
        let mut rng = gen::rng(511);
        let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, 24, 32, 5);
        let b = gen::csr_uniform::<u16>(&mut rng, 32, 40, 100);
        let expect = reference::spgemm(&a, &b).with_index_width::<u32>();
        for variant in [Variant::Base, Variant::Issr] {
            let single = run_cluster_spgemm(variant, &a, &b).expect("cluster run finishes");
            for n_workers in [8, 16] {
                let cluster = ClusterParams { n_workers, ..ClusterParams::default() };
                for (a_cap, panels) in [(60, 2), (40, 3)] {
                    let plan = SystemSpgemmPlan::with_panel_caps(
                        variant,
                        &a,
                        &b,
                        n_workers as u32,
                        a_cap,
                        u32::MAX,
                    );
                    assert_eq!(plan.n_panels(), panels);
                    for n_clusters in [1usize, 2, 4] {
                        let at = format!("{variant}, {panels} panels, {n_clusters}×{n_workers}");
                        let params =
                            SystemParams { n_clusters, cluster, ..SystemParams::default() };
                        let run = run_system_spgemm_planned(variant, &a, &b, plan.clone(), params)
                            .expect("system run finishes");
                        assert_eq!(run.c.ptr(), expect.ptr(), "{at}: row pointers");
                        assert_eq!(run.c.idcs(), expect.idcs(), "{at}: indices");
                        assert_eq!(val_bits(&run.c), val_bits(&single.c), "{at}: values");
                    }
                }
            }
        }
    }

    /// The flag area of 26 SpGEMM workers would pass the data region.
    #[test]
    #[should_panic(expected = "flag area holds at most 25 workers")]
    fn plan_rejects_more_workers_than_the_flag_area_holds() {
        let mut rng = gen::rng(508);
        let a = gen::csr_uniform::<u16>(&mut rng, 8, 8, 16);
        let _ = SystemSpgemmPlan::new(Variant::Issr, &a, &a, 26);
    }

    /// Degenerate shapes survive the partition and the flag protocol.
    #[test]
    fn degenerate_shapes() {
        // No rows: no panel, every DMCC publishes the sentinel before any
        // claim.
        check::<u16>(Variant::Issr, 0, 8, 8, 0, 20, 509);
        // One 3-row panel: at 4 clusters three DMCCs claim nothing.
        check::<u16>(Variant::Issr, 3, 8, 8, 6, 20, 510);
        // Empty A.
        check::<u16>(Variant::Issr, 8, 8, 8, 0, 20, 504);
        // Empty B.
        check::<u16>(Variant::Issr, 8, 8, 8, 20, 0, 505);
        // Fewer rows than workers.
        check::<u16>(Variant::Issr, 5, 16, 16, 20, 40, 506);
    }

    /// Every panel chains its offsets in the one pass that computes the
    /// values: one feed per A nonzero whose
    /// B row is nonempty, one drain per nonempty C row, and a stitched
    /// row pointer the workers wrote (the host writes nothing into the
    /// TCDM). The panel DMA overlaps compute, and 1 and 2 clusters give
    /// the same bits.
    #[test]
    fn device_chained_offsets_and_overlap() {
        let mut rng = gen::rng(507);
        let a = gen::csr_uniform::<u16>(&mut rng, 48, 32, 150);
        let b = gen::csr_uniform::<u16>(&mut rng, 32, 40, 100);
        let expect = reference::spgemm(&a, &b).with_index_width::<u32>();
        let live_feeds = (0..a.nrows())
            .flat_map(|r| a.row(r).map(|(k, _)| k))
            .filter(|&k| !b.row_range(k).is_empty())
            .count() as u64;
        let nonempty_rows = expect.ptr().windows(2).filter(|w| w[1] > w[0]).count() as u64;
        assert!(live_feeds < a.nnz() as u64 && nonempty_rows < 48, "empty rows on both sides");
        let n_workers = SystemParams::default().cluster.n_workers as u32;
        let mut bits = Vec::new();
        for n_clusters in [1usize, 2] {
            let plan = SystemSpgemmPlan::with_panel_caps(Variant::Issr, &a, &b, n_workers, 48, 400);
            assert!(plan.n_panels() >= 3);
            let run = run_system_spgemm_planned(
                Variant::Issr,
                &a,
                &b,
                plan,
                SystemParams { n_clusters, ..SystemParams::default() },
            )
            .unwrap();
            assert_eq!(run.c.ptr(), expect.ptr(), "{n_clusters}-cluster row pointer");
            assert_eq!(run.c.idcs(), expect.idcs(), "{n_clusters}-cluster indices");
            let stats = || run.summary.clusters.iter().flat_map(|c| c.spacc_stats.iter());
            assert_eq!(stats().map(|s| s.feeds).sum::<u64>(), live_feeds, "live A nonzeros");
            assert_eq!(stats().map(|s| s.drains).sum::<u64>(), nonempty_rows, "nonempty rows");
            assert!(run.summary.overlap_cycles > 0, "panel DMA must overlap compute");
            bits.push(val_bits(&run.c));
        }
        assert_eq!(bits[0], bits[1], "cluster count cannot change bits");
    }
}
