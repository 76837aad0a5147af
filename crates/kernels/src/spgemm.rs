//! Row-wise Gustavson SpGEMM: `C = A·B` with both operands (and the
//! output) sparse — the workload the sparse-output subsystem exists for.
//!
//! `C[i,:] = Σ_k A[i,k] · B[k,:]` accumulates a *sparse row*: scaled B
//! rows whose column sets overlap arbitrarily must union-merge into a
//! sorted, duplicate-free result of data-dependent length. Two variants:
//!
//! * **BASE** — software merge accumulation: per `(i, k)` the scaled row
//!   `A[i,k] · B[k,:]` two-way merges with the accumulator through a
//!   pair of ping-pong scratch buffers (three-way branch, index
//!   loads/stores and an `fmadd` per merge step — a dozen-odd
//!   instructions each), then the finished row is copied into the packed
//!   CSR output;
//! * **ISSR** — the same dataflow in hardware: the SSR streams `B[k,:]`
//!   values into a single `fmul.d` under FREP (static trip count
//!   `nnz(B[k,:])`, read from B's row pointers), whose write stream
//!   feeds the **SpAcc** ([`issr_core::spacc`]); the SpAcc fetches the
//!   matching column-index stream itself and union-merges into its row
//!   buffer at one step per cycle. At row end the core reads the
//!   data-dependent row length back (`ACC_NNZ`), extends the CSR row
//!   pointer, and launches a drain that packs the row straight into the
//!   output arrays (grow-and-pack) while the next row's expansion
//!   already configures.
//!
//! Output capacity comes from the host-side symbolic pass
//! ([`issr_sparse::reference::spgemm_ptr`]) or an expansion upper bound
//! — the two-pass/alloc side of the builder ([`crate::layout`]).

use crate::common::{emit_spacc_cfg, SETUP_SCRATCH};
use crate::harness::{self, Grown, OnTrap};
use crate::layout::{alloc_csr_out, place_csr, read_csr_out, Arena, CsrAddrs, CsrOutAddrs};
use crate::variant::{log_width, KernelIndex, Variant};
use issr_core::cfg::{cfg_addr, reg as sreg, SPACC_ROW_CAP_RESET};
use issr_isa::asm::{Assembler, Label, Program};
use issr_isa::instr::Stagger;
use issr_isa::reg::{FpReg, IntReg as R};
use issr_mem::array::MemArray;
use issr_snitch::cc::{RunSummary, SimTimeout, SingleCcSim};
use issr_snitch::params::CcParams;
use issr_sparse::csr::CsrMatrix;

/// Addresses the SpGEMM builders bake into the program.
#[derive(Clone, Copy, Debug)]
pub struct SpgemmAddrs {
    /// The left CSR operand.
    pub a: CsrAddrs,
    /// The right CSR operand.
    pub b: CsrAddrs,
    /// The CSR output region (`ptr[0]` pre-set to 0).
    pub c: CsrOutAddrs,
    /// BASE ping-pong merge scratch: index buffers (capacity `b.ncols`).
    pub scratch_idx: [u32; 2],
    /// BASE ping-pong merge scratch: value buffers (capacity `b.ncols`).
    pub scratch_vals: [u32; 2],
}

/// Builds the SpGEMM program for `variant` with `I`-width indices and
/// the SpAcc row buffer at its reset capacity.
///
/// # Panics
/// Panics for [`Variant::Ssr`]: with sparse output there is no
/// meaningful half-streamed variant — the taxonomy degenerates to BASE
/// vs. the full subsystem.
#[must_use]
pub fn build_spgemm<I: KernelIndex>(variant: Variant, nrows: u32, addrs: SpgemmAddrs) -> Program {
    build_spgemm_capped::<I>(variant, nrows, addrs, SPACC_ROW_CAP_RESET)
}

/// [`build_spgemm`] with an explicit SpAcc row-buffer capacity baked
/// into the program (`ACC_BUF_CAP`). An optimistic capacity arms the
/// overflow trap the grow-and-retry harness recovers from; BASE ignores
/// it (its merge scratch is sized by the output width).
///
/// # Panics
/// As [`build_spgemm`].
#[must_use]
pub fn build_spgemm_capped<I: KernelIndex>(
    variant: Variant,
    nrows: u32,
    addrs: SpgemmAddrs,
    acc_cap: u32,
) -> Program {
    let mut asm = Assembler::new();
    match variant {
        Variant::Base => emit_base_spgemm::<I>(&mut asm, nrows, addrs),
        Variant::Issr => emit_issr_spgemm::<I>(&mut asm, nrows, addrs, acc_cap),
        Variant::Ssr => panic!("SpGEMM defines BASE and ISSR variants only"),
    }
    asm.halt();
    asm.finish().expect("SpGEMM program assembles")
}

/// BASE: software union-merge accumulation through ping-pong scratch.
///
/// Register roles: `s0` `&a.ptr[i+1]`, `s1` `&c.ptr[i+1]`, `s2` rows
/// remaining, `s3` output nnz so far, `s4`/`s5` A index/value cursors,
/// `s6`/`s7` acc-in index/value base, `s8`/`s9` acc-out index/value
/// base, `s10` acc length, `s11` `b.ptr`; `t*`/`a*` per-k merge cursors.
fn emit_base_spgemm<I: KernelIndex>(asm: &mut Assembler, nrows: u32, addrs: SpgemmAddrs) {
    let log_w = log_width::<I>();
    asm.li_addr(R::S0, addrs.a.ptr + 4);
    asm.li_addr(R::S1, addrs.c.ptr + 4);
    asm.li(R::S2, i64::from(nrows));
    asm.li(R::S3, 0);
    asm.li_addr(R::S4, addrs.a.idcs);
    asm.li_addr(R::S5, addrs.a.vals);
    asm.li_addr(R::S6, addrs.scratch_idx[0]);
    asm.li_addr(R::S7, addrs.scratch_vals[0]);
    asm.li_addr(R::S8, addrs.scratch_idx[1]);
    asm.li_addr(R::S9, addrs.scratch_vals[1]);
    asm.li_addr(R::S11, addrs.b.ptr);
    asm.roi_begin();
    if nrows > 0 {
        let row = asm.bind_label();
        asm.symbol("base_row");
        let flush = asm.new_label();
        asm.li(R::S10, 0); // the row accumulator starts empty
        emit_a_row_end::<I>(asm, R::A6, Base::Addr(addrs.a.idcs));
        emit_base_k_merge::<I>(asm, addrs.b.idcs, addrs.b.vals, flush);
        // Row finished: pack the accumulator into the CSR output at the
        // running element offset, then extend the row pointer.
        asm.bind(flush);
        asm.symbol("base_flush");
        emit_indexed_addr(asm, R::T0, R::S3, log_w, Base::Addr(addrs.c.idcs)); // C index cursor
        emit_indexed_addr(asm, R::T1, R::S3, 3, Base::Addr(addrs.c.vals)); // C value cursor
        emit_base_row_copy::<I>(asm);
        asm.add(R::S3, R::S3, R::S10);
        asm.sw(R::S3, R::S1, 0);
        asm.addi(R::S1, R::S1, 4);
        asm.addi(R::S2, R::S2, -1);
        asm.bnez(R::S2, row);
    }
    asm.roi_end();
}

/// Where an array's base comes from: an address baked into the program
/// (materialised through `t6`) or a register holding a runtime base —
/// the system kernel's panel-relative virtual bases.
#[derive(Clone, Copy)]
pub(crate) enum Base {
    Addr(u32),
    Reg(R),
}

/// Emits `dst = base + (idx << log_stride)`.
pub(crate) fn emit_indexed_addr(asm: &mut Assembler, dst: R, idx: R, log_stride: i32, base: Base) {
    asm.slli(dst, idx, log_stride);
    let base = match base {
        Base::Addr(addr) => {
            asm.li_addr(R::T6, addr);
            R::T6
        }
        Base::Reg(reg) => reg,
    };
    asm.add(dst, dst, base);
}

/// The shared row head: reads `a.ptr[r+1]` through the `s0` cursor
/// (advancing it) and leaves the A row's end address in `end`.
/// Clobbers `t5`.
pub(crate) fn emit_a_row_end<I: KernelIndex>(asm: &mut Assembler, end: R, a_idcs: Base) {
    asm.lw(R::T5, R::S0, 0); // a.ptr[r+1]
    asm.addi(R::S0, R::S0, 4);
    emit_indexed_addr(asm, end, R::T5, log_width::<I>(), a_idcs);
}

/// The BASE per-worker scratch pointers of the cluster and system
/// workers: `s6`/`s8` index and `s7`/`s9` value ping-pong buffers in
/// hart `a7`'s `stride`-byte slice of the scratch region at `base`,
/// and `s11` = `b.ptr`. Clobbers `t0`–`t2`.
pub(crate) fn emit_base_scratch(
    asm: &mut Assembler,
    stride: u32,
    base: u32,
    idx_bytes: u32,
    val_bytes: i64,
    b_ptr: u32,
) {
    asm.li(R::T0, i64::from(stride));
    asm.mul(R::T0, R::T0, R::A7);
    asm.li_addr(R::T1, base);
    asm.add(R::S6, R::T0, R::T1); // idx0
    asm.li(R::T2, i64::from(idx_bytes));
    asm.add(R::S8, R::S6, R::T2); // idx1
    asm.add(R::S7, R::S8, R::T2); // val0
    asm.li(R::T2, val_bytes);
    asm.add(R::S9, R::S7, R::T2); // val1
    asm.li_addr(R::S11, b_ptr);
}

/// The shared BASE symbolic row loop of the cluster and system workers:
/// the software union-merge per row, keeping only the accumulator
/// length. The stripe-local inclusive prefix runs in `prefix`, lands in
/// the row-pointer window behind the `s1` cursor and leaves in `s10`;
/// `s2` counts the rows down.
pub(crate) fn emit_base_symbolic_rows<I: KernelIndex>(
    asm: &mut Assembler,
    a_idcs: Base,
    prefix: R,
    b_idcs: u32,
    b_vals: u32,
) {
    asm.li(prefix, 0);
    let sym_row = asm.bind_label();
    asm.symbol("base_sym_row");
    let sym_flush = asm.new_label();
    asm.li(R::S10, 0);
    emit_a_row_end::<I>(asm, R::A6, a_idcs);
    emit_base_k_merge::<I>(asm, b_idcs, b_vals, sym_flush);
    asm.bind(sym_flush);
    asm.symbol("base_sym_flush");
    asm.add(prefix, prefix, R::S10);
    asm.sw(prefix, R::S1, 4); // ptr[r+1] = stripe-local prefix
    asm.addi(R::S1, R::S1, 4);
    asm.addi(R::S2, R::S2, -1);
    asm.bnez(R::S2, sym_row);
    asm.mv(R::S10, prefix); // the scan / exchange takes the total in s10
}

/// The shared BASE per-k loop: walk the current A row (`s4`/`s5`
/// cursors, `a6` end address), and for each `A[i,k]` three-way
/// union-merge the scaled B row into the ping-pong accumulator
/// (`s6`/`s7` in, `s8`/`s9` out, `s10` length, `s11` = `b.ptr`),
/// swapping buffers per k. Branches to `flush` once the row is
/// exhausted. Register roles as documented on [`emit_base_spgemm`];
/// shared with the cluster worker, whose only differences are the
/// cursor prologue and the output offsets.
#[allow(clippy::too_many_lines)]
pub(crate) fn emit_base_k_merge<I: KernelIndex>(
    asm: &mut Assembler,
    b_idcs: u32,
    b_vals: u32,
    flush: Label,
) {
    let log_w = log_width::<I>();
    let ib = I::BYTES as i32;
    let (va, vb) = (FpReg::FT6, FpReg::FT7);
    let scale = FpReg::FA0;
    let k_loop = asm.bind_label();
    asm.symbol("base_k");
    asm.beq(R::S4, R::A6, flush);
    I::emit_index_load(asm, R::A7, R::S4, 0); // column k
    asm.fld(scale, R::S5, 0); //                a_ik
    asm.addi(R::S4, R::S4, ib);
    asm.addi(R::S5, R::S5, 8);
    // B row k bounds and cursors.
    asm.slli(R::T5, R::A7, 2);
    asm.add(R::T5, R::T5, R::S11);
    asm.lw(R::T3, R::T5, 0); //  b.ptr[k]
    asm.lw(R::T5, R::T5, 4); //  b.ptr[k+1]
    asm.slli(R::T4, R::T3, 3);
    asm.li_addr(R::T6, b_vals);
    asm.add(R::T4, R::T4, R::T6); // B value cursor
    asm.slli(R::A0, R::T5, log_w);
    asm.slli(R::T3, R::T3, log_w);
    asm.li_addr(R::T6, b_idcs);
    asm.add(R::A0, R::A0, R::T6); // B index end
    asm.add(R::T3, R::T3, R::T6); // B index cursor
                                  // Accumulator and output cursors.
    asm.mv(R::T0, R::S6);
    asm.mv(R::T1, R::S7);
    asm.slli(R::T2, R::S10, log_w);
    asm.add(R::T2, R::T2, R::S6); // acc index end
    asm.mv(R::A1, R::S8);
    asm.mv(R::A2, R::S9);
    asm.li(R::A3, 0);
    // Three-way merge of the accumulator with the scaled B row.
    let merge = asm.bind_label();
    asm.symbol("base_merge");
    let copy_acc = asm.new_label();
    let copy_b = asm.new_label();
    let acc_done = asm.new_label();
    let b_done = asm.new_label();
    let merge_done = asm.new_label();
    asm.beq(R::T0, R::T2, acc_done);
    asm.beq(R::T3, R::A0, b_done);
    I::emit_index_load(asm, R::T5, R::T0, 0);
    I::emit_index_load(asm, R::T6, R::T3, 0);
    asm.blt(R::T5, R::T6, copy_acc);
    asm.blt(R::T6, R::T5, copy_b);
    asm.fld(va, R::T1, 0); //     match: acc + a_ik * b
    asm.fld(vb, R::T4, 0);
    asm.fmadd_d(va, vb, scale, va);
    asm.fsd(va, R::A2, 0);
    I::emit_index_store(asm, R::T5, R::A1, 0);
    asm.addi(R::T0, R::T0, ib);
    asm.addi(R::T1, R::T1, 8);
    asm.addi(R::T3, R::T3, ib);
    asm.addi(R::T4, R::T4, 8);
    asm.addi(R::A1, R::A1, ib);
    asm.addi(R::A2, R::A2, 8);
    asm.addi(R::A3, R::A3, 1);
    asm.j(merge);
    asm.bind(copy_acc);
    asm.fld(va, R::T1, 0);
    asm.fsd(va, R::A2, 0);
    I::emit_index_store(asm, R::T5, R::A1, 0);
    asm.addi(R::T0, R::T0, ib);
    asm.addi(R::T1, R::T1, 8);
    asm.addi(R::A1, R::A1, ib);
    asm.addi(R::A2, R::A2, 8);
    asm.addi(R::A3, R::A3, 1);
    asm.j(merge);
    asm.bind(copy_b);
    asm.fld(vb, R::T4, 0);
    asm.fmul_d(vb, vb, scale);
    asm.fsd(vb, R::A2, 0);
    I::emit_index_store(asm, R::T6, R::A1, 0);
    asm.addi(R::T3, R::T3, ib);
    asm.addi(R::T4, R::T4, 8);
    asm.addi(R::A1, R::A1, ib);
    asm.addi(R::A2, R::A2, 8);
    asm.addi(R::A3, R::A3, 1);
    asm.j(merge);
    // Accumulator exhausted: copy the B tail, scaled.
    asm.bind(acc_done);
    asm.symbol("base_b_tail");
    asm.beq(R::T3, R::A0, merge_done);
    I::emit_index_load(asm, R::T6, R::T3, 0);
    asm.fld(vb, R::T4, 0);
    asm.fmul_d(vb, vb, scale);
    asm.fsd(vb, R::A2, 0);
    I::emit_index_store(asm, R::T6, R::A1, 0);
    asm.addi(R::T3, R::T3, ib);
    asm.addi(R::T4, R::T4, 8);
    asm.addi(R::A1, R::A1, ib);
    asm.addi(R::A2, R::A2, 8);
    asm.addi(R::A3, R::A3, 1);
    asm.j(acc_done);
    // B exhausted: copy the accumulator tail.
    asm.bind(b_done);
    asm.symbol("base_acc_tail");
    asm.beq(R::T0, R::T2, merge_done);
    I::emit_index_load(asm, R::T5, R::T0, 0);
    asm.fld(va, R::T1, 0);
    asm.fsd(va, R::A2, 0);
    I::emit_index_store(asm, R::T5, R::A1, 0);
    asm.addi(R::T0, R::T0, ib);
    asm.addi(R::T1, R::T1, 8);
    asm.addi(R::A1, R::A1, ib);
    asm.addi(R::A2, R::A2, 8);
    asm.addi(R::A3, R::A3, 1);
    asm.j(b_done);
    asm.bind(merge_done);
    // Ping-pong swap; the merged row becomes the accumulator.
    asm.mv(R::T5, R::S6);
    asm.mv(R::S6, R::S8);
    asm.mv(R::S8, R::T5);
    asm.mv(R::T5, R::S7);
    asm.mv(R::S7, R::S9);
    asm.mv(R::S9, R::T5);
    asm.mv(R::S10, R::A3);
    asm.j(k_loop);
}

/// The shared BASE row pack-out: copies the accumulator (`s6`/`s7`,
/// `s10` elements) to the C cursors preset in `t0`/`t1`, falling
/// through with the row copied.
pub(crate) fn emit_base_row_copy<I: KernelIndex>(asm: &mut Assembler) {
    let ib = I::BYTES as i32;
    let va = FpReg::FT6;
    let copy = asm.new_label();
    let row_done = asm.new_label();
    asm.mv(R::T2, R::S6);
    asm.mv(R::T3, R::S7);
    asm.mv(R::T4, R::S10);
    asm.bind(copy);
    asm.beqz(R::T4, row_done);
    I::emit_index_load(asm, R::T5, R::T2, 0);
    I::emit_index_store(asm, R::T5, R::T0, 0);
    asm.fld(va, R::T3, 0);
    asm.fsd(va, R::T1, 0);
    asm.addi(R::T2, R::T2, ib);
    asm.addi(R::T3, R::T3, 8);
    asm.addi(R::T0, R::T0, ib);
    asm.addi(R::T1, R::T1, 8);
    asm.addi(R::T4, R::T4, -1);
    asm.j(copy);
    asm.bind(row_done);
}

/// ISSR: SSR + FREP expansion feeding the SpAcc; grow-and-pack drains.
///
/// Register roles: `s0` `&a.ptr[i+1]`, `s1` `&c.ptr[i+1]`, `s2` rows
/// remaining, `s3` output nnz so far, `s4`/`s5` A index/value cursors,
/// `s6` `b.ptr`, `s7` `b.idcs`, `s8` `b.vals`, `s9` A-row end, `a2`/`a3`
/// C index/value byte cursors; `t*` per-k scratch.
fn emit_issr_spgemm<I: KernelIndex>(
    asm: &mut Assembler,
    nrows: u32,
    addrs: SpgemmAddrs,
    acc_cap: u32,
) {
    let log_w = log_width::<I>();
    asm.li_addr(R::S0, addrs.a.ptr + 4);
    asm.li_addr(R::S1, addrs.c.ptr + 4);
    asm.li(R::S2, i64::from(nrows));
    asm.li(R::S3, 0);
    asm.li_addr(R::S4, addrs.a.idcs);
    asm.li_addr(R::S5, addrs.a.vals);
    asm.li_addr(R::S6, addrs.b.ptr);
    asm.li_addr(R::S7, addrs.b.idcs);
    asm.li_addr(R::S8, addrs.b.vals);
    asm.li_addr(R::A2, addrs.c.idcs);
    asm.li_addr(R::A3, addrs.c.vals);
    // Static streamer state: SSR value stride, SpAcc index width and
    // row-buffer capacity (optimistic caps arm the overflow trap).
    asm.li(SETUP_SCRATCH, 8);
    asm.scfgwi(SETUP_SCRATCH, cfg_addr(sreg::STRIDES[0], 0));
    emit_spacc_cfg::<I>(asm);
    asm.li(SETUP_SCRATCH, i64::from(acc_cap));
    asm.scfgwi(SETUP_SCRATCH, cfg_addr(sreg::ACC_BUF_CAP, 0));
    asm.csrsi(issr_isa::Csr::Ssr, 1);
    asm.roi_begin();
    if nrows > 0 {
        let row = asm.bind_label();
        asm.symbol("issr_row");
        let flush = asm.new_label();
        emit_a_row_end::<I>(asm, R::S9, Base::Addr(addrs.a.idcs));
        emit_issr_k_expand::<I>(asm, flush);
        // Row finished: wait for the *feeds* only (bit 2) — a previous
        // row's drain may still be writing out of the second buffer —
        // then read the data-dependent length and drain.
        asm.bind(flush);
        asm.symbol("issr_flush");
        emit_spacc_wait(asm, 4);
        asm.scfgri(R::T1, cfg_addr(sreg::ACC_NNZ, 0));
        let row_done = asm.new_label();
        asm.add(R::S3, R::S3, R::T1);
        asm.sw(R::S3, R::S1, 0); // c.ptr[i+1]
        asm.addi(R::S1, R::S1, 4);
        asm.beqz(R::T1, row_done);
        asm.scfgwi(R::A3, cfg_addr(sreg::ACC_VAL_OUT, 0));
        asm.scfgwi(R::A2, cfg_addr(sreg::ACC_DRAIN, 0)); // launch (retries)
        asm.slli(R::T2, R::T1, log_w);
        asm.add(R::A2, R::A2, R::T2);
        asm.slli(R::T2, R::T1, 3);
        asm.add(R::A3, R::A3, R::T2);
        asm.bind(row_done);
        asm.addi(R::S2, R::S2, -1);
        asm.bnez(R::S2, row);
        // Let the last drain retire inside the measured region.
        emit_spacc_wait(asm, 1);
    }
    asm.roi_end();
    asm.csrci(issr_isa::Csr::Ssr, 1);
}

/// Spins until `ACC_STATUS & mask` is set (1: the unit is idle, 4: every
/// feed has retired). Clobbers `t0`.
pub(crate) fn emit_spacc_wait(asm: &mut Assembler, mask: i32) {
    let spin = asm.bind_label();
    asm.scfgri(R::T0, cfg_addr(sreg::ACC_STATUS, 0));
    asm.andi(R::T0, R::T0, mask);
    asm.beqz(R::T0, spin);
}

/// The shared ISSR symbolic row loop of the cluster and system workers
/// (the SpAcc already in count-only mode): per row one count-only feed
/// per `k` (`s4` A index cursor, `s6`/`s7` = `b.{ptr,idcs}`), a wait
/// for the feeds, `ACC_NNZ` added to the stripe-local inclusive prefix
/// in `s10` and stored behind the `s1` row-pointer cursor, the buffer
/// cleared; `s2` counts the rows down.
pub(crate) fn emit_issr_symbolic_rows<I: KernelIndex>(asm: &mut Assembler, a_idcs: Base) {
    let log_w = log_width::<I>();
    let ib = I::BYTES as i32;
    asm.li(R::S10, 0);
    let sym_row = asm.bind_label();
    asm.symbol("issr_sym_row");
    let sym_row_end = asm.new_label();
    emit_a_row_end::<I>(asm, R::S9, a_idcs);
    let sym_k = asm.bind_label();
    asm.symbol("issr_sym_k");
    asm.beq(R::S4, R::S9, sym_row_end);
    I::emit_index_load(asm, R::T0, R::S4, 0); // column k
    asm.addi(R::S4, R::S4, ib);
    asm.slli(R::T1, R::T0, 2);
    asm.add(R::T1, R::T1, R::S6);
    asm.lw(R::T2, R::T1, 0); //  b.ptr[k]
    asm.lw(R::T3, R::T1, 4); //  b.ptr[k+1]
    asm.sub(R::T4, R::T3, R::T2); // nnz(B[k,:])
    asm.beqz(R::T4, sym_k);
    asm.scfgwi(R::T4, cfg_addr(sreg::ACC_COUNT, 0));
    emit_indexed_addr(asm, R::T6, R::T2, log_w, Base::Reg(R::S7));
    asm.scfgwi(R::T6, cfg_addr(sreg::ACC_FEED, 0)); // launch (retries)
    asm.j(sym_k);
    asm.bind(sym_row_end);
    // Wait for the row's feeds, read the count, reset the buffer.
    emit_spacc_wait(asm, 1);
    asm.scfgri(R::T1, cfg_addr(sreg::ACC_NNZ, 0));
    asm.add(R::S10, R::S10, R::T1);
    asm.sw(R::S10, R::S1, 4); // ptr[r+1] = stripe-local prefix
    asm.addi(R::S1, R::S1, 4);
    asm.scfgwi(R::ZERO, cfg_addr(sreg::ACC_CLEAR, 0));
    asm.addi(R::S2, R::S2, -1);
    asm.bnez(R::S2, sym_row);
}

/// The shared ISSR per-k loop: walk the current A row (`s4`/`s5`
/// cursors, `s9` end address), and for each `A[i,k]` launch the SSR
/// read over `B[k,:]` values plus the SpAcc feed over its column
/// indices (`s6`/`s7`/`s8` = `b.{ptr,idcs,vals}`), driving the whole
/// expansion through one `fmul` under FREP. Branches to `flush` once
/// the row is exhausted. Shared with the cluster worker.
pub(crate) fn emit_issr_k_expand<I: KernelIndex>(asm: &mut Assembler, flush: Label) {
    let log_w = log_width::<I>();
    let ib = I::BYTES as i32;
    let k_loop = asm.bind_label();
    asm.symbol("issr_k");
    asm.beq(R::S4, R::S9, flush);
    I::emit_index_load(asm, R::T0, R::S4, 0); // column k
    asm.fld(FpReg::FA0, R::S5, 0); //            a_ik
    asm.addi(R::S4, R::S4, ib);
    asm.addi(R::S5, R::S5, 8);
    asm.slli(R::T1, R::T0, 2);
    asm.add(R::T1, R::T1, R::S6);
    asm.lw(R::T2, R::T1, 0); //  b.ptr[k]
    asm.lw(R::T3, R::T1, 4); //  b.ptr[k+1]
    asm.sub(R::T4, R::T3, R::T2); // nnz(B[k,:])
    asm.beqz(R::T4, k_loop);
    // SSR read job over B row k's values.
    asm.addi(R::T6, R::T4, -1);
    asm.scfgwi(R::T6, cfg_addr(sreg::BOUNDS[0], 0));
    asm.slli(R::T6, R::T2, 3);
    asm.add(R::T6, R::T6, R::S8);
    asm.scfgwi(R::T6, cfg_addr(sreg::RPTR[0], 0)); // launch (retries)
                                                   // SpAcc feed over B row k's column indices.
    asm.scfgwi(R::T4, cfg_addr(sreg::ACC_COUNT, 0));
    asm.slli(R::T6, R::T2, log_w);
    asm.add(R::T6, R::T6, R::S7);
    asm.scfgwi(R::T6, cfg_addr(sreg::ACC_FEED, 0)); // launch (retries)
                                                    // The whole expansion: one fmul per nonzero, streamed end to end.
    asm.addi(R::T6, R::T4, -1);
    asm.frep_outer(R::T6, 1, Stagger::NONE);
    asm.fmul_d(FpReg::FT1, FpReg::FT0, FpReg::FA0);
    asm.j(k_loop);
}

/// Result of one SpGEMM run.
#[derive(Clone, Debug)]
pub struct SpgemmRun {
    /// The computed sparse product, read back and format-validated.
    pub c: CsrMatrix<u32>,
    /// Cycle-level summary (SpAcc statistics included).
    pub summary: RunSummary,
}

/// Total Gustavson expansion volume `Σ_i Σ_{k∈A[i,:]} nnz(B[k,:])` —
/// the multiply count, and the budget/capacity driver.
pub(crate) fn expansion_volume<I: KernelIndex>(a: &CsrMatrix<I>, b: &CsrMatrix<I>) -> u64 {
    (0..a.nrows()).map(|r| a.row(r).map(|(k, _)| b.row_range(k).len() as u64).sum::<u64>()).sum()
}

/// Places both operands, the output region (`nnz_cap` nonzeros) and
/// BASE's ping-pong merge scratch.
pub(crate) fn place_spgemm<I: KernelIndex>(
    arena: &mut Arena,
    mem: &mut MemArray,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    nnz_cap: u32,
) -> SpgemmAddrs {
    let a_addrs = place_csr(arena, mem, a);
    let b_addrs = place_csr(arena, mem, b);
    let c = alloc_csr_out::<I>(arena, mem, a.nrows() as u32, nnz_cap);
    let row_cap = (b.ncols() as u32).max(1);
    let idx_bytes = (row_cap * I::BYTES + 7) & !7;
    let scratch_idx = [arena.alloc(idx_bytes, 8), arena.alloc(idx_bytes, 8)];
    let scratch_vals = [arena.alloc(row_cap * 8, 8), arena.alloc(row_cap * 8, 8)];
    SpgemmAddrs { a: a_addrs, b: b_addrs, c, scratch_idx, scratch_vals }
}

/// Marshals the operands, runs SpGEMM on the single-CC setup (SpAcc
/// streamer for the ISSR variant), and returns the product with metrics.
/// The output region is sized by the symbolic pass (two-pass alloc).
///
/// # Errors
/// Returns [`SimTimeout`] if the kernel fails to finish (a bug).
///
/// # Panics
/// Panics if the inner dimensions disagree, on [`Variant::Ssr`], or if
/// the kernel builds a malformed output (a bug the readback validates).
pub fn run_spgemm<I: KernelIndex>(
    variant: Variant,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
) -> Result<SpgemmRun, SimTimeout> {
    run_spgemm_buffered(variant, a, b, true)
}

/// [`run_spgemm`] with an explicit SpAcc row-buffer mode:
/// `double_buffer = false` reverts to the single-buffer unit (a row's
/// drain blocks the next row's first feed), which the benchmark runs to
/// report the overlap delta.
///
/// # Errors
/// Returns [`SimTimeout`] if the kernel fails to finish (a bug).
///
/// # Panics
/// As [`run_spgemm`].
pub fn run_spgemm_buffered<I: KernelIndex>(
    variant: Variant,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    double_buffer: bool,
) -> Result<SpgemmRun, SimTimeout> {
    let sim = spgemm_sim(variant, a, b, double_buffer, SPACC_ROW_CAP_RESET, OnTrap::Panic)?;
    Ok(read_product::<I>(sim, a, b))
}

/// A finished single-CC SpGEMM simulation, before the read-back.
type SpgemmSim = (SingleCcSim, SpgemmAddrs, RunSummary);

/// One marshalled simulation with an explicit SpAcc row-buffer mode and
/// capacity.
fn spgemm_sim<I: KernelIndex>(
    variant: Variant,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    double_buffer: bool,
    acc_cap: u32,
    on_trap: OnTrap,
) -> Result<SpgemmSim, SimTimeout> {
    assert_eq!(b.nrows(), a.ncols(), "inner dimensions must agree");
    let nnz_cap = issr_sparse::reference::spgemm_ptr(a, b).last().copied().unwrap_or(0);
    let volume = expansion_volume(a, b) + u64::from(nnz_cap) + a.nnz() as u64;
    harness::single_cc(
        CcParams { spacc_double_buffer: double_buffer, ..CcParams::sssr() },
        on_trap,
        |arena, mem| place_spgemm(arena, mem, a, b, nnz_cap),
        |addrs| build_spgemm_capped::<I>(variant, a.nrows() as u32, addrs, acc_cap),
        300_000 + 256 * (volume + a.nrows() as u64),
    )
}

/// Reads the product of a clean run back (a trapped run's partially
/// written output region is not a valid CSR matrix).
fn read_product<I: KernelIndex>(
    (sim, addrs, summary): SpgemmSim,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
) -> SpgemmRun {
    let c =
        read_csr_out::<I>(sim.mem.array(), addrs.c, a.nrows(), b.ncols()).with_index_width::<u32>();
    SpgemmRun { c, summary }
}

/// Result of a grow-and-retry SpGEMM run ([`run_spgemm_recover`]).
#[derive(Clone, Debug)]
pub struct SpgemmRecovery {
    /// The final, clean run (oracle-identical product).
    pub run: SpgemmRun,
    /// Overflow traps taken before the capacity sufficed.
    pub retries: u32,
    /// The capacity the clean run used.
    pub final_cap: u32,
}

/// Runs SpGEMM with an *optimistic* SpAcc row-buffer capacity and
/// trap-driven recovery: a `StreamFault::Overflow` latched mid-stream
/// restores the SpAcc's row-buffer checkpoint and parks the core; the
/// harness doubles `ACC_BUF_CAP` (clamped to the output width, where
/// overflow is impossible) and replays — SparseZipper's
/// size-optimistically-recover-on-overflow strategy, so an adversarial
/// row no longer needs a worst-case expansion bound up front.
///
/// # Errors
/// Returns [`SimTimeout`] if an attempt fails to finish (a bug).
///
/// # Panics
/// Panics on zero `initial_cap`, on a non-overflow trap (those are not
/// recoverable), or if the kernel still misbehaves at the full row
/// capacity (a model bug).
pub fn run_spgemm_recover<I: KernelIndex>(
    variant: Variant,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    initial_cap: u32,
) -> Result<SpgemmRecovery, SimTimeout> {
    let Grown { run, retries, final_cap } = harness::grow_and_retry(
        initial_cap,
        output_width(b),
        |cap| spgemm_sim(variant, a, b, true, cap, OnTrap::Report),
        |(_, _, summary)| summary.trap.as_slice(),
    )?;
    Ok(SpgemmRecovery { run: read_product::<I>(run, a, b), retries, final_cap })
}

/// The widest row a product with `b` can hold — the SpAcc capacity at
/// which overflow is impossible.
pub(crate) fn output_width<I: KernelIndex>(b: &CsrMatrix<I>) -> u32 {
    u32::try_from(b.ncols().max(1)).expect("ncols fits u32")
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
        let run = run_spgemm(variant, &a, &b).expect("kernel finishes");
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
    fn base_spgemm_matches_reference() {
        check::<u16>(Variant::Base, 12, 24, 20, 60, 90, 200);
        check::<u32>(Variant::Base, 12, 24, 20, 60, 90, 201);
        check::<u16>(Variant::Base, 8, 8, 8, 0, 20, 202); // empty A
        check::<u16>(Variant::Base, 8, 8, 8, 20, 0, 203); // empty B
        check::<u16>(Variant::Base, 5, 3, 40, 10, 60, 204); // wide, dense rows
    }

    #[test]
    fn issr_spgemm_matches_reference() {
        check::<u16>(Variant::Issr, 12, 24, 20, 60, 90, 210);
        check::<u32>(Variant::Issr, 12, 24, 20, 60, 90, 211);
        check::<u16>(Variant::Issr, 8, 8, 8, 0, 20, 212); // empty A
        check::<u16>(Variant::Issr, 8, 8, 8, 20, 0, 213); // empty B
        check::<u16>(Variant::Issr, 5, 3, 40, 10, 60, 214); // wide, dense rows
        check::<u32>(Variant::Issr, 1, 64, 64, 32, 256, 215); // one heavy row
    }

    /// Unaligned packed index rows: odd row lengths force the drain's
    /// strobed partial words at every row boundary (16-bit indices).
    #[test]
    fn issr_spgemm_odd_row_boundaries() {
        let mut triplets = Vec::new();
        for r in 0..7usize {
            for j in 0..=r {
                triplets.push((r, (j * 3 + r) % 16, 1.0 + r as f64 * 0.5 + j as f64));
            }
        }
        let a = CsrMatrix::<u16>::from_triplets(7, 16, &triplets);
        let b_triplets: Vec<(usize, usize, f64)> = (0..16)
            .flat_map(|k| (0..3).map(move |j| (k, (k * 5 + j * 7) % 9, 0.25 * (k + j + 1) as f64)))
            .collect();
        let b = CsrMatrix::<u16>::from_triplets(16, 9, &b_triplets);
        let run = run_spgemm(Variant::Issr, &a, &b).unwrap();
        let expect = reference::spgemm(&a, &b).with_index_width::<u32>();
        assert_eq!(run.c.ptr(), expect.ptr());
        assert_eq!(run.c.idcs(), expect.idcs());
    }

    /// The headline: hardware expansion + SpAcc beats the software merge
    /// by a wide margin once rows carry real work.
    #[test]
    fn issr_beats_base_merge() {
        let mut rng = gen::rng(220);
        let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, 24, 64, 4);
        let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, 64, 256, 24);
        let base = run_spgemm(Variant::Base, &a, &b).unwrap().summary.metrics.roi.cycles;
        let issr = run_spgemm(Variant::Issr, &a, &b).unwrap().summary.metrics.roi.cycles;
        let speedup = issr_trace::ratio(base as f64, issr as f64);
        assert!(speedup > 3.0, "SpGEMM speedup {speedup:.2} (base {base}, issr {issr})");
    }

    /// SpAcc activity surfaces in the run summary: one feed per scalar
    /// with a nonempty B row, one drain per nonempty output row.
    #[test]
    fn spacc_stats_surface_in_summary() {
        let mut rng = gen::rng(221);
        let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, 8, 16, 3);
        let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, 16, 32, 8);
        let run = run_spgemm(Variant::Issr, &a, &b).unwrap();
        let stats = run.summary.spacc_stats;
        assert_eq!(stats.feeds, 24, "one feed per A nonzero");
        assert_eq!(stats.pairs_in, 24 * 8, "one pair per expanded product");
        assert_eq!(stats.drains, 8, "one drain per nonempty C row");
        assert!(stats.merges > 0, "duplicate columns must merge");
        // BASE runs the same workload without touching the SpAcc.
        let base = run_spgemm(Variant::Base, &a, &b).unwrap();
        assert_eq!(base.summary.spacc_stats.feeds, 0);
    }
}
