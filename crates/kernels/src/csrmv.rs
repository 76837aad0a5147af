//! CSR matrix-vector product kernels (CsrMV, §III-B).
//!
//! All variants walk the row pointer array with the integer core; the
//! inner per-row product is the corresponding SpVV loop. The ISSR
//! variant applies the paper's two optimizations and a third of its
//! own:
//!
//! * the **entire matrix fiber** (values + indices) streams in a single
//!   SSR job and a single ISSR job, eliminating per-row setup;
//! * a row's first accumulator group of `fmadd`s adds the
//!   **constant-zero register** `fz` (no re-zeroing), issued as one FREP
//!   whose destination alone is staggered;
//! * rows take one of **three paths by length** k, with n the paper's
//!   group ([`issr_accumulators`]): a short row (k < `MEDIUM_MIN`, six
//!   in both widths) accumulates in one dependent chain; a medium row
//!   (6 ≤ k < `LONG_ROW_GROUPS` · n) reduces in place over the smallest
//!   group that covers the FPU latency (`medium_accumulators`: 4, half
//!   the 16-bit group), which from six elements on costs less than the
//!   chain's dependent `fmadd`s; a long
//!   row's **reduction is deferred** into the next long row: its tree
//!   and `y` store issue between the next row's head `fmadd`s, into a
//!   second accumulator bank, so the in-order FPU never waits on an
//!   `fadd` while the index port has a product ready. The pending state
//!   is control flow (three row heads: nothing, bank A or bank B
//!   pending), and the loop's last row reduces itself, so nothing is
//!   pending at the exit.
//!
//! Short and medium rows run from a compact block of four
//! instruction-cache lines ([`Assembler::align`]), so that a cluster
//! worker's L0 holds both paths at once. The medium path keeps the
//! slots of the full group's longer tree as padding ([`Assembler::pad`]),
//! so the block's other addresses do not depend on the medium group.
//! The block runs a row ahead: each row loads the next row's end while
//! its own products drain, so a row's `ptr` load is off its dependent
//! chain, and `s3` holds the row start plus one, so one `sub` yields
//! the count less one that the chain's FREP and the unsigned length
//! tests against the invariants `s6`/`s7` read. A one-element row
//! issues 12 integer-pipeline instructions, a medium one 20.
//!
//! The row loop's register contract, shared with CsrMM (`csrmm.rs`,
//! which wraps it in a dense-column loop with register-held bases) and
//! the cluster and system kernels, is in `emit_sw_row_loop`'s table;
//! the ISSR loop also owns `fa0–fa7` (bank B) and `t6` (the deferred
//! row's `y` address), besides bank A (`ft2`…), `fz` and `t1–t5`.

use crate::common::{emit_reduction_tree, reduction_steps, ACC0, FZ};
use crate::harness::{self, OnTrap};
use crate::layout::{alloc_result, place_csr, place_f64s, Arena, CsrAddrs};
use crate::variant::{issr_accumulators, KernelIndex, Variant};
use issr_isa::asm::{Assembler, Program};
use issr_isa::instr::Stagger;
use issr_isa::reg::{FpReg, IntReg as R};
use issr_mem::array::MemArray;
use issr_mem::icache::ICacheParams;
use issr_snitch::cc::{RunSummary, SimTimeout};
use issr_snitch::params::CcParams;
use issr_sparse::csr::CsrMatrix;

/// Addresses the CsrMV builders bake into the program.
#[derive(Clone, Copy, Debug)]
pub struct CsrmvAddrs {
    /// The CSR matrix.
    pub a: CsrAddrs,
    /// Dense vector base.
    pub x: u32,
    /// Result vector base.
    pub y: u32,
}

/// Builds the CsrMV program.
#[must_use]
pub fn build_csrmv<I: KernelIndex>(variant: Variant, addrs: CsrmvAddrs) -> Program {
    let mut asm = Assembler::new();
    // Static prologue: materialize cursors.
    asm.li_addr(R::S0, addrs.a.ptr + 4);
    asm.li_addr(R::S1, addrs.y);
    asm.li(R::S2, i64::from(addrs.a.nrows));
    asm.li(R::S3, 0);
    asm.li_addr(R::S4, addrs.a.idcs);
    asm.li_addr(R::S5, addrs.a.vals);
    match variant {
        Variant::Issr => emit_issr_row_bounds::<I>(&mut asm),
        Variant::Ssr | Variant::Base => {
            asm.li_addr(R::S6, addrs.x);
            let ends = if variant == Variant::Base { addrs.a.vals } else { addrs.a.idcs };
            asm.li_addr(R::S7, ends);
        }
    }
    asm.li(R::S8, 8);
    asm.roi_begin();
    if addrs.a.nrows > 0 {
        match variant {
            Variant::Issr => {
                if addrs.a.nnz > 0 {
                    crate::common::emit_affine_read(&mut asm, 0, addrs.a.vals, addrs.a.nnz, 8);
                    crate::common::emit_indirect_read::<I>(
                        &mut asm,
                        1,
                        addrs.a.idcs,
                        addrs.a.nnz,
                        0,
                        addrs.x,
                    );
                }
                asm.csrsi(issr_isa::Csr::Ssr, 1);
                asm.fcvt_d_w(FZ, R::ZERO);
                emit_issr_row_loop::<I>(&mut asm);
            }
            Variant::Ssr => {
                if addrs.a.nnz > 0 {
                    crate::common::emit_affine_read(&mut asm, 0, addrs.a.vals, addrs.a.nnz, 8);
                }
                asm.csrsi(issr_isa::Csr::Ssr, 1);
                emit_sw_row_loop::<I>(&mut asm, variant, 3);
            }
            Variant::Base => emit_sw_row_loop::<I>(&mut asm, variant, 3),
        }
    }
    asm.roi_end();
    if !matches!(variant, Variant::Base) {
        asm.csrci(issr_isa::Csr::Ssr, 1);
    }
    asm.halt();
    asm.finish().expect("CsrMV program assembles")
}

/// Emits the BASE / SSR row loop (software indirection inner loops);
/// `idx_shift` is the left-shift applied to an index to reach the dense
/// element: 3 for a vector, `3 + log2(stride)` for a matrix column.
///
/// Register conventions of the row loops (shared with CsrMM and the
/// cluster kernels):
///
/// | reg | role |
/// |---|---|
/// | `s0` | `&ptr[i+1]` cursor |
/// | `s1` | `&y[i]` cursor |
/// | `s2` | rows remaining |
/// | `s3` | `ptr[i]` (previous row end; `ptr[i] + 1` in the ISSR compact block) |
/// | `s4` | index-array cursor (BASE/SSR) |
/// | `s5` | value-array cursor (BASE) |
/// | `s6` | dense base for software indirection (BASE/SSR); medium-row span (ISSR) |
/// | `s7` | index/value array base for row-end computation (BASE/SSR); chain bound (ISSR) |
/// | `s8` | result stride in bytes (y cursor bump) |
/// | `t0..t5` | scratch |
/// | `t6` | `y` address of the row whose reduction is deferred (ISSR) |
/// | `ft2…`, `fa0…` | accumulator banks A and B (ISSR; `fz` is `ft8`) |
pub(crate) fn emit_sw_row_loop<I: KernelIndex>(
    asm: &mut Assembler,
    variant: Variant,
    idx_shift: i32,
) {
    let acc = FpReg::FS0;
    let (va, vi) = (FpReg::FT6, FpReg::FT3);
    let outer = asm.bind_label();
    asm.symbol(if variant == Variant::Base { "base_row" } else { "ssr_row" });
    asm.lw(R::T5, R::S0, 0); // ptr[i+1]
    asm.addi(R::S0, R::S0, 4);
    asm.fcvt_d_w(acc, R::ZERO);
    let store = asm.new_label();
    match variant {
        Variant::Base => {
            // Row end in the value array: t4 = vals_base + 8*ptr[i+1].
            asm.slli(R::T4, R::T5, 3);
            asm.add(R::T4, R::T4, R::S7);
            asm.beq(R::S5, R::T4, store); // empty row
            let inner = asm.bind_label();
            I::emit_index_load(asm, R::T0, R::S4, 0);
            asm.fld(va, R::S5, 0);
            asm.slli(R::T0, R::T0, idx_shift);
            asm.add(R::T0, R::T0, R::S6);
            asm.fld(vi, R::T0, 0);
            asm.addi(R::S4, R::S4, I::BYTES as i32);
            asm.addi(R::S5, R::S5, 8);
            asm.fmadd_d(acc, va, vi, acc);
            asm.bne(R::S5, R::T4, inner);
        }
        Variant::Ssr | Variant::Issr => {
            // Row end in the index array: t4 = idcs_base + W*ptr[i+1].
            let log_w = if I::BYTES == 2 { 1 } else { 2 };
            asm.slli(R::T4, R::T5, log_w);
            asm.add(R::T4, R::T4, R::S7);
            asm.beq(R::S4, R::T4, store); // empty row
            let inner = asm.bind_label();
            I::emit_index_load(asm, R::T0, R::S4, 0);
            asm.addi(R::S4, R::S4, I::BYTES as i32);
            asm.slli(R::T0, R::T0, idx_shift);
            asm.add(R::T0, R::T0, R::S6);
            asm.fld(vi, R::T0, 0);
            asm.fmadd_d(acc, FpReg::FT0, vi, acc);
            asm.bne(R::S4, R::T4, inner);
        }
    }
    asm.bind(store);
    asm.fsd(acc, R::S1, 0);
    asm.add(R::S1, R::S1, R::S8);
    asm.addi(R::S2, R::S2, -1);
    asm.bnez(R::S2, outer);
}

/// The second accumulator bank of the pipelined ISSR row loop (bank A
/// starts at [`ACC0`]).
const ACC_B: FpReg = FpReg::FA0;
/// The `y` address of the row whose reduction is deferred.
const Y_PENDING: R = R::T6;

/// Emits the row head of the entry and of the deferred heads:
/// `t5 = ptr[i+1]`, `t1 = count` (the compact block loads a row ahead
/// instead).
fn emit_row_count(asm: &mut Assembler) {
    asm.lw(R::T5, R::S0, 0); // ptr[i+1]
    asm.addi(R::S0, R::S0, 4);
    asm.sub(R::T1, R::T5, R::S3); // count
}

/// Emits a row's first `n_acc` products into `bank .. bank + n_acc` as
/// one FREP whose destination alone is staggered, adding `fz`.
fn emit_frep_head(asm: &mut Assembler, bank: FpReg, n_acc: u8) {
    asm.li(R::T3, i64::from(n_acc) - 1);
    asm.frep_outer(R::T3, 1, Stagger { count: n_acc - 1, mask: 0b0001 });
    asm.fmadd_d(bank, FpReg::FT0, FpReg::FT1, FZ);
}

/// Emits the FREP over a long row's elements after its head: `t2 + 1`
/// iterations into the staggered accumulators of `bank`.
fn emit_frep_body(asm: &mut Assembler, bank: FpReg, n_acc: u8) {
    asm.frep_outer(R::T2, 1, Stagger::accumulator(n_acc));
    asm.fmadd_d(bank, FpReg::FT0, FpReg::FT1, bank);
}

/// Emits the head of a long row into `bank` interleaved with the
/// reduction tree of `pending`. A reduction step issues once its
/// operands were written an FPU latency of issue slots earlier; a head
/// `fmadd` fills every other slot, so the in-order FPU never waits on an
/// `fadd` while a product is ready.
fn emit_head_over_reduction(asm: &mut Assembler, bank: FpReg, pending: FpReg, n_acc: u8) {
    let latency = CcParams::paper().fpu_latency as isize;
    // Issue slot of each pending register's last write: the FREP that
    // filled the bank issued its final elements just before slot 0.
    let mut written = vec![-1; usize::from(n_acc)];
    let mut steps = reduction_steps(n_acc).into_iter().peekable();
    let mut heads = 0;
    for slot in 0.. {
        match steps.peek() {
            Some(&(dst, src))
                if heads == n_acc
                    || slot
                        >= written[usize::from(dst)].max(written[usize::from(src)]) + latency =>
            {
                asm.fadd_d(pending.offset(dst), pending.offset(dst), pending.offset(src));
                written[usize::from(dst)] = slot;
                steps.next();
            }
            _ if heads < n_acc => {
                asm.fmadd_d(bank.offset(heads), FpReg::FT0, FpReg::FT1, FZ);
                heads += 1;
            }
            _ => break,
        }
    }
}

/// Rows with at least this many accumulator groups of elements defer
/// their reduction; shorter ones run from the compact block.
const LONG_ROW_GROUPS: u8 = 3;

/// The shortest medium row, in both index widths; shorter rows run as
/// one dependent chain. Measured one length at a time (Ablation 3 of
/// `--bin ablation`): with 16-bit indices a row of six or seven elements
/// costs the chain 27 and 31 cycles and the medium path 20.5, a row of
/// four the chain 19.4. A row of five costs the chain 23.4 and would
/// cost the medium path 20.5, but its three reduction `fadd`s raise the
/// ISSR energy per fmadd of Fig. 4d's matrices with many such rows
/// (rdb2048, mhd3200b) by about 14 %, so it stays on the chain.
const MEDIUM_MIN: u8 = 6;

/// Accumulators of a medium row ([`MEDIUM_MIN`] `..= long_min - 1`
/// elements, reduced in place): the smallest group that covers the FPU
/// latency.
/// The index port delivers at most one element a cycle (0.8 with 16-bit
/// indices, 0.67 with 32-bit), so `fpu_latency` registers keep the FREP
/// from waiting on its own accumulator. With 16-bit indices that is half
/// the long-row group and one `fadd` level less per row.
fn medium_accumulators(n_acc: u8) -> u8 {
    let group = CcParams::paper().fpu_latency.min(u64::from(n_acc));
    u8::try_from(group).expect("no larger than n_acc")
}

/// `s7`: the chain's bound on `count - 1`, one below [`MEDIUM_MIN`].
const CHAIN_BOUND: R = R::S7;
/// `s6`: the medium path's span, `long_min - group - 1`, the bound on
/// `count - group - 1` of a medium row over a `group` of accumulators.
const MEDIUM_SPAN: R = R::S6;

/// Emits the two loop invariants the ISSR row loop's compact block
/// compares against (`s6`, `s7`); both fit one `addi`.
pub(crate) fn emit_issr_row_bounds<I: KernelIndex>(asm: &mut Assembler) {
    let n_acc = issr_accumulators(I::IDX_SIZE);
    let group = medium_accumulators(n_acc);
    asm.li(MEDIUM_SPAN, i64::from(LONG_ROW_GROUPS * n_acc - group - 1));
    asm.li(CHAIN_BOUND, i64::from(MEDIUM_MIN) - 1);
}

/// The word the ISSR row loop reads past a row window that ends at row
/// `end` of the row pointers at `ptr`: the compact block loads each
/// row's end a row ahead, so the last row of a loop entry loads
/// `ptr[end + 1]` and drops it. Plans assert that the word is data they
/// laid out (`csr_addrs`, `ClusterCsrmvPlan::new`).
pub(crate) fn ptr_over_read(ptr: u32, end: u32) -> u32 {
    ptr + 4 * (end + 1)
}

/// Emits the pipelined ISSR row loop (see the module doc): the entry
/// head and bank A's long path, the two deferred heads, their last-row
/// and flush tails, then the aligned compact block. The compact block
/// compares against the invariants of [`emit_issr_row_bounds`], which
/// the caller emits once before the loop.
pub(crate) fn emit_issr_row_loop<I: KernelIndex>(asm: &mut Assembler) {
    let n_acc = issr_accumulators(I::IDX_SIZE);
    let long_min = LONG_ROW_GROUPS * n_acc;
    let banks = [ACC0, ACC_B];
    let exit = asm.new_label();
    let classify = asm.new_label();
    let other = asm.new_label();
    let rare = asm.new_label();
    let row_done = asm.new_label();
    let lasts = [asm.new_label(), asm.new_label()];
    let pends = [asm.new_label(), asm.new_label()];
    let flushes = [asm.new_label(), asm.new_label()];

    // Entry, nothing pending: a row short of `long_min` goes to the
    // compact block, a long one falls through into bank A.
    asm.symbol("issr_row");
    emit_row_count(asm);
    asm.addi(R::T2, R::T1, -i32::from(long_min));
    asm.blt(R::T2, R::ZERO, classify);
    let long_n = asm.bind_label();
    emit_frep_head(asm, ACC0, n_acc);
    asm.addi(R::T2, R::T1, -i32::from(n_acc) - 1);
    emit_frep_body(asm, ACC0, n_acc);
    for (b, &bank) in banks.iter().enumerate() {
        let other = banks[1 - b];
        // `bank` holds a finished long row: defer its reduction, unless
        // it was the loop's last row.
        asm.bind(pends[b]);
        asm.mv(R::S3, R::T5);
        asm.addi(R::S2, R::S2, -1);
        asm.beqz(R::S2, lasts[b]);
        asm.mv(Y_PENDING, R::S1);
        asm.add(R::S1, R::S1, R::S8);
        // The next row, with `bank` pending: a long one's head goes
        // into the other bank under `bank`'s reduction.
        emit_row_count(asm);
        asm.addi(R::T2, R::T1, -i32::from(long_min));
        asm.blt(R::T2, R::ZERO, flushes[b]);
        asm.addi(R::T2, R::T1, -i32::from(n_acc) - 1);
        emit_head_over_reduction(asm, other, bank, n_acc);
        emit_frep_body(asm, other, n_acc);
        asm.fsd(bank, Y_PENDING, 0);
        if b == 1 {
            asm.j(pends[0]);
        }
    }
    for (b, &bank) in banks.iter().enumerate() {
        // The loop's last row, long: reduce it in place.
        asm.bind(lasts[b]);
        emit_reduction_tree(asm, bank, n_acc);
        asm.fsd(bank, R::S1, 0);
        asm.add(R::S1, R::S1, R::S8);
        asm.j(exit);
    }
    // A row short of `long_min` after a long one: store the pending
    // row, then take the compact block.
    for (b, &bank) in banks.iter().enumerate() {
        asm.bind(flushes[b]);
        emit_reduction_tree(asm, bank, n_acc);
        asm.fsd(bank, Y_PENDING, 0);
        asm.j(classify);
    }

    // The compact block, four L0 lines: every row short of `long_min`
    // runs inside it, whatever the mix of lengths. It runs a row ahead:
    // a row's end `t5` was loaded by the row before, and `s3` holds the
    // row's start plus one, so `t3` = end - `s3` is the count less one.
    asm.align(ICacheParams::default().line_bytes);
    asm.symbol("issr_compact");
    // No element, or at least MEDIUM_MIN: `t2` = count - group - 1 is
    // below the medium span for a medium row (chain rows, the only ones
    // shorter than MEDIUM_MIN but longer than the group, never get here).
    asm.bind(other);
    let group = medium_accumulators(n_acc);
    assert!(group < MEDIUM_MIN && MEDIUM_MIN < long_min, "medium rows outgrow the group");
    asm.addi(R::T2, R::T3, -i32::from(group));
    asm.bgeu(R::T2, MEDIUM_SPAN, rare);
    // MEDIUM_MIN ..= long_min - 1 elements: head, FREP, reduction in
    // place, over the medium group.
    emit_frep_head(asm, ACC0, group);
    emit_frep_body(asm, ACC0, group);
    emit_reduction_tree(asm, ACC0, group);
    asm.j(row_done);
    // The slots the full group's longer tree (n - 1 `fadd`s over n
    // registers) would take stay, so the code behind keeps its L0 lines.
    asm.pad(usize::from(n_acc - group));
    // A long row goes to the long path with its count in `t1` (the long
    // path does not read `s3`); an empty one stores zero.
    asm.bind(rare);
    asm.addi(R::T1, R::T3, 1);
    asm.bge(R::T2, R::ZERO, long_n);
    asm.fmv_d(ACC0, FZ);
    asm.j(row_done);
    // From the long path: bias the row start.
    asm.bind(classify);
    asm.addi(R::S3, R::S3, 1);
    // 1 ..= MEDIUM_MIN - 1 elements: one dependent chain.
    let head = asm.bind_label();
    asm.sub(R::T3, R::T5, R::S3);
    asm.bgeu(R::T3, CHAIN_BOUND, other);
    asm.fmv_d(ACC0, FZ);
    asm.frep_outer(R::T3, 1, Stagger::NONE);
    asm.fmadd_d(ACC0, FpReg::FT0, FpReg::FT1, ACC0);
    asm.bind(row_done);
    asm.fsd(ACC0, R::S1, 0);
    // The next row's end, loaded a row ahead: the last row reads the
    // word after its window ([`ptr_over_read`]).
    asm.addi(R::S3, R::T5, 1);
    asm.lw(R::T5, R::S0, 0);
    asm.addi(R::S0, R::S0, 4);
    asm.add(R::S1, R::S1, R::S8);
    asm.addi(R::S2, R::S2, -1);
    asm.bnez(R::S2, head);
    asm.bind(exit);
    asm.symbol("issr_row_end");
}

/// Result of one CsrMV run on the single-CC harness.
#[derive(Clone, Debug)]
pub struct CsrmvRun {
    /// The computed result vector.
    pub y: Vec<f64>,
    /// Cycle-level summary.
    pub summary: RunSummary,
}

/// Places the matrix, the dense vector and the result vector.
pub(crate) fn place_csrmv<I: KernelIndex>(
    arena: &mut Arena,
    mem: &mut MemArray,
    m: &CsrMatrix<I>,
    x: &[f64],
) -> CsrmvAddrs {
    let a = place_csr(arena, mem, m);
    CsrmvAddrs { a, x: place_f64s(arena, mem, x), y: alloc_result(arena, a.nrows.max(1)) }
}

/// Marshals the workload, runs the kernel, returns `y` and metrics.
///
/// # Errors
/// Returns [`SimTimeout`] if the kernel fails to finish (a bug).
pub fn run_csrmv<I: KernelIndex>(
    variant: Variant,
    m: &CsrMatrix<I>,
    x: &[f64],
) -> Result<CsrmvRun, SimTimeout> {
    let (sim, addrs, summary) = harness::single_cc(
        CcParams::paper(),
        OnTrap::Panic,
        |arena, mem| place_csrmv(arena, mem, m, x),
        |addrs| build_csrmv::<I>(variant, addrs),
        200_000 + 64 * m.nnz() as u64 + 64 * m.nrows() as u64,
    )?;
    Ok(CsrmvRun { y: sim.mem.array().load_f64_slice(addrs.y, m.nrows()), summary })
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
        let run = run_csrmv(variant, &m, &x).expect("kernel finishes");
        let expect = reference::csrmv(&m, &x);
        assert!(
            allclose(&run.y, &expect, 1e-12, 1e-12),
            "{variant} {nrows}x{ncols} nnz={nnz} mismatch"
        );
    }

    #[test]
    fn base_matches_reference() {
        check::<u32>(Variant::Base, 40, 64, 400, 1);
        check::<u16>(Variant::Base, 40, 64, 400, 2);
        check::<u32>(Variant::Base, 10, 16, 0, 3); // all-empty rows
    }

    #[test]
    fn ssr_matches_reference() {
        check::<u32>(Variant::Ssr, 40, 64, 400, 4);
        check::<u16>(Variant::Ssr, 33, 100, 700, 5);
    }

    #[test]
    fn issr_matches_reference() {
        check::<u32>(Variant::Issr, 40, 64, 400, 6);
        check::<u16>(Variant::Issr, 40, 64, 400, 7);
    }

    /// An ISSR run over rows of the given lengths, checked against the
    /// host reference.
    fn check_rows<I: KernelIndex>(lengths: &[usize], case: &str) {
        let ncols = 256;
        let mut triplets = Vec::new();
        for (r, &len) in lengths.iter().enumerate() {
            for j in 0..len {
                triplets.push((r, (j * 7 + r) % ncols, (r + j) as f64 * 0.25 + 1.0));
            }
        }
        let m = CsrMatrix::<I>::from_triplets(lengths.len(), ncols, &triplets);
        let x: Vec<f64> = (0..ncols).map(|i| i as f64 * 0.5 - 3.0).collect();
        let run = run_csrmv(Variant::Issr, &m, &x).unwrap();
        assert!(
            allclose(&run.y, &reference::csrmv(&m, &x), 1e-12, 1e-12),
            "{case} ({} B indices): {lengths:?}",
            I::BYTES
        );
    }

    /// Rows of every length 0..=4·n_acc, in both widths: the zero path,
    /// the dependent chain, the medium path from its shortest row on and
    /// the first deferred lengths, each after every shorter length.
    #[test]
    fn issr_row_length_edge_cases() {
        let lengths = |n_acc: usize| (0..=4 * n_acc).collect::<Vec<_>>();
        check_rows::<u32>(&lengths(4), "every length");
        check_rows::<u16>(&lengths(8), "every length");
    }

    /// The deferral's transitions in both widths: long → long in both
    /// bank orders, long → short and long → empty flushes out of either
    /// bank, rows of exactly `n_acc`, a long last row in either bank, a
    /// single long row; the orders between the three row classes that
    /// ascending lengths never produce (medium rows are
    /// `MEDIUM_MIN ..= long_min - 1` elements, chains shorter); and rows
    /// that cross the chain/medium split back and forth.
    #[test]
    fn issr_deferral_transitions() {
        fn cases<I: KernelIndex>() {
            let n = usize::from(issr_accumulators(I::IDX_SIZE));
            let m = usize::from(MEDIUM_MIN);
            let (l, l2) = (usize::from(LONG_ROW_GROUPS) * n, 5 * n + 3);
            let table: [(&str, Vec<usize>); 10] = [
                ("single long row", vec![l2]),
                ("long to long, last row in bank A", vec![l, l2 + 1, l]),
                ("long to long, last row in bank B", vec![l2, l, l2 + n - 1, l]),
                ("flushes to short and empty rows", vec![l, 1, l, l2, 2, l, 0, l2, l, 0, 3]),
                ("rows of exactly n_acc", vec![n, n, l, n, l, l2, n, n]),
                ("long rows around empty ones", vec![0, l2, 0, 0, l, l, 0]),
                ("medium, chain, medium", vec![2 * n, m - 1, m + 1, 1, l - 1, 2, m]),
                ("chain, medium, long, medium", vec![3, m + 3, l, 2 * n + 1, l2, l - 1, m - 1]),
                ("empty rows between medium rows", vec![m + 2, 0, 0, l - 1, 0, m, 0, 2 * n]),
                ("across the chain/medium split", vec![5, 6, 5, 7, 4, 6, 0, 6, l - 1, 5]),
            ];
            for (case, lengths) in table {
                check_rows::<I>(&lengths, case);
            }
        }
        cases::<u16>();
        cases::<u32>();
    }

    /// The last row reads the word after the row pointers and drops it.
    /// With an even pointer count (63 rows) there is no padding word: the
    /// read lands on the first value, the next region of the layout, and
    /// the result is still the oracle's, in both widths.
    #[test]
    fn the_read_past_the_row_pointers_lands_on_the_values() {
        fn check<I: KernelIndex>() {
            let mut rng = gen::rng(0x0E4C);
            let m = gen::csr_uniform::<I>(&mut rng, 63, 128, 300);
            let x = gen::dense_vector(&mut rng, 128);
            let (sim, addrs, _) = harness::single_cc(
                CcParams::paper(),
                OnTrap::Panic,
                |arena, mem| place_csrmv(arena, mem, &m, &x),
                |addrs| build_csrmv::<I>(Variant::Issr, addrs),
                200_000,
            )
            .unwrap();
            assert_eq!(ptr_over_read(addrs.a.ptr, addrs.a.nrows), addrs.a.vals);
            let y = sim.mem.array().load_f64_slice(addrs.y, m.nrows());
            assert!(allclose(&y, &reference::csrmv(&m, &x), 1e-12, 1e-12), "{} B", I::BYTES);
        }
        check::<u16>();
        check::<u32>();
    }

    /// Every kernel that runs the ISSR row loop lays its compact block
    /// out on whole L0 lines: it starts on a line and ends in the L0's
    /// last line, so a worker's L0 holds the whole block (one slot more
    /// and the block spills into a fifth line and moves all code behind).
    #[test]
    fn the_compact_block_fills_the_l0_exactly() {
        let icache = ICacheParams::default();
        let per_line = (icache.line_bytes / 4) as usize;
        let kernels = ["csrmv", "csrmm", "cluster_csrmv", "system_csrmv"];
        let mut checked = 0;
        for e in crate::catalog::catalog() {
            let (kernel, rest) = e.name.split_once('/').unwrap();
            if !(kernels.contains(&kernel) && rest.starts_with("issr/")) {
                continue;
            }
            let start = e.program.symbol("issr_compact").expect("the ISSR row loop");
            let len = e.program.symbol("issr_row_end").unwrap() - start;
            assert_eq!(start % per_line, 0, "{}: block at slot {start}", e.name);
            assert_eq!(len.div_ceil(per_line), icache.l0_lines, "{}: {len} slots", e.name);
            checked += 1;
        }
        assert_eq!(checked, 2 * kernels.len(), "both index widths of each kernel");
    }

    /// Long rows cost the ISSR-16 kernel at most four cycles each above
    /// the index port's floor of 1.25 cycles per element (Fig. 4b's
    /// 256 nnz/row point): the deferred reduction hides under the next
    /// row's head.
    #[test]
    fn issr16_long_rows_run_near_the_port_floor() {
        let mut rng = gen::rng(0x000F_164B + 256);
        let m = gen::csr_fixed_row_nnz::<u16>(&mut rng, 64, 2048, 256);
        let x = gen::dense_vector(&mut rng, 2048);
        let cycles = run_csrmv(Variant::Issr, &m, &x).unwrap().summary.metrics.roi.cycles;
        assert!(cycles <= 64 * (320 + 4), "{cycles} cycles for 64 rows of 256");
    }

    /// Rows of six and seven take the medium path: ISSR-16 rows of six
    /// or seven elements cost no more than rows of eight (Fig. 4b's
    /// generator; a dependent chain costs 27 and 31 cycles a row, the
    /// medium path 20.5).
    #[test]
    fn issr16_rows_of_six_and_seven_cost_no_more_than_rows_of_eight() {
        let cycles = |row_nnz: usize| {
            let mut rng = gen::rng(0x000F_164B + row_nnz as u64);
            let m = gen::csr_fixed_row_nnz::<u32>(&mut rng, 64, 2048, row_nnz);
            let x = gen::dense_vector(&mut rng, 2048);
            let m16 = m.with_index_width::<u16>();
            run_csrmv(Variant::Issr, &m16, &x).unwrap().summary.metrics.roi.cycles
        };
        let eight = cycles(8);
        for row_nnz in [6, 7] {
            let c = cycles(row_nnz);
            assert!(c <= eight, "{c} cycles for 64 rows of {row_nnz}, {eight} for rows of 8");
        }
    }

    /// Medium rows reduce in place over the medium group, one `fadd`
    /// level short of the 8-way tree: ISSR-16 rows of 16 cost at most 29
    /// cycles each (Fig. 4b's 16 nnz/row point; the index port's floor
    /// is 20).
    #[test]
    fn issr16_medium_rows_reduce_over_four_accumulators() {
        let mut rng = gen::rng(0x000F_164B + 16);
        let m = gen::csr_fixed_row_nnz::<u16>(&mut rng, 64, 2048, 16);
        let x = gen::dense_vector(&mut rng, 2048);
        let cycles = run_csrmv(Variant::Issr, &m, &x).unwrap().summary.metrics.roi.cycles;
        assert!(cycles <= 64 * 29, "{cycles} cycles for 64 rows of 16");
    }

    /// Fig. 4b's asymptote: ISSR-16 speedup over BASE approaches 7.2×
    /// on dense rows; ISSR-32 approaches 6.0×.
    #[test]
    fn speedup_limits_on_dense_rows() {
        let mut rng = gen::rng(11);
        let m32 = gen::csr_fixed_row_nnz::<u32>(&mut rng, 24, 512, 128);
        let m16 = m32.with_index_width::<u16>();
        let x = gen::dense_vector(&mut rng, 512);
        let base = run_csrmv(Variant::Base, &m32, &x).unwrap().summary.metrics.roi.cycles;
        let issr16 = run_csrmv(Variant::Issr, &m16, &x).unwrap().summary.metrics.roi.cycles;
        let issr32 = run_csrmv(Variant::Issr, &m32, &x).unwrap().summary.metrics.roi.cycles;
        let s16 = issr_trace::ratio(base as f64, issr16 as f64);
        let s32 = issr_trace::ratio(base as f64, issr32 as f64);
        assert!(s16 > 5.5 && s16 <= 7.3, "ISSR-16 speedup {s16:.2}");
        assert!(s32 > 4.8 && s32 <= 6.1, "ISSR-32 speedup {s32:.2}");
        assert!(s16 > s32, "16-bit must win on dense rows");
    }
}
