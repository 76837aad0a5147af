//! Sparse-sparse kernels on the index joiner: SpVV∩ and SpMSpV.
//!
//! Two variants each, for 16- and 32-bit indices:
//!
//! * **BASE** — the classic software two-pointer merge: load both head
//!   indices, branch three ways, advance cursors — around ten
//!   instructions per merge step for a single `fmadd` per match;
//! * **ISSR** — the joiner (lanes 0/1, gather-A mode) matches the index
//!   streams in hardware and the loop collapses to one staggered
//!   `fmadd.d` under FREP, with a *static* trip count (the A-side
//!   length) because the absent side zero-fills.
//!
//! SpMSpV runs the same merge once per CSR row against the shared
//! sparse vector: BASE re-scans `x` in software; ISSR relaunches the
//! joiner per row through the one-deep shadow queue, overlapping the
//! next row's setup with the current row's drain.
//!
//! True `Intersect` streaming (data-dependent emission count) runs the
//! **stream-terminate** loop ([`build_spvv_ss_term`], `frep.s`): the
//! joiner raises `done` into the FREP sequencer, so the loop ends when
//! the matched-pair stream dries up — each index stream is walked once,
//! and the loop runs one `fmadd` per match. This is the only way a
//! kernel ends a stream whose length it cannot know up front.

use crate::common::{emit_joiner_job, emit_reduction_tree, emit_zero_accumulators, ACC0, FZ};
use crate::harness::{self, OnTrap};
use crate::layout::{alloc_result, place_csr, place_fiber, Arena, CsrAddrs, FiberAddrs};
use crate::variant::{issr_accumulators, log_width, KernelIndex, Variant};
use issr_core::cfg::{cfg_addr, join_cfg_word, reg as sreg, JoinerMode};
use issr_isa::asm::{Assembler, Label, Program};
use issr_isa::instr::Stagger;
use issr_isa::reg::{FpReg, IntReg as R};
use issr_mem::array::MemArray;
use issr_snitch::cc::{RunSummary, SimTimeout};
use issr_snitch::params::CcParams;
use issr_sparse::csr::CsrMatrix;
use issr_sparse::fiber::SparseFiber;

/// Addresses the sparse-sparse SpVV builders bake into the program.
#[derive(Clone, Copy, Debug)]
pub struct SpvvSsAddrs {
    /// The A-side sparse fiber.
    pub a: FiberAddrs,
    /// The B-side sparse fiber.
    pub b: FiberAddrs,
    /// Result slot (one double).
    pub out: u32,
}

/// Builds the sparse-sparse SpVV program for `variant` with `I`-width
/// indices.
///
/// # Panics
/// Panics for [`Variant::Ssr`]: with both operands sparse there is no
/// meaningful half-streamed variant — the paper's taxonomy degenerates
/// to BASE vs. joiner.
#[must_use]
pub fn build_spvv_ss<I: KernelIndex>(variant: Variant, addrs: SpvvSsAddrs) -> Program {
    let mut asm = Assembler::new();
    match variant {
        Variant::Base => emit_base_spvv_ss::<I>(&mut asm, addrs),
        Variant::Issr => emit_issr_spvv_ss::<I>(&mut asm, addrs),
        Variant::Ssr => panic!("sparse-sparse kernels define BASE and ISSR variants only"),
    }
    asm.halt();
    asm.finish().expect("SpVV∩ program assembles")
}

/// BASE: the software two-pointer merge.
fn emit_base_spvv_ss<I: KernelIndex>(asm: &mut Assembler, addrs: SpvvSsAddrs) {
    let acc = FpReg::FS0;
    let (va, vb) = (FpReg::FT6, FpReg::FT7);
    asm.li_addr(R::S4, addrs.a.idcs);
    asm.li_addr(R::S5, addrs.a.vals);
    asm.li_addr(R::S6, addrs.b.idcs);
    asm.li_addr(R::S7, addrs.b.vals);
    asm.li_addr(R::T4, addrs.a.idcs + addrs.a.nnz * I::BYTES);
    asm.li_addr(R::T5, addrs.b.idcs + addrs.b.nnz * I::BYTES);
    asm.li_addr(R::A2, addrs.out);
    asm.roi_begin();
    asm.fcvt_d_w(acc, R::ZERO);
    let done = asm.new_label();
    if addrs.a.nnz == 0 || addrs.b.nnz == 0 {
        asm.j(done);
    }
    let head = asm.bind_label();
    asm.symbol("merge_loop");
    let adv_a = asm.new_label();
    let adv_b = asm.new_label();
    asm.beq(R::S4, R::T4, done); //      A exhausted
    asm.beq(R::S6, R::T5, done); //      B exhausted
    I::emit_index_load(asm, R::T0, R::S4, 0);
    I::emit_index_load(asm, R::T1, R::S6, 0);
    asm.blt(R::T0, R::T1, adv_a);
    asm.blt(R::T1, R::T0, adv_b);
    asm.fld(va, R::S5, 0); //            match: one useful fmadd
    asm.fld(vb, R::S7, 0);
    asm.fmadd_d(acc, va, vb, acc);
    asm.addi(R::S4, R::S4, I::BYTES as i32);
    asm.addi(R::S5, R::S5, 8);
    asm.bind(adv_b);
    asm.addi(R::S6, R::S6, I::BYTES as i32);
    asm.addi(R::S7, R::S7, 8);
    asm.j(head);
    asm.bind(adv_a);
    asm.addi(R::S4, R::S4, I::BYTES as i32);
    asm.addi(R::S5, R::S5, 8);
    asm.j(head);
    asm.bind(done);
    asm.fsd(acc, R::A2, 0);
    asm.roi_end();
}

/// ISSR: joiner in gather-A mode, one staggered `fmadd` under FREP with
/// the static A-side trip count.
fn emit_issr_spvv_ss<I: KernelIndex>(asm: &mut Assembler, addrs: SpvvSsAddrs) {
    let n_acc = issr_accumulators(I::IDX_SIZE);
    asm.li_addr(R::A2, addrs.out);
    asm.roi_begin();
    if addrs.a.nnz == 0 {
        asm.fcvt_d_w(ACC0, R::ZERO);
        asm.fsd(ACC0, R::A2, 0);
        asm.roi_end();
        return;
    }
    emit_joiner_job(asm, join_cfg_word(JoinerMode::GatherA, I::IDX_SIZE), addrs.a, addrs.b);
    asm.csrsi(issr_isa::Csr::Ssr, 1);
    emit_zero_accumulators(asm, ACC0, n_acc);
    asm.li(R::T1, i64::from(addrs.a.nnz) - 1);
    asm.frep_outer(R::T1, 1, Stagger::accumulator(n_acc));
    asm.symbol("issr_ss_body");
    asm.fmadd_d(ACC0, FpReg::FT0, FpReg::FT1, ACC0);
    emit_reduction_tree(asm, ACC0, n_acc);
    asm.fsd(ACC0, R::A2, 0);
    asm.roi_end();
    asm.csrci(issr_isa::Csr::Ssr, 1);
}

/// Builds the *single-pass* dynamic SpVV∩: a true `Intersect` job ended
/// by the **stream-terminate flag**. The joiner streams matched pairs of
/// data-dependent count and raises `done` into the FREP sequencer; the
/// compute loop is one staggered `fmadd` under `frep.s`, which replays
/// until the streams terminate — each index stream is walked **once**,
/// and the loop runs exactly one `fmadd` per match (zero for disjoint
/// operands) without any pre-counted trip.
#[must_use]
pub fn build_spvv_ss_term<I: KernelIndex>(addrs: SpvvSsAddrs) -> Program {
    let n_acc = issr_accumulators(I::IDX_SIZE);
    let mut asm = Assembler::new();
    asm.li_addr(R::A2, addrs.out);
    asm.roi_begin();
    // No zero-operand special case: an empty side terminates the joiner
    // immediately and the frep.s body runs zero times.
    emit_joiner_job(&mut asm, join_cfg_word(JoinerMode::Intersect, I::IDX_SIZE), addrs.a, addrs.b);
    asm.csrsi(issr_isa::Csr::Ssr, 1);
    emit_zero_accumulators(&mut asm, ACC0, n_acc);
    asm.frep_stream(1, Stagger::accumulator(n_acc));
    asm.symbol("issr_term_body");
    asm.fmadd_d(ACC0, FpReg::FT0, FpReg::FT1, ACC0);
    emit_reduction_tree(&mut asm, ACC0, n_acc);
    asm.fsd(ACC0, R::A2, 0);
    asm.roi_end();
    asm.csrci(issr_isa::Csr::Ssr, 1);
    asm.halt();
    asm.finish().expect("stream-terminated SpVV∩ program assembles")
}

/// Addresses the SpMSpV builders bake into the program.
#[derive(Clone, Copy, Debug)]
pub struct SpmspvAddrs {
    /// The CSR matrix.
    pub a: CsrAddrs,
    /// The sparse vector operand.
    pub x: FiberAddrs,
    /// Result vector base (`nrows` doubles, dense).
    pub y: u32,
}

/// Builds the SpMSpV program.
///
/// # Panics
/// Panics for [`Variant::Ssr`] (see [`build_spvv_ss`]).
#[must_use]
pub fn build_spmspv<I: KernelIndex>(variant: Variant, addrs: SpmspvAddrs) -> Program {
    let mut asm = Assembler::new();
    match variant {
        Variant::Base => emit_base_spmspv::<I>(&mut asm, addrs),
        Variant::Issr => emit_issr_spmspv::<I>(&mut asm, addrs),
        Variant::Ssr => panic!("sparse-sparse kernels define BASE and ISSR variants only"),
    }
    asm.halt();
    asm.finish().expect("SpMSpV program assembles")
}

/// BASE: the two-pointer merge of each row against `x`, re-scanned per
/// row.
///
/// Register roles: `s0` `&ptr[i+1]`, `s1` `&y[i]`, `s2` rows remaining,
/// `s3` A index base, `s4`/`s5` running A index/value cursors, `s6`/`s7`
/// `x` index/value bases, `s8` `x` index end; `t*` per-row scratch.
fn emit_base_spmspv<I: KernelIndex>(asm: &mut Assembler, addrs: SpmspvAddrs) {
    let log_w = log_width::<I>();
    asm.li_addr(R::S0, addrs.a.ptr + 4);
    asm.li_addr(R::S1, addrs.y);
    asm.li(R::S2, i64::from(addrs.a.nrows));
    asm.li_addr(R::S3, addrs.a.idcs);
    asm.li_addr(R::S4, addrs.a.idcs);
    asm.li_addr(R::S5, addrs.a.vals);
    asm.li_addr(R::S6, addrs.x.idcs);
    asm.li_addr(R::S7, addrs.x.vals);
    asm.li_addr(R::S8, addrs.x.idcs + addrs.x.nnz * I::BYTES);
    asm.roi_begin();
    if addrs.a.nrows > 0 {
        let outer = asm.bind_label();
        asm.symbol("base_row");
        asm.lw(R::T5, R::S0, 0); //          ptr[i+1]
        asm.addi(R::S0, R::S0, 4);
        asm.fcvt_d_w(FpReg::FS0, R::ZERO);
        asm.slli(R::T4, R::T5, log_w); //    row index end
        asm.add(R::T4, R::T4, R::S3);
        emit_base_row_merge::<I>(asm, outer);
    }
    asm.roi_end();
}

/// Emits the BASE two-pointer merge of one matrix row against `x` and
/// the row epilogue. On entry `s4`/`s5` are the A index/value cursors,
/// `t4` the row's index end, `s6`/`s7`/`s8` x's index base, value base
/// and index end, `fs0` the zeroed accumulator; stores `y[i]` through
/// `s1` and loops to `outer` while `s2` rows remain.
pub(crate) fn emit_base_row_merge<I: KernelIndex>(asm: &mut Assembler, outer: Label) {
    let log_w = log_width::<I>();
    let acc = FpReg::FS0;
    let (va, vx) = (FpReg::FT6, FpReg::FT7);
    asm.mv(R::T2, R::S6); //             x cursors rewind per row
    asm.mv(R::T3, R::S7);
    let inner = asm.bind_label();
    let row_skip = asm.new_label();
    let row_done = asm.new_label();
    let adv_a = asm.new_label();
    let adv_x = asm.new_label();
    asm.beq(R::S4, R::T4, row_done); //  row exhausted
    asm.beq(R::T2, R::S8, row_skip); //  x exhausted
    I::emit_index_load(asm, R::T0, R::S4, 0);
    I::emit_index_load(asm, R::T1, R::T2, 0);
    asm.blt(R::T0, R::T1, adv_a);
    asm.blt(R::T1, R::T0, adv_x);
    asm.fld(va, R::S5, 0);
    asm.fld(vx, R::T3, 0);
    asm.fmadd_d(acc, va, vx, acc);
    asm.addi(R::S4, R::S4, I::BYTES as i32);
    asm.addi(R::S5, R::S5, 8);
    asm.bind(adv_x);
    asm.addi(R::T2, R::T2, I::BYTES as i32);
    asm.addi(R::T3, R::T3, 8);
    asm.j(inner);
    asm.bind(adv_a);
    asm.addi(R::S4, R::S4, I::BYTES as i32);
    asm.addi(R::S5, R::S5, 8);
    asm.j(inner);
    // x drained early: skip the rest of the row's fiber.
    asm.bind(row_skip);
    asm.sub(R::T0, R::T4, R::S4);
    asm.slli(R::T0, R::T0, 3 - log_w); // index bytes → value bytes
    asm.add(R::S5, R::S5, R::T0);
    asm.mv(R::S4, R::T4);
    asm.bind(row_done);
    asm.fsd(acc, R::S1, 0);
    asm.addi(R::S1, R::S1, 8);
    asm.addi(R::S2, R::S2, -1);
    asm.bnez(R::S2, outer);
}

/// Emits the static joiner configuration of the ISSR row loops —
/// gather-A mode and the shared B side `x` — zeroes `fz` and enables the
/// streamer.
pub(crate) fn emit_gather_x_cfg<I: KernelIndex>(asm: &mut Assembler, x: FiberAddrs) {
    asm.li(R::T0, i64::from(join_cfg_word(JoinerMode::GatherA, I::IDX_SIZE)));
    asm.scfgwi(R::T0, cfg_addr(sreg::JOIN_CFG, 0));
    asm.li_addr(R::T0, x.idcs);
    asm.scfgwi(R::T0, cfg_addr(sreg::JOIN_IDX_B, 0));
    asm.li_addr(R::T0, x.vals);
    asm.scfgwi(R::T0, cfg_addr(sreg::JOIN_DATA_B, 0));
    asm.li(R::T0, i64::from(x.nnz));
    asm.scfgwi(R::T0, cfg_addr(sreg::JOIN_NNZ_B, 0));
    asm.fcvt_d_w(FZ, R::ZERO);
    asm.csrsi(issr_isa::Csr::Ssr, 1);
}

/// ISSR: one joiner job per row (gather-A against the shared `x`); the
/// B side stays configured, each row rewrites only its A-side count,
/// value base and launch pointer. The one-deep shadow queue overlaps
/// row *i+1*'s launch with row *i*'s drain.
///
/// Register roles: `s0` `&ptr[i+1]`, `s1` `&y[i]`, `s2` rows remaining,
/// `s3` previous row start `ptr[i]`, `s6` A index base, `s7` A value
/// base; `t*` per-row scratch.
fn emit_issr_spmspv<I: KernelIndex>(asm: &mut Assembler, addrs: SpmspvAddrs) {
    let n_acc = issr_accumulators(I::IDX_SIZE);
    let log_w = log_width::<I>();
    asm.li_addr(R::S0, addrs.a.ptr + 4);
    asm.li_addr(R::S1, addrs.y);
    asm.li(R::S2, i64::from(addrs.a.nrows));
    asm.li(R::S3, 0);
    asm.li_addr(R::S6, addrs.a.idcs);
    asm.li_addr(R::S7, addrs.a.vals);
    asm.roi_begin();
    if addrs.a.nrows > 0 {
        emit_gather_x_cfg::<I>(asm, addrs.x);
        let outer = asm.bind_label();
        asm.symbol("issr_row");
        let zero_row = asm.new_label();
        let row_done = asm.new_label();
        asm.lw(R::T5, R::S0, 0); //          ptr[i+1]
        asm.addi(R::S0, R::S0, 4);
        asm.sub(R::T1, R::T5, R::S3); //     row nnz
        asm.beqz(R::T1, zero_row);
        asm.slli(R::T2, R::S3, log_w); //    row index base
        asm.add(R::T2, R::T2, R::S6);
        asm.slli(R::T3, R::S3, 3); //        row value base
        asm.add(R::T3, R::T3, R::S7);
        asm.scfgwi(R::T1, cfg_addr(sreg::JOIN_NNZ_A, 0));
        asm.scfgwi(R::T3, cfg_addr(sreg::DATA_BASE, 0));
        asm.scfgwi(R::T2, cfg_addr(sreg::RPTR[0], 0)); // launch (retries)
        emit_zero_accumulators(asm, ACC0, n_acc);
        asm.addi(R::T1, R::T1, -1);
        asm.frep_outer(R::T1, 1, Stagger::accumulator(n_acc));
        asm.fmadd_d(ACC0, FpReg::FT0, FpReg::FT1, ACC0);
        emit_reduction_tree(asm, ACC0, n_acc);
        asm.fsd(ACC0, R::S1, 0);
        asm.j(row_done);
        asm.bind(zero_row);
        asm.fsd(FZ, R::S1, 0);
        asm.bind(row_done);
        asm.mv(R::S3, R::T5);
        asm.addi(R::S1, R::S1, 8);
        asm.addi(R::S2, R::S2, -1);
        asm.bnez(R::S2, outer);
        asm.csrci(issr_isa::Csr::Ssr, 1);
    }
    asm.roi_end();
}

/// Result of one sparse-sparse SpVV run.
#[derive(Clone, Debug)]
pub struct SpvvSsRun {
    /// The computed dot product.
    pub result: f64,
    /// Cycle-level summary.
    pub summary: RunSummary,
}

/// Places the two fibers and the result slot.
pub(crate) fn place_spvv_ss<I: KernelIndex>(
    arena: &mut Arena,
    mem: &mut MemArray,
    a: &SparseFiber<I>,
    b: &SparseFiber<I>,
) -> SpvvSsAddrs {
    SpvvSsAddrs {
        a: place_fiber(arena, mem, a),
        b: place_fiber(arena, mem, b),
        out: alloc_result(arena, 1),
    }
}

/// One SpVV∩ run on the joiner hardware with the program `build`
/// bakes, budgeted at `cycles_per_nnz` per stored element.
fn run_spvv_ss_on<I: KernelIndex>(
    a: &SparseFiber<I>,
    b: &SparseFiber<I>,
    build: impl FnOnce(SpvvSsAddrs) -> Program,
    cycles_per_nnz: u64,
) -> Result<SpvvSsRun, SimTimeout> {
    let (sim, addrs, summary) = harness::single_cc(
        CcParams::sssr(),
        OnTrap::Panic,
        |arena, mem| place_spvv_ss(arena, mem, a, b),
        build,
        100_000 + cycles_per_nnz * (a.nnz() + b.nnz()) as u64,
    )?;
    Ok(SpvvSsRun { result: sim.mem.array().load_f64(addrs.out), summary })
}

/// Marshals the two fibers, runs SpVV∩ on the single-CC setup (with the
/// joiner streamer for the ISSR variant), and returns the result.
///
/// # Errors
/// Returns [`SimTimeout`] if the kernel fails to finish (a bug).
pub fn run_spvv_ss<I: KernelIndex>(
    variant: Variant,
    a: &SparseFiber<I>,
    b: &SparseFiber<I>,
) -> Result<SpvvSsRun, SimTimeout> {
    run_spvv_ss_on(a, b, |addrs| build_spvv_ss::<I>(variant, addrs), 64)
}

/// Marshals the two fibers and runs the single-pass stream-terminated
/// SpVV∩ ([`build_spvv_ss_term`]) on the joiner hardware.
///
/// # Errors
/// Returns [`SimTimeout`] if the kernel fails to finish (a bug).
pub fn run_spvv_ss_term<I: KernelIndex>(
    a: &SparseFiber<I>,
    b: &SparseFiber<I>,
) -> Result<SpvvSsRun, SimTimeout> {
    run_spvv_ss_on(a, b, build_spvv_ss_term::<I>, 64)
}

/// Result of one SpMSpV run.
#[derive(Clone, Debug)]
pub struct SpmspvRun {
    /// The computed result vector (dense, `nrows` elements).
    pub y: Vec<f64>,
    /// Cycle-level summary.
    pub summary: RunSummary,
}

/// Places the matrix, the sparse vector and the dense result.
pub(crate) fn place_spmspv<I: KernelIndex>(
    arena: &mut Arena,
    mem: &mut MemArray,
    m: &CsrMatrix<I>,
    x: &SparseFiber<I>,
) -> SpmspvAddrs {
    let a = place_csr(arena, mem, m);
    SpmspvAddrs { a, x: place_fiber(arena, mem, x), y: alloc_result(arena, a.nrows.max(1)) }
}

/// Marshals the workload, runs SpMSpV, and returns `y` with metrics.
///
/// # Errors
/// Returns [`SimTimeout`] if the kernel fails to finish (a bug).
pub fn run_spmspv<I: KernelIndex>(
    variant: Variant,
    m: &CsrMatrix<I>,
    x: &SparseFiber<I>,
) -> Result<SpmspvRun, SimTimeout> {
    // BASE re-scans x once per row; size the budget to the merge volume.
    let merge_steps = m.nnz() as u64 + m.nrows() as u64 * (x.nnz() as u64 + 4);
    let (sim, addrs, summary) = harness::single_cc(
        CcParams::sssr(),
        OnTrap::Panic,
        |arena, mem| place_spmspv(arena, mem, m, x),
        |addrs| build_spmspv::<I>(variant, addrs),
        200_000 + 64 * merge_steps,
    )?;
    Ok(SpmspvRun { y: sim.mem.array().load_f64_slice(addrs.y, m.nrows()), summary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use issr_sparse::dense::allclose;
    use issr_sparse::{gen, reference};

    fn check_spvv_ss<I: KernelIndex>(
        variant: Variant,
        nnz_a: usize,
        nnz_b: usize,
        overlap: f64,
        seed: u64,
    ) {
        let mut rng = gen::rng(seed);
        let dim = 1024;
        let (a, b) = gen::overlapping_pair::<I>(&mut rng, dim, nnz_a, nnz_b, overlap);
        let run = run_spvv_ss(variant, &a, &b).expect("kernel finishes");
        let expect = reference::spvv_ss(&a, &b);
        let tol = 1e-12 * expect.abs().max(1.0);
        assert!(
            (run.result - expect).abs() <= tol,
            "{variant} nnz=({nnz_a},{nnz_b}) overlap={overlap}: got {} expected {expect}",
            run.result
        );
    }

    #[test]
    fn base_spvv_ss_matches_reference() {
        for (nnz_a, nnz_b, overlap) in [(1, 1, 1.0), (17, 90, 0.4), (128, 128, 0.0), (60, 30, 0.9)]
        {
            check_spvv_ss::<u16>(Variant::Base, nnz_a, nnz_b, overlap, 50 + nnz_a as u64);
            check_spvv_ss::<u32>(Variant::Base, nnz_a, nnz_b, overlap, 51 + nnz_b as u64);
        }
    }

    #[test]
    fn issr_spvv_ss_matches_reference() {
        for (nnz_a, nnz_b, overlap) in
            [(1, 1, 0.0), (2, 7, 1.0), (33, 200, 0.5), (100, 100, 0.25), (256, 64, 0.75)]
        {
            check_spvv_ss::<u16>(Variant::Issr, nnz_a, nnz_b, overlap, 60 + nnz_a as u64);
            check_spvv_ss::<u32>(Variant::Issr, nnz_a, nnz_b, overlap, 61 + nnz_b as u64);
        }
    }

    #[test]
    fn spvv_ss_empty_operands() {
        let empty = SparseFiber::<u16>::new(64, vec![], vec![]).unwrap();
        let some = SparseFiber::<u16>::new(64, vec![3, 9], vec![2.0, -1.0]).unwrap();
        for variant in [Variant::Base, Variant::Issr] {
            for (a, b) in [(&empty, &some), (&some, &empty), (&empty, &empty)] {
                let run = run_spvv_ss(variant, a, b).expect("kernel finishes");
                assert_eq!(run.result, 0.0, "{variant}");
            }
        }
    }

    fn check_spmspv<I: KernelIndex>(
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
        let run = run_spmspv(variant, &m, &x).expect("kernel finishes");
        let expect = reference::spmspv(&m, &x);
        assert!(
            allclose(&run.y, &expect, 1e-12, 1e-12),
            "{variant} {nrows}x{ncols} nnz={nnz} x_nnz={x_nnz} mismatch"
        );
    }

    #[test]
    fn base_spmspv_matches_reference() {
        check_spmspv::<u16>(Variant::Base, 24, 64, 300, 20, 70);
        check_spmspv::<u32>(Variant::Base, 24, 64, 300, 20, 71);
        check_spmspv::<u16>(Variant::Base, 10, 32, 60, 0, 72); // empty x
        check_spmspv::<u32>(Variant::Base, 12, 16, 0, 8, 73); // empty matrix
    }

    #[test]
    fn issr_spmspv_matches_reference() {
        check_spmspv::<u16>(Variant::Issr, 24, 64, 300, 20, 80);
        check_spmspv::<u32>(Variant::Issr, 24, 64, 300, 20, 81);
        check_spmspv::<u16>(Variant::Issr, 10, 32, 60, 0, 82); // empty x
        check_spmspv::<u32>(Variant::Issr, 12, 16, 0, 8, 83); // empty matrix
        check_spmspv::<u16>(Variant::Issr, 40, 128, 40, 64, 84); // sparse rows
    }

    /// Rows of every length around the accumulator group size exercise
    /// the zero path, sub-group FREP counts and the full pipeline.
    #[test]
    fn issr_spmspv_row_length_edge_cases() {
        let ncols = 64;
        let n_acc = 8usize;
        let mut triplets = Vec::new();
        for (r, len) in (0..=2 * n_acc).enumerate() {
            for j in 0..len {
                triplets.push((r, (j * 5 + r) % ncols, (r + j) as f64 * 0.5 + 1.0));
            }
        }
        let m = CsrMatrix::<u16>::from_triplets(2 * n_acc + 1, ncols, &triplets);
        let x = SparseFiber::<u16>::new(
            ncols,
            (0..ncols as u16).step_by(2).collect(),
            (0..ncols).step_by(2).map(|i| i as f64 * 0.25 - 2.0).collect(),
        )
        .unwrap();
        let run = run_spmspv(Variant::Issr, &m, &x).unwrap();
        assert!(allclose(&run.y, &reference::spmspv(&m, &x), 1e-12, 1e-12));
    }

    /// The joiner variant must beat the software merge by a wide margin
    /// once rows carry enough nonzeros (the headline of the subsystem).
    #[test]
    fn issr_beats_base_merge() {
        let mut rng = gen::rng(90);
        let (a, b) = gen::overlapping_pair::<u16>(&mut rng, 4096, 600, 600, 0.5);
        let base = run_spvv_ss(Variant::Base, &a, &b).unwrap().summary.metrics.roi.cycles;
        let issr = run_spvv_ss(Variant::Issr, &a, &b).unwrap().summary.metrics.roi.cycles;
        let speedup = issr_trace::ratio(base as f64, issr as f64);
        assert!(speedup > 3.0, "SpVV∩ joiner speedup {speedup:.2} (base {base}, issr {issr})");
    }

    /// The single-pass stream-terminated (`frep.s`) variant matches the
    /// oracle across overlaps, widths and empty operands — with ONE
    /// joiner job and one `fmadd` per match.
    #[test]
    fn term_spvv_ss_matches_reference_single_pass() {
        for (nnz_a, nnz_b, overlap) in
            [(1, 1, 1.0), (2, 7, 0.0), (33, 200, 0.5), (100, 100, 0.25), (256, 64, 1.0)]
        {
            for wide in [false, true] {
                let mut rng = gen::rng(150 + nnz_a as u64 + u64::from(wide));
                let (a32, b32) =
                    gen::overlapping_pair::<u32>(&mut rng, 1024, nnz_a, nnz_b, overlap);
                let (run, expect) = if wide {
                    (
                        run_spvv_ss_term(&a32, &b32).expect("kernel finishes"),
                        reference::spvv_ss(&a32, &b32),
                    )
                } else {
                    let (a, b) = (a32.with_index_width::<u16>(), b32.with_index_width::<u16>());
                    (run_spvv_ss_term(&a, &b).expect("kernel finishes"), reference::spvv_ss(&a, &b))
                };
                let tol = 1e-12 * expect.abs().max(1.0);
                assert!(
                    (run.result - expect).abs() <= tol,
                    "term nnz=({nnz_a},{nnz_b}) overlap={overlap} wide={wide}: \
                     got {} expected {expect}",
                    run.result
                );
                let stats = run.summary.joiner_stats;
                assert_eq!(stats.jobs, 1, "single pass: exactly one joiner job");
                assert_eq!(
                    run.summary.metrics.roi.fmadds, stats.matches,
                    "one fmadd per match, no zero-fill padding"
                );
            }
        }
        let empty = SparseFiber::<u16>::new(64, vec![], vec![]).unwrap();
        let some = SparseFiber::<u16>::new(64, vec![3, 9], vec![2.0, -1.0]).unwrap();
        for (a, b) in [(&empty, &some), (&some, &empty), (&empty, &empty)] {
            let run = run_spvv_ss_term(a, b).unwrap();
            assert_eq!(run.result, 0.0);
            assert_eq!(run.summary.metrics.roi.fmadds, 0, "zero-trip stream loop");
        }
    }

    /// The terminate flag walks each index stream once: one joiner job
    /// fetches no more index words than the two arrays span.
    #[test]
    fn term_spvv_ss_walks_streams_once() {
        let mut rng = gen::rng(155);
        let (a, b) = gen::overlapping_pair::<u16>(&mut rng, 512, 64, 64, 0.25);
        let run = run_spvv_ss_term(&a, &b).unwrap();
        let expect = reference::spvv_ss(&a, &b);
        assert!((run.result - expect).abs() <= 1e-12 * expect.abs().max(1.0));
        let stats = run.summary.joiner_stats;
        assert_eq!(stats.jobs, 1);
        // An array of n 16-bit indices spans 2n / 8 words, one more at
        // an unaligned base.
        let span = |nnz: usize| (2 * nnz).div_ceil(8) as u64 + 1;
        assert!(
            stats.idx_words <= span(a.nnz()) + span(b.nnz()),
            "one walk fetches at most {} index words, got {}",
            span(a.nnz()) + span(b.nnz()),
            stats.idx_words
        );
    }

    /// Joiner activity is reported through the run summary.
    #[test]
    fn joiner_stats_surface_in_summary() {
        let mut rng = gen::rng(91);
        let (a, b) = gen::overlapping_pair::<u16>(&mut rng, 512, 64, 64, 0.5);
        let run = run_spvv_ss(Variant::Issr, &a, &b).unwrap();
        let stats = run.summary.joiner_stats;
        assert_eq!(stats.jobs, 1);
        assert_eq!(stats.emissions, 64);
        assert_eq!(stats.matches, 32);
        // BASE runs on plain hardware: no joiner activity.
        let base = run_spvv_ss(Variant::Base, &a, &b).unwrap();
        assert_eq!(base.summary.joiner_stats.jobs, 0);
    }
}
