//! Shared assembly idioms: streamer job setup and reduction trees.

use crate::layout::FiberAddrs;
use crate::variant::KernelIndex;
use issr_core::cfg::{cfg_addr, idx_cfg_word, reg as sreg};
use issr_isa::asm::Assembler;
use issr_isa::reg::{FpReg, IntReg};

/// Scratch register used by the setup emitters (clobbered).
pub const SETUP_SCRATCH: IntReg = IntReg::T0;

/// The constant-zero FP register kernels keep (`fz`), used to seed
/// accumulators without explicit zeroing (the CsrMV row heads).
pub const FZ: FpReg = FpReg::FT8; // f28

/// First accumulator register (`ft2`, as in Listing 1).
pub const ACC0: FpReg = FpReg::FT2;

/// Emits the configuration of an affine read job on `lane`:
/// `count` elements of `stride` bytes from `base`. Clobbers
/// [`SETUP_SCRATCH`]. The job launches at the final pointer write.
pub fn emit_affine_read(asm: &mut Assembler, lane: u8, base: u32, count: u32, stride: i32) {
    emit_affine_job(asm, sreg::RPTR[0], lane, base, count, stride);
}

/// Emits an affine *write* job on `lane` (unit-stride store stream).
pub fn emit_affine_write(asm: &mut Assembler, lane: u8, base: u32, count: u32, stride: i32) {
    emit_affine_job(asm, sreg::WPTR[0], lane, base, count, stride);
}

/// An affine job launched through pointer register `launch`.
fn emit_affine_job(asm: &mut Assembler, launch: u16, lane: u8, base: u32, count: u32, stride: i32) {
    assert!(count > 0, "affine job needs at least one element");
    let t = SETUP_SCRATCH;
    asm.li(t, i64::from(count) - 1);
    asm.scfgwi(t, cfg_addr(sreg::BOUNDS[0], lane));
    asm.li(t, i64::from(stride));
    asm.scfgwi(t, cfg_addr(sreg::STRIDES[0], lane));
    asm.li_addr(t, base);
    asm.scfgwi(t, cfg_addr(launch, lane));
}

/// Emits the configuration of an indirection read job on `lane`:
/// `count` elements gathered from `data_base` at the indices stored at
/// `idx_base` (width `I`), with an optional extra `shift` for
/// power-of-two-strided axes. Clobbers [`SETUP_SCRATCH`].
pub fn emit_indirect_read<I: KernelIndex>(
    asm: &mut Assembler,
    lane: u8,
    idx_base: u32,
    count: u32,
    shift: u32,
    data_base: u32,
) {
    emit_indirect_job::<I>(asm, sreg::RPTR[0], lane, idx_base, count, shift, data_base);
}

/// Emits the indirection *write* (scatter) job configuration on `lane`.
pub fn emit_indirect_write<I: KernelIndex>(
    asm: &mut Assembler,
    lane: u8,
    idx_base: u32,
    count: u32,
    shift: u32,
    data_base: u32,
) {
    emit_indirect_job::<I>(asm, sreg::WPTR[0], lane, idx_base, count, shift, data_base);
}

/// An indirection job launched through pointer register `launch`.
fn emit_indirect_job<I: KernelIndex>(
    asm: &mut Assembler,
    launch: u16,
    lane: u8,
    idx_base: u32,
    count: u32,
    shift: u32,
    data_base: u32,
) {
    assert!(count > 0, "indirection job needs at least one element");
    let t = SETUP_SCRATCH;
    asm.li(t, i64::from(count) - 1);
    asm.scfgwi(t, cfg_addr(sreg::BOUNDS[0], lane));
    asm.li(t, i64::from(idx_cfg_word(I::IDX_SIZE, shift)));
    asm.scfgwi(t, cfg_addr(sreg::IDX_CFG, lane));
    asm.li_addr(t, data_base);
    asm.scfgwi(t, cfg_addr(sreg::DATA_BASE, lane));
    asm.li_addr(t, idx_base);
    asm.scfgwi(t, cfg_addr(launch, lane));
}

/// Emits the configuration and launch of an index-joiner job (lanes 0
/// and 1) under the `JOIN_CFG` word `cfg_word` (mode and index width,
/// [`issr_core::cfg::join_cfg_word`]): stream A's indices select
/// its values, stream B likewise. Counts may be zero. Clobbers
/// [`SETUP_SCRATCH`].
pub fn emit_joiner_job(asm: &mut Assembler, cfg_word: u32, a: FiberAddrs, b: FiberAddrs) {
    let t = SETUP_SCRATCH;
    asm.li(t, i64::from(cfg_word));
    asm.scfgwi(t, cfg_addr(sreg::JOIN_CFG, 0));
    asm.li_addr(t, a.vals);
    asm.scfgwi(t, cfg_addr(sreg::DATA_BASE, 0));
    asm.li_addr(t, b.idcs);
    asm.scfgwi(t, cfg_addr(sreg::JOIN_IDX_B, 0));
    asm.li_addr(t, b.vals);
    asm.scfgwi(t, cfg_addr(sreg::JOIN_DATA_B, 0));
    asm.li(t, i64::from(a.nnz));
    asm.scfgwi(t, cfg_addr(sreg::JOIN_NNZ_A, 0));
    asm.li(t, i64::from(b.nnz));
    asm.scfgwi(t, cfg_addr(sreg::JOIN_NNZ_B, 0));
    asm.li_addr(t, a.idcs);
    asm.scfgwi(t, cfg_addr(sreg::RPTR[0], 0));
}

/// Emits the static sparse-accumulator configuration (index width).
/// Feed/drain launches are register-driven and stay in the kernels.
/// Clobbers [`SETUP_SCRATCH`].
pub fn emit_spacc_cfg<I: KernelIndex>(asm: &mut Assembler) {
    let t = SETUP_SCRATCH;
    asm.li(t, i64::from(issr_core::cfg::acc_cfg_word(I::IDX_SIZE)));
    asm.scfgwi(t, cfg_addr(sreg::ACC_CFG, 0));
}

/// The steps `acc[dst] += acc[src]` of [`emit_reduction_tree`], in
/// issue order.
pub(crate) fn reduction_steps(n: u8) -> Vec<(u8, u8)> {
    let mut steps = Vec::new();
    let mut gap = 1u8;
    while gap < n {
        steps.extend((0..n - gap).step_by(2 * usize::from(gap)).map(|k| (k, k + gap)));
        gap *= 2;
    }
    steps
}

/// Emits a pairwise reduction tree over the accumulator group
/// `base .. base + n`, leaving the sum in `base`. Uses gap doubling, so
/// the depth is `ceil(log2 n)` — the dependent-add latency the 16-bit
/// kernels pay for their larger accumulator group.
pub fn emit_reduction_tree(asm: &mut Assembler, base: FpReg, n: u8) {
    for (dst, src) in reduction_steps(n) {
        asm.fadd_d(base.offset(dst), base.offset(dst), base.offset(src));
    }
}

/// Emits zero-initialization of the accumulator group via `fcvt.d.w`
/// (Listing 1's `fcvt.d.w ft2, zero`).
pub fn emit_zero_accumulators(asm: &mut Assembler, base: FpReg, n: u8) {
    for k in 0..n {
        asm.fcvt_d_w(base.offset(k), IntReg::ZERO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_tree_shape() {
        // n = 8: 7 adds; n = 4: 3; n = 3: 2; n = 1: 0.
        for (n, expect) in [(8u8, 7usize), (4, 3), (3, 2), (2, 1), (1, 0)] {
            let mut a = Assembler::new();
            emit_reduction_tree(&mut a, ACC0, n);
            assert_eq!(a.finish().unwrap().len(), expect, "n = {n}");
        }
    }

    #[test]
    fn reduction_tree_sums_correctly() {
        // Execute the tree on the FPU model via a tiny program.
        use issr_snitch::cc::{SingleCcSim, SINGLE_CC_ARENA};
        let n = 8u8;
        let mut a = Assembler::new();
        // Materialize acc_k = k + 1 via integer converts.
        for k in 0..n {
            a.li(IntReg::T1, i64::from(k) + 1);
            a.push(issr_isa::instr::Instr::FcvtDW { rd: ACC0.offset(k), rs1: IntReg::T1 });
        }
        emit_reduction_tree(&mut a, ACC0, n);
        a.li_addr(IntReg::A0, SINGLE_CC_ARENA);
        a.fsd(ACC0, IntReg::A0, 0);
        a.halt();
        let mut sim = SingleCcSim::new(a.finish().unwrap());
        sim.run(1000).unwrap();
        assert_eq!(sim.mem.array().load_f64(SINGLE_CC_ARENA), 36.0);
    }

    #[test]
    fn setup_emitters_produce_launches() {
        let mut a = Assembler::new();
        emit_affine_read(&mut a, 0, 0x0030_0000, 64, 8);
        emit_indirect_read::<u16>(&mut a, 1, 0x0030_4000, 64, 0, 0x0030_8000);
        let p = a.finish().unwrap();
        let launches = p
            .instrs()
            .iter()
            .filter(|i| {
                matches!(i, issr_isa::instr::Instr::Scfgwi { addr, .. }
                    if issr_core::cfg::split_addr(*addr).0 == sreg::RPTR[0])
            })
            .count();
        assert_eq!(launches, 2);
    }
}
