//! Sparse-dense dot product kernels (SpVV, §III-B and Listing 1).
//!
//! Three variants, each for 16- and 32-bit indices:
//!
//! * **BASE** — the paper's nine-instruction indirection loop, scheduled
//!   so no iteration stalls (1/9 peak FPU utilization);
//! * **SSR** — the sparse values stream through `ft0`, indirection stays
//!   in software: seven instructions per nonzero (1/7 peak);
//! * **ISSR** — both operands stream (`ft0` values, `ft1` gathered dense
//!   elements); the loop body is a single staggered `fmadd.d` under
//!   FREP, peaking at the arbitration limits 0.80 (16-bit) and
//!   0.67 (32-bit). It staggers over the paper's accumulator group (8
//!   or 4 registers), or over one register per nonzero when the fiber
//!   is shorter, so a short fiber zeroes and reduces only what it
//!   writes (one nonzero: 26 cycles, not 48 with 16-bit indices).

use crate::common::{emit_indirect_read, emit_reduction_tree, emit_zero_accumulators, ACC0};
use crate::harness::{self, OnTrap};
use crate::layout::{alloc_result, place_f64s, place_fiber, Arena, FiberAddrs};
use crate::variant::{issr_accumulators, KernelIndex, Variant};
use issr_isa::asm::{Assembler, Program};
use issr_isa::instr::Stagger;
use issr_isa::reg::{FpReg, IntReg as R};
use issr_mem::array::MemArray;
use issr_snitch::cc::{RunSummary, SimTimeout};
use issr_snitch::params::CcParams;
use issr_sparse::fiber::SparseFiber;

/// Addresses the SpVV builders bake into the program.
#[derive(Clone, Copy, Debug)]
pub struct SpvvAddrs {
    /// The sparse fiber.
    pub a: FiberAddrs,
    /// Dense operand base.
    pub b: u32,
    /// Result slot (one double).
    pub out: u32,
}

/// Builds the SpVV program for `variant` with `I`-width indices.
#[must_use]
pub fn build_spvv<I: KernelIndex>(variant: Variant, addrs: SpvvAddrs) -> Program {
    let mut asm = Assembler::new();
    match variant {
        Variant::Base => emit_base::<I>(&mut asm, addrs),
        Variant::Ssr => emit_ssr::<I>(&mut asm, addrs),
        Variant::Issr => emit_issr::<I>(&mut asm, addrs),
    }
    asm.halt();
    asm.finish().expect("SpVV program assembles")
}

/// BASE: the paper's §I loop, reordered so the index load's result is
/// consumed two instructions later (no load-use stall).
fn emit_base<I: KernelIndex>(asm: &mut Assembler, addrs: SpvvAddrs) {
    let acc = FpReg::FS0;
    let (va, vi) = (FpReg::FT6, FpReg::FT7);
    asm.li_addr(R::S4, addrs.a.idcs);
    asm.li_addr(R::S5, addrs.a.vals);
    asm.li_addr(R::S6, addrs.b);
    asm.li_addr(R::S7, addrs.a.vals + addrs.a.nnz * 8); // vals end
    asm.li_addr(R::A2, addrs.out);
    asm.roi_begin();
    asm.fcvt_d_w(acc, R::ZERO);
    let done = asm.new_label();
    if addrs.a.nnz == 0 {
        asm.j(done);
    }
    let head = asm.bind_label();
    asm.symbol("base_loop");
    I::emit_index_load(asm, R::T0, R::S4, 0); // idx
    asm.fld(va, R::S5, 0); //                    a_vals[j]
    asm.slli(R::T0, R::T0, 3); //                word offset
    asm.add(R::T0, R::T0, R::S6); //             &b[idx]
    asm.fld(vi, R::T0, 0); //                    b[idx]
    asm.addi(R::S4, R::S4, I::BYTES as i32); //  index pointer
    asm.addi(R::S5, R::S5, 8); //                value pointer
    asm.fmadd_d(acc, va, vi, acc); //            the one useful op
    asm.bne(R::S5, R::S7, head); //              loop branch
    asm.bind(done);
    asm.fsd(acc, R::A2, 0);
    asm.roi_end();
}

/// SSR: `ft0` streams the sparse values; the seven-instruction software
/// indirection remains.
fn emit_ssr<I: KernelIndex>(asm: &mut Assembler, addrs: SpvvAddrs) {
    let acc = FpReg::FS0;
    let vi = FpReg::FT3; // not a stream register
    asm.li_addr(R::S4, addrs.a.idcs);
    asm.li_addr(R::S6, addrs.b);
    asm.li_addr(R::S7, addrs.a.idcs + addrs.a.nnz * I::BYTES); // idcs end
    asm.li_addr(R::A2, addrs.out);
    asm.roi_begin();
    asm.fcvt_d_w(acc, R::ZERO);
    let done = asm.new_label();
    if addrs.a.nnz == 0 {
        asm.j(done);
    } else {
        crate::common::emit_affine_read(asm, 0, addrs.a.vals, addrs.a.nnz, 8);
        asm.csrsi(issr_isa::Csr::Ssr, 1);
        let head = asm.bind_label();
        asm.symbol("ssr_loop");
        I::emit_index_load(asm, R::T0, R::S4, 0);
        asm.addi(R::S4, R::S4, I::BYTES as i32);
        asm.slli(R::T0, R::T0, 3);
        asm.add(R::T0, R::T0, R::S6);
        asm.fld(vi, R::T0, 0);
        asm.fmadd_d(acc, FpReg::FT0, vi, acc);
        asm.bne(R::S4, R::S7, head);
    }
    asm.bind(done);
    asm.fsd(acc, R::A2, 0);
    asm.roi_end();
    if addrs.a.nnz > 0 {
        asm.csrci(issr_isa::Csr::Ssr, 1);
    }
}

/// ISSR: Listing 1 — configure both streams, zero the staggered
/// accumulators, one `fmadd.d` under FREP, reduce, store. A fiber of
/// fewer nonzeros than the paper's group staggers over one accumulator
/// per nonzero: the tree over them sums what the full group's tree
/// would, without its zero-padded `fadd`s.
fn emit_issr<I: KernelIndex>(asm: &mut Assembler, addrs: SpvvAddrs) {
    asm.li_addr(R::A2, addrs.out);
    asm.roi_begin();
    if addrs.a.nnz == 0 {
        asm.fcvt_d_w(ACC0, R::ZERO);
        asm.fsd(ACC0, R::A2, 0);
        asm.roi_end();
        return;
    }
    // i) Setup (SSR over a_vals, ISSR gathering b at a_idcs).
    crate::common::emit_affine_read(asm, 0, addrs.a.vals, addrs.a.nnz, 8);
    emit_indirect_read::<I>(asm, 1, addrs.a.idcs, addrs.a.nnz, 0, addrs.b);
    asm.csrsi(issr_isa::Csr::Ssr, 1);
    let n_acc = u8::try_from(addrs.a.nnz.min(u32::from(issr_accumulators(I::IDX_SIZE))))
        .expect("no larger than the paper's group");
    emit_zero_accumulators(asm, ACC0, n_acc);
    // ii) Compute: single staggered fmadd under FREP.
    asm.li(R::T1, i64::from(addrs.a.nnz) - 1);
    asm.frep_outer(R::T1, 1, Stagger::accumulator(n_acc));
    asm.symbol("issr_body");
    asm.fmadd_d(ACC0, FpReg::FT0, FpReg::FT1, ACC0);
    // iii) Teardown: reduce and store.
    emit_reduction_tree(asm, ACC0, n_acc);
    asm.fsd(ACC0, R::A2, 0);
    asm.roi_end();
    asm.csrci(issr_isa::Csr::Ssr, 1);
}

/// Result of one SpVV run on the single-CC harness.
#[derive(Clone, Debug)]
pub struct SpvvRun {
    /// The computed dot product.
    pub result: f64,
    /// Cycle-level summary.
    pub summary: RunSummary,
}

/// Places the operands and the result slot.
pub(crate) fn place_spvv<I: KernelIndex>(
    arena: &mut Arena,
    mem: &mut MemArray,
    a: &SparseFiber<I>,
    b: &[f64],
) -> SpvvAddrs {
    SpvvAddrs {
        a: place_fiber(arena, mem, a),
        b: place_f64s(arena, mem, b),
        out: alloc_result(arena, 1),
    }
}

/// Marshals the workload, runs the kernel on the §IV-A single-CC setup,
/// and returns the result with its metrics.
///
/// # Errors
/// Returns [`SimTimeout`] if the kernel fails to finish (a bug).
pub fn run_spvv<I: KernelIndex>(
    variant: Variant,
    a: &SparseFiber<I>,
    b: &[f64],
) -> Result<SpvvRun, SimTimeout> {
    let (sim, addrs, summary) = harness::single_cc(
        CcParams::paper(),
        OnTrap::Panic,
        |arena, mem| place_spvv(arena, mem, a, b),
        |addrs| build_spvv::<I>(variant, addrs),
        100_000 + 64 * a.nnz() as u64,
    )?;
    Ok(SpvvRun { result: sim.mem.array().load_f64(addrs.out), summary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use issr_sparse::{gen, reference};

    fn check_variant<I: KernelIndex>(variant: Variant, nnz: usize) {
        let mut rng = gen::rng(100 + nnz as u64);
        let dim = 512;
        let a = gen::sparse_vector::<I>(&mut rng, dim, nnz);
        let b = gen::dense_vector(&mut rng, dim);
        let run = run_spvv(variant, &a, &b).expect("kernel finishes");
        let expect = reference::spvv(&a, &b);
        let tol = 1e-12 * expect.abs().max(1.0);
        assert!(
            (run.result - expect).abs() <= tol,
            "{variant} nnz={nnz}: got {} expected {expect}",
            run.result
        );
    }

    #[test]
    fn base_matches_reference() {
        for nnz in [0, 1, 3, 17, 128] {
            check_variant::<u32>(Variant::Base, nnz);
            check_variant::<u16>(Variant::Base, nnz);
        }
    }

    #[test]
    fn ssr_matches_reference() {
        for nnz in [0, 1, 5, 64, 200] {
            check_variant::<u32>(Variant::Ssr, nnz);
            check_variant::<u16>(Variant::Ssr, nnz);
        }
    }

    /// Every fiber length up to two groups past the paper's accumulator
    /// group (fibers shorter than the group stagger over fewer
    /// registers), and two long ones.
    #[test]
    fn issr_matches_reference() {
        fn lengths<I: KernelIndex>() {
            let n_acc = usize::from(issr_accumulators(I::IDX_SIZE));
            for nnz in (0..=2 * n_acc + 1).chain([100, 333]) {
                check_variant::<I>(Variant::Issr, nnz);
            }
        }
        lengths::<u32>();
        lengths::<u16>();
    }

    /// A fiber of `k` nonzeros, fewer than the group, zeroes `k`
    /// accumulators and reduces them with `k - 1` `fadd.d`s.
    #[test]
    fn short_issr_fibers_reduce_only_the_accumulators_they_write() {
        use issr_isa::instr::{FpOp2, Instr};
        fn shapes<I: KernelIndex>() {
            for k in 1..u32::from(issr_accumulators(I::IDX_SIZE)) {
                let a = FiberAddrs { vals: 0x1000, idcs: 0x2000, nnz: k };
                let program =
                    build_spvv::<I>(Variant::Issr, SpvvAddrs { a, b: 0x3000, out: 0x4000 });
                let count =
                    |pred: fn(&Instr) -> bool| program.instrs().iter().filter(|i| pred(i)).count();
                let zeroes = count(|i| matches!(i, Instr::FcvtDW { .. }));
                let adds = count(|i| matches!(i, Instr::FpuOp2 { op: FpOp2::FaddD, .. }));
                assert_eq!(
                    (zeroes, adds),
                    (k as usize, k as usize - 1),
                    "{} B indices, {k} nnz",
                    I::BYTES
                );
            }
        }
        shapes::<u32>();
        shapes::<u16>();
    }

    /// Fig. 4a's asymptotes: BASE → 1/9, SSR → 1/7, ISSR-32 → 2/3,
    /// ISSR-16 → 4/5 (excluding reductions).
    #[test]
    fn utilization_limits_match_paper() {
        let mut rng = gen::rng(7);
        let dim = 2048;
        let nnz = 1500;
        let a32 = gen::sparse_vector::<u32>(&mut rng, dim, nnz);
        let a16 = a32.with_index_width::<u16>();
        let b = gen::dense_vector(&mut rng, dim);

        let util = |v: Variant, wide: bool| -> f64 {
            let summary = if wide {
                run_spvv(v, &a32, &b).unwrap().summary
            } else {
                run_spvv(v, &a16, &b).unwrap().summary
            };
            summary.metrics.fpu_utilization()
        };
        let base = util(Variant::Base, true);
        assert!((base - 1.0 / 9.0).abs() < 0.01, "BASE utilization {base:.4}");
        // 16- and 32-bit non-ISSR kernels perform identically.
        let base16 = util(Variant::Base, false);
        assert!((base - base16).abs() < 1e-3, "BASE 16 vs 32: {base16:.4} vs {base:.4}");
        let ssr = util(Variant::Ssr, true);
        assert!((ssr - 1.0 / 7.0).abs() < 0.01, "SSR utilization {ssr:.4}");
        let issr32 = util(Variant::Issr, true);
        assert!(issr32 > 0.6 && issr32 <= 2.0 / 3.0 + 0.01, "ISSR-32 utilization {issr32:.4}");
        let issr16 = util(Variant::Issr, false);
        assert!(issr16 > 0.72 && issr16 <= 0.8 + 0.01, "ISSR-16 utilization {issr16:.4}");
    }

    /// Low-nnz behaviour: ISSR pays setup + reduction, so its advantage
    /// needs nnz to amortize (the left side of Fig. 4a).
    #[test]
    fn issr_overhead_dominates_tiny_inputs() {
        let mut rng = gen::rng(9);
        let a = gen::sparse_vector::<u16>(&mut rng, 256, 2);
        let b = gen::dense_vector(&mut rng, 256);
        let issr = run_spvv(Variant::Issr, &a, &b).unwrap();
        let util = issr.summary.metrics.fpu_utilization();
        assert!(util < 0.15, "tiny-nnz ISSR utilization should collapse, got {util:.3}");
    }
}
