//! CSR matrix-vector product kernels (CsrMV, §III-B).
//!
//! All variants walk the row pointer array with the integer core; the
//! inner per-row product is the corresponding SpVV loop. The ISSR
//! variant applies the paper's two optimizations:
//!
//! * the **entire matrix fiber** (values + indices) streams in a single
//!   SSR job and a single ISSR job, eliminating per-row setup;
//! * the first accumulator-group's worth of `fmadd`s in each row is
//!   **unrolled** against the constant-zero register (no re-zeroing),
//!   with a branch ladder to shorter reductions for rows with fewer
//!   elements — FREP and the full reduction are issued only when a row
//!   is long enough to need them.
//!
//! The same row-loop generator is reused by CsrMM (`csrmm.rs`), which
//! wraps it in a dense-column loop with register-held bases.

use crate::common::{emit_reduction_tree, ACC0, FZ};
use crate::harness::{self, OnTrap};
use crate::layout::{alloc_result, place_csr, place_f64s, Arena, CsrAddrs};
use crate::variant::{issr_accumulators, KernelIndex, Variant};
use issr_isa::asm::{Assembler, Program};
use issr_isa::instr::Stagger;
use issr_isa::reg::{FpReg, IntReg as R};
use issr_mem::array::MemArray;
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
    asm.li_addr(R::S6, addrs.x);
    asm.li_addr(
        R::S7,
        match variant {
            Variant::Base => addrs.a.vals,
            _ => addrs.a.idcs,
        },
    );
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
/// | `s3` | `ptr[i]` (previous row end) |
/// | `s4` | index-array cursor (BASE/SSR) |
/// | `s5` | value-array cursor (BASE) |
/// | `s6` | dense base for software indirection (BASE/SSR) |
/// | `s7` | index/value array base for row-end computation |
/// | `s8` | result stride in bytes (y cursor bump) |
/// | `t0..t5` | scratch |
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

/// Emits the optimized ISSR row loop: head unrolling against `fz`, a
/// branch ladder for short rows, FREP + full reduction for long ones.
pub(crate) fn emit_issr_row_loop<I: KernelIndex>(asm: &mut Assembler) {
    let n_acc = issr_accumulators(I::IDX_SIZE);
    let outer = asm.bind_label();
    asm.symbol("issr_row");
    asm.lw(R::T5, R::S0, 0); // ptr[i+1]
    asm.addi(R::S0, R::S0, 4);
    asm.sub(R::T1, R::T5, R::S3); // count
    let row_done = asm.new_label();
    let ladder = asm.new_label();
    let zero_row = asm.new_label();
    let reduce_full = asm.new_label();
    asm.beqz(R::T1, zero_row);
    asm.addi(R::T2, R::T1, -i32::from(n_acc));
    asm.blt(R::T2, R::ZERO, ladder); // count < n_acc → short-row ladder
                                     // Long row: unrolled head fills every accumulator from fz.
    for k in 0..n_acc {
        asm.fmadd_d(ACC0.offset(k), FpReg::FT0, FpReg::FT1, FZ);
    }
    asm.beqz(R::T2, reduce_full); // count == n_acc → no FREP needed
    asm.addi(R::T2, R::T2, -1); // FREP iterations = count - n_acc
    asm.frep_outer(R::T2, 1, Stagger::accumulator(n_acc));
    asm.fmadd_d(ACC0, FpReg::FT0, FpReg::FT1, ACC0);
    asm.bind(reduce_full);
    emit_reduction_tree(asm, ACC0, n_acc);
    asm.fsd(ACC0, R::S1, 0);
    asm.j(row_done);
    // Short rows: dispatch on the exact count (1 ..= n_acc-1) to the
    // minimal unroll + reduction.
    asm.bind(ladder);
    let mut cases = Vec::new();
    for _ in 1..n_acc {
        cases.push(asm.new_label());
    }
    for (k, &case) in cases.iter().enumerate() {
        let count = k as i32 + 1;
        if count < i32::from(n_acc) - 1 {
            asm.addi(R::T3, R::T1, -count);
            asm.beqz(R::T3, case);
        } else {
            // The last case is the only remaining possibility.
            asm.j(case);
        }
    }
    for (k, &case) in cases.iter().enumerate() {
        let count = k as u8 + 1;
        asm.bind(case);
        for j in 0..count {
            asm.fmadd_d(ACC0.offset(j), FpReg::FT0, FpReg::FT1, FZ);
        }
        emit_reduction_tree(asm, ACC0, count);
        asm.fsd(ACC0, R::S1, 0);
        if k + 1 != cases.len() {
            asm.j(row_done);
        }
    }
    asm.j(row_done);
    asm.bind(zero_row);
    asm.fsd(FZ, R::S1, 0);
    asm.bind(row_done);
    asm.mv(R::S3, R::T5);
    asm.add(R::S1, R::S1, R::S8);
    asm.addi(R::S2, R::S2, -1);
    asm.bnez(R::S2, outer);
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

    /// Rows of every length 0..=2·n_acc exercise the zero path, the
    /// whole branch ladder, the exact-n_acc path, and FREP.
    #[test]
    fn issr_row_length_edge_cases() {
        for (width16, n_acc) in [(false, 4usize), (true, 8)] {
            let ncols = 64;
            let mut triplets = Vec::new();
            for (r, len) in (0..=2 * n_acc).enumerate() {
                for j in 0..len {
                    triplets.push((r, (j * 7 + r) % ncols, (r + j) as f64 * 0.25 + 1.0));
                }
            }
            let nrows = 2 * n_acc + 1;
            if width16 {
                let m = CsrMatrix::<u16>::from_triplets(nrows, ncols, &triplets);
                let x: Vec<f64> = (0..ncols).map(|i| i as f64 * 0.5 - 3.0).collect();
                let run = run_csrmv(Variant::Issr, &m, &x).unwrap();
                assert!(allclose(&run.y, &reference::csrmv(&m, &x), 1e-12, 1e-12));
            } else {
                let m = CsrMatrix::<u32>::from_triplets(nrows, ncols, &triplets);
                let x: Vec<f64> = (0..ncols).map(|i| i as f64 * 0.5 - 3.0).collect();
                let run = run_csrmv(Variant::Issr, &m, &x).unwrap();
                assert!(allclose(&run.y, &reference::csrmv(&m, &x), 1e-12, 1e-12));
            }
        }
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
