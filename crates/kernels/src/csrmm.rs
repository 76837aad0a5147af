//! CSR matrix × dense matrix product kernels (CsrMM, §III-B).
//!
//! The paper multiplies a CSR matrix with a power-of-two-column dense
//! row-major matrix by iterating the CsrMV kernels along the dense
//! columns: the ISSR's programmable index shift addresses row `k` of the
//! dense matrix as `B + 8·c + (k << (3 + log2 stride))`, so only the two
//! job pointers (and the data base) change per column — the overhead
//! over CsrMV is "small to negligible", which the tests check on the
//! paper's Ragusa18 edge case.

use crate::common::FZ;
use crate::csrmv::{emit_issr_row_bounds, emit_issr_row_loop, emit_sw_row_loop};
use crate::harness::{self, OnTrap};
use crate::layout::{alloc_result, place_csr, place_f64s, Arena, CsrAddrs};
use crate::variant::{KernelIndex, Variant};
use issr_core::cfg::{cfg_addr, idx_cfg_word, reg as sreg};
use issr_isa::asm::{Assembler, Program};
use issr_isa::reg::IntReg as R;
use issr_mem::array::MemArray;
use issr_snitch::cc::{RunSummary, SimTimeout};
use issr_snitch::params::CcParams;
use issr_sparse::csr::CsrMatrix;
use issr_sparse::dense::DenseMatrix;

/// Addresses and shapes the CsrMM builders bake into the program.
#[derive(Clone, Copy, Debug)]
pub struct CsrmmAddrs {
    /// The CSR matrix.
    pub a: CsrAddrs,
    /// Dense operand base (row-major, power-of-two stride).
    pub b: u32,
    /// Dense operand columns (loop count).
    pub b_cols: u32,
    /// Dense operand row stride in elements (power of two).
    pub b_stride: u32,
    /// Result base (row-major).
    pub y: u32,
    /// Result row stride in elements.
    pub y_stride: u32,
}

/// Builds the CsrMM program.
///
/// # Panics
/// Panics if `b_stride` is not a power of two (the index shifter's
/// restriction, §III-B).
#[must_use]
pub fn build_csrmm<I: KernelIndex>(variant: Variant, addrs: CsrmmAddrs) -> Program {
    assert!(addrs.b_stride.is_power_of_two(), "dense stride must be a power of two");
    let log_stride = addrs.b_stride.trailing_zeros();
    let mut asm = Assembler::new();
    // Column-loop registers.
    asm.li(R::A0, i64::from(addrs.b_cols));
    asm.li_addr(R::A1, addrs.b);
    asm.li_addr(R::A2, addrs.y);
    asm.li_addr(R::A3, addrs.a.vals);
    asm.li_addr(R::A4, addrs.a.idcs);
    asm.li_addr(R::A5, addrs.a.ptr + 4);
    asm.li(R::A6, i64::from(addrs.a.nrows));
    asm.li(R::S8, i64::from(addrs.y_stride) * 8);
    match variant {
        Variant::Issr => emit_issr_row_bounds::<I>(&mut asm),
        Variant::Ssr => asm.li_addr(R::S7, addrs.a.idcs),
        Variant::Base => asm.li_addr(R::S7, addrs.a.vals),
    }
    asm.roi_begin();
    let end = asm.new_label();
    if addrs.a.nrows == 0 || addrs.b_cols == 0 {
        asm.j(end);
    }
    // One-time shadow configuration; per-column launches only rewrite
    // the pointers (and the ISSR data base).
    match variant {
        Variant::Issr => {
            if addrs.a.nnz > 0 {
                asm.li(R::T0, i64::from(addrs.a.nnz) - 1);
                asm.scfgwi(R::T0, cfg_addr(sreg::BOUNDS[0], 0));
                asm.li(R::T0, 8);
                asm.scfgwi(R::T0, cfg_addr(sreg::STRIDES[0], 0));
                asm.li(R::T0, i64::from(addrs.a.nnz) - 1);
                asm.scfgwi(R::T0, cfg_addr(sreg::BOUNDS[0], 1));
                asm.li(R::T0, i64::from(idx_cfg_word(I::IDX_SIZE, log_stride)));
                asm.scfgwi(R::T0, cfg_addr(sreg::IDX_CFG, 1));
            }
            asm.csrsi(issr_isa::Csr::Ssr, 1);
            asm.fcvt_d_w(FZ, R::ZERO);
        }
        Variant::Ssr => {
            if addrs.a.nnz > 0 {
                asm.li(R::T0, i64::from(addrs.a.nnz) - 1);
                asm.scfgwi(R::T0, cfg_addr(sreg::BOUNDS[0], 0));
                asm.li(R::T0, 8);
                asm.scfgwi(R::T0, cfg_addr(sreg::STRIDES[0], 0));
            }
            asm.csrsi(issr_isa::Csr::Ssr, 1);
        }
        Variant::Base => {}
    }
    let col_loop = asm.bind_label();
    asm.symbol("column");
    // Reset the row-loop cursors for this column.
    asm.mv(R::S0, R::A5);
    asm.mv(R::S1, R::A2);
    asm.mv(R::S2, R::A6);
    asm.li(R::S3, 0);
    asm.mv(R::S4, R::A4);
    asm.mv(R::S5, R::A3);
    if variant != Variant::Issr {
        asm.mv(R::S6, R::A1);
    }
    if addrs.a.nnz > 0 {
        match variant {
            Variant::Issr => {
                asm.scfgwi(R::A3, cfg_addr(sreg::RPTR[0], 0)); // vals stream
                asm.scfgwi(R::A1, cfg_addr(sreg::DATA_BASE, 1)); // B column base
                asm.scfgwi(R::A4, cfg_addr(sreg::RPTR[0], 1)); // index stream
            }
            Variant::Ssr => {
                asm.scfgwi(R::A3, cfg_addr(sreg::RPTR[0], 0));
            }
            Variant::Base => {}
        }
    }
    match variant {
        Variant::Issr => emit_issr_row_loop::<I>(&mut asm),
        _ => emit_sw_row_loop::<I>(&mut asm, variant, 3 + log_stride as i32),
    }
    // Next column.
    asm.addi(R::A0, R::A0, -1);
    asm.addi(R::A1, R::A1, 8);
    asm.addi(R::A2, R::A2, 8);
    asm.bnez(R::A0, col_loop);
    asm.bind(end);
    asm.roi_end();
    if !matches!(variant, Variant::Base) {
        asm.csrci(issr_isa::Csr::Ssr, 1);
    }
    asm.halt();
    asm.finish().expect("CsrMM program assembles")
}

/// Result of one CsrMM run on the single-CC harness.
#[derive(Clone, Debug)]
pub struct CsrmmRun {
    /// The computed dense result.
    pub y: DenseMatrix,
    /// Cycle-level summary.
    pub summary: RunSummary,
}

/// Places the matrix, the dense operand and the (unpadded) result.
pub(crate) fn place_csrmm<I: KernelIndex>(
    arena: &mut Arena,
    mem: &mut MemArray,
    m: &CsrMatrix<I>,
    b: &DenseMatrix,
) -> CsrmmAddrs {
    let a = place_csr(arena, mem, m);
    let b_addr = place_f64s(arena, mem, b.data());
    let y_stride = b.cols() as u32;
    CsrmmAddrs {
        a,
        b: b_addr,
        b_cols: b.cols() as u32,
        b_stride: b.stride() as u32,
        y: alloc_result(arena, (a.nrows * y_stride).max(1)),
        y_stride,
    }
}

/// Marshals the workload, runs the kernel, returns `Y = A·B` and
/// metrics. `b` must have a power-of-two row stride
/// ([`DenseMatrix::with_pow2_stride`]).
///
/// # Errors
/// Returns [`SimTimeout`] if the kernel fails to finish (a bug).
///
/// # Panics
/// Panics if shapes are inconsistent or the stride is not a power of
/// two.
pub fn run_csrmm<I: KernelIndex>(
    variant: Variant,
    m: &CsrMatrix<I>,
    b: &DenseMatrix,
) -> Result<CsrmmRun, SimTimeout> {
    assert_eq!(b.rows(), m.ncols(), "inner dimensions must agree");
    let (sim, addrs, summary) = harness::single_cc(
        CcParams::paper(),
        OnTrap::Panic,
        |arena, mem| place_csrmm(arena, mem, m, b),
        |addrs| build_csrmm::<I>(variant, addrs),
        200_000 + 64 * m.nnz() as u64 * (b.cols() as u64).max(1) + 64 * m.nrows() as u64,
    )?;
    let mut out = DenseMatrix::zeros(m.nrows(), b.cols());
    for r in 0..m.nrows() {
        for c in 0..b.cols() {
            let at = addrs.y + (r as u32 * addrs.y_stride + c as u32) * 8;
            out.set(r, c, sim.mem.array().load_f64(at));
        }
    }
    Ok(CsrmmRun { y: out, summary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use issr_sparse::{gen, reference};

    fn dense_b(rng: &mut rand::rngs::StdRng, rows: usize, cols: usize) -> DenseMatrix {
        let mut b = DenseMatrix::with_pow2_stride(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                b.set(r, c, gen::dense_vector(rng, 1)[0]);
            }
        }
        b
    }

    fn check<I: KernelIndex>(variant: Variant, seed: u64) {
        let mut rng = gen::rng(seed);
        let m = gen::csr_uniform::<I>(&mut rng, 20, 48, 160);
        let b = dense_b(&mut rng, 48, 5);
        let run = run_csrmm(variant, &m, &b).expect("kernel finishes");
        let expect = reference::csrmm(&m, &b);
        let diff = run.y.max_abs_diff(&expect);
        assert!(diff < 1e-9, "{variant}: max diff {diff}");
    }

    #[test]
    fn base_matches_reference() {
        check::<u32>(Variant::Base, 31);
        check::<u16>(Variant::Base, 32);
    }

    #[test]
    fn ssr_matches_reference() {
        check::<u32>(Variant::Ssr, 33);
        check::<u16>(Variant::Ssr, 34);
    }

    #[test]
    fn issr_matches_reference() {
        check::<u32>(Variant::Issr, 35);
        check::<u16>(Variant::Issr, 36);
    }

    /// Every column ends on a long row, so the deferred reduction must
    /// be stored before the column loop moves on: four columns of long
    /// rows in both widths, short and empty rows between them.
    #[test]
    fn issr_deferral_flushes_at_every_column_end() {
        fn check<I: KernelIndex>() {
            let n = usize::from(crate::variant::issr_accumulators(I::IDX_SIZE));
            let lengths = [5 * n, 1, 3 * n + 1, 4 * n, 0, 3 * n, 6 * n + 2];
            let ncols = 96;
            let mut triplets = Vec::new();
            for (r, &len) in lengths.iter().enumerate() {
                for j in 0..len {
                    triplets.push((r, (j * 5 + r) % ncols, (r + 2 * j) as f64 * 0.125 - 1.0));
                }
            }
            let m = CsrMatrix::<I>::from_triplets(lengths.len(), ncols, &triplets);
            let b = dense_b(&mut gen::rng(42), ncols, 4);
            let run = run_csrmm(Variant::Issr, &m, &b).unwrap();
            let diff = run.y.max_abs_diff(&reference::csrmm(&m, &b));
            assert!(diff < 1e-9, "{} B indices: max diff {diff}", I::BYTES);
        }
        check::<u16>();
        check::<u32>();
    }

    #[test]
    fn single_column_equals_csrmv() {
        let mut rng = gen::rng(40);
        let m = gen::csr_uniform::<u16>(&mut rng, 16, 32, 120);
        let x = gen::dense_vector(&mut rng, 32);
        let mut b = DenseMatrix::with_pow2_stride(32, 1);
        for (r, &v) in x.iter().enumerate() {
            b.set(r, 0, v);
        }
        let mm = run_csrmm(Variant::Issr, &m, &b).unwrap();
        let mv = crate::csrmv::run_csrmv(Variant::Issr, &m, &x).unwrap();
        for r in 0..16 {
            assert!((mm.y.get(r, 0) - mv.y[r]).abs() < 1e-12);
        }
    }

    /// §IV-A: for the tiny Ragusa18 (64 nnz) and a 2-column dense
    /// matrix, CsrMM utilization changes only marginally vs CsrMV
    /// (the paper reports a 0.12 % delta).
    #[test]
    fn ragusa18_edge_case_utilization_delta() {
        let entry = issr_sparse::suite::by_name("ragusa18").unwrap();
        let m: CsrMatrix<u16> = entry.build();
        let mut rng = gen::rng(41);
        let b = dense_b(&mut rng, m.ncols(), 2);
        let x = b.col(0);
        let mv = crate::csrmv::run_csrmv(Variant::Issr, &m, &x).unwrap();
        let mm = run_csrmm(Variant::Issr, &m, &b).unwrap();
        let u_mv = mv.summary.metrics.fpu_utilization();
        let u_mm = mm.summary.metrics.fpu_utilization();
        let delta = (u_mv - u_mm).abs();
        assert!(
            delta < 0.02,
            "CsrMM vs CsrMV utilization delta {delta:.4} ({u_mm:.4} vs {u_mv:.4})"
        );
    }
}
