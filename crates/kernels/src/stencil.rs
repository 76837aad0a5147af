//! Sparse-stencil convolution (§III-C, "improved convolutions").
//!
//! SSRs accelerate rectangular stencils; the paper proposes extending
//! this to **arbitrarily-shaped sparse stencils** by streaming an offset
//! index array through the ISSR while the core increments the data base
//! address per output element:
//!
//! ```text
//! for each output position p:
//!     y[p] = Σ_s w[s] · x[p + offsets[s]]
//! ```
//!
//! The stencil weights stream through the SSR (with the element `REPEAT`
//! feature unused — the job is relaunched per position, which the
//! shadowed configuration makes a two-write affair), the gathered taps
//! through the ISSR whose `DATA_BASE` the core bumps by one element per
//! output position.

use crate::common::{emit_reduction_tree, emit_zero_accumulators, ACC0};
use crate::layout::{alloc_result, place_f64s, Arena};
use crate::variant::KernelIndex;
use issr_core::cfg::{cfg_addr, idx_cfg_word, reg as sreg};
use issr_isa::asm::{Assembler, Program};
use issr_isa::instr::Stagger;
use issr_isa::reg::{FpReg, IntReg as R};
use issr_snitch::cc::{RunSummary, SimTimeout, SingleCcSim, SINGLE_CC_ARENA};

/// A sparse 1-D stencil: tap offsets (in elements, relative to the
/// output position) and their weights.
#[derive(Clone, Debug)]
pub struct SparseStencil {
    /// Non-negative tap offsets (the kernel slides left-to-right; the
    /// host shifts the input so offsets start at zero).
    pub offsets: Vec<u32>,
    /// One weight per tap.
    pub weights: Vec<f64>,
}

impl SparseStencil {
    /// Number of taps.
    #[must_use]
    pub fn taps(&self) -> usize {
        self.offsets.len()
    }

    /// Largest offset (determines the valid output length).
    #[must_use]
    pub fn reach(&self) -> u32 {
        self.offsets.iter().copied().max().unwrap_or(0)
    }

    /// Host reference: valid (no-padding) sparse-stencil convolution.
    #[must_use]
    pub fn reference(&self, x: &[f64]) -> Vec<f64> {
        let out_len = x.len().saturating_sub(self.reach() as usize);
        (0..out_len)
            .map(|p| {
                self.offsets.iter().zip(&self.weights).map(|(&o, &w)| w * x[p + o as usize]).sum()
            })
            .collect()
    }
}

/// Result of a stencil run.
#[derive(Clone, Debug)]
pub struct StencilRun {
    /// The convolved output.
    pub out: Vec<f64>,
    /// Cycle-level summary.
    pub summary: RunSummary,
}

/// Runs the ISSR sparse-stencil convolution over `x` (valid mode).
///
/// # Errors
/// Returns [`SimTimeout`] on a simulation bug.
///
/// # Panics
/// Panics on empty stencils or mismatched weight counts.
pub fn run_stencil<I: KernelIndex>(
    stencil: &SparseStencil,
    x: &[f64],
) -> Result<StencilRun, SimTimeout> {
    assert!(!stencil.offsets.is_empty(), "stencil needs at least one tap");
    assert_eq!(stencil.offsets.len(), stencil.weights.len(), "weights per tap");
    let taps = stencil.taps() as u32;
    let out_len = (x.len() as u32).saturating_sub(stencil.reach());
    let n_acc: u8 = 4;

    let mut arena = Arena::new(SINGLE_CC_ARENA, SingleCcSim::DEFAULT_MEM_BYTES / 2);
    let mut sim = SingleCcSim::new(Program::default());
    let x_addr = place_f64s(&mut arena, sim.mem.array_mut(), x);
    let w_addr = place_f64s(&mut arena, sim.mem.array_mut(), &stencil.weights);
    let idx_bytes = (taps * I::BYTES + 7) & !7;
    let off_addr = arena.alloc(idx_bytes, 8);
    let offsets: Vec<I> = stencil.offsets.iter().map(|&o| I::from_usize(o as usize)).collect();
    I::store_slice(sim.mem.array_mut(), off_addr, &offsets);
    let out = alloc_result(&mut arena, out_len.max(1));

    let mut asm = Assembler::new();
    asm.roi_begin();
    if out_len > 0 {
        // Invariant lane state: bounds (taps) and index configuration.
        asm.li(R::T0, i64::from(taps) - 1);
        asm.scfgwi(R::T0, cfg_addr(sreg::BOUNDS[0], 0));
        asm.scfgwi(R::T0, cfg_addr(sreg::BOUNDS[0], 1));
        asm.li(R::T0, 8);
        asm.scfgwi(R::T0, cfg_addr(sreg::STRIDES[0], 0));
        asm.li(R::T0, i64::from(idx_cfg_word(I::IDX_SIZE, 0)));
        asm.scfgwi(R::T0, cfg_addr(sreg::IDX_CFG, 1));
        asm.csrsi(issr_isa::Csr::Ssr, 1);
        // Position loop registers.
        asm.li_addr(R::S4, w_addr); // weights (relaunched per position)
        asm.li_addr(R::S5, off_addr); // offset array
        asm.li_addr(R::S6, x_addr); // sliding data base
        asm.li_addr(R::S1, out);
        asm.li(R::S2, i64::from(out_len));
        asm.li(R::T2, i64::from(taps) - 1);
        let pos = asm.bind_label();
        asm.symbol("position");
        // Relaunch: weights affine job + taps gather at the current base.
        asm.scfgwi(R::S4, cfg_addr(sreg::RPTR[0], 0));
        asm.scfgwi(R::S6, cfg_addr(sreg::DATA_BASE, 1));
        asm.scfgwi(R::S5, cfg_addr(sreg::RPTR[0], 1));
        emit_zero_accumulators(&mut asm, ACC0, n_acc);
        asm.frep_outer(R::T2, 1, Stagger::accumulator(n_acc));
        asm.fmadd_d(ACC0, FpReg::FT0, FpReg::FT1, ACC0);
        emit_reduction_tree(&mut asm, ACC0, n_acc);
        asm.fsd(ACC0, R::S1, 0);
        // Slide the window one element; next output slot.
        asm.addi(R::S6, R::S6, 8);
        asm.addi(R::S1, R::S1, 8);
        asm.addi(R::S2, R::S2, -1);
        asm.bnez(R::S2, pos);
    }
    asm.roi_end();
    if out_len > 0 {
        asm.csrci(issr_isa::Csr::Ssr, 1);
    }
    asm.halt();

    sim.load(asm.finish().expect("stencil assembles"));
    let summary = sim.run(200_000 + 64 * u64::from(out_len) * u64::from(taps))?.expect_clean();
    Ok(StencilRun { out: sim.mem.array().load_f64_slice(out, out_len as usize), summary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use issr_sparse::{dense::allclose, gen};

    #[test]
    fn dense_three_tap_matches_reference() {
        let stencil = SparseStencil { offsets: vec![0, 1, 2], weights: vec![0.25, 0.5, 0.25] };
        let mut rng = gen::rng(80);
        let x = gen::dense_vector(&mut rng, 256);
        let run = run_stencil::<u16>(&stencil, &x).unwrap();
        assert!(allclose(&run.out, &stencil.reference(&x), 1e-12, 1e-12));
    }

    #[test]
    fn irregular_sparse_stencil_matches_reference() {
        // An arbitrarily-shaped stencil: scattered taps with gaps.
        let stencil = SparseStencil {
            offsets: vec![0, 3, 4, 11, 17, 29],
            weights: vec![1.0, -2.0, 0.5, 0.125, -0.75, 3.0],
        };
        let mut rng = gen::rng(81);
        let x = gen::dense_vector(&mut rng, 200);
        let run = run_stencil::<u32>(&stencil, &x).unwrap();
        assert!(allclose(&run.out, &stencil.reference(&x), 1e-12, 1e-12));
    }

    #[test]
    fn single_tap_is_a_shifted_copy() {
        let stencil = SparseStencil { offsets: vec![5], weights: vec![2.0] };
        let x: Vec<f64> = (0..32).map(f64::from).collect();
        let run = run_stencil::<u16>(&stencil, &x).unwrap();
        let expect: Vec<f64> = (0..27).map(|p| 2.0 * f64::from(p + 5)).collect();
        assert_eq!(run.out, expect);
    }

    #[test]
    fn stencil_too_wide_for_input_yields_empty() {
        let stencil = SparseStencil { offsets: vec![0, 100], weights: vec![1.0, 1.0] };
        let run = run_stencil::<u16>(&stencil, &[1.0; 50]).unwrap();
        assert!(run.out.is_empty());
    }
}
