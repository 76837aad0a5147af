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
use crate::harness::{self, OnTrap};
use crate::layout::{alloc_result, place_f64s, place_indices, Arena};
use crate::variant::KernelIndex;
use issr_core::cfg::{cfg_addr, idx_cfg_word, reg as sreg};
use issr_isa::asm::{Assembler, Program};
use issr_isa::instr::Stagger;
use issr_isa::reg::{FpReg, IntReg as R};
use issr_mem::array::MemArray;
use issr_snitch::cc::{RunSummary, SimTimeout};
use issr_snitch::params::CcParams;

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

/// Addresses and shapes the stencil builder bakes into the program.
#[derive(Clone, Copy, Debug)]
pub struct StencilAddrs {
    /// The input signal.
    pub x: u32,
    /// The tap weights.
    pub weights: u32,
    /// The tap offsets (index array).
    pub offsets: u32,
    /// The output (`out_len` doubles).
    pub out: u32,
    /// Number of taps (at least one).
    pub taps: u32,
    /// Valid output positions.
    pub out_len: u32,
}

/// Builds the ISSR sparse-stencil program: per output position the
/// weights' affine job and the taps' gather are relaunched, the latter
/// at a data base the core slides by one element.
#[must_use]
pub fn build_stencil<I: KernelIndex>(addrs: StencilAddrs) -> Program {
    let n_acc: u8 = 4;
    let mut asm = Assembler::new();
    asm.roi_begin();
    if addrs.out_len > 0 {
        // Invariant lane state: bounds (taps) and index configuration.
        asm.li(R::T0, i64::from(addrs.taps) - 1);
        asm.scfgwi(R::T0, cfg_addr(sreg::BOUNDS[0], 0));
        asm.scfgwi(R::T0, cfg_addr(sreg::BOUNDS[0], 1));
        asm.li(R::T0, 8);
        asm.scfgwi(R::T0, cfg_addr(sreg::STRIDES[0], 0));
        asm.li(R::T0, i64::from(idx_cfg_word(I::IDX_SIZE, 0)));
        asm.scfgwi(R::T0, cfg_addr(sreg::IDX_CFG, 1));
        asm.csrsi(issr_isa::Csr::Ssr, 1);
        // Position loop registers.
        asm.li_addr(R::S4, addrs.weights); // weights (relaunched per position)
        asm.li_addr(R::S5, addrs.offsets); // offset array
        asm.li_addr(R::S6, addrs.x); // sliding data base
        asm.li_addr(R::S1, addrs.out);
        asm.li(R::S2, i64::from(addrs.out_len));
        asm.li(R::T2, i64::from(addrs.taps) - 1);
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
    if addrs.out_len > 0 {
        asm.csrci(issr_isa::Csr::Ssr, 1);
    }
    asm.halt();
    asm.finish().expect("stencil assembles")
}

/// Output positions of the valid (no-padding) convolution.
fn valid_len(stencil: &SparseStencil, x: &[f64]) -> u32 {
    (x.len() as u32).saturating_sub(stencil.reach())
}

/// Places the signal, the stencil and the valid-mode output.
///
/// # Panics
/// Panics on empty stencils or mismatched weight counts.
pub(crate) fn place_stencil<I: KernelIndex>(
    arena: &mut Arena,
    mem: &mut MemArray,
    stencil: &SparseStencil,
    x: &[f64],
) -> StencilAddrs {
    assert!(!stencil.offsets.is_empty(), "stencil needs at least one tap");
    assert_eq!(stencil.offsets.len(), stencil.weights.len(), "weights per tap");
    let offsets: Vec<I> = stencil.offsets.iter().map(|&o| I::from_usize(o as usize)).collect();
    let out_len = valid_len(stencil, x);
    StencilAddrs {
        x: place_f64s(arena, mem, x),
        weights: place_f64s(arena, mem, &stencil.weights),
        offsets: place_indices(arena, mem, &offsets),
        out: alloc_result(arena, out_len.max(1)),
        taps: stencil.taps() as u32,
        out_len,
    }
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
    let out_len = valid_len(stencil, x) as usize;
    let (sim, addrs, summary) = harness::single_cc(
        CcParams::paper(),
        OnTrap::Panic,
        |arena, mem| place_stencil::<I>(arena, mem, stencil, x),
        build_stencil::<I>,
        200_000 + 64 * out_len as u64 * stencil.taps() as u64,
    )?;
    Ok(StencilRun { out: sim.mem.array().load_f64_slice(addrs.out, out_len), summary })
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
