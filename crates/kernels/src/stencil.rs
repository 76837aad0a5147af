//! Sparse-stencil convolution (§III-C, "improved convolutions").
//!
//! SSRs accelerate rectangular stencils; the paper proposes extending
//! this to **arbitrarily-shaped sparse stencils** by streaming an offset
//! index array through the ISSR while the core slides the data base
//! address along the signal:
//!
//! ```text
//! for each output position p:
//!     y[p] = Σ_s w[s] · x[p + offsets[s]]
//! ```
//!
//! The kernel is register-blocked: one group computes G =
//! [`issr_accumulators`] consecutive output positions (8 with 16-bit
//! indices, 4 with 32-bit), each in its own accumulator, so no position
//! needs zeroing or a reduction tree. Per group:
//!
//! * the SSR streams the weights with `REPEAT = G − 1`, so each weight
//!   arrives once per position of the group;
//! * the ISSR gathers through the **expanded offsets** `offsets[s] + g`
//!   (tap-major, position-minor), laid out once by the place step, at a
//!   `DATA_BASE` the core slides by G elements per group;
//! * G `fmul.d` take the first tap, one `frep.o` runs the remaining
//!   `(taps − 1) · G` `fmadd.d` staggered over the G accumulators, and G
//!   `fsd` store the results.
//!
//! Both jobs are relaunched once per G outputs, which the shadowed
//! configuration makes three writes. The `out_len mod G` tail is one
//! more group of its own width, emitted after the loop with its own
//! expanded offsets (the output length is known when the program is
//! built). The expanded offsets reach `reach + G − 1`, so the place step
//! refuses a stencil whose reach leaves less than G − 1 of **index
//! headroom** in the index width.

use crate::common::ACC0;
use crate::harness::{self, OnTrap};
use crate::layout::{alloc_result, place_f64s, place_indices, Arena};
use crate::variant::{issr_accumulators, KernelIndex};
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
    /// The expanded offsets of a full group: `offsets[s] + g` for every
    /// tap `s` and group position `g < G`, tap-major.
    pub offsets: u32,
    /// The expanded offsets of the tail group, `g < out_len mod G`.
    pub tail_offsets: u32,
    /// The output (`out_len` doubles).
    pub out: u32,
    /// Number of taps (at least one).
    pub taps: u32,
    /// Valid output positions.
    pub out_len: u32,
}

/// Builds the register-blocked ISSR sparse-stencil program: a loop over
/// the full groups of G output positions, then the tail group.
#[must_use]
pub fn build_stencil<I: KernelIndex>(addrs: StencilAddrs) -> Program {
    let g = issr_accumulators(I::IDX_SIZE);
    let (groups, tail) = (addrs.out_len / u32::from(g), (addrs.out_len % u32::from(g)) as u8);
    let mut asm = Assembler::new();
    asm.roi_begin();
    if addrs.out_len > 0 {
        // Invariant lane state: the weights' shape and the index width.
        asm.li(R::T0, i64::from(addrs.taps) - 1);
        asm.scfgwi(R::T0, cfg_addr(sreg::BOUNDS[0], 0));
        asm.li(R::T0, 8);
        asm.scfgwi(R::T0, cfg_addr(sreg::STRIDES[0], 0));
        asm.li(R::T0, i64::from(idx_cfg_word(I::IDX_SIZE, 0)));
        asm.scfgwi(R::T0, cfg_addr(sreg::IDX_CFG, 1));
        asm.csrsi(issr_isa::Csr::Ssr, 1);
        asm.li_addr(R::S4, addrs.weights); // weights (relaunched per group)
        asm.li_addr(R::S6, addrs.x); // sliding data base
        asm.li_addr(R::S1, addrs.out);
        if groups > 0 {
            emit_group_shape(&mut asm, addrs.taps, g, addrs.offsets);
            asm.li(R::S2, i64::from(groups));
            let group = asm.bind_label();
            asm.symbol("group");
            emit_group(&mut asm, addrs.taps, g);
            // Slide the window and the output by one group.
            asm.addi(R::S6, R::S6, 8 * i32::from(g));
            asm.addi(R::S1, R::S1, 8 * i32::from(g));
            asm.addi(R::S2, R::S2, -1);
            asm.bnez(R::S2, group);
        }
        if tail > 0 {
            emit_group_shape(&mut asm, addrs.taps, tail, addrs.tail_offsets);
            emit_group(&mut asm, addrs.taps, tail);
        }
    }
    asm.roi_end();
    if addrs.out_len > 0 {
        asm.csrci(issr_isa::Csr::Ssr, 1);
    }
    asm.halt();
    asm.finish().expect("stencil assembles")
}

/// Emits the lane state of `n`-position groups: each weight repeated
/// `n` times, `taps · n` gathered taps through the expanded offsets at
/// `offsets` (`s5`), and the FREP count of the taps after the first
/// (`t2`).
fn emit_group_shape(asm: &mut Assembler, taps: u32, n: u8, offsets: u32) {
    let n = i64::from(n);
    asm.li(R::T0, n - 1);
    asm.scfgwi(R::T0, cfg_addr(sreg::REPEAT, 0));
    asm.li(R::T0, i64::from(taps) * n - 1);
    asm.scfgwi(R::T0, cfg_addr(sreg::BOUNDS[0], 1));
    if taps > 1 {
        asm.li(R::T2, i64::from(taps - 1) * n - 1);
    }
    asm.li_addr(R::S5, offsets);
}

/// Emits one group of `n` output positions at data base `s6`, stored
/// from `s1`: relaunch both jobs, `n` `fmul.d` for the first tap, the
/// remaining taps under one staggered FREP, `n` stores.
fn emit_group(asm: &mut Assembler, taps: u32, n: u8) {
    asm.scfgwi(R::S4, cfg_addr(sreg::RPTR[0], 0));
    asm.scfgwi(R::S6, cfg_addr(sreg::DATA_BASE, 1));
    asm.scfgwi(R::S5, cfg_addr(sreg::RPTR[0], 1));
    for k in 0..n {
        asm.fmul_d(ACC0.offset(k), FpReg::FT0, FpReg::FT1);
    }
    if taps > 1 {
        asm.frep_outer(R::T2, 1, Stagger::accumulator(n));
        asm.fmadd_d(ACC0, FpReg::FT0, FpReg::FT1, ACC0);
    }
    for k in 0..n {
        asm.fsd(ACC0.offset(k), R::S1, 8 * i32::from(k));
    }
}

/// Output positions of the valid (no-padding) convolution.
fn valid_len(stencil: &SparseStencil, x: &[f64]) -> u32 {
    (x.len() as u32).saturating_sub(stencil.reach())
}

/// The expanded offsets of an `n`-position group: `offsets[s] + g`,
/// tap-major.
fn expand<I: KernelIndex>(offsets: &[u32], n: u32) -> Vec<I> {
    offsets.iter().flat_map(|&o| (0..n).map(move |g| I::from_usize((o + g) as usize))).collect()
}

/// Places the signal, the weights, the expanded offsets of a full and
/// of the tail group, and the valid-mode output.
///
/// # Panics
/// Panics on empty stencils, mismatched weight counts, or a reach
/// without G − 1 of headroom in the index width.
pub(crate) fn place_stencil<I: KernelIndex>(
    arena: &mut Arena,
    mem: &mut MemArray,
    stencil: &SparseStencil,
    x: &[f64],
) -> StencilAddrs {
    assert!(!stencil.offsets.is_empty(), "stencil needs at least one tap");
    assert_eq!(stencil.offsets.len(), stencil.weights.len(), "weights per tap");
    let g = u32::from(issr_accumulators(I::IDX_SIZE));
    let top = u64::from(stencil.reach()) + u64::from(g) - 1;
    assert!(
        top < 1 << (8 * I::BYTES),
        "stencil reach {} plus {} group positions does not fit the index width ({} bits)",
        stencil.reach(),
        g - 1,
        I::NAME
    );
    let out_len = valid_len(stencil, x);
    StencilAddrs {
        x: place_f64s(arena, mem, x),
        weights: place_f64s(arena, mem, &stencil.weights),
        offsets: place_indices(arena, mem, &expand::<I>(&stencil.offsets, g)),
        tail_offsets: place_indices(arena, mem, &expand::<I>(&stencil.offsets, out_len % g)),
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
/// Panics on empty stencils, mismatched weight counts, or a reach
/// without G − 1 of headroom in the index width.
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

    /// Every group shape against the host reference: taps 1, 2, 5, 9
    /// and 16 (unsorted, irregular offsets) in both index widths, at
    /// output lengths whose remainder mod G is 0, 1 and G − 1, shorter
    /// than one group, and empty. A single tap is one `fmul.d` per
    /// position, so it must match bit for bit.
    fn table_case<I: KernelIndex>() {
        let g = usize::from(issr_accumulators(I::IDX_SIZE));
        let mut rng = gen::rng(82);
        for taps in [1u32, 2, 5, 9, 16] {
            let offsets: Vec<u32> = (0..taps).rev().map(|s| s * (s + 1) / 2).collect();
            let stencil =
                SparseStencil { offsets, weights: gen::dense_vector(&mut rng, taps as usize) };
            for out_len in [0, 1, g - 1, 2 * g, 2 * g + 1, 3 * g - 1] {
                let x = gen::dense_vector(&mut rng, stencil.reach() as usize + out_len);
                let run = run_stencil::<I>(&stencil, &x).unwrap();
                let expect = stencil.reference(&x);
                assert_eq!(run.out.len(), out_len, "{taps} taps");
                if taps == 1 {
                    assert_eq!(run.out, expect, "{taps} taps, {out_len} outputs, {} bits", I::NAME);
                } else {
                    assert!(
                        allclose(&run.out, &expect, 1e-12, 1e-12),
                        "{taps} taps, {out_len} outputs, {} bits",
                        I::NAME
                    );
                }
            }
        }
    }

    #[test]
    fn every_group_shape_matches_reference_u16() {
        table_case::<u16>();
    }

    #[test]
    fn every_group_shape_matches_reference_u32() {
        table_case::<u32>();
    }

    /// The register-blocked loop streams near the index port's floor:
    /// 9 taps over 1,024 elements with 16-bit indices take at most 1.35
    /// cycles per tap and output position (1.25 is the floor; one
    /// accumulator per position with a reduction tree took 2.89).
    #[test]
    fn nine_taps_stream_near_the_index_port_floor() {
        let stencil = SparseStencil {
            offsets: vec![0, 1, 2, 16, 17, 18, 32, 33, 34],
            weights: vec![1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0],
        };
        let x = gen::dense_vector(&mut gen::rng(83), 1024);
        let run = run_stencil::<u16>(&stencil, &x).unwrap();
        let per_tap = run.summary.metrics.roi.cycles as f64 / (9.0 * run.out.len() as f64);
        assert!(per_tap <= 1.35, "{per_tap:.3} cycles per tap and output");
    }

    /// The expanded offsets reach `reach + G − 1`, which must fit the
    /// index width.
    #[test]
    #[should_panic(expected = "does not fit the index width")]
    fn reach_without_group_headroom_panics() {
        let stencil = SparseStencil { offsets: vec![0, 65_529], weights: vec![1.0, 1.0] };
        let _ = run_stencil::<u16>(&stencil, &[1.0; 8]);
    }
}
