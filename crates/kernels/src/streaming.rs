//! Further indirection applications (§III-C): codebook decoding and
//! scatter-gather streaming.
//!
//! * **Gather / codebook decode** — the ISSR streams `data[idcs[j]]`
//!   while a plain SSR write job streams the results back out; the loop
//!   body is a single `fmv.d` under FREP. Decoding a
//!   codebook-compressed array *is* a gather with the codebook as the
//!   dense operand.
//! * **Scatter** — the roles flip: an affine SSR read streams values in
//!   and the ISSR *write* job places each at `out[idcs[j]]`
//!   (densification of a sparse vector, the building block of radix
//!   sort and sparse transpose).
//! * **Codebook SpVV** — a streamer with *two ISSRs* multiplies a
//!   codebook-compressed sparse vector with a dense one using the same
//!   single-`fmadd` loop as Listing 1, as the paper proposes.

use crate::common::{
    emit_affine_read, emit_affine_write, emit_indirect_read, emit_indirect_write,
    emit_reduction_tree, emit_zero_accumulators, ACC0,
};
use crate::layout::{alloc_result, place_f64s, Arena};
use crate::variant::KernelIndex;
use issr_core::lane::LaneKind;
use issr_core::streamer::Streamer;
use issr_isa::asm::{Assembler, Program};
use issr_isa::instr::Stagger;
use issr_isa::reg::{FpReg, IntReg as R};
use issr_snitch::cc::{CoreComplex, RunSummary, SimTimeout, SingleCcSim, SINGLE_CC_ARENA};
use issr_snitch::params::CcParams;

/// Result of a streaming-application run.
#[derive(Clone, Debug)]
pub struct StreamRun {
    /// The produced array.
    pub out: Vec<f64>,
    /// Cycle-level summary.
    pub summary: RunSummary,
}

/// Gather: `out[j] = data[idcs[j]]` — a streaming scatter-gather unit
/// in action. Also the codebook decoder when `data` is a codebook.
///
/// # Errors
/// Returns [`SimTimeout`] on a simulation bug.
pub fn run_gather<I: KernelIndex>(data: &[f64], idcs: &[I]) -> Result<StreamRun, SimTimeout> {
    let n = idcs.len() as u32;
    let mut arena = Arena::new(SINGLE_CC_ARENA, SingleCcSim::DEFAULT_MEM_BYTES / 2);
    let mut sim = SingleCcSim::new(Program::default());
    let data_addr = place_f64s(&mut arena, sim.mem.array_mut(), data);
    let idx_bytes = (n.max(1) * I::BYTES + 7) & !7;
    let idcs_addr = arena.alloc(idx_bytes, 8);
    I::store_slice(sim.mem.array_mut(), idcs_addr, idcs);
    let out = alloc_result(&mut arena, n.max(1));

    let mut asm = Assembler::new();
    asm.roi_begin();
    if n > 0 {
        // Lane 0 (SSR): affine write stream over out; lane 1 (ISSR):
        // gather read stream.
        emit_affine_write(&mut asm, 0, out, n, 8);
        emit_indirect_read::<I>(&mut asm, 1, idcs_addr, n, 0, data_addr);
        asm.csrsi(issr_isa::Csr::Ssr, 1);
        asm.li(R::T1, i64::from(n) - 1);
        asm.frep_outer(R::T1, 1, Stagger::NONE);
        asm.fmv_d(FpReg::FT0, FpReg::FT1); // write stream <- gather stream
    }
    asm.roi_end();
    if n > 0 {
        asm.csrci(issr_isa::Csr::Ssr, 1);
    }
    asm.halt();
    sim.load(asm.finish().expect("gather assembles"));
    let summary = sim.run(100_000 + 16 * u64::from(n))?.expect_clean();
    Ok(StreamRun { out: sim.mem.array().load_f64_slice(out, idcs.len()), summary })
}

/// Scatter: `out[idcs[j]] = vals[j]` over a zeroed output of `dim`
/// elements (sparse densification).
///
/// # Errors
/// Returns [`SimTimeout`] on a simulation bug.
pub fn run_scatter<I: KernelIndex>(
    dim: usize,
    idcs: &[I],
    vals: &[f64],
) -> Result<StreamRun, SimTimeout> {
    assert_eq!(idcs.len(), vals.len(), "index/value length mismatch");
    let n = idcs.len() as u32;
    let mut arena = Arena::new(SINGLE_CC_ARENA, SingleCcSim::DEFAULT_MEM_BYTES / 2);
    let mut sim = SingleCcSim::new(Program::default());
    let vals_addr = place_f64s(&mut arena, sim.mem.array_mut(), vals);
    let idx_bytes = (n.max(1) * I::BYTES + 7) & !7;
    let idcs_addr = arena.alloc(idx_bytes, 8);
    I::store_slice(sim.mem.array_mut(), idcs_addr, idcs);
    let out = alloc_result(&mut arena, dim.max(1) as u32);

    let mut asm = Assembler::new();
    asm.roi_begin();
    if n > 0 {
        emit_affine_read(&mut asm, 0, vals_addr, n, 8);
        emit_indirect_write::<I>(&mut asm, 1, idcs_addr, n, 0, out);
        asm.csrsi(issr_isa::Csr::Ssr, 1);
        asm.li(R::T1, i64::from(n) - 1);
        asm.frep_outer(R::T1, 1, Stagger::NONE);
        asm.fmv_d(FpReg::FT1, FpReg::FT0); // scatter stream <- value stream
    }
    asm.roi_end();
    if n > 0 {
        asm.csrci(issr_isa::Csr::Ssr, 1);
    }
    asm.halt();
    sim.load(asm.finish().expect("scatter assembles"));
    let summary = sim.run(100_000 + 16 * u64::from(n))?.expect_clean();
    Ok(StreamRun { out: sim.mem.array().load_f64_slice(out, dim), summary })
}

/// Dot product of a codebook-compressed sparse vector with a dense one,
/// on a streamer with **two ISSRs**: lane 0 decodes
/// `codebook[codes[j]]`, lane 1 gathers `dense[idcs[j]]` — same code
/// shape and performance as the ordinary ISSR SpVV, as §III-C argues.
///
/// # Errors
/// Returns [`SimTimeout`] on a simulation bug.
pub fn run_codebook_spvv<I: KernelIndex>(
    codebook: &[f64],
    codes: &[I],
    idcs: &[I],
    dense: &[f64],
) -> Result<(f64, RunSummary), SimTimeout> {
    assert_eq!(codes.len(), idcs.len(), "codes/indices length mismatch");
    let n = codes.len() as u32;
    let n_acc = crate::variant::issr_accumulators(I::IDX_SIZE);
    let mut arena = Arena::new(SINGLE_CC_ARENA, SingleCcSim::DEFAULT_MEM_BYTES / 2);
    let mut sim = SingleCcSim::with_cc(CoreComplex::with_streamer(
        0,
        Program::default(),
        CcParams::default(),
        Streamer::new(&[LaneKind::Issr, LaneKind::Issr]),
    ));
    let book_addr = place_f64s(&mut arena, sim.mem.array_mut(), codebook);
    let dense_addr = place_f64s(&mut arena, sim.mem.array_mut(), dense);
    let idx_bytes = (n.max(1) * I::BYTES + 7) & !7;
    let codes_addr = arena.alloc(idx_bytes, 8);
    I::store_slice(sim.mem.array_mut(), codes_addr, codes);
    let idcs_addr = arena.alloc(idx_bytes, 8);
    I::store_slice(sim.mem.array_mut(), idcs_addr, idcs);
    let out = alloc_result(&mut arena, 1);

    let mut asm = Assembler::new();
    asm.li_addr(R::A2, out);
    asm.roi_begin();
    if n == 0 {
        asm.fcvt_d_w(ACC0, R::ZERO);
        asm.fsd(ACC0, R::A2, 0);
        asm.roi_end();
    } else {
        emit_indirect_read::<I>(&mut asm, 0, codes_addr, n, 0, book_addr);
        emit_indirect_read::<I>(&mut asm, 1, idcs_addr, n, 0, dense_addr);
        asm.csrsi(issr_isa::Csr::Ssr, 1);
        emit_zero_accumulators(&mut asm, ACC0, n_acc);
        asm.li(R::T1, i64::from(n) - 1);
        asm.frep_outer(R::T1, 1, Stagger::accumulator(n_acc));
        asm.fmadd_d(ACC0, FpReg::FT0, FpReg::FT1, ACC0);
        emit_reduction_tree(&mut asm, ACC0, n_acc);
        asm.fsd(ACC0, R::A2, 0);
        asm.roi_end();
        asm.csrci(issr_isa::Csr::Ssr, 1);
    }
    asm.halt();
    sim.load(asm.finish().expect("codebook spvv assembles"));
    let summary = sim.run(100_000 + 64 * u64::from(n))?.expect_clean();
    Ok((sim.mem.array().load_f64(out), summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use issr_sparse::{gen, reference};

    #[test]
    fn gather_matches_reference() {
        let mut rng = gen::rng(70);
        let data = gen::dense_vector(&mut rng, 512);
        let idcs: Vec<u16> = (0..300u16).map(|i| (i * 11) % 512).collect();
        let run = run_gather(&data, &idcs).unwrap();
        assert_eq!(run.out, reference::gather(&data, &idcs));
    }

    #[test]
    fn gather_streams_at_indirection_rate() {
        let mut rng = gen::rng(71);
        let data = gen::dense_vector(&mut rng, 1024);
        let idcs: Vec<u16> = (0..2000u16).map(|i| (i * 7) % 1024).collect();
        let run = run_gather(&data, &idcs).unwrap();
        // One element per fmv; data side capped at 4/5 by the shared
        // index/data port.
        let rate = issr_trace::ratio(idcs.len() as f64, run.summary.metrics.roi.cycles as f64);
        assert!(rate > 0.7, "gather rate {rate:.3}");
    }

    #[test]
    fn scatter_matches_reference() {
        let mut rng = gen::rng(72);
        let fiber = gen::sparse_vector::<u16>(&mut rng, 400, 64);
        let run = run_scatter(400, fiber.idcs(), fiber.vals()).unwrap();
        assert_eq!(run.out, reference::scatter(400, fiber.idcs(), fiber.vals()));
    }

    #[test]
    fn scatter_32bit_indices() {
        let mut rng = gen::rng(73);
        let fiber = gen::sparse_vector::<u32>(&mut rng, 256, 32);
        let run = run_scatter(256, fiber.idcs(), fiber.vals()).unwrap();
        assert_eq!(run.out, reference::scatter(256, fiber.idcs(), fiber.vals()));
    }

    #[test]
    fn codebook_spvv_matches_reference() {
        let mut rng = gen::rng(74);
        let (book, codes) = gen::codebook_vector::<u16>(&mut rng, 500, 16);
        let fiber = gen::sparse_vector::<u16>(&mut rng, 2048, 500);
        let dense = gen::dense_vector(&mut rng, 2048);
        let (got, _) = run_codebook_spvv(&book, &codes, fiber.idcs(), &dense).unwrap();
        let expect = reference::codebook_spvv(&book, &codes, fiber.idcs(), &dense);
        assert!((got - expect).abs() < 1e-9 * expect.abs().max(1.0));
    }

    /// §III-C: codebook SpVV on two ISSRs performs near-identically to
    /// the plain ISSR SpVV.
    #[test]
    fn codebook_spvv_utilization_matches_plain_spvv() {
        let mut rng = gen::rng(75);
        let nnz = 1200;
        let (book, codes) = gen::codebook_vector::<u16>(&mut rng, nnz, 32);
        let fiber = gen::sparse_vector::<u16>(&mut rng, 2048, nnz);
        let dense = gen::dense_vector(&mut rng, 2048);
        let (_, summary) = run_codebook_spvv(&book, &codes, fiber.idcs(), &dense).unwrap();
        let util = summary.metrics.fpu_utilization();
        // Both operands now ride 4/5-capped indirection lanes.
        assert!(util > 0.7, "codebook SpVV utilization {util:.3}");
    }

    #[test]
    fn empty_inputs() {
        let run = run_gather::<u16>(&[1.0], &[]).unwrap();
        assert!(run.out.is_empty());
        let run = run_scatter::<u16>(8, &[], &[]).unwrap();
        assert_eq!(run.out, vec![0.0; 8]);
    }
}
