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
use crate::harness::{self, OnTrap};
use crate::layout::{alloc_result, place_f64s, place_indices, Arena};
use crate::variant::{issr_accumulators, KernelIndex};
use issr_core::HwCaps;
use issr_isa::asm::{Assembler, Program};
use issr_isa::instr::Stagger;
use issr_isa::reg::{FpReg, IntReg as R};
use issr_mem::array::MemArray;
use issr_snitch::cc::{RunSummary, SimTimeout};
use issr_snitch::params::CcParams;

/// Addresses the gather and scatter builders bake into the program.
#[derive(Clone, Copy, Debug)]
pub struct StreamAddrs {
    /// The array read in order (scatter) or through the indices (gather).
    pub src: u32,
    /// The index array (`n` entries).
    pub idcs: u32,
    /// The array written through the indices (scatter) or in order
    /// (gather).
    pub dst: u32,
    /// Elements moved.
    pub n: u32,
}

/// Builds the gather program: lane 0 (SSR) is an affine write stream
/// over `dst`, lane 1 (ISSR) the gather read stream.
#[must_use]
pub fn build_gather<I: KernelIndex>(addrs: StreamAddrs) -> Program {
    let StreamAddrs { src, idcs, dst, n } = addrs;
    build_stream_move(n, FpReg::FT0, FpReg::FT1, |asm| {
        emit_affine_write(asm, 0, dst, n, 8);
        emit_indirect_read::<I>(asm, 1, idcs, n, 0, src);
    })
}

/// Builds the scatter program: lane 0 (SSR) is an affine read stream
/// over `src`, lane 1 (ISSR) the scatter write stream.
#[must_use]
pub fn build_scatter<I: KernelIndex>(addrs: StreamAddrs) -> Program {
    let StreamAddrs { src, idcs, dst, n } = addrs;
    build_stream_move(n, FpReg::FT1, FpReg::FT0, |asm| {
        emit_affine_read(asm, 0, src, n, 8);
        emit_indirect_write::<I>(asm, 1, idcs, n, 0, dst);
    })
}

/// Both jobs of `emit_jobs`, then one `fmv.d to, from` under FREP per
/// element.
fn build_stream_move(
    n: u32,
    to: FpReg,
    from: FpReg,
    emit_jobs: impl FnOnce(&mut Assembler),
) -> Program {
    let mut asm = Assembler::new();
    asm.roi_begin();
    if n > 0 {
        emit_jobs(&mut asm);
        asm.csrsi(issr_isa::Csr::Ssr, 1);
        asm.li(R::T1, i64::from(n) - 1);
        asm.frep_outer(R::T1, 1, Stagger::NONE);
        asm.fmv_d(to, from);
    }
    asm.roi_end();
    if n > 0 {
        asm.csrci(issr_isa::Csr::Ssr, 1);
    }
    asm.halt();
    asm.finish().expect("streaming move assembles")
}

/// Places the source and index arrays and a `dst_len`-element
/// destination.
pub(crate) fn place_stream<I: KernelIndex>(
    arena: &mut Arena,
    mem: &mut MemArray,
    src: &[f64],
    idcs: &[I],
    dst_len: usize,
) -> StreamAddrs {
    StreamAddrs {
        src: place_f64s(arena, mem, src),
        idcs: place_indices(arena, mem, idcs),
        dst: alloc_result(arena, dst_len.max(1) as u32),
        n: idcs.len() as u32,
    }
}

/// Result of a streaming-application run.
#[derive(Clone, Debug)]
pub struct StreamRun {
    /// The produced array.
    pub out: Vec<f64>,
    /// Cycle-level summary.
    pub summary: RunSummary,
}

fn run_stream_move<I: KernelIndex>(
    build: fn(StreamAddrs) -> Program,
    src: &[f64],
    idcs: &[I],
    dst_len: usize,
) -> Result<StreamRun, SimTimeout> {
    let (sim, addrs, summary) = harness::single_cc(
        CcParams::paper(),
        OnTrap::Panic,
        |arena, mem| place_stream(arena, mem, src, idcs, dst_len),
        build,
        100_000 + 16 * idcs.len() as u64,
    )?;
    Ok(StreamRun { out: sim.mem.array().load_f64_slice(addrs.dst, dst_len), summary })
}

/// Gather: `out[j] = data[idcs[j]]` — a streaming scatter-gather unit
/// in action. Also the codebook decoder when `data` is a codebook.
///
/// # Errors
/// Returns [`SimTimeout`] on a simulation bug.
pub fn run_gather<I: KernelIndex>(data: &[f64], idcs: &[I]) -> Result<StreamRun, SimTimeout> {
    run_stream_move(build_gather::<I>, data, idcs, idcs.len())
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
    run_stream_move(build_scatter::<I>, vals, idcs, dim)
}

/// Addresses the codebook-SpVV builder bakes into the program.
#[derive(Clone, Copy, Debug)]
pub struct CodebookSpvvAddrs {
    /// The codebook.
    pub codebook: u32,
    /// The dense operand.
    pub dense: u32,
    /// Codebook positions of the `n` sparse values.
    pub codes: u32,
    /// Dense positions of the `n` sparse values.
    pub idcs: u32,
    /// Result slot (one double).
    pub out: u32,
    /// Nonzero count.
    pub n: u32,
}

/// Builds the codebook-SpVV program for a streamer with **two ISSRs**:
/// lane 0 decodes `codebook[codes[j]]`, lane 1 gathers
/// `dense[idcs[j]]`; the loop is Listing 1's single staggered `fmadd.d`.
#[must_use]
pub fn build_codebook_spvv<I: KernelIndex>(addrs: CodebookSpvvAddrs) -> Program {
    let n_acc = issr_accumulators(I::IDX_SIZE);
    let mut asm = Assembler::new();
    asm.li_addr(R::A2, addrs.out);
    asm.roi_begin();
    if addrs.n == 0 {
        asm.fcvt_d_w(ACC0, R::ZERO);
        asm.fsd(ACC0, R::A2, 0);
        asm.roi_end();
    } else {
        emit_indirect_read::<I>(&mut asm, 0, addrs.codes, addrs.n, 0, addrs.codebook);
        emit_indirect_read::<I>(&mut asm, 1, addrs.idcs, addrs.n, 0, addrs.dense);
        asm.csrsi(issr_isa::Csr::Ssr, 1);
        emit_zero_accumulators(&mut asm, ACC0, n_acc);
        asm.li(R::T1, i64::from(addrs.n) - 1);
        asm.frep_outer(R::T1, 1, Stagger::accumulator(n_acc));
        asm.fmadd_d(ACC0, FpReg::FT0, FpReg::FT1, ACC0);
        emit_reduction_tree(&mut asm, ACC0, n_acc);
        asm.fsd(ACC0, R::A2, 0);
        asm.roi_end();
        asm.csrci(issr_isa::Csr::Ssr, 1);
    }
    asm.halt();
    asm.finish().expect("codebook spvv assembles")
}

/// Dot product of a codebook-compressed sparse vector with a dense one,
/// on a streamer with **two ISSRs** — same code shape and performance
/// as the ordinary ISSR SpVV, as §III-C argues.
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
    let (sim, addrs, summary) = harness::single_cc(
        CcParams { streamer: HwCaps::CODEBOOK, ..CcParams::paper() },
        OnTrap::Panic,
        |arena, mem| CodebookSpvvAddrs {
            codebook: place_f64s(arena, mem, codebook),
            dense: place_f64s(arena, mem, dense),
            codes: place_indices(arena, mem, codes),
            idcs: place_indices(arena, mem, idcs),
            out: alloc_result(arena, 1),
            n: codes.len() as u32,
        },
        build_codebook_spvv::<I>,
        100_000 + 64 * codes.len() as u64,
    )?;
    Ok((sim.mem.array().load_f64(addrs.out), summary))
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
