//! One definition of an FP instruction's operands, read by the FPU and
//! by the linter. For every FP instruction variant a stream register is
//! put in each of its FP operand slots in turn: the FPU must pop (or
//! push) exactly the lanes [`Instr::fp_operands`] names, in slot order,
//! and the linter's "no read/write job launched" hang check must name
//! the same registers.

use issr_core::streamer::Streamer;
use issr_isa::asm::Assembler;
use issr_isa::instr::{FpCmp, FpOp2, FpOp3, Instr};
use issr_isa::reg::{FpReg as F, IntReg as R};
use issr_isa::Csr;
use issr_lint::{lint_program, FaultClass};
use issr_mem::port::MemPort;
use issr_snitch::fpu::{FpOp, FpuSubsystem, SequencerFault};
use issr_snitch::metrics::Metrics;
use issr_snitch::params::CcParams;

/// Lane 0's stream register on the paper's streamer.
const S: F = F::FT0;

/// Every FP instruction variant with `S` in each of its FP operand
/// slots, and that slot, written out from the RISC-V field names.
fn table() -> Vec<(Instr, usize)> {
    let fmadd = |rd, rs1, rs2, rs3| Instr::FpuOp3 { op: FpOp3::FmaddD, rd, rs1, rs2, rs3 };
    let fadd = |rd, rs1, rs2| Instr::FpuOp2 { op: FpOp2::FaddD, rd, rs1, rs2 };
    let flt = |rs1, rs2| Instr::FpuCmp { op: FpCmp::FltD, rd: R::T0, rs1, rs2 };
    let (a, b, c, d) = (F::FT4, F::FT5, F::FT6, F::FT7);
    vec![
        (fmadd(S, b, c, d), 0),
        (fmadd(a, S, c, d), 1),
        (fmadd(a, b, S, d), 2),
        (fmadd(a, b, c, S), 3),
        (fadd(S, b, c), 0),
        (fadd(a, S, c), 1),
        (fadd(a, b, S), 2),
        (flt(S, c), 1),
        (flt(b, S), 2),
        (Instr::FmvD { rd: S, rs1: b }, 0),
        (Instr::FmvD { rd: a, rs1: S }, 1),
        (Instr::FcvtDW { rd: S, rs1: R::A0 }, 0),
        (Instr::FcvtWD { rd: R::T0, rs1: S }, 1),
        (Instr::Fsd { rs2: S, rs1: R::A0, offset: 0 }, 2),
        (Instr::Fld { rd: S, rs1: R::A0, offset: 0 }, 0),
    ]
}

/// A stream access: (`"reads"` or `"writes"`, register name).
type Access = (&'static str, String);

/// Issues `instr` alone on an FPU whose stream lane `i` holds
/// `lanes[i]`, with redirection on and no lane job running; returns the
/// FPU and streamer after it drained, and any sequencer fault.
fn run_on_fpu(instr: Instr, lanes: &[&[f64]]) -> (FpuSubsystem, Streamer, Option<SequencerFault>) {
    let mut fpu = FpuSubsystem::new(CcParams::paper());
    let mut streamer = Streamer::paper_config();
    streamer.set_enabled(true);
    for (lane, values) in lanes.iter().enumerate() {
        for &v in *values {
            streamer.lane_mut(lane).inject(v.to_bits());
        }
    }
    fpu.offload(FpOp { instr, aux: 0x1000 });
    let (mut port, mut metrics) = (MemPort::new(), Metrics::default());
    for now in 0..40 {
        fpu.tick(now, &mut port, &mut streamer, &mut metrics);
    }
    let fault = fpu.take_sequencer_fault();
    (fpu, streamer, fault)
}

/// The stream accesses the FPU made, lane by lane.
fn fpu_accesses(streamer: &Streamer) -> Vec<Access> {
    let mut out = Vec::new();
    for lane in 0..streamer.n_lanes() {
        let stats = streamer.lane(lane).stats();
        let reg = F::new(lane as u8).to_string();
        out.extend((0..stats.fpu_reads).map(|_| ("reads", reg.clone())));
        out.extend((0..stats.fpu_writes).map(|_| ("writes", reg.clone())));
    }
    out.sort();
    out
}

/// The stream accesses the operand slots name on the paper's streamer.
fn slot_accesses(instr: Instr) -> Vec<Access> {
    let n_lanes = Streamer::paper_config().n_lanes();
    let mut out: Vec<Access> = instr
        .fp_operands()
        .into_iter()
        .enumerate()
        .filter_map(|(slot, r)| Some((slot, r?)))
        .filter(|(_, r)| (r.index() as usize) < n_lanes)
        .map(|(slot, r)| (if slot == 0 { "writes" } else { "reads" }, r.to_string()))
        .collect();
    out.sort();
    out
}

/// The registers lint's hang check names for `instr` under `ssr` with
/// no lane job launched, and whether lint reported a sequencer fault.
fn lint_accesses(instr: Instr) -> (Vec<Access>, bool) {
    let mut a = Assembler::new();
    a.csrsi(Csr::Ssr, 1);
    a.push(instr);
    a.csrci(Csr::Ssr, 1);
    a.halt();
    let diags = lint_program(&a.finish().unwrap(), &CcParams::paper());
    let mut out: Vec<Access> = diags
        .iter()
        .filter(|d| d.class == FaultClass::Hang && d.pc == 4)
        .map(|d| {
            let kind = if d.message.starts_with("reads") { "reads" } else { "writes" };
            let reg = d.message.split("stream register ").nth(1).unwrap();
            (kind, reg.split_whitespace().next().unwrap().to_string())
        })
        .collect();
    out.sort();
    let sequencer = diags.iter().any(|d| d.class == FaultClass::Sequencer && d.pc == 4);
    (out, sequencer)
}

#[test]
fn fpu_and_lint_read_the_same_operand_slots() {
    for (instr, slot) in table() {
        let slots = instr.fp_operands();
        assert_eq!(
            slots.iter().position(|&r| r == Some(S)),
            Some(slot),
            "`{instr}` names {S} in slot {slot}"
        );
        let (_, streamer, fault) = run_on_fpu(instr, &[&[1.0]]);
        let (lint, sequencer) = lint_accesses(instr);
        if let Instr::Fld { .. } = instr {
            // Written through memory: a guest fault on both sides, never
            // a stream push and never a write-stream hang.
            assert_eq!(fault, Some(SequencerFault::FldIntoStream { rd: S }));
            assert!(sequencer && lint.is_empty(), "`{instr}`: {lint:?}");
            assert!(fpu_accesses(&streamer).is_empty());
            continue;
        }
        let expect = slot_accesses(instr);
        let kind = if slot == 0 { "writes" } else { "reads" };
        assert_eq!(expect, [(kind, S.to_string())], "`{instr}`");
        assert_eq!(fault, None, "`{instr}`");
        assert_eq!(fpu_accesses(&streamer), expect, "`{instr}`: FPU");
        assert_eq!(lint, expect, "`{instr}`: lint");
    }
}

/// A register named in several slots pops its lane once per naming, in
/// slot order, and lint names it once per naming too.
#[test]
fn sources_pop_in_slot_order() {
    let fmadd = Instr::FpuOp3 { op: FpOp3::FmaddD, rd: F::FT3, rs1: S, rs2: S, rs3: S };
    let (fpu, streamer, _) = run_on_fpu(fmadd, &[&[2.0, 3.0, 5.0]]);
    assert_eq!(fpu.reg(F::FT3), 2.0 * 3.0 + 5.0);
    assert_eq!(fpu_accesses(&streamer), slot_accesses(fmadd));
    assert_eq!(lint_accesses(fmadd).0, slot_accesses(fmadd));
    assert_eq!(slot_accesses(fmadd).len(), 3);

    let fsub = Instr::FpuOp2 { op: FpOp2::FsubD, rd: F::FT3, rs1: S, rs2: S };
    let (fpu, streamer, _) = run_on_fpu(fsub, &[&[5.0, 2.0]]);
    assert_eq!(fpu.reg(F::FT3), 3.0);
    assert_eq!(fpu_accesses(&streamer), slot_accesses(fsub));

    // Both lanes, crossed: rs1 from lane 1, rs2 from lane 0.
    let fdiv = Instr::FpuOp2 { op: FpOp2::FdivD, rd: F::FT3, rs1: F::FT1, rs2: S };
    let (fpu, streamer, _) = run_on_fpu(fdiv, &[&[4.0], &[1.0]]);
    assert_eq!(fpu.reg(F::FT3), 0.25);
    assert_eq!(fpu_accesses(&streamer), slot_accesses(fdiv));
    assert_eq!(lint_accesses(fdiv).0, slot_accesses(fdiv));
}
