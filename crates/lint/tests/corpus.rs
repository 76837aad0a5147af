//! The negative-test corpus: one known-bad program per [`CfgFault`]
//! class and per [`StreamFaultKind`] variant, plus one per
//! linter-internal class (hang, sequencer, PC escape, dead code).
//!
//! For every *statically decidable* fault the corpus enforces
//! **agreement** between the linter and the simulator: the lint
//! diagnostic must name the exact fault at the exact PC (marked with
//! the `fault` symbol), and running the same program must latch the
//! same trap at the same PC (for cfg faults — stream-fault trap PCs are
//! delivery vicinity, so only the cause is compared). Faults classified
//! [`Decidability::RuntimeOnly`] must conversely produce *zero* lint
//! errors while still trapping at runtime — the linter never cries wolf
//! on data-dependent behaviour.

use issr_core::cfg::{
    acc_cfg_word, acc_count_cfg_word, cfg_addr, idx_cfg_word, join_cfg_word, reg as sreg,
    JoinerMode,
};
use issr_core::fault::{StreamFault, StreamFaultKind, StreamUnit};
use issr_core::lane::LaneKind;
use issr_core::serializer::IndexSize;
use issr_core::{CfgFault, HwCaps};
use issr_isa::asm::{Assembler, Program};
use issr_isa::instr::{FrepKind, Instr, Stagger};
use issr_isa::reg::{FpReg, IntReg as R};
use issr_isa::Csr;
use issr_lint::{
    classify_cfg_fault, classify_stream_fault, has_errors, lint_program, Decidability, Diagnostic,
    FaultClass, Severity,
};
use issr_mem::map::TCDM_BASE;
use issr_snitch::cc::SingleCcSim;
use issr_snitch::core::TrapCause;
use issr_snitch::fpu::SequencerFault;
use issr_snitch::params::CcParams;

/// Byte PC of the instruction marked `fault` in a corpus program.
fn fault_pc(program: &Program) -> u32 {
    let idx = program.symbol("fault").expect("corpus program marks its faulting instruction");
    (idx as u32) * 4
}

fn errors(program: &Program, params: &CcParams) -> Vec<Diagnostic> {
    lint_program(program, params).into_iter().filter(|d| d.severity == Severity::Error).collect()
}

/// Full static/dynamic agreement for one statically decidable
/// [`CfgFault`] on the machine `params` describes: lint error with the
/// exact fault payload at the `fault` PC, runtime trap with the same
/// cause at the same PC.
fn assert_cfg_agreement(program: Program, params: CcParams, expect: CfgFault) {
    assert_eq!(classify_cfg_fault(&expect), Decidability::Static, "{expect:?}");
    let pc = fault_pc(&program);
    let errs = errors(&program, &params);
    assert!(
        errs.iter().any(|d| d.pc == pc && d.class == FaultClass::Cfg(expect)),
        "lint must flag {expect:?} at {pc:#x}, got: {errs:?}"
    );
    let mut sim = SingleCcSim::with_params(program, params);
    let summary = sim.run(20_000).expect("cfg-faulted runs drain and finish");
    let trap = summary.trap.expect("the simulator must latch the fault the linter predicted");
    assert_eq!(trap.cause, TrapCause::CfgFault(expect));
    assert_eq!(trap.pc, pc, "trap PC and lint PC must agree for cfg faults");
}

/// A data-dependent fault: the linter must stay silent (no errors), the
/// simulator must latch exactly `expect`.
fn assert_runtime_only(
    mut sim: SingleCcSim,
    program: &Program,
    expect_unit: StreamUnit,
    check_kind: impl Fn(StreamFaultKind) -> bool,
) {
    let errs = errors(program, &CcParams::sssr());
    assert!(errs.is_empty(), "runtime-only faults must not lint as errors: {errs:?}");
    let summary = sim.run(20_000).expect("stream-faulted runs drain and finish");
    let trap = summary.trap.expect("the data must latch the stream fault");
    match trap.cause {
        TrapCause::StreamFault(fault) => {
            assert_eq!(fault.unit, expect_unit);
            assert!(check_kind(fault.kind), "unexpected kind: {:?}", fault.kind);
        }
        other => panic!("expected a stream fault, got {other:?}"),
    }
}

/// Static/dynamic agreement for the sequencer class on the machine
/// `params` describes: the lint rejects the program with
/// [`FaultClass::Sequencer`] at the `fault` PC, and running it parks
/// hart 0 on [`TrapCause::SequencerFault`] with `expect` — the run
/// drains and returns `Ok`. The sequencer runs decoupled from the core,
/// so the trap PC is a vicinity and is not compared.
fn assert_sequencer_agreement(program: Program, params: CcParams, expect: SequencerFault) {
    let pc = fault_pc(&program);
    let errs = errors(&program, &params);
    assert!(
        errs.iter().any(|d| d.pc == pc && d.class == FaultClass::Sequencer),
        "lint must reject {expect:?} at {pc:#x}, got: {errs:?}"
    );
    let mut sim = SingleCcSim::with_params(program, params);
    let summary = sim.run(20_000).expect("sequencer-faulted runs drain and finish");
    let trap = summary.trap.expect("the sequencer must latch the fault the linter predicted");
    assert_eq!(trap.cause, TrapCause::SequencerFault(expect));
    assert_eq!(trap.hartid, 0);
}

// ---- CfgFault corpus: every class, static/dynamic agreement ----

#[test]
fn corpus_bad_lane() {
    let mut a = Assembler::new();
    a.li(R::T0, 1);
    a.symbol("fault");
    a.scfgwi(R::T0, cfg_addr(sreg::BOUNDS[0], 7));
    a.halt();
    assert_cfg_agreement(a.finish().unwrap(), CcParams::sssr(), CfgFault::BadLane { lane: 7 });
}

#[test]
fn corpus_bad_lane_read() {
    let mut a = Assembler::new();
    a.symbol("fault");
    a.scfgri(R::T0, cfg_addr(sreg::STATUS, 3));
    a.halt();
    assert_cfg_agreement(a.finish().unwrap(), CcParams::paper(), CfgFault::BadLane { lane: 3 });
}

#[test]
fn corpus_no_joiner() {
    let mut a = Assembler::new();
    a.li(R::T0, i64::from(join_cfg_word(JoinerMode::Union, IndexSize::U16)));
    a.scfgwi(R::T0, cfg_addr(sreg::JOIN_CFG, 0));
    a.symbol("fault");
    a.scfgwi(R::ZERO, cfg_addr(sreg::RPTR[0], 0));
    a.halt();
    assert_cfg_agreement(a.finish().unwrap(), CcParams::paper(), CfgFault::NoJoiner);
}

#[test]
fn corpus_no_spacc() {
    let mut a = Assembler::new();
    a.li(R::T0, 1);
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_COUNT, 0));
    a.symbol("fault");
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_FEED, 0));
    a.halt();
    assert_cfg_agreement(a.finish().unwrap(), CcParams::paper(), CfgFault::NoSpAcc);
}

#[test]
fn corpus_zero_capacity() {
    let mut a = Assembler::new();
    a.li(R::T0, 4);
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_COUNT, 0));
    a.scfgwi(R::ZERO, cfg_addr(sreg::ACC_BUF_CAP, 0));
    a.li_addr(R::T0, TCDM_BASE + 0x1000);
    a.symbol("fault");
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_FEED, 0));
    a.halt();
    assert_cfg_agreement(a.finish().unwrap(), CcParams::sssr(), CfgFault::ZeroCapacity);
}

/// The linter folds constants through the core's own ALU, division
/// included: a capacity computed as `3 / 4` is the zero the runtime
/// traps on.
#[test]
fn corpus_zero_capacity_from_a_folded_division() {
    let mut a = Assembler::new();
    a.li(R::T0, 4);
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_COUNT, 0));
    a.li(R::T1, 3);
    a.divu(R::T0, R::T1, R::T0); // 3 / 4 = 0
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_BUF_CAP, 0));
    a.li_addr(R::T0, TCDM_BASE + 0x1000);
    a.symbol("fault");
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_FEED, 0));
    a.halt();
    assert_cfg_agreement(a.finish().unwrap(), CcParams::sssr(), CfgFault::ZeroCapacity);
}

#[test]
fn corpus_count_mode_drain() {
    let mut a = Assembler::new();
    a.li(R::T0, i64::from(acc_count_cfg_word(IndexSize::U16)));
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_CFG, 0));
    a.li_addr(R::T0, TCDM_BASE + 0x2000);
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_VAL_OUT, 0));
    a.li_addr(R::T0, TCDM_BASE + 0x1000);
    a.symbol("fault");
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_DRAIN, 0));
    a.halt();
    assert_cfg_agreement(a.finish().unwrap(), CcParams::sssr(), CfgFault::CountModeDrain);
}

#[test]
fn corpus_no_indirection() {
    let mut a = Assembler::new();
    a.li(R::T0, i64::from(idx_cfg_word(IndexSize::U16, 0)));
    a.scfgwi(R::T0, cfg_addr(sreg::IDX_CFG, 0));
    a.li(R::T0, 3);
    a.scfgwi(R::T0, cfg_addr(sreg::BOUNDS[0], 0));
    a.li_addr(R::T0, TCDM_BASE + 0x1000);
    a.symbol("fault");
    a.scfgwi(R::T0, cfg_addr(sreg::RPTR[0], 0)); // lane 0 is a plain SSR
    a.halt();
    assert_cfg_agreement(
        a.finish().unwrap(),
        CcParams::sssr(),
        CfgFault::NoIndirection { lane: 0 },
    );
}

#[test]
fn corpus_bad_joiner_launch() {
    let mut a = Assembler::new();
    a.li(R::T0, i64::from(join_cfg_word(JoinerMode::Intersect, IndexSize::U16)));
    a.scfgwi(R::T0, cfg_addr(sreg::JOIN_CFG, 1)); // lane 1's shadow
    a.li_addr(R::T0, TCDM_BASE + 0x1000);
    a.symbol("fault");
    a.scfgwi(R::T0, cfg_addr(sreg::RPTR[0], 1));
    a.halt();
    assert_cfg_agreement(
        a.finish().unwrap(),
        CcParams::sssr(),
        CfgFault::BadJoinerLaunch { lane: 1 },
    );
}

#[test]
fn corpus_misaligned_drain() {
    let mut a = Assembler::new();
    a.li_addr(R::T0, TCDM_BASE + 0x2004); // not word aligned
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_VAL_OUT, 0));
    a.li_addr(R::T0, TCDM_BASE + 0x1000);
    a.symbol("fault");
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_DRAIN, 0));
    a.halt();
    assert_cfg_agreement(
        a.finish().unwrap(),
        CcParams::sssr(),
        CfgFault::MisalignedDrain { idx_out: TCDM_BASE + 0x1000, val_out: TCDM_BASE + 0x2004 },
    );
}

// ---- StreamFaultKind corpus ----

/// `PortConflict` is the one statically decidable stream fault: the
/// lint error carries the same unit/kind the runtime latches, anchored
/// at the conflicting launch.
#[test]
fn corpus_port_conflict() {
    assert_eq!(classify_stream_fault(&StreamFaultKind::PortConflict), Decidability::Static);
    let idx_base = TCDM_BASE + 0x1000;
    let mut a = Assembler::new();
    a.li(R::T0, i64::from(acc_cfg_word(IndexSize::U16)));
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_CFG, 0));
    a.li(R::T0, 4);
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_COUNT, 0));
    a.li_addr(R::T0, idx_base);
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_FEED, 0)); // stays busy: no values
    a.li(R::T0, 3);
    a.scfgwi(R::T0, cfg_addr(sreg::BOUNDS[0], 1));
    a.li(R::T0, 8);
    a.scfgwi(R::T0, cfg_addr(sreg::STRIDES[0], 1));
    a.li_addr(R::T0, TCDM_BASE + 0x4000);
    a.symbol("fault");
    a.scfgwi(R::T0, cfg_addr(sreg::RPTR[0], 1)); // lane 1: the SpAcc's port
    a.halt();
    let program = a.finish().unwrap();
    let expect = StreamFault { unit: StreamUnit::Lane(1), kind: StreamFaultKind::PortConflict };
    let pc = fault_pc(&program);
    let errs = errors(&program, &CcParams::sssr());
    assert!(
        errs.iter().any(|d| d.pc == pc && d.class == FaultClass::Stream(expect)),
        "lint must flag the port conflict at {pc:#x}, got: {errs:?}"
    );
    // Runtime confirmation. The stream-fault trap PC is the delivery
    // vicinity, so only the cause is compared.
    let mut sim = SingleCcSim::with_params(program, CcParams::sssr());
    sim.mem.array_mut().store_u16_slice(idx_base, &[1, 2, 3, 4]);
    let summary = sim.run(20_000).expect("the conflict drains, not deadlocks");
    assert_eq!(
        summary.trap.expect("port conflict must trap").cause,
        TrapCause::StreamFault(expect)
    );
}

/// A count-only SpAcc feed of `count` distinct indices from `idx_base`,
/// spinning on completion — the trap-path probe program.
fn symbolic_feed_program(cap: u32, count: u32, idx_base: u32) -> Program {
    let mut a = Assembler::new();
    a.li(R::T0, i64::from(acc_count_cfg_word(IndexSize::U16)));
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_CFG, 0));
    a.li(R::T0, i64::from(cap));
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_BUF_CAP, 0));
    a.li(R::T0, i64::from(count));
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_COUNT, 0));
    a.li_addr(R::T0, idx_base);
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_FEED, 0));
    let spin = a.bind_label();
    a.scfgri(R::T1, cfg_addr(sreg::ACC_STATUS, 0));
    a.andi(R::T1, R::T1, 1);
    a.beqz(R::T1, spin);
    a.halt();
    a.finish().unwrap()
}

#[test]
fn corpus_overflow_is_runtime_only() {
    let cap = 8u32;
    assert_eq!(
        classify_stream_fault(&StreamFaultKind::Overflow { cap }),
        Decidability::RuntimeOnly
    );
    let idx_base = TCDM_BASE + 0x1000;
    let program = symbolic_feed_program(cap, cap + 1, idx_base);
    let mut sim = SingleCcSim::with_params(program.clone(), CcParams::sssr());
    let idcs: Vec<u16> = (0..=cap as u16).map(|i| i * 3).collect();
    sim.mem.array_mut().store_u16_slice(idx_base, &idcs);
    assert_runtime_only(sim, &program, StreamUnit::SpAcc, |k| {
        k == StreamFaultKind::Overflow { cap }
    });
}

#[test]
fn corpus_unsorted_is_runtime_only() {
    assert_eq!(
        classify_stream_fault(&StreamFaultKind::Unsorted { prev: 9, next: 3 }),
        Decidability::RuntimeOnly
    );
    let idx_base = TCDM_BASE + 0x1000;
    let program = symbolic_feed_program(64, 3, idx_base);
    let mut sim = SingleCcSim::with_params(program.clone(), CcParams::sssr());
    sim.mem.array_mut().store_u16_slice(idx_base, &[2, 9, 3]);
    assert_runtime_only(sim, &program, StreamUnit::SpAcc, |k| {
        k == StreamFaultKind::Unsorted { prev: 9, next: 3 }
    });
}

/// The *data-dependent* stall (a value-mode feed whose write stream is
/// starved by the program's own schedule) is runtime-only: the feed
/// launch is legal, only the missing deliveries trip the watchdog.
#[test]
fn corpus_stall_is_runtime_only() {
    assert_eq!(
        classify_stream_fault(&StreamFaultKind::Stall { cycles: 300 }),
        Decidability::RuntimeOnly
    );
    let idx_base = TCDM_BASE + 0x1000;
    let mut a = Assembler::new();
    a.li(R::T0, i64::from(acc_cfg_word(IndexSize::U16)));
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_CFG, 0));
    a.li(R::T0, 2);
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_COUNT, 0));
    a.li_addr(R::T0, idx_base);
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_FEED, 0)); // never fed a value
    let spin = a.bind_label();
    a.scfgri(R::T1, cfg_addr(sreg::ACC_STATUS, 0));
    a.andi(R::T1, R::T1, 1);
    a.beqz(R::T1, spin);
    a.halt();
    let program = a.finish().unwrap();
    let mut sim = SingleCcSim::with_params(program.clone(), CcParams::sssr());
    sim.cc.streamer.set_spacc_watchdog(300);
    sim.mem.array_mut().store_u16_slice(idx_base, &[4, 7]);
    assert_runtime_only(
        sim,
        &program,
        StreamUnit::SpAcc,
        |k| matches!(k, StreamFaultKind::Stall { cycles } if cycles >= 300),
    );
}

// ---- linter-internal classes ----

/// Reading a stream register whose lane never launched a job is the
/// statically caught *hang*: no trap at runtime, just `SimTimeout`.
#[test]
fn corpus_stream_read_before_configure_hangs() {
    let mut a = Assembler::new();
    a.csrsi(Csr::Ssr, 1);
    a.symbol("fault");
    a.fadd_d(FpReg::FT3, FpReg::FT0, FpReg::FT0); // ft0: lane 0, no job
    a.csrci(Csr::Ssr, 1);
    a.halt();
    let program = a.finish().unwrap();
    let pc = fault_pc(&program);
    let errs = errors(&program, &CcParams::paper());
    assert!(
        errs.iter().any(|d| d.pc == pc && d.class == FaultClass::Hang),
        "lint must flag the hang at {pc:#x}, got: {errs:?}"
    );
    let mut sim = SingleCcSim::new(program);
    assert!(sim.run(20_000).is_err(), "the unconfigured read must time out, not finish");
}

#[test]
fn corpus_frep_body_with_branch() {
    let mut a = Assembler::new();
    a.li(R::T0, 3);
    a.frep_outer(R::T0, 2, Stagger::NONE);
    a.fadd_d(FpReg::FT3, FpReg::FT3, FpReg::FT3);
    let out = a.new_label();
    a.symbol("fault");
    a.beqz(R::T1, out); // control flow inside the capture window
    a.bind(out);
    a.halt();
    // The sequencer only sees the offloaded FP stream, so a window the
    // core leaves early is a capture that can never complete: it is
    // latched once the core halts with one body instruction missing.
    assert_sequencer_agreement(
        a.finish().unwrap(),
        CcParams::paper(),
        SequencerFault::AbandonedWindow { remaining: 1 },
    );
}

#[test]
fn corpus_frep_empty_body() {
    let mut a = Assembler::new();
    a.li(R::T0, 3);
    a.symbol("fault");
    a.push(Instr::Frep {
        kind: FrepKind::Outer,
        max_rpt: R::T0,
        n_insns: 0,
        stagger: Stagger::NONE,
    });
    a.halt();
    assert_sequencer_agreement(a.finish().unwrap(), CcParams::paper(), SequencerFault::EmptyBody);
}

#[test]
fn corpus_frep_nested() {
    let mut a = Assembler::new();
    a.li(R::T0, 3);
    a.frep_outer(R::T0, 2, Stagger::NONE);
    a.symbol("fault");
    a.frep_outer(R::T0, 1, Stagger::NONE); // a marker inside the capture window
    a.fadd_d(FpReg::FT3, FpReg::FT3, FpReg::FT3);
    a.fadd_d(FpReg::FT4, FpReg::FT4, FpReg::FT4);
    a.halt();
    assert_sequencer_agreement(a.finish().unwrap(), CcParams::paper(), SequencerFault::NestedFrep);
}

/// An `frep` whose body is `n_insns` long, the fault marked at it.
fn frep_body_program(n_insns: u8) -> Program {
    let mut a = Assembler::new();
    a.li(R::T0, 1);
    a.symbol("fault");
    a.frep_outer(R::T0, n_insns, Stagger::NONE);
    for _ in 0..n_insns {
        a.fadd_d(FpReg::FT3, FpReg::FT3, FpReg::FT3);
    }
    a.halt();
    a.finish().unwrap()
}

#[test]
fn corpus_frep_body_exceeds_the_buffer() {
    let buffer = CcParams::paper().frep_buffer;
    let n_insns = u8::try_from(buffer + 1).unwrap();
    assert_sequencer_agreement(
        frep_body_program(n_insns),
        CcParams::paper(),
        SequencerFault::BodyTooLong { n_insns, buffer },
    );
}

/// The buffer depth the linter checks is the one the simulator is built
/// with: a body the paper's 16-entry buffer holds is rejected by both
/// on a machine with an 8-entry buffer.
#[test]
fn corpus_frep_body_exceeds_a_smaller_buffer() {
    let program = frep_body_program(12);
    assert!(errors(&program, &CcParams::paper()).is_empty(), "12 instructions fit 16 entries");
    assert_sequencer_agreement(
        program,
        CcParams { frep_buffer: 8, ..CcParams::paper() },
        SequencerFault::BodyTooLong { n_insns: 12, buffer: 8 },
    );
}

/// A sequencer marker inside an `frep.s` body, past its first
/// instruction: the stream-terminated capture buffers FP instructions
/// only, and the one non-FP operation the core offloads is an `frep`.
#[test]
fn corpus_frep_stream_body_with_marker() {
    let mut a = Assembler::new();
    a.li(R::T0, 1);
    a.frep_stream(2, Stagger::NONE);
    a.fadd_d(FpReg::FT3, FpReg::FT0, FpReg::FT3);
    a.symbol("fault");
    a.frep_outer(R::T0, 1, Stagger::NONE);
    a.fadd_d(FpReg::FT4, FpReg::FT4, FpReg::FT4);
    a.halt();
    assert_sequencer_agreement(a.finish().unwrap(), CcParams::paper(), SequencerFault::NestedFrep);
}

/// `frep.s` with no stream-register source in the body terminates after
/// zero iterations — the unbounded-trip check's complement: a stream
/// loop must consume a stream.
#[test]
fn corpus_frep_stream_without_stream_source() {
    let mut a = Assembler::new();
    a.symbol("fault");
    a.frep_stream(1, Stagger::NONE);
    a.fadd_d(FpReg::FT3, FpReg::FT4, FpReg::FT4);
    a.halt();
    let program = a.finish().unwrap();
    let pc = fault_pc(&program);
    let diags = lint_program(&program, &CcParams::paper());
    assert!(
        diags.iter().any(|d| d.pc == pc
            && d.severity == Severity::Warning
            && d.class == FaultClass::Sequencer),
        "lint must warn on the zero-trip frep.s, got: {diags:?}"
    );
}

#[test]
fn corpus_fld_into_stream_register_under_ssr() {
    let mut a = Assembler::new();
    a.csrsi(Csr::Ssr, 1);
    a.li_addr(R::T0, TCDM_BASE + 0x1000);
    a.symbol("fault");
    a.fld(FpReg::FT0, R::T0, 0); // ft0 is redirected while ssr is on
    a.csrci(Csr::Ssr, 1);
    a.halt();
    assert_sequencer_agreement(
        a.finish().unwrap(),
        CcParams::paper(),
        SequencerFault::FldIntoStream { rd: FpReg::FT0 },
    );
}

#[test]
fn corpus_missing_halt_is_pc_escape() {
    let mut a = Assembler::new();
    a.symbol("fault");
    a.li(R::T0, 1); // no halt: execution runs off the end
    let program = a.finish().unwrap();
    let errs = errors(&program, &CcParams::paper());
    assert!(
        errs.iter().any(|d| d.class == FaultClass::PcOutOfRange),
        "lint must flag the missing halt, got: {errs:?}"
    );
    let mut sim = SingleCcSim::new(program);
    let summary = sim.run(20_000).expect("the PC escape parks the core, the run drains");
    assert_eq!(summary.trap.expect("runtime confirms").cause, TrapCause::PcOutOfRange);
}

#[test]
fn corpus_dead_cfg_write_warns() {
    let mut a = Assembler::new();
    a.li(R::T0, 3);
    a.symbol("fault");
    a.scfgwi(R::T0, cfg_addr(sreg::BOUNDS[0], 0)); // nothing ever launches
    a.halt();
    let program = a.finish().unwrap();
    let pc = fault_pc(&program);
    let diags = lint_program(&program, &CcParams::paper());
    assert!(
        diags.iter().any(|d| d.pc == pc
            && d.severity == Severity::Warning
            && d.class == FaultClass::Dead
            && d.message.contains("never consumed")),
        "lint must warn on the unconsumed cfg write, got: {diags:?}"
    );
}

#[test]
fn corpus_unreachable_code_warns() {
    let mut a = Assembler::new();
    let skip = a.new_label();
    a.j(skip);
    a.symbol("fault");
    a.nop(); // jumped over
    a.bind(skip);
    a.halt();
    let program = a.finish().unwrap();
    let pc = fault_pc(&program);
    let diags = lint_program(&program, &CcParams::paper());
    assert!(
        diags.iter().any(|d| d.pc == pc
            && d.severity == Severity::Warning
            && d.class == FaultClass::Dead
            && d.message.contains("unreachable")),
        "lint must warn on the unreachable instruction, got: {diags:?}"
    );
}

/// Alignment padding behind a jump is placed, not forgotten: lint
/// reports none of it, while the same `nop` without the directive is
/// unreachable code (`corpus_unreachable_code_warns`).
#[test]
fn corpus_alignment_padding_is_not_dead_code() {
    let mut a = Assembler::new();
    let line = a.new_label();
    a.j(line);
    a.align(32);
    assert_eq!(a.here() * 4 % 32, 0);
    a.bind(line);
    a.halt();
    let program = a.finish().unwrap();
    assert!(program.is_padding(1), "the jump is followed by padding");
    let diags = lint_program(&program, &CcParams::paper());
    assert!(diags.is_empty(), "padding must lint clean, got: {diags:?}");
}

/// Every corpus fault above appears in the classification table, and
/// the table itself is exhaustive (`classify_*` match on the enums with
/// no wildcard — adding a variant breaks the build until classified).
#[test]
fn corpus_covers_the_classification_table() {
    let statics = [
        CfgFault::BadLane { lane: 7 },
        CfgFault::NoJoiner,
        CfgFault::NoSpAcc,
        CfgFault::ZeroCapacity,
        CfgFault::CountModeDrain,
        CfgFault::NoIndirection { lane: 0 },
        CfgFault::BadJoinerLaunch { lane: 1 },
        CfgFault::MisalignedDrain { idx_out: 0, val_out: 4 },
    ];
    for f in &statics {
        assert_eq!(classify_cfg_fault(f), Decidability::Static);
    }
    assert_eq!(classify_stream_fault(&StreamFaultKind::PortConflict), Decidability::Static);
    for k in [
        StreamFaultKind::Overflow { cap: 8 },
        StreamFaultKind::Unsorted { prev: 9, next: 3 },
        StreamFaultKind::Stall { cycles: 300 },
    ] {
        assert_eq!(classify_stream_fault(&k), Decidability::RuntimeOnly);
    }
    // And a well-formed program produces nothing at all.
    let mut a = Assembler::new();
    a.li(R::T0, 1);
    a.halt();
    let diags = lint_program(&a.finish().unwrap(), &CcParams::paper());
    assert!(!has_errors(&diags) && diags.is_empty(), "clean probe: {diags:?}");
}

// ---- Degenerate caller-constructed targets ----
//
// `HwCaps`'s fields are public, so shapes the named descriptions never
// produce — a single-lane joiner (which `Streamer::new` rejects), more
// lanes than the liveness bitset holds — must lint gracefully, not
// panic or mis-analyze.

#[test]
fn single_lane_joiner_target_lints_without_panic() {
    let streamer = HwCaps { lanes: &[LaneKind::Issr], has_joiner: true, has_spacc: false };
    let target = CcParams { streamer, ..CcParams::paper() };

    // Definite joiner launch: JOIN_CFG enabled by a program constant.
    let mut a = Assembler::new();
    a.li(R::T0, i64::from(join_cfg_word(JoinerMode::Union, IndexSize::U16)));
    a.scfgwi(R::T0, cfg_addr(sreg::JOIN_CFG, 0));
    a.scfgwi(R::ZERO, cfg_addr(sreg::RPTR[0], 0));
    a.halt();
    let _ = lint_program(&a.finish().unwrap(), &target);

    // Maybe-joiner launch: JOIN_CFG written from an unknown register,
    // so the RPTR write joins both the launch and plain-job effects.
    let mut a = Assembler::new();
    a.scfgwi(R::A0, cfg_addr(sreg::JOIN_CFG, 0));
    a.scfgwi(R::ZERO, cfg_addr(sreg::RPTR[0], 0));
    a.halt();
    let _ = lint_program(&a.finish().unwrap(), &target);
}

#[test]
fn oversized_lane_target_skips_dead_write_analysis() {
    // 8 lanes x 20 cells = 160 bits: past the u128 (lane, cell) bitset,
    // so the dead-write pass skips itself rather than computing with a
    // wrapped mask. The unconsumed write below must simply go
    // unreported — never flagged from garbage liveness bits, never a
    // panic.
    let streamer = HwCaps { lanes: &[LaneKind::Ssr; 8], ..HwCaps::PAPER };
    let target = CcParams { streamer, ..CcParams::paper() };
    let mut a = Assembler::new();
    a.li(R::T0, 3);
    a.scfgwi(R::T0, cfg_addr(sreg::BOUNDS[0], 7)); // nothing ever launches
    a.halt();
    let diags = lint_program(&a.finish().unwrap(), &target);
    assert!(
        !diags.iter().any(|d| d.class == FaultClass::Dead && d.message.contains("never consumed")),
        "dead-write analysis must be skipped for oversized targets: {diags:?}"
    );
}
