//! Trap-path tests: malformed SpAcc/joiner configuration words must
//! latch a structured [`Trap`]/[`TrapCause::CfgFault`] that surfaces
//! through `RunSummary.trap` (single CC) and `ClusterSummary.traps`
//! (cluster) — and *mid-stream* failures (row-buffer overflow at the
//! capacity boundary, unsorted feeds, drain stalls, port conflicts)
//! must latch a [`TrapCause::StreamFault`] the same way: the simulator
//! drains and reports instead of panicking, and sibling harts in a
//! cluster finish bit-identically. A data access no mapped region
//! contains — a core load or store, an ISSR gather through an
//! out-of-range index — parks its core complex on a
//! [`TrapCause::AccessFault`] on all three run harnesses, and a DMA
//! descriptor the engine cannot run parks the DMCC on one. An `frep`
//! window the core halts inside parks its hart on a
//! [`TrapCause::SequencerFault`] instead of spinning to the cycle limit.

use issr_cluster::cluster::{Cluster, ClusterParams};
use issr_core::cfg::{
    acc_cfg_word, acc_count_cfg_word, cfg_addr, join_cfg_word, reg as sreg, JoinerMode,
};
use issr_core::fault::{StreamFaultKind, StreamUnit};
use issr_core::serializer::IndexSize;
use issr_core::CfgFault;
use issr_isa::asm::{Assembler, Program};
use issr_isa::instr::Stagger;
use issr_isa::reg::{FpReg as F, IntReg as R};
use issr_isa::Csr;
use issr_mem::array::MemArray;
use issr_mem::map::{MAIN_BASE, PERIPH_BASE, TCDM_BASE};
use issr_snitch::cc::SingleCcSim;
use issr_snitch::core::{Trap, TrapCause};
use issr_snitch::fpu::SequencerFault;
use issr_snitch::params::CcParams;
use issr_system::system::{System, SystemParams};

/// Runs `program` on the sparse-sparse single-CC setup and returns the
/// latched trap cause (the run itself must complete — not panic).
fn run_to_trap(program: Program) -> TrapCause {
    let mut sim = SingleCcSim::with_params(program, CcParams::sssr());
    let summary = sim.run(10_000).expect("trapped runs drain and finish");
    summary.trap.expect("malformed cfg word must latch a trap").cause
}

#[test]
fn bad_lane_write_traps() {
    let mut a = Assembler::new();
    a.li(R::T0, 1);
    a.scfgwi(R::T0, cfg_addr(sreg::BOUNDS[0], 7)); // lane 7 does not exist
    a.halt();
    assert_eq!(
        run_to_trap(a.finish().unwrap()),
        TrapCause::CfgFault(CfgFault::BadLane { lane: 7 })
    );
}

#[test]
fn bad_lane_read_traps() {
    let mut a = Assembler::new();
    a.scfgri(R::T0, cfg_addr(sreg::STATUS, 3));
    a.halt();
    assert_eq!(
        run_to_trap(a.finish().unwrap()),
        TrapCause::CfgFault(CfgFault::BadLane { lane: 3 })
    );
}

#[test]
fn zero_capacity_feed_traps() {
    let mut a = Assembler::new();
    a.li(R::T0, 4);
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_COUNT, 0));
    a.scfgwi(R::ZERO, cfg_addr(sreg::ACC_BUF_CAP, 0)); // zero-capacity buffer
    a.li_addr(R::T0, TCDM_BASE + 0x1000);
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_FEED, 0));
    a.halt();
    assert_eq!(run_to_trap(a.finish().unwrap()), TrapCause::CfgFault(CfgFault::ZeroCapacity));
}

#[test]
fn count_mode_drain_traps() {
    let mut a = Assembler::new();
    a.li(R::T0, i64::from(acc_count_cfg_word(IndexSize::U16)));
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_CFG, 0)); // symbolic mode
    a.li_addr(R::T0, TCDM_BASE + 0x2000);
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_VAL_OUT, 0));
    a.li_addr(R::T0, TCDM_BASE + 0x1000);
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_DRAIN, 0)); // nothing to drain
    a.halt();
    assert_eq!(run_to_trap(a.finish().unwrap()), TrapCause::CfgFault(CfgFault::CountModeDrain));
}

#[test]
fn missing_hardware_launches_trap() {
    // SpAcc feed on the paper streamer (no sparse accumulator).
    let mut a = Assembler::new();
    a.li(R::T0, 1);
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_COUNT, 0));
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_FEED, 0));
    a.halt();
    let mut sim = SingleCcSim::new(a.finish().unwrap());
    let summary = sim.run(10_000).unwrap();
    assert_eq!(summary.trap.unwrap().cause, TrapCause::CfgFault(CfgFault::NoSpAcc));
    // Joiner launch on the paper streamer (no index joiner).
    let mut a = Assembler::new();
    a.li(R::T0, i64::from(join_cfg_word(JoinerMode::Union, IndexSize::U16)));
    a.scfgwi(R::T0, cfg_addr(sreg::JOIN_CFG, 0));
    a.scfgwi(R::ZERO, cfg_addr(sreg::RPTR[0], 0));
    a.halt();
    let mut sim = SingleCcSim::new(a.finish().unwrap());
    let summary = sim.run(10_000).unwrap();
    assert_eq!(summary.trap.unwrap().cause, TrapCause::CfgFault(CfgFault::NoJoiner));
}

/// The trap is *surfaced*, not fatal: the trapped core parks, the rest
/// of the run's state stays inspectable, and instructions before the
/// fault committed.
#[test]
fn trap_preserves_prior_state() {
    let mut a = Assembler::new();
    a.li(R::S0, 42);
    a.li(R::T0, 5);
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_COUNT, 0));
    a.scfgwi(R::ZERO, cfg_addr(sreg::ACC_BUF_CAP, 0));
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_FEED, 0)); // faults here
    a.li(R::S0, 99); // must never execute
    a.halt();
    let mut sim = SingleCcSim::with_params(a.finish().unwrap(), CcParams::sssr());
    let summary = sim.run(10_000).unwrap();
    let trap = summary.trap.expect("fault latched");
    assert_eq!(trap.cause, TrapCause::CfgFault(CfgFault::ZeroCapacity));
    assert_eq!(sim.cc.core.reg(R::S0), 42, "pre-fault state commits, post-fault does not");
    // The Display form carries the fault for harness panic messages.
    assert!(trap.to_string().contains("zero-capacity"), "{trap}");
}

/// An indirection launch on the plain SSR lane (lane 0 of the paper /
/// sparse-sparse configurations) faults instead of panicking.
#[test]
fn indirection_on_ssr_lane_traps() {
    let mut a = Assembler::new();
    a.li(R::T0, i64::from(issr_core::cfg::idx_cfg_word(IndexSize::U16, 0)));
    a.scfgwi(R::T0, cfg_addr(sreg::IDX_CFG, 0));
    a.li(R::T0, 3);
    a.scfgwi(R::T0, cfg_addr(sreg::BOUNDS[0], 0));
    a.li_addr(R::T0, TCDM_BASE + 0x1000);
    a.scfgwi(R::T0, cfg_addr(sreg::RPTR[0], 0)); // lane 0 is a plain SSR
    a.halt();
    assert_eq!(
        run_to_trap(a.finish().unwrap()),
        TrapCause::CfgFault(CfgFault::NoIndirection { lane: 0 })
    );
}

/// A joiner-enabled pointer write outside lane 0's launch register
/// (here: lane 1) faults instead of tripping the lane's invariant.
#[test]
fn joiner_launch_outside_lane0_traps() {
    let mut a = Assembler::new();
    a.li(R::T0, i64::from(join_cfg_word(JoinerMode::Intersect, IndexSize::U16)));
    a.scfgwi(R::T0, cfg_addr(sreg::JOIN_CFG, 1)); // lane 1's shadow
    a.li_addr(R::T0, TCDM_BASE + 0x1000);
    a.scfgwi(R::T0, cfg_addr(sreg::RPTR[0], 1));
    a.halt();
    assert_eq!(
        run_to_trap(a.finish().unwrap()),
        TrapCause::CfgFault(CfgFault::BadJoinerLaunch { lane: 1 })
    );
}

// ---- mid-stream structured faults ----

/// A program running one count-only (symbolic) SpAcc feed of `count`
/// distinct indices against an `ACC_BUF_CAP` of `cap`, then spinning on
/// completion.
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

/// Overflow at the capacity boundary: `cap - 1` and `cap` distinct
/// indices complete cleanly; `cap + 1` latches `Overflow { cap }` as a
/// `StreamFault` trap — and in every case the run *finishes*.
#[test]
fn spacc_overflow_at_capacity_boundary() {
    let cap = 8u32;
    let idx_base = TCDM_BASE + 0x1000;
    for count in [cap - 1, cap, cap + 1] {
        let mut sim =
            SingleCcSim::with_params(symbolic_feed_program(cap, count, idx_base), CcParams::sssr());
        let idcs: Vec<u16> = (0..count as u16).map(|i| i * 3).collect();
        sim.mem.array_mut().store_u16_slice(idx_base, &idcs);
        let summary = sim.run(20_000).expect("boundary runs must finish");
        if count <= cap {
            assert!(summary.trap.is_none(), "count {count} fits capacity {cap}");
        } else {
            let trap = summary.trap.expect("over-capacity feed must trap");
            match trap.cause {
                TrapCause::StreamFault(fault) => {
                    assert_eq!(fault.unit, StreamUnit::SpAcc);
                    assert_eq!(fault.kind, StreamFaultKind::Overflow { cap });
                }
                other => panic!("expected a stream fault, got {other:?}"),
            }
            assert!(trap.to_string().contains("overflow"), "{trap}");
        }
    }
}

/// A decreasing index inside one feed latches `Unsorted` mid-stream.
#[test]
fn spacc_unsorted_feed_traps() {
    let idx_base = TCDM_BASE + 0x1000;
    let mut sim =
        SingleCcSim::with_params(symbolic_feed_program(64, 3, idx_base), CcParams::sssr());
    sim.mem.array_mut().store_u16_slice(idx_base, &[2, 9, 3]);
    let summary = sim.run(20_000).expect("the faulted run still finishes");
    let trap = summary.trap.expect("unsorted feed must trap");
    assert_eq!(
        trap.cause,
        TrapCause::StreamFault(issr_core::StreamFault {
            unit: StreamUnit::SpAcc,
            kind: StreamFaultKind::Unsorted { prev: 9, next: 3 },
        })
    );
}

/// A value-mode feed whose write stream never delivers (the program
/// drives no FPU writes at all) trips the SpAcc progress watchdog: the
/// former hang becomes a latched `Stall` fault and the run finishes.
#[test]
fn spacc_drain_stall_latches_watchdog_fault() {
    let idx_base = TCDM_BASE + 0x1000;
    let mut a = Assembler::new();
    a.li(R::T0, i64::from(acc_cfg_word(IndexSize::U16)));
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_CFG, 0));
    a.li(R::T0, 2);
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_COUNT, 0));
    a.li_addr(R::T0, idx_base);
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_FEED, 0));
    let spin = a.bind_label();
    a.scfgri(R::T1, cfg_addr(sreg::ACC_STATUS, 0));
    a.andi(R::T1, R::T1, 1);
    a.beqz(R::T1, spin);
    a.halt();
    let mut sim = SingleCcSim::with_params(a.finish().unwrap(), CcParams::sssr());
    sim.cc.streamer.set_spacc_watchdog(300);
    sim.mem.array_mut().store_u16_slice(idx_base, &[4, 7]);
    let summary = sim.run(20_000).expect("the stall must not hang the simulation");
    let trap = summary.trap.expect("starved feed must trap");
    match trap.cause {
        TrapCause::StreamFault(fault) => {
            assert_eq!(fault.unit, StreamUnit::SpAcc);
            assert!(matches!(fault.kind, StreamFaultKind::Stall { cycles } if cycles >= 300));
        }
        other => panic!("expected a stall stream fault, got {other:?}"),
    }
}

/// A joiner job whose outputs are never consumed (the program launches
/// it and halts) trips the joiner watchdog instead of hanging.
#[test]
fn joiner_feed_underrun_latches_watchdog_fault() {
    let idx_a = TCDM_BASE + 0x1000;
    let idx_b = TCDM_BASE + 0x2000;
    let mut a = Assembler::new();
    a.li(R::T0, i64::from(join_cfg_word(JoinerMode::Intersect, IndexSize::U16)));
    a.scfgwi(R::T0, cfg_addr(sreg::JOIN_CFG, 0));
    a.li_addr(R::T0, TCDM_BASE + 0x4000);
    a.scfgwi(R::T0, cfg_addr(sreg::DATA_BASE, 0));
    a.li_addr(R::T0, idx_b);
    a.scfgwi(R::T0, cfg_addr(sreg::JOIN_IDX_B, 0));
    a.li_addr(R::T0, TCDM_BASE + 0x8000);
    a.scfgwi(R::T0, cfg_addr(sreg::JOIN_DATA_B, 0));
    a.li(R::T0, 16);
    a.scfgwi(R::T0, cfg_addr(sreg::JOIN_NNZ_A, 0));
    a.li(R::T0, 16);
    a.scfgwi(R::T0, cfg_addr(sreg::JOIN_NNZ_B, 0));
    a.li_addr(R::T0, idx_a);
    a.scfgwi(R::T0, cfg_addr(sreg::RPTR[0], 0)); // launch, never consume
    a.halt();
    let mut sim = SingleCcSim::with_params(a.finish().unwrap(), CcParams::sssr());
    sim.cc.streamer.set_joiner_watchdog(200);
    let idcs: Vec<u16> = (0..16).collect();
    sim.mem.array_mut().store_u16_slice(idx_a, &idcs);
    sim.mem.array_mut().store_u16_slice(idx_b, &idcs);
    let summary = sim.run(20_000).expect("the abandoned joiner must not hang");
    let trap = summary.trap.expect("unconsumed joiner must trap");
    match trap.cause {
        TrapCause::StreamFault(fault) => {
            assert_eq!(fault.unit, StreamUnit::Joiner);
            assert!(matches!(fault.kind, StreamFaultKind::Stall { .. }));
        }
        other => panic!("expected a joiner stall fault, got {other:?}"),
    }
}

/// A plain lane job launched on lane 1 while the SpAcc owns its port
/// is a mid-stream port conflict — latched, not panicked.
#[test]
fn lane_job_on_spacc_port_traps() {
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
    a.scfgwi(R::T0, cfg_addr(sreg::RPTR[0], 1)); // lane 1: the SpAcc's port
    a.halt();
    let mut sim = SingleCcSim::with_params(a.finish().unwrap(), CcParams::sssr());
    sim.mem.array_mut().store_u16_slice(idx_base, &[1, 2, 3, 4]);
    let summary = sim.run(20_000).expect("the conflict drains, not deadlocks");
    let trap = summary.trap.expect("port conflict must trap");
    assert_eq!(
        trap.cause,
        TrapCause::StreamFault(issr_core::StreamFault {
            unit: StreamUnit::Lane(1),
            kind: StreamFaultKind::PortConflict,
        })
    );
}

/// On the cluster, a mid-stream overflow on one hart parks only that
/// hart: the survivors' results are bit-identical to a run where no
/// hart faults, and `ClusterSummary.traps` names exactly the faulting
/// worker with the overflow cause.
#[test]
fn cluster_stream_fault_isolates_to_one_hart() {
    let idx_base = TCDM_BASE + 0x1000;
    let out = TCDM_BASE + 0x80;
    let cap = 4u32;
    // Every worker h runs a count-only feed of `count(h)` indices and
    // stores its ACC_NNZ readback; hart 0 optionally exceeds the cap.
    let build = |hart0_count: u32| {
        let mut a = Assembler::new();
        a.csrr(R::A7, Csr::MHartId);
        let worker = a.new_label();
        a.li(R::T0, 8);
        a.blt(R::A7, R::T0, worker);
        a.halt(); // the DMCC has no SpAcc
        a.bind(worker);
        a.li(R::T0, i64::from(acc_count_cfg_word(IndexSize::U16)));
        a.scfgwi(R::T0, cfg_addr(sreg::ACC_CFG, 0));
        a.li(R::T0, i64::from(cap));
        a.scfgwi(R::T0, cfg_addr(sreg::ACC_BUF_CAP, 0));
        // count = hart0_count for hart 0, 3 for everyone else.
        let other = a.new_label();
        a.li(R::T1, 3);
        a.bnez(R::A7, other);
        a.li(R::T1, i64::from(hart0_count));
        a.bind(other);
        a.scfgwi(R::T1, cfg_addr(sreg::ACC_COUNT, 0));
        a.li_addr(R::T0, idx_base);
        a.scfgwi(R::T0, cfg_addr(sreg::ACC_FEED, 0));
        let spin = a.bind_label();
        a.scfgri(R::T1, cfg_addr(sreg::ACC_STATUS, 0));
        a.andi(R::T1, R::T1, 1);
        a.beqz(R::T1, spin);
        a.scfgri(R::T2, cfg_addr(sreg::ACC_NNZ, 0));
        a.slli(R::T3, R::A7, 2);
        a.li_addr(R::T4, out);
        a.add(R::T3, R::T3, R::T4);
        a.sw(R::T2, R::T3, 0);
        a.halt();
        a.finish().unwrap()
    };
    let run = |hart0_count: u32| {
        let params = ClusterParams { cc: CcParams::sssr(), ..ClusterParams::default() };
        let mut cluster = Cluster::new(build(hart0_count), params);
        let idcs: Vec<u16> = (0..8).map(|i| i * 5).collect();
        cluster.tcdm.array_mut().store_u16_slice(idx_base, &idcs);
        let summary = cluster.run(200_000).expect("cluster drains despite the fault");
        let outs: Vec<u32> = (0..8).map(|h| cluster.tcdm.array().load_u32(out + h * 4)).collect();
        (summary, outs)
    };
    let (clean_summary, clean_outs) = run(3); // everyone fits
    assert!(clean_summary.traps.is_empty());
    let (summary, outs) = run(cap + 1); // hart 0 overflows
    assert_eq!(summary.traps.len(), 1, "exactly the faulting worker traps");
    assert_eq!(summary.traps[0].hartid, 0);
    match summary.traps[0].cause {
        TrapCause::StreamFault(fault) => {
            assert_eq!(fault.unit, StreamUnit::SpAcc);
            assert_eq!(fault.kind, StreamFaultKind::Overflow { cap });
        }
        other => panic!("expected overflow, got {other:?}"),
    }
    assert_eq!(outs[0], 0, "the faulted hart never stores its marker");
    assert_eq!(outs[1..], clean_outs[1..], "survivors are bit-identical to the clean run");
}

/// The misaligned-drain launch latches a `CfgFault` (like every other
/// malformed cfg word), not an abort inside the unit.
#[test]
fn misaligned_drain_traps() {
    let mut a = Assembler::new();
    a.li_addr(R::T0, TCDM_BASE + 0x2004); // not word aligned
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_VAL_OUT, 0));
    a.li_addr(R::T0, TCDM_BASE + 0x1000);
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_DRAIN, 0));
    a.halt();
    assert_eq!(
        run_to_trap(a.finish().unwrap()),
        TrapCause::CfgFault(CfgFault::MisalignedDrain {
            idx_out: TCDM_BASE + 0x1000,
            val_out: TCDM_BASE + 0x2004,
        })
    );
}

/// On the cluster, one worker's malformed cfg word parks only that
/// worker: the others finish their work and `ClusterSummary.traps`
/// names the trapped hart.
#[test]
fn cluster_surfaces_per_worker_traps() {
    let out = TCDM_BASE + 0x80;
    let mut a = Assembler::new();
    a.csrr(R::A7, Csr::MHartId);
    let good = a.new_label();
    a.bnez(R::A7, good);
    // Hart 0: count-mode drain fault.
    a.li(R::T0, i64::from(acc_count_cfg_word(IndexSize::U16)));
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_CFG, 0));
    a.li_addr(R::T0, TCDM_BASE + 0x1000);
    a.scfgwi(R::T0, cfg_addr(sreg::ACC_DRAIN, 0));
    a.halt();
    // Everyone else: stamp a completion marker.
    a.bind(good);
    a.slli(R::T0, R::A7, 2);
    a.li_addr(R::T1, out);
    a.add(R::T0, R::T0, R::T1);
    a.li(R::T2, 1);
    a.sw(R::T2, R::T0, 0);
    a.halt();
    let params = ClusterParams { cc: CcParams::sssr(), ..ClusterParams::default() };
    let mut cluster = Cluster::new(a.finish().unwrap(), params);
    let summary = cluster.run(100_000).expect("cluster drains despite the trap");
    assert_eq!(summary.traps.len(), 1, "exactly the faulting worker traps");
    assert_eq!(summary.traps[0].hartid, 0);
    assert_eq!(summary.traps[0].cause, TrapCause::CfgFault(CfgFault::CountModeDrain));
    for h in 1..8u32 {
        assert_eq!(cluster.tcdm.array().load_u32(out + h * 4), 1, "hart {h} finished");
    }
}

/// Where every hart without a body of its own stamps completion.
const MARKERS: u32 = TCDM_BASE + 0x80;

/// What one hart of a [`dispatch`] program runs before it halts.
type Body<'a> = &'a dyn Fn(&mut Assembler);

/// Per-hart dispatch for the access-fault programs: hart `h` runs
/// `bodies[h]` and halts; every other hart (the DMCC included) stamps a
/// marker at `MARKERS + 4 * hartid`.
fn dispatch(bodies: &[Body]) -> Program {
    let harts: Vec<_> = (0..).zip(bodies.iter().copied()).collect();
    dispatch_harts(&harts)
}

/// [`dispatch`] with the harts named: each `(hart, body)` runs its body.
fn dispatch_harts(bodies: &[(i64, Body)]) -> Program {
    let mut a = Assembler::new();
    a.csrr(R::A7, Csr::MHartId);
    let labels: Vec<_> = bodies.iter().map(|_| a.new_label()).collect();
    for (&(hart, _), &label) in bodies.iter().zip(&labels) {
        a.li(R::T1, hart);
        a.beq(R::A7, R::T1, label);
    }
    a.slli(R::T0, R::A7, 2);
    a.li_addr(R::T1, MARKERS);
    a.add(R::T0, R::T0, R::T1);
    a.li(R::T2, 1);
    a.sw(R::T2, R::T0, 0);
    a.halt();
    for ((_, body), label) in bodies.iter().zip(labels) {
        a.bind(label);
        body(&mut a);
        a.halt();
    }
    a.finish().unwrap()
}

fn load_from(addr: u32) -> impl Fn(&mut Assembler) {
    move |a| {
        a.li_addr(R::T4, addr);
        a.lw(R::T0, R::T4, 0);
    }
}

type Marshal<'a> = &'a dyn Fn(&mut MemArray);

/// The trap `program` latches on the single-CC harness; the run must
/// drain and return `Ok`, as on the two harnesses below.
fn traps_on_cc(program: &Program, marshal: Marshal) -> Vec<Trap> {
    let mut sim = SingleCcSim::new(program.clone());
    marshal(sim.mem.array_mut());
    sim.run(10_000).expect("a faulted CC drains").trap.into_iter().collect()
}

/// The traps on one cluster; harts `finished` must have run to their
/// marker regardless.
fn traps_on_cluster(
    program: &Program,
    marshal: Marshal,
    finished: std::ops::Range<u32>,
) -> Vec<Trap> {
    let mut cluster = Cluster::new(program.clone(), ClusterParams::default());
    marshal(cluster.tcdm.array_mut());
    let summary = cluster.run(100_000).expect("a faulted cluster drains");
    assert!(summary.post_mortem.is_some(), "a trapped run carries its post-mortem");
    for h in finished {
        assert_eq!(cluster.tcdm.array().load_u32(MARKERS + h * 4), 1, "hart {h} finished");
    }
    summary.traps
}

/// The traps on a two-cluster system, which both clusters must agree on.
fn traps_on_system(
    program: &Program,
    marshal: Marshal,
    finished: std::ops::Range<u32>,
) -> Vec<Trap> {
    let params = SystemParams { n_clusters: 2, ..SystemParams::default() };
    let mut system = System::new(program.clone(), params);
    system.clusters.iter_mut().for_each(|c| marshal(c.tcdm.array_mut()));
    let summary = system.run(100_000).expect("a faulted system drains");
    for (ci, cluster) in system.clusters.iter().enumerate() {
        assert_eq!(summary.clusters[ci].traps, summary.clusters[0].traps);
        for h in finished.clone() {
            let marker = cluster.tcdm.array().load_u32(MARKERS + h * 4);
            assert_eq!(marker, 1, "cluster {ci} hart {h} finished");
        }
    }
    summary.clusters[0].traps.clone()
}

/// Asserts harts `0..addrs.len()` each took an access fault at their
/// address, and nobody else trapped.
fn assert_access_faults(traps: &[Trap], addrs: &[u32]) {
    let got: Vec<_> = traps.iter().map(|t| (t.hartid, t.cause)).collect();
    let want: Vec<_> =
        (0..).zip(addrs).map(|(h, &addr)| (h, TrapCause::AccessFault { addr })).collect();
    assert_eq!(got, want);
}

/// `lw t0, 0(zero)` used to die in `MemArray` with an index out of
/// bounds; now the load reads zero and the run returns the trap.
#[test]
fn core_load_from_unmapped_address_traps_on_cc() {
    let traps = traps_on_cc(&dispatch(&[&load_from(0)]), &|_| {});
    assert_access_faults(&traps, &[0]);
    assert!(traps[0].to_string().contains("0x00000000"), "names the address: {}", traps[0]);
}

/// Addresses no cluster region maps: address zero, the peripheral
/// window, the hole below main memory (a store), main memory past its
/// last byte. Each used to panic the cluster's routing `match`.
const UNMAPPED: [u32; 4] = [0, PERIPH_BASE + 8, 0x4000_0000, 0xF000_0000];

fn unmapped_accesses() -> Program {
    let store = |a: &mut Assembler| {
        a.li_addr(R::T4, UNMAPPED[2]);
        a.sw(R::A7, R::T4, 0);
    };
    dispatch(&[&load_from(UNMAPPED[0]), &load_from(UNMAPPED[1]), &store, &load_from(UNMAPPED[3])])
}

/// Each faulting hart parks alone: the other workers and the DMCC
/// finish.
#[test]
fn core_access_to_unmapped_address_traps_on_cluster() {
    assert_access_faults(&traps_on_cluster(&unmapped_accesses(), &|_| {}, 4..9), &UNMAPPED);
}

#[test]
fn core_access_to_unmapped_address_traps_on_system() {
    assert_access_faults(&traps_on_system(&unmapped_accesses(), &|_| {}, 4..9), &UNMAPPED);
}

/// An ISSR gather whose third index points far outside every memory:
/// the lane's data fetch faults mid-stream, the streamer freezes, the
/// FPU squashes and the core complex parks — on all three harnesses.
#[test]
fn out_of_range_issr_index_traps_on_every_harness() {
    let idcs = TCDM_BASE + 0x100;
    let data = TCDM_BASE + 0x1000;
    let wild: u32 = 0x0100_0000;
    let gather = |a: &mut Assembler| {
        issr_kernels::common::emit_indirect_read::<u32>(a, 1, idcs, 4, 0, data);
        a.csrsi(Csr::Ssr, 1);
        a.fcvt_d_w(F::FS0, R::ZERO);
        for _ in 0..4 {
            a.fadd_d(F::FS0, F::FS0, F::FT1);
        }
        a.csrci(Csr::Ssr, 1);
    };
    let program = dispatch(&[&gather]);
    let marshal = |mem: &mut MemArray| {
        for (i, idx) in (0..).zip([0, 1, wild, 2]) {
            mem.store_u32(idcs + 4 * i, idx);
        }
    };
    for traps in [
        traps_on_cc(&program, &marshal),
        traps_on_cluster(&program, &marshal, 1..9),
        traps_on_system(&program, &marshal, 1..9),
    ] {
        assert_access_faults(&traps, &[data + (wild << 3)]);
    }
}

/// A DMA descriptor the engine cannot run — `dmsrc zero` used to index
/// `MemArray` out of bounds from `Dma::tick`, a main → main copy read
/// the TCDM at a main-memory address, a 12-byte size hit an `assert!`
/// in `Dma::start`. Now the engine drops the transfer, the DMCC (hart
/// 8) parks on the offending address and every worker finishes.
#[test]
fn bad_dma_descriptor_traps_the_dmcc_on_cluster_and_system() {
    const DMCC: i64 = 8;
    let hole = 0x4000_0000;
    for (what, src, dst, size, addr) in [
        ("out-of-range source", 0, TCDM_BASE, 64, 0),
        ("out-of-range destination", TCDM_BASE, hole, 64, hole),
        ("main to main", MAIN_BASE, MAIN_BASE + 0x100, 64, MAIN_BASE),
        ("misaligned size", MAIN_BASE, TCDM_BASE, 12, MAIN_BASE + 12),
    ] {
        let copy = |a: &mut Assembler| {
            a.li_addr(R::T0, src);
            a.dmsrc(R::T0, R::ZERO);
            a.li_addr(R::T1, dst);
            a.dmdst(R::T1, R::ZERO);
            a.li(R::T2, size);
            a.dmcpyi(R::T3, R::T2, 0);
            // Wait for the engine like a real mover loop would.
            let spin = a.new_label();
            a.bind(spin);
            a.dmstati(R::T4, 1);
            a.bnez(R::T4, spin);
        };
        let program = dispatch_harts(&[(DMCC, &copy)]);
        for traps in
            [traps_on_cluster(&program, &|_| {}, 0..8), traps_on_system(&program, &|_| {}, 0..8)]
        {
            let got: Vec<_> = traps.iter().map(|t| (t.hartid, t.cause)).collect();
            assert_eq!(got, [(DMCC as u32, TrapCause::AccessFault { addr })], "{what}");
        }
    }
}

/// An `frep` asking for two body instructions of which the core
/// offloads one before it halts: the capture can never complete. It
/// used to spin to the cycle limit; now the hart parks on
/// `AbandonedWindow` — alone, on the single CC and on the 8-worker
/// cluster, whose other harts reach their markers.
#[test]
fn abandoned_frep_window_traps_on_cc_and_cluster() {
    let abandon = |a: &mut Assembler| {
        a.li(R::T0, 3);
        a.frep_outer(R::T0, 2, Stagger::NONE);
        a.fadd_d(F::FT3, F::FT3, F::FT3);
    };
    let program = dispatch(&[&abandon]);
    let fault = TrapCause::SequencerFault(SequencerFault::AbandonedWindow { remaining: 1 });
    let causes = |traps: Vec<Trap>| traps.iter().map(|t| (t.hartid, t.cause)).collect::<Vec<_>>();
    assert_eq!(causes(traps_on_cc(&program, &|_| {})), [(0, fault)]);
    assert_eq!(causes(traps_on_cluster(&program, &|_| {}, 1..9)), [(0, fault)]);
}
