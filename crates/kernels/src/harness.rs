//! The one way to run a kernel: every `run_*` in this crate places its
//! operands, builds its program and simulates through one function per
//! machine level. Nothing else constructs a simulator, loads a program,
//! spends a cycle budget, applies a trap policy, exports a trace,
//! replays a timeout or retries an overflow.
//!
//! A live cluster or system run records no timeline. One that times out
//! is run again — same program, image and budget — with tracing armed,
//! and the replay's timeout comes back: recording is timing-neutral, so
//! the replay dies at the same cycle with the same stuck harts, and its
//! post-mortem adds the final window.

use crate::layout::Arena;
use issr_cluster::cluster::{Cluster, ClusterParams, ClusterSummary};
use issr_core::fault::StreamFaultKind;
use issr_isa::asm::Program;
use issr_mem::array::MemArray;
use issr_snitch::cc::{RunSummary, SimTimeout, SingleCcSim, SINGLE_CC_ARENA};
use issr_snitch::core::{Trap, TrapCause};
use issr_snitch::params::CcParams;
use issr_system::system::{System, SystemParams, SystemSummary};
use issr_trace::timeline::DEFAULT_TIMELINE_CAP;

/// What a harness does with a run that ended on a trap.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum OnTrap {
    /// Panic with the trap's diagnostics: the shipped kernels are
    /// trap-free by construction, so a trap is a builder bug.
    Panic,
    /// Leave the traps in the summary (grow-and-retry reads them).
    Report,
}

/// The arena every single-CC kernel places its operands in.
pub(crate) fn single_cc_arena() -> Arena {
    Arena::new(SINGLE_CC_ARENA, SingleCcSim::DEFAULT_MEM_BYTES / 2)
}

/// Runs one kernel on the §IV-A single-CC setup of the CC `params`
/// describes: `place` lays the operands out in the ideal memory, `build`
/// bakes the addresses it returns into the program. Hands back the
/// simulator for the read-back, what `place` returned, and the summary.
///
/// # Errors
/// Returns [`SimTimeout`] if the CC is not quiescent within `budget`.
pub(crate) fn single_cc<A: Copy>(
    params: CcParams,
    on_trap: OnTrap,
    place: impl FnOnce(&mut Arena, &mut MemArray) -> A,
    build: impl FnOnce(A) -> Program,
    budget: u64,
) -> Result<(SingleCcSim, A, RunSummary), SimTimeout> {
    let mut sim = SingleCcSim::with_params(Program::default(), params);
    let placed = place(&mut single_cc_arena(), sim.mem.array_mut());
    sim.load(build(placed));
    let summary = sim.run(budget)?;
    let summary = if on_trap == OnTrap::Panic { summary.expect_clean() } else { summary };
    Ok((sim, placed, summary))
}

/// Runs `program` on a cluster built from `params`; `place` writes the
/// image into the constructed cluster's memories. The run ends at
/// quiescence or at the first latched trap: harts that wait on a
/// trapped one (the SpGEMM offset chain) would otherwise spin out the
/// whole budget.
///
/// # Errors
/// Returns [`SimTimeout`] if the cluster deadlocks or exceeds `budget`:
/// the timeout of the traced replay, which carries the final window.
pub(crate) fn cluster(
    params: ClusterParams,
    on_trap: OnTrap,
    program: Program,
    place: impl Fn(&mut Cluster),
    budget: u64,
) -> Result<(Cluster, ClusterSummary), SimTimeout> {
    let build = || {
        let mut cluster = Cluster::new(program.clone(), params);
        place(&mut cluster);
        cluster
    };
    let mut cluster = build();
    let Ok(summary) = cluster.run_until(budget, Cluster::trapped) else {
        let mut replay = build();
        replay.enable_tracing(DEFAULT_TIMELINE_CAP, 0);
        return Err(replay.run_until(budget, Cluster::trapped).expect_err(TIMING_NEUTRAL));
    };
    let clean = on_trap == OnTrap::Report || summary.traps.is_empty();
    assert!(clean, "cluster cores trapped: {:?}", summary.traps);
    Ok((cluster, summary))
}

/// Runs `program` on a multi-cluster system built from `params`:
/// `place` writes the image into the shared main memory, `queue_addr`
/// is the work-queue ticket word; the run ends at quiescence or at the
/// first latched trap, which panics. With a `trace_cap`, every
/// cluster's timeline keeps its most recent `trace_cap` transitions and
/// the Chrome trace-event export comes back too.
///
/// # Errors
/// Returns [`SimTimeout`] if the system deadlocks or exceeds `budget`.
/// Without a `trace_cap` it is the timeout of the traced replay, which
/// carries the final window; a traced run's own timeout already does.
pub(crate) fn system(
    params: SystemParams,
    trace_cap: Option<usize>,
    program: Program,
    queue_addr: u32,
    place: impl Fn(&mut MemArray),
    budget: u64,
) -> Result<(System, SystemSummary, Option<issr_trace::Json>), SimTimeout> {
    let build = |cap: Option<usize>| {
        let mut system = System::new(program.clone(), params);
        if let Some(cap) = cap {
            system.enable_tracing(cap);
        }
        place(system.main.array_mut());
        system.set_work_queue(queue_addr);
        system
    };
    let mut system = build(trace_cap);
    let summary = match system.run_until(budget, System::trapped) {
        Err(_) if trace_cap.is_none() => {
            let replay = build(Some(DEFAULT_TIMELINE_CAP)).run_until(budget, System::trapped);
            return Err(replay.expect_err(TIMING_NEUTRAL));
        }
        run => run?,
    };
    assert!(summary.traps().is_empty(), "system cores trapped: {:?}", summary.traps());
    let trace = system.trace_json();
    Ok((system, summary, trace))
}

/// Why a traced replay of a timed-out run must time out too.
const TIMING_NEUTRAL: &str = "tracing is timing-neutral: the replay dies where the run did";

/// A converged grow-and-retry: the clean run, the overflow-trapped
/// attempts before it, and the capacity it used.
pub(crate) struct Grown<S> {
    pub run: S,
    pub retries: u32,
    pub final_cap: u32,
}

/// The SpGEMM grow-and-retry loop (SparseZipper's
/// size-optimistically-recover-on-overflow strategy): `attempt(cap)`
/// simulates with SpAcc row-buffer capacity `cap` under
/// [`OnTrap::Report`], `traps_of` names the traps it ended on, and the
/// first trap-free attempt is returned. Every trap of a faulted attempt
/// must be a *recoverable* SpAcc overflow with capacity headroom left;
/// the next attempt doubles the capacity, clamped to `max_cap` (the
/// output width, where overflow is impossible).
///
/// # Errors
/// Returns the first [`SimTimeout`] of an attempt.
///
/// # Panics
/// Panics on zero `initial_cap`, on a non-overflow trap (those are not
/// recoverable), or on an overflow at `max_cap` (a model bug).
pub(crate) fn grow_and_retry<S>(
    initial_cap: u32,
    max_cap: u32,
    mut attempt: impl FnMut(u32) -> Result<S, SimTimeout>,
    traps_of: impl Fn(&S) -> &[Trap],
) -> Result<Grown<S>, SimTimeout> {
    assert!(initial_cap > 0, "a zero-capacity row buffer is a configuration fault");
    let mut cap = initial_cap.min(max_cap);
    let mut retries = 0u32;
    loop {
        let run = attempt(cap)?;
        let traps = traps_of(&run);
        if traps.is_empty() {
            return Ok(Grown { run, retries, final_cap: cap });
        }
        for trap in traps {
            let overflow = matches!(
                trap.cause,
                TrapCause::StreamFault(fault)
                    if matches!(fault.kind, StreamFaultKind::Overflow { .. })
            );
            assert!(overflow, "SpGEMM trapped on a non-recoverable fault: {trap}");
            assert!(cap < max_cap, "overflow at the full row capacity: {trap}");
        }
        retries += 1;
        cap = cap.saturating_mul(2).min(max_cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use issr_core::cfg::{cfg_addr, reg as sreg};
    use issr_core::fault::{StreamFault, StreamUnit};
    use issr_core::CfgFault;
    use issr_isa::asm::Assembler;
    use issr_isa::reg::IntReg as R;
    use issr_isa::Csr;
    use issr_mem::map::{MAIN_BASE, TCDM_BASE};

    /// An SpAcc feed on the paper streamer (no sparse accumulator).
    fn trapping_run(on_trap: OnTrap) -> RunSummary {
        let build = |()| {
            let mut a = Assembler::new();
            a.li(R::T0, 1);
            a.scfgwi(R::T0, cfg_addr(sreg::ACC_COUNT, 0));
            a.scfgwi(R::T0, cfg_addr(sreg::ACC_FEED, 0));
            a.halt();
            a.finish().unwrap()
        };
        single_cc(CcParams::paper(), on_trap, |_, _| (), build, 10_000).unwrap().2
    }

    #[test]
    fn reported_trap_comes_back_in_the_summary() {
        let trap = trapping_run(OnTrap::Report).trap.expect("the feed must trap");
        assert_eq!(trap.cause, TrapCause::CfgFault(CfgFault::NoSpAcc));
    }

    #[test]
    #[should_panic(expected = "simulated core trapped")]
    fn clean_run_policy_panics_on_a_trap() {
        let _ = trapping_run(OnTrap::Panic);
    }

    /// Workers halt; each DMCC spins on a TCDM flag nobody sets.
    fn dmcc_spin() -> Program {
        let mut a = Assembler::new();
        a.csrr(R::T0, Csr::MHartId);
        let dmcc = a.new_label();
        a.li(R::T1, ClusterParams::default().n_workers as i64);
        a.beq(R::T0, R::T1, dmcc);
        a.halt();
        a.bind(dmcc);
        a.li_addr(R::T4, TCDM_BASE + 0x20);
        let spin = a.bind_label();
        a.lw(R::T2, R::T4, 0);
        a.beqz(R::T2, spin);
        a.halt();
        a.finish().unwrap()
    }

    /// The harness's timeout is its traced replay's: the unarmed direct
    /// run's cycle and stuck set, plus a final window.
    #[test]
    fn a_timed_out_cluster_run_comes_back_with_its_window() {
        let params = ClusterParams::default();
        let direct = Cluster::new(dmcc_spin(), params).run(600).expect_err("spins");
        assert!(direct.post_mortem.transitions.is_empty(), "a live run records nothing");
        let replayed = cluster(params, OnTrap::Panic, dmcc_spin(), |_| (), 600).expect_err("spins");
        let pm = &replayed.post_mortem;
        assert_eq!((pm.at, &pm.stuck), (direct.post_mortem.at, &direct.post_mortem.stuck));
        assert!(!pm.transitions.is_empty(), "the replay recorded the final window");
    }

    #[test]
    fn a_timed_out_system_run_comes_back_with_its_window() {
        let params = SystemParams::default();
        let direct = System::new(dmcc_spin(), params).run(600).expect_err("spins");
        assert!(direct.post_mortem.transitions.is_empty(), "a live run records nothing");
        let queue = MAIN_BASE + 0x100;
        let replayed = system(params, None, dmcc_spin(), queue, |_| (), 600).expect_err("spins");
        let pm = &replayed.post_mortem;
        assert_eq!((pm.at, &pm.stuck), (direct.post_mortem.at, &direct.post_mortem.stuck));
        assert_eq!(pm.stuck.len(), params.n_clusters, "every cluster's DMCC");
        assert!(!pm.transitions.is_empty(), "the replay recorded the final window");
    }

    fn trap(cause: TrapCause) -> Trap {
        Trap { hartid: 0, pc: 0x40, cause }
    }

    fn overflow(cap: u32) -> Trap {
        trap(TrapCause::StreamFault(StreamFault {
            unit: StreamUnit::SpAcc,
            kind: StreamFaultKind::Overflow { cap },
        }))
    }

    /// An attempt that overflows below `needed`, recording every
    /// capacity it was tried with.
    fn grow(initial: u32, max: u32, needed: u32) -> (Grown<Vec<Trap>>, Vec<u32>) {
        let mut tried = Vec::new();
        let attempt = |cap| {
            tried.push(cap);
            Ok(if cap < needed { vec![overflow(cap)] } else { vec![] })
        };
        let grown = grow_and_retry(initial, max, attempt, |traps| traps).unwrap();
        (grown, tried)
    }

    #[test]
    fn grow_and_retry_doubles_clamps_and_counts() {
        let (grown, tried) = grow(3, 40, 20);
        assert_eq!(tried, [3, 6, 12, 24]);
        assert_eq!((grown.retries, grown.final_cap), (3, 24));
        // The doubled capacity is clamped to the output width …
        let (grown, tried) = grow(3, 10, 10);
        assert_eq!(tried, [3, 6, 10]);
        assert_eq!((grown.retries, grown.final_cap), (2, 10));
        // … as is an initial capacity beyond it.
        let (grown, tried) = grow(64, 10, 1);
        assert_eq!(tried, [10]);
        assert_eq!((grown.retries, grown.final_cap), (0, 10));
    }

    #[test]
    #[should_panic(expected = "non-recoverable fault")]
    fn grow_and_retry_refuses_other_traps() {
        let _ = grow_and_retry(4, 64, |_| Ok([trap(TrapCause::PcOutOfRange)]), |t| t);
    }

    #[test]
    #[should_panic(expected = "overflow at the full row capacity")]
    fn grow_and_retry_refuses_overflow_at_max_cap() {
        let _ = grow_and_retry(8, 8, |cap| Ok([overflow(cap)]), |t| t);
    }

    #[test]
    #[should_panic(expected = "zero-capacity row buffer")]
    fn grow_and_retry_refuses_zero_capacity() {
        let _ = grow_and_retry(0, 8, |_| Ok([]), |t| t);
    }
}
