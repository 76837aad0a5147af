//! The one way to run a kernel: every `run_*` in this crate places its
//! operands, builds its program and simulates through one function per
//! machine level. Nothing else constructs a simulator, loads a program,
//! spends a cycle budget, applies a trap policy, exports a trace or
//! retries an overflow.

use crate::layout::Arena;
use issr_cluster::cluster::{Cluster, ClusterParams, ClusterSummary};
use issr_core::fault::StreamFaultKind;
use issr_isa::asm::Program;
use issr_mem::array::MemArray;
use issr_snitch::cc::{RunSummary, SimTimeout, SingleCcSim, SINGLE_CC_ARENA};
use issr_snitch::core::{Trap, TrapCause};
use issr_snitch::params::CcParams;
use issr_system::system::{System, SystemParams, SystemSummary};

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
/// image into the constructed cluster's memories.
///
/// # Errors
/// Returns [`SimTimeout`] if the cluster deadlocks or exceeds `budget`.
pub(crate) fn cluster(
    params: ClusterParams,
    on_trap: OnTrap,
    program: Program,
    place: impl FnOnce(&mut Cluster),
    budget: u64,
) -> Result<(Cluster, ClusterSummary), SimTimeout> {
    let mut cluster = Cluster::new(program, params);
    place(&mut cluster);
    let summary = cluster.run(budget)?;
    let clean = on_trap == OnTrap::Report || summary.traps.is_empty();
    assert!(clean, "cluster cores trapped: {:?}", summary.traps);
    Ok((cluster, summary))
}

/// Runs `program` on a multi-cluster system built from `params`:
/// `place` writes the image into the shared main memory, `queue_addr`
/// is the work-queue ticket word; a trap panics. With a `trace_cap`,
/// every cluster's timeline keeps its most recent `trace_cap`
/// transitions and the Chrome trace-event export comes back too (the
/// default timeline `run` arms is not worth exporting).
///
/// # Errors
/// Returns [`SimTimeout`] if the system deadlocks or exceeds `budget`.
pub(crate) fn system(
    params: SystemParams,
    trace_cap: Option<usize>,
    program: Program,
    queue_addr: u32,
    place: impl FnOnce(&mut MemArray),
    budget: u64,
) -> Result<(System, SystemSummary, Option<issr_trace::Json>), SimTimeout> {
    let mut system = System::new(program, params);
    if let Some(cap) = trace_cap {
        system.enable_tracing(cap);
    }
    place(system.main.array_mut());
    system.set_work_queue(queue_addr);
    let summary = system.run(budget)?;
    assert!(summary.traps().is_empty(), "system cores trapped: {:?}", summary.traps());
    let trace = trace_cap.and_then(|_| system.trace_json());
    Ok((system, summary, trace))
}

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
