//! The core complex (CC): Snitch core + FPU subsystem + streamer,
//! wired to the memory system — and the single-CC evaluation harness
//! of §IV-A.
//!
//! **The cycle is lean by construction.** [`CoreComplex::tick`] calls
//! every unit every cycle, and each unit declines at its own door when
//! it is quiet: the FPU subsystem when drained with no response on its
//! port, the streamer when idle and not frozen, the shared port's relay
//! with no read in flight and its arbiter with no master requesting —
//! [`CoreComplex::tick_idle`]'s argument for a whole halted CC, one
//! level down. Each gate sits where the unit is called today, so a job
//! the core launches in cycle *n* is ticked in cycle *n*.
//!
//! **Stall causes are latched where they are decided.** The hart's
//! cause comes from the counter deltas of the tick that just ran
//! ([`CoreComplex::tick`] step 6); the lanes, the joiner and the SpAcc
//! latch theirs inside their own ticks (see `issr_core::streamer`), and
//! step 6 copies them into [`CoreComplex::last_causes`] in place.

use crate::attr::{CcAttribution, CcCauses};
use crate::core::{SnitchCore, Trap, TrapCause};
use crate::fpu::FpuSubsystem;
use crate::metrics::{Metrics, RoiCounters};
use crate::params::CcParams;
use crate::shared::SharedPort;
use issr_core::joiner::JoinerStats;
use issr_core::lane::LaneStats;
use issr_core::spacc::SpAccStats;
use issr_core::streamer::Streamer;
use issr_isa::asm::Program;
use issr_mem::dma::Dma;
use issr_mem::icache::{L0Buffer, L1ICache};
use issr_mem::map::TCDM_BASE;
use issr_mem::port::MemPort;
use issr_mem::tcdm::{Tcdm, TcdmStats};
use issr_trace::{host, CycleBreakdown, PostMortem, StallCause, StuckUnit};

/// One Snitch core complex.
///
/// Port topology (§II-C): physical port 0 carries the combined core /
/// FPU / SSR traffic through [`SharedPort`]; each further streamer lane
/// (the ISSR, lane 1 in the paper configuration) gets an exclusive
/// physical port.
#[derive(Debug)]
pub struct CoreComplex {
    /// Integer pipeline.
    pub core: SnitchCore,
    /// FPU subsystem (offload queue, FREP sequencer, FP registers).
    pub fpu: FpuSubsystem,
    /// SSR/ISSR lanes.
    pub streamer: Streamer,
    /// The combined-port multiplexer.
    pub shared: SharedPort,
    /// Per-core metrics.
    pub metrics: Metrics,
    /// ROI stall-cause breakdowns (hart + stream units), sampled once
    /// per ROI cycle.
    pub attr: CcAttribution,
    /// Whole-lifetime hart cause tally (not ROI-gated): every cycle the
    /// CC exists is classified, so a timed-out run can name each stuck
    /// hart's dominant stall cause even when its ROI never opened.
    pub cause_tally: CycleBreakdown,
    program: Program,
    l0: Option<L0Buffer>,
    causes: CcCauses,
}

impl CoreComplex {
    /// Creates a CC with the paper's streamer configuration (one SSR,
    /// one ISSR).
    #[must_use]
    pub fn new(hartid: u32, program: Program, params: CcParams) -> Self {
        Self::with_streamer(hartid, program, params, Streamer::paper_config())
    }

    /// Creates a CC with a custom streamer (e.g. two ISSRs for codebook
    /// streaming, §III-C).
    #[must_use]
    pub fn with_streamer(
        hartid: u32,
        program: Program,
        params: CcParams,
        streamer: Streamer,
    ) -> Self {
        let n_lanes = streamer.n_lanes();
        Self {
            core: SnitchCore::new(hartid, &params),
            fpu: FpuSubsystem::new(params, n_lanes),
            streamer,
            shared: SharedPort::new(),
            metrics: Metrics::default(),
            attr: CcAttribution::with_lanes(n_lanes),
            cause_tally: CycleBreakdown::new(),
            program,
            l0: None,
            causes: CcCauses::default(),
        }
    }

    /// Number of physical memory ports this CC exposes.
    #[must_use]
    pub fn n_ports(&self) -> usize {
        self.streamer.n_lanes()
    }

    /// Installs an L0 instruction buffer (cluster configuration).
    pub fn set_l0(&mut self, l0: L0Buffer) {
        self.l0 = Some(l0);
    }

    /// The loaded program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Whether the CC has halted *and* all decoupled state has drained.
    #[must_use]
    pub fn quiescent(&self) -> bool {
        self.core.halted()
            && self.fpu.is_drained()
            && self.streamer.is_idle()
            && self.shared.is_idle()
    }

    /// Whether ticking this CC is provably a no-op beyond cycle
    /// bookkeeping: the core halted with a fully drained pipeline,
    /// the FPU and streamer drained, no shared-port traffic in flight.
    /// Halting is terminal, so an idle CC stays idle — this is the
    /// single predicate both the host profiler's idle census and the
    /// dirty-set tick skipping use (see [`CoreComplex::tick_idle`]).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.quiescent() && self.core.is_drained()
    }

    /// The cycle bookkeeping of a [`CoreComplex::tick`] on an idle CC,
    /// without ticking any unit: advances the cycle counters and
    /// re-latches the (stable) stall-cause classification — exactly
    /// what a full tick does when [`CoreComplex::is_idle`] holds, as
    /// the idle-no-op property test pins down.
    pub fn tick_idle(&mut self) {
        let roi_before = self.metrics.roi;
        self.account_cycle(self.metrics.instret, &roi_before);
    }

    /// Advances the CC one cycle. `phys[0]` is the shared port, `phys[1..]`
    /// the exclusive lane ports; `l1` is the hive instruction cache (None
    /// models the ideal instruction memory of §IV-A).
    pub fn tick(
        &mut self,
        now: u64,
        phys: &mut [MemPort],
        dma: Option<&mut Dma>,
        l1: Option<&mut L1ICache>,
    ) {
        assert_eq!(phys.len(), self.streamer.n_lanes(), "one physical port per lane"); // gate-allow: construction invariant between streamer and port vector

        // Pre-tick counter snapshot: the attribution sampler at step 6
        // classifies the hart from what this cycle's sub-steps added.
        let instret_before = self.metrics.instret;
        let roi_before = self.metrics.roi;
        // 0. Instruction fetch timing (L0 / shared L1 model).
        if let (Some(l0), Some(l1)) = (self.l0.as_mut(), l1) {
            if !self.core.halted() && self.core.fetch_stall == 0 && !l0.fetch(self.core.pc()) {
                self.core.fetch_stall = l1.refill(self.core.pc());
            }
        }
        // 1. Return yesterday's shared-port responses to their masters.
        self.shared.relay_responses(now, &mut phys[0]);
        // 2. Integer pipeline.
        self.core.tick(
            now,
            &self.program,
            &mut self.shared.core_lsu,
            &mut self.fpu,
            &mut self.streamer,
            &mut self.metrics,
            dma,
        );
        // 3. FPU subsystem; deliver its integer results.
        let int_wbs =
            self.fpu.tick(now, &mut self.shared.fpu_lsu, &mut self.streamer, &mut self.metrics);
        for wb in int_wbs {
            self.core.apply_int_writeback(wb.reg, wb.value);
        }
        // 3b. Sequencer fault delivery: the FREP sequencer rejected the
        // offloaded stream — park the CC exactly as for an access fault.
        if let Some(fault) = self.fpu.take_sequencer_fault() {
            self.park(TrapCause::SequencerFault(fault));
        }
        // 4. Streamer lanes: lane 0 rides the shared port's SSR leg,
        // the rest own their exclusive physical ports directly.
        {
            let (_, rest) = phys.split_at_mut(1);
            self.streamer.tick(now, &mut self.shared.ssr, rest);
        }
        // 4b. Mid-stream fault delivery: the streamer latched a
        // structured fault and froze — park the core on the trap and
        // squash the FPU subsystem so the whole CC drains cleanly
        // (sibling harts in a cluster are unaffected; the barrier masks
        // halted cores).
        if let Some(fault) = self.streamer.take_stream_fault() {
            self.core.deliver_fault(TrapCause::StreamFault(fault));
            self.fpu.flush();
        }
        // 5. Forward one combined request.
        self.shared.forward_requests(&mut phys[0]);
        // 6. Account the cycle.
        self.account_cycle(instret_before, &roi_before);
    }

    /// Accounts one cycle — and classifies it. The hart cause comes
    /// from the counter deltas since the given pre-tick snapshot; the
    /// stream units classify themselves. Recording happens here,
    /// exactly once per cycle, right where the ROI cycle counter
    /// advances — which is what makes every breakdown total equal the
    /// ROI cycles.
    fn account_cycle(&mut self, instret_before: u64, roi_before: &RoiCounters) {
        let hart = self.hart_cause(instret_before, roi_before);
        self.causes.hart = hart;
        let probe = &mut self.causes.streamer;
        self.streamer.attr_probe_into(probe);
        self.metrics.cycles += 1;
        self.cause_tally.record(hart);
        if self.metrics.roi_active {
            self.metrics.roi.cycles += 1;
            self.attr.hart.record(hart);
            for (table, &cause) in self.attr.lanes.iter_mut().zip(probe.lanes.iter()) {
                table.record(cause);
            }
            self.attr.joiner.record(probe.joiner);
            self.attr.spacc.record(probe.spacc);
        }
    }

    /// Classifies the hart's cycle from the counter deltas the tick's
    /// sub-steps produced. Issue (integer or FPU) wins; otherwise the
    /// park/barrier states, then the stall counters, decide.
    fn hart_cause(&self, instret_before: u64, roi_before: &RoiCounters) -> StallCause {
        let roi = &self.metrics.roi;
        if self.metrics.instret > instret_before
            || roi.core_ops > roi_before.core_ops
            || roi.fpu_ops > roi_before.fpu_ops
        {
            return StallCause::Active;
        }
        if self.core.halted() {
            return StallCause::Parked;
        }
        if self.core.at_barrier() {
            return StallCause::BarrierWait;
        }
        if roi.core_stall_structural > roi_before.core_stall_structural {
            return StallCause::PortConflict;
        }
        if roi.core_stall_raw > roi_before.core_stall_raw || roi.fpu_stall > roi_before.fpu_stall {
            return StallCause::FifoEmpty;
        }
        StallCause::Idle
    }

    /// The most recent tick's classification of every unit, refreshed
    /// every cycle (inside the ROI or not) — the signal the cluster
    /// feeds its timeline.
    #[must_use]
    pub fn last_causes(&self) -> &CcCauses {
        &self.causes
    }

    /// Parks the CC on an access fault the memory system reported for
    /// one of its ports: the core takes [`TrapCause::AccessFault`], the
    /// FPU subsystem squashes and the streamer freezes, exactly as for
    /// a mid-stream fault, so the CC still drains to quiescence and
    /// sibling harts are unaffected. The harness calls this between
    /// ticks; the faulting request was already served as a zero read or
    /// a dropped write.
    pub fn deliver_access_fault(&mut self, addr: u32) {
        self.park(TrapCause::AccessFault { addr });
    }

    /// Parks the whole CC on a fault raised outside the integer
    /// pipeline: the core traps, the FPU subsystem squashes, the
    /// streamer freezes and drains.
    fn park(&mut self, cause: TrapCause) {
        self.core.deliver_fault(cause);
        self.fpu.flush();
        self.streamer.freeze();
    }

    /// This hart's entry in a post-mortem: where it stands, what it
    /// mostly waited on, and the word it last loaded. `unit` is its
    /// name within the cluster ("hart 3", "dmcc").
    #[must_use]
    pub fn stuck_unit(&self, cluster: usize, unit: &str) -> StuckUnit {
        StuckUnit {
            name: format!("c{cluster} {unit}"),
            pc: self.core.pc(),
            dominant: self.cause_tally.dominant(),
            polls: self.core.last_load_addr(),
        }
    }
}

/// Why a run did not complete: the exhausted budget and the
/// post-mortem every run harness assembles (boxed so the error stays
/// small on the happy path).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SimTimeout {
    /// The cycle limit that was exhausted.
    pub max_cycles: u64,
    /// Every non-quiescent hart and the timeline's final window.
    pub post_mortem: Box<PostMortem>,
}

impl SimTimeout {
    /// Builds the error around the harness's post-mortem report.
    #[must_use]
    pub fn from_post_mortem(max_cycles: u64, pm: PostMortem) -> Self {
        Self { max_cycles, post_mortem: Box::new(pm) }
    }
}

impl std::fmt::Display for SimTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulation exceeded {} cycles", self.max_cycles)?;
        if self.post_mortem.stuck.is_empty() {
            write!(f, " (no hart stuck; an engine or queue never drained)")?;
        }
        write!(f, "\n{}", self.post_mortem)
    }
}

impl std::error::Error for SimTimeout {}

/// Result of a completed single-CC run.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Cycles until the CC went quiescent.
    pub cycles: u64,
    /// Core metrics (ROI counters included).
    pub metrics: Metrics,
    /// Final per-lane streamer statistics.
    pub lane_stats: Vec<LaneStats>,
    /// Index-joiner statistics (all zero without joiner hardware).
    pub joiner_stats: JoinerStats,
    /// Sparse-accumulator statistics (all zero without SpAcc hardware).
    pub spacc_stats: SpAccStats,
    /// Memory statistics.
    pub tcdm_stats: TcdmStats,
    /// ROI stall-cause breakdowns (hart + stream units); each table
    /// totals to `metrics.roi.cycles`.
    pub attr: CcAttribution,
    /// Decode/fetch trap that parked the core, if any. A trapped run
    /// still drains and returns `Ok` — callers inspect this field to
    /// distinguish a clean `halt` from a structured error.
    pub trap: Option<Trap>,
}

impl RunSummary {
    /// Returns the summary, panicking with the trap's diagnostics if the
    /// run ended on a decode/fetch trap instead of a clean `halt`. The
    /// kernel harnesses call this so a builder bug that used to abort
    /// the whole simulator still fails loudly — at the harness level —
    /// while embedders of [`SingleCcSim`] remain free to inspect
    /// [`RunSummary::trap`] themselves.
    ///
    /// # Panics
    /// Panics if the run trapped.
    #[must_use]
    #[track_caller]
    pub fn expect_clean(self) -> Self {
        if let Some(trap) = self.trap {
            panic!(
                // gate-allow: test-harness helper; documented to panic on trapped runs
                "simulated core trapped: {trap} (cause: {:?}, faulting pc {:#010x}, \
                 hart {})",
                trap.cause, trap.pc, trap.hartid
            );
        }
        self
    }

    /// The per-unit stall-cause breakdown as an aligned text table —
    /// what the bench reporters print under their result rows.
    #[must_use]
    pub fn attribution_report(&self) -> String {
        issr_trace::breakdown_table(&self.attr.rows(""))
    }
}

/// Base address of the data arena used by single-CC workloads (above the
/// peripheral window, so address-map region checks stay meaningful).
pub const SINGLE_CC_ARENA: u32 = 0x0030_0000;

/// The single-CC evaluation setup of §IV-A: one core complex coupled to
/// ideal single-cycle instruction and two-port data memories. The data
/// memory is sized generously (the paper assumes the full matrix fits).
#[derive(Debug)]
pub struct SingleCcSim {
    /// The core complex under test.
    pub cc: CoreComplex,
    /// Ideal data memory.
    pub mem: Tcdm,
    ports: Vec<MemPort>,
    now: u64,
}

impl SingleCcSim {
    /// Default data memory size (32 MiB: fits the largest suite matrix).
    pub const DEFAULT_MEM_BYTES: u32 = 32 << 20;

    /// Creates the harness for `program` with default parameters.
    #[must_use]
    pub fn new(program: Program) -> Self {
        Self::with_params(program, CcParams::default())
    }

    /// Creates the harness around a CC whose streamer carries the
    /// sparse-sparse index joiner (the SSSR configuration) — the setup
    /// the SpVV∩ / SpMSpV kernels run on.
    #[must_use]
    pub fn with_joiner(program: Program) -> Self {
        Self::with_cc(CoreComplex::with_streamer(
            0,
            program,
            CcParams::default(),
            Streamer::sssr_config(),
        ))
    }

    /// Creates the harness with explicit core parameters.
    #[must_use]
    pub fn with_params(program: Program, params: CcParams) -> Self {
        Self::with_cc(CoreComplex::new(0, program, params))
    }

    /// Creates the harness around a custom core complex (e.g. one with a
    /// two-ISSR streamer for codebook-compressed sparse values, §III-C).
    #[must_use]
    pub fn with_cc(cc: CoreComplex) -> Self {
        let n_ports = cc.n_ports();
        Self {
            cc,
            mem: Tcdm::ideal(TCDM_BASE, Self::DEFAULT_MEM_BYTES),
            ports: (0..n_ports).map(|_| MemPort::new()).collect(),
            now: 0,
        }
    }

    /// Replaces the program, keeping memory — the kernel harnesses
    /// marshal operands first and bake the resulting addresses into the
    /// program afterwards. Legal only before the first tick: the CC
    /// holds no other program-derived state until it has run.
    pub fn load(&mut self, program: Program) {
        debug_assert!(self.now == 0, "SingleCcSim::load after the first tick");
        self.cc.program = program;
    }

    /// Runs until the CC is quiescent.
    ///
    /// # Errors
    /// Returns [`SimTimeout`] if the CC does not go quiescent within
    /// `max_cycles`.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunSummary, SimTimeout> {
        let deadline = self.now.saturating_add(max_cycles);
        // Host self-profiler (opt-in, read-only), looked up once per
        // run: the single CC is its own "workers" class, the ideal
        // memory is "mem".
        let profiled = host::is_enabled();
        while self.now < deadline {
            let now = self.now;
            let mut host_t = host::phase_start(profiled);
            let idle_cc = u64::from(profiled && self.cc.is_idle());
            self.cc.tick(now, &mut self.ports, None, None);
            host::phase(&mut host_t, "workers", 1, idle_cc);
            let idle_mem = u64::from(profiled && self.ports.iter().all(|p| p.pending().is_none()));
            // Every port is this CC's: any access fault parks it.
            for (_, addr) in self.mem.tick(now, &mut self.ports, &[]) {
                self.cc.deliver_access_fault(addr);
            }
            host::phase(&mut host_t, "mem", 1, idle_mem);
            if profiled {
                host::cycle();
            }
            self.now += 1;
            if self.cc.quiescent() {
                return Ok(RunSummary {
                    cycles: self.now,
                    metrics: self.cc.metrics,
                    lane_stats: self.cc.streamer.stats(),
                    joiner_stats: self.cc.streamer.joiner_stats(),
                    spacc_stats: self.cc.streamer.spacc_stats(),
                    tcdm_stats: self.mem.stats(),
                    attr: self.cc.attr.clone(),
                    trap: self.cc.core.trap(),
                });
            }
        }
        let hart = self.cc.stuck_unit(0, &format!("hart {}", self.cc.core.hartid()));
        let pm = PostMortem::assemble(self.now, vec![hart], None);
        Err(SimTimeout::from_post_mortem(max_cycles, pm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use issr_isa::asm::Assembler;
    use issr_isa::instr::Stagger;
    use issr_isa::reg::{FpReg as F, IntReg as R};

    #[test]
    fn integer_loop_and_store() {
        // Sum 1..=10, store at arena base.
        let mut a = Assembler::new();
        a.li(R::T0, 10);
        a.li(R::T1, 0);
        let head = a.bind_label();
        a.add(R::T1, R::T1, R::T0);
        a.addi(R::T0, R::T0, -1);
        a.bnez(R::T0, head);
        a.li_addr(R::A0, SINGLE_CC_ARENA);
        a.sw(R::T1, R::A0, 0);
        a.halt();
        let mut sim = SingleCcSim::new(a.finish().unwrap());
        let summary = sim.run(1000).unwrap();
        assert_eq!(sim.mem.array().load_u32(SINGLE_CC_ARENA), 55);
        // 3-instruction loop body, 10 iterations, small pro/epilogue.
        assert!(summary.cycles < 50, "took {} cycles", summary.cycles);
    }

    /// Resuming a finished simulator with an unbounded budget must not
    /// overflow the deadline.
    #[test]
    fn unbounded_budget_survives_a_resumed_run() {
        let mut a = Assembler::new();
        a.halt();
        let mut sim = SingleCcSim::new(a.finish().unwrap());
        sim.run(u64::MAX).expect("first run halts");
        sim.run(u64::MAX).expect("resumed run stays quiescent");
    }

    #[test]
    fn load_use_latency_is_two_cycles() {
        let addr = SINGLE_CC_ARENA;
        // Dependent: lw; addi on result.
        let cycles = |pad: bool| {
            let mut a = Assembler::new();
            a.li_addr(R::A0, addr);
            a.roi_begin();
            for _ in 0..32 {
                a.lw(R::T0, R::A0, 0);
                if pad {
                    a.nop();
                }
                a.addi(R::T1, R::T0, 1);
            }
            a.roi_end();
            a.halt();
            let mut sim = SingleCcSim::new(a.finish().unwrap());
            sim.run(10_000).unwrap().metrics.roi.cycles
        };
        let dependent = cycles(false);
        let padded = cycles(true);
        // Padded version hides the 1-cycle bubble with a useful slot:
        // both take 3 cycles per iteration.
        assert_eq!(dependent, padded, "dependent {dependent} vs padded {padded}");
        assert_eq!(padded, 32 * 3 + 1);
    }

    #[test]
    fn dense_dot_product_with_fld() {
        let n = 16u32;
        let x = SINGLE_CC_ARENA;
        let y = SINGLE_CC_ARENA + 0x1000;
        let out = SINGLE_CC_ARENA + 0x2000;
        let mut a = Assembler::new();
        a.li_addr(R::A0, x);
        a.li_addr(R::A1, y);
        a.li(R::T0, i64::from(n));
        a.fcvt_d_w(F::FS0, R::ZERO);
        let head = a.bind_label();
        a.fld(F::FT0, R::A0, 0);
        a.fld(F::FT1, R::A1, 0);
        a.fmadd_d(F::FS0, F::FT0, F::FT1, F::FS0);
        a.addi(R::A0, R::A0, 8);
        a.addi(R::A1, R::A1, 8);
        a.addi(R::T0, R::T0, -1);
        a.bnez(R::T0, head);
        a.li_addr(R::A2, out);
        a.fsd(F::FS0, R::A2, 0);
        a.halt();
        let mut sim = SingleCcSim::new(a.finish().unwrap());
        for i in 0..n {
            sim.mem.array_mut().store_f64(x + i * 8, f64::from(i));
            sim.mem.array_mut().store_f64(y + i * 8, 2.0);
        }
        sim.run(10_000).unwrap();
        let expected: f64 = (0..n).map(|i| f64::from(i) * 2.0).sum();
        assert_eq!(sim.mem.array().load_f64(out), expected);
    }

    /// The SSR dense path: both operands streamed, FREP loop with
    /// staggered accumulators → FPU utilization close to 1 (the SSR
    /// paper's headline, which the ISSR must not regress).
    #[test]
    fn ssr_dense_dot_reaches_full_utilization() {
        use issr_core::cfg::{cfg_addr, reg as sreg};
        let n = 512u32;
        let x = SINGLE_CC_ARENA;
        let y = SINGLE_CC_ARENA + 0x4000;
        let out = SINGLE_CC_ARENA + 0x8000;
        let n_acc = 4u8;
        let mut a = Assembler::new();
        // ft0 <- x (SSR lane 0), ft1 <- y (ISSR lane 1 in affine mode).
        for lane in 0..2u8 {
            a.li(R::T0, i64::from(n - 1));
            a.scfgwi(R::T0, cfg_addr(sreg::BOUNDS[0], lane));
            a.li(R::T0, 8);
            a.scfgwi(R::T0, cfg_addr(sreg::STRIDES[0], lane));
        }
        a.li_addr(R::T0, x);
        a.scfgwi(R::T0, cfg_addr(sreg::RPTR[0], 0));
        a.li_addr(R::T0, y);
        a.scfgwi(R::T0, cfg_addr(sreg::RPTR[0], 1));
        for k in 0..n_acc {
            a.fcvt_d_w(F::FT2.offset(k), R::ZERO);
        }
        a.csrsi(issr_isa::Csr::Ssr, 1);
        a.roi_begin();
        a.li(R::T1, i64::from(n - 1));
        a.frep_outer(R::T1, 1, Stagger::accumulator(n_acc));
        a.fmadd_d(F::FT2, F::FT0, F::FT1, F::FT2);
        // Reduce the accumulators.
        a.fadd_d(F::FT2, F::FT2, F::FT3);
        a.fadd_d(F::FT4, F::FT4, F::FT5);
        a.fadd_d(F::FT2, F::FT2, F::FT4);
        a.roi_end();
        a.csrci(issr_isa::Csr::Ssr, 1);
        a.li_addr(R::A2, out);
        a.fsd(F::FT2, R::A2, 0);
        a.halt();
        let mut sim = SingleCcSim::new(a.finish().unwrap());
        for i in 0..n {
            sim.mem.array_mut().store_f64(x + i * 8, f64::from(i % 7));
            sim.mem.array_mut().store_f64(y + i * 8, f64::from(i % 5));
        }
        let summary = sim.run(100_000).unwrap();
        let expected: f64 = (0..n).map(|i| f64::from(i % 7) * f64::from(i % 5)).sum();
        assert_eq!(sim.mem.array().load_f64(out), expected);
        let util = summary.metrics.fpu_utilization();
        assert!(util > 0.9, "SSR dense utilization {util:.3}, expected ~1.0");
    }

    /// Pseudo-dual-issue: the core retires independent integer work while
    /// the FPU runs an FREP loop.
    #[test]
    fn core_overlaps_with_frep_loop() {
        let n = 64u32;
        let mut a = Assembler::new();
        a.fcvt_d_w(F::FT2, R::ZERO);
        a.fcvt_d_w(F::FT3, R::ZERO);
        a.li(R::T1, i64::from(n - 1));
        a.roi_begin();
        a.frep_outer(R::T1, 1, Stagger::NONE);
        a.fadd_d(F::FT2, F::FT2, F::FT3);
        // Integer work that should overlap with the FP loop.
        a.li(R::T2, 0);
        for _ in 0..32 {
            a.addi(R::T2, R::T2, 1);
        }
        a.roi_end();
        a.halt();
        let mut sim = SingleCcSim::new(a.finish().unwrap());
        let summary = sim.run(10_000).unwrap();
        // The fadd chain is dependent: n * fpu_latency cycles. The 33
        // integer instructions must hide inside it.
        let fp_time = u64::from(n) * CcParams::default().fpu_latency;
        assert!(
            summary.metrics.roi.cycles < fp_time + 16,
            "roi {} cycles, fp alone {}",
            summary.metrics.roi.cycles,
            fp_time
        );
        assert_eq!(sim.cc.core.reg(R::T2), 32);
    }

    /// The SSSR data flow: the joiner matches two sparse fibers and a
    /// single staggered `fmadd` under FREP consumes the pairs — the
    /// sparse-sparse dot product with a static trip count (gather-A).
    #[test]
    fn joiner_feeds_fmadd_loop() {
        use issr_core::cfg::{cfg_addr, join_cfg_word, reg as sreg, JoinerMode};
        use issr_core::serializer::IndexSize;
        let idx_a = SINGLE_CC_ARENA;
        let idx_b = SINGLE_CC_ARENA + 0x1000;
        let vals_a = SINGLE_CC_ARENA + 0x2000;
        let vals_b = SINGLE_CC_ARENA + 0x3000;
        let out = SINGLE_CC_ARENA + 0x4000;
        let a_idcs: [u16; 6] = [0, 3, 4, 9, 17, 30];
        let b_idcs: [u16; 5] = [1, 3, 9, 17, 31];
        let n_acc = 4u8;
        let mut a = Assembler::new();
        a.li(R::T0, i64::from(join_cfg_word(JoinerMode::GatherA, IndexSize::U16)));
        a.scfgwi(R::T0, cfg_addr(sreg::JOIN_CFG, 0));
        a.li_addr(R::T0, vals_a);
        a.scfgwi(R::T0, cfg_addr(sreg::DATA_BASE, 0));
        a.li_addr(R::T0, idx_b);
        a.scfgwi(R::T0, cfg_addr(sreg::JOIN_IDX_B, 0));
        a.li_addr(R::T0, vals_b);
        a.scfgwi(R::T0, cfg_addr(sreg::JOIN_DATA_B, 0));
        a.li(R::T0, a_idcs.len() as i64);
        a.scfgwi(R::T0, cfg_addr(sreg::JOIN_NNZ_A, 0));
        a.li(R::T0, b_idcs.len() as i64);
        a.scfgwi(R::T0, cfg_addr(sreg::JOIN_NNZ_B, 0));
        a.li_addr(R::T0, idx_a);
        a.scfgwi(R::T0, cfg_addr(sreg::RPTR[0], 0)); // launch
        a.csrsi(issr_isa::Csr::Ssr, 1);
        for k in 0..n_acc {
            a.fcvt_d_w(F::FT2.offset(k), R::ZERO);
        }
        a.li(R::T1, a_idcs.len() as i64 - 1);
        a.frep_outer(R::T1, 1, Stagger::accumulator(n_acc));
        a.fmadd_d(F::FT2, F::FT0, F::FT1, F::FT2);
        a.fadd_d(F::FT2, F::FT2, F::FT3);
        a.fadd_d(F::FT4, F::FT4, F::FT5);
        a.fadd_d(F::FT2, F::FT2, F::FT4);
        a.csrci(issr_isa::Csr::Ssr, 1);
        a.li_addr(R::A2, out);
        a.fsd(F::FT2, R::A2, 0);
        a.halt();
        let mut sim = SingleCcSim::with_joiner(a.finish().unwrap());
        sim.mem.array_mut().store_u16_slice(idx_a, &a_idcs);
        sim.mem.array_mut().store_u16_slice(idx_b, &b_idcs);
        for j in 0..a_idcs.len() as u32 {
            sim.mem.array_mut().store_f64(vals_a + j * 8, f64::from(j + 1));
        }
        for j in 0..b_idcs.len() as u32 {
            sim.mem.array_mut().store_f64(vals_b + j * 8, f64::from(j + 1) * 10.0);
        }
        sim.run(100_000).unwrap();
        // Matches: 3 (a pos 1, b pos 1), 9 (a pos 3, b pos 2), 17 (a pos
        // 4, b pos 3): 2*20 + 4*30 + 5*40 = 360.
        assert_eq!(sim.mem.array().load_f64(out), 360.0);
        let stats = sim.cc.streamer.joiner_stats();
        assert_eq!(stats.jobs, 1);
        assert_eq!(stats.matches, 3);
        assert_eq!(stats.emissions, a_idcs.len() as u64);
    }

    /// `frep.s`: a stream-terminated fmadd loop consumes a joiner
    /// intersect job of *data-dependent* length — no count pre-pass, no
    /// pre-counted trip. The loop ends when the joiner raises `done`
    /// and the lane FIFOs drain.
    #[test]
    fn frep_stream_terminates_on_joiner_done() {
        use issr_core::cfg::{cfg_addr, join_cfg_word, reg as sreg, JoinerMode};
        use issr_core::serializer::IndexSize;
        let idx_a = SINGLE_CC_ARENA;
        let idx_b = SINGLE_CC_ARENA + 0x1000;
        let vals_a = SINGLE_CC_ARENA + 0x2000;
        let vals_b = SINGLE_CC_ARENA + 0x3000;
        let out = SINGLE_CC_ARENA + 0x4000;
        let a_idcs: [u16; 4] = [0, 3, 5, 9];
        let b_idcs: [u16; 5] = [3, 5, 7, 9, 11];
        let run = |intersecting: bool| -> (f64, u64) {
            let n_acc = 4u8;
            let mut a = Assembler::new();
            a.li(R::T0, i64::from(join_cfg_word(JoinerMode::Intersect, IndexSize::U16)));
            a.scfgwi(R::T0, cfg_addr(sreg::JOIN_CFG, 0));
            a.li_addr(R::T0, vals_a);
            a.scfgwi(R::T0, cfg_addr(sreg::DATA_BASE, 0));
            a.li_addr(R::T0, idx_b);
            a.scfgwi(R::T0, cfg_addr(sreg::JOIN_IDX_B, 0));
            a.li_addr(R::T0, vals_b);
            a.scfgwi(R::T0, cfg_addr(sreg::JOIN_DATA_B, 0));
            a.li(R::T0, a_idcs.len() as i64);
            a.scfgwi(R::T0, cfg_addr(sreg::JOIN_NNZ_A, 0));
            a.li(R::T0, if intersecting { b_idcs.len() as i64 } else { 0 });
            a.scfgwi(R::T0, cfg_addr(sreg::JOIN_NNZ_B, 0));
            a.li_addr(R::T0, idx_a);
            a.scfgwi(R::T0, cfg_addr(sreg::RPTR[0], 0)); // launch
            a.csrsi(issr_isa::Csr::Ssr, 1);
            for k in 0..n_acc {
                a.fcvt_d_w(F::FT2.offset(k), R::ZERO);
            }
            a.roi_begin();
            a.frep_stream(1, Stagger::accumulator(n_acc));
            a.fmadd_d(F::FT2, F::FT0, F::FT1, F::FT2);
            a.roi_end();
            a.fadd_d(F::FT2, F::FT2, F::FT3);
            a.fadd_d(F::FT4, F::FT4, F::FT5);
            a.fadd_d(F::FT2, F::FT2, F::FT4);
            a.csrci(issr_isa::Csr::Ssr, 1);
            a.li_addr(R::A2, out);
            a.fsd(F::FT2, R::A2, 0);
            a.halt();
            let mut sim = SingleCcSim::with_joiner(a.finish().unwrap());
            sim.mem.array_mut().store_u16_slice(idx_a, &a_idcs);
            sim.mem.array_mut().store_u16_slice(idx_b, &b_idcs);
            for j in 0..a_idcs.len() as u32 {
                sim.mem.array_mut().store_f64(vals_a + j * 8, f64::from(j + 1));
            }
            for j in 0..b_idcs.len() as u32 {
                sim.mem.array_mut().store_f64(vals_b + j * 8, f64::from(j + 1) * 10.0);
            }
            let summary = sim.run(100_000).unwrap().expect_clean();
            (sim.mem.array().load_f64(out), summary.metrics.roi.fmadds)
        };
        // Matches at 3 (a1,b0), 5 (a2,b1), 9 (a3,b3): 2*10 + 3*20 + 4*40.
        let (dot, _) = run(true);
        assert_eq!(dot, 240.0);
        // An empty B side intersects to nothing: the body runs ZERO
        // times — the case a capture-and-execute FREP cannot express.
        let (dot, fmadds) = run(false);
        assert_eq!(dot, 0.0);
        assert_eq!(fmadds, 0, "stream loop body must not execute on an empty stream");
    }

    /// A `frep.s` body with no stream-mapped source terminates
    /// immediately (zero iterations) instead of spinning.
    #[test]
    fn frep_stream_without_stream_sources_is_a_no_op() {
        let mut a = Assembler::new();
        a.fcvt_d_w(F::FS0, R::ZERO);
        a.fcvt_d_w(F::FS1, R::ZERO);
        a.csrsi(issr_isa::Csr::Ssr, 1);
        a.roi_begin();
        a.frep_stream(1, Stagger::NONE);
        a.fadd_d(F::FS0, F::FS0, F::FS1);
        a.roi_end();
        a.csrci(issr_isa::Csr::Ssr, 1);
        a.halt();
        let mut sim = SingleCcSim::with_joiner(a.finish().unwrap());
        let summary = sim.run(10_000).unwrap().expect_clean();
        assert_eq!(summary.metrics.roi.fadds, 0);
    }

    /// Malformed streamer configuration accesses park the core with a
    /// structured `CfgFault` trap instead of aborting the simulator.
    #[test]
    fn cfg_fault_latches_as_trap() {
        use issr_core::cfg::{cfg_addr, reg as sreg};
        use issr_core::CfgFault;
        // scfgri to a lane the paper config does not have.
        let mut a = Assembler::new();
        a.scfgri(R::T0, cfg_addr(sreg::STATUS, 5));
        a.halt();
        let mut sim = SingleCcSim::new(a.finish().unwrap());
        let summary = sim.run(1000).unwrap();
        let trap = summary.trap.expect("bad-lane read must trap");
        assert_eq!(trap.cause, crate::core::TrapCause::CfgFault(CfgFault::BadLane { lane: 5 }));
        assert!(trap.to_string().contains("nonexistent lane"), "{trap}");
        // A SpAcc feed launch without SpAcc hardware.
        let mut a = Assembler::new();
        a.li(R::T0, 1);
        a.scfgwi(R::T0, cfg_addr(sreg::ACC_COUNT, 0));
        a.scfgwi(R::T0, cfg_addr(sreg::ACC_FEED, 0));
        a.halt();
        let mut sim = SingleCcSim::new(a.finish().unwrap());
        let summary = sim.run(1000).unwrap();
        assert_eq!(
            summary.trap.expect("launch must trap").cause,
            crate::core::TrapCause::CfgFault(CfgFault::NoSpAcc)
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let build = || {
            let mut a = Assembler::new();
            a.li(R::T0, 100);
            let head = a.bind_label();
            a.addi(R::T0, R::T0, -1);
            a.bnez(R::T0, head);
            a.halt();
            a.finish().unwrap()
        };
        let mut s1 = SingleCcSim::new(build());
        let mut s2 = SingleCcSim::new(build());
        let c1 = s1.run(10_000).unwrap().cycles;
        let c2 = s2.run(10_000).unwrap().cycles;
        assert_eq!(c1, c2);
    }

    /// A program that runs off the end of its instruction memory parks
    /// the core with a structured trap instead of aborting the process.
    #[test]
    fn missing_halt_traps_instead_of_panicking() {
        let mut a = Assembler::new();
        a.li(R::T0, 3);
        a.addi(R::T0, R::T0, 1);
        let mut sim = SingleCcSim::new(a.finish().unwrap());
        let summary = sim.run(1000).unwrap();
        let trap = summary.trap.expect("run must surface the fetch trap");
        assert_eq!(trap.cause, crate::core::TrapCause::PcOutOfRange);
        assert_eq!(trap.hartid, 0);
        assert!(trap.to_string().contains("past end"), "{trap}");
        // The core still drained: registers reflect the executed prefix.
        assert_eq!(sim.cc.core.reg(R::T0), 4);
        // A clean run reports no trap.
        let mut b = Assembler::new();
        b.halt();
        let mut sim = SingleCcSim::new(b.finish().unwrap());
        assert!(sim.run(100).unwrap().trap.is_none());
    }

    #[test]
    #[should_panic(expected = "simulated core trapped")]
    fn expect_clean_panics_on_trap() {
        let mut a = Assembler::new();
        a.nop(); // no halt: runs off the end
        let mut sim = SingleCcSim::new(a.finish().unwrap());
        let _ = sim.run(100).unwrap().expect_clean();
    }

    /// Every attribution table totals exactly the ROI cycle count —
    /// the by-construction invariant — and an issue-bound integer loop
    /// shows an almost fully active hart.
    #[test]
    fn attribution_tables_sum_to_roi_cycles() {
        use issr_trace::StallCause;
        let mut a = Assembler::new();
        a.li(R::T0, 64);
        a.roi_begin();
        let head = a.bind_label();
        a.addi(R::T0, R::T0, -1);
        a.bnez(R::T0, head);
        a.roi_end();
        a.halt();
        let mut sim = SingleCcSim::new(a.finish().unwrap());
        let summary = sim.run(10_000).unwrap().expect_clean();
        let roi = summary.metrics.roi.cycles;
        assert!(roi > 0);
        assert_eq!(summary.attr.hart.total(), roi);
        for lane in &summary.attr.lanes {
            assert_eq!(lane.total(), roi);
        }
        assert_eq!(summary.attr.joiner.total(), roi);
        assert_eq!(summary.attr.spacc.total(), roi);
        // A pure integer loop: the hart is active nearly every cycle,
        // the streams are idle throughout.
        assert!(summary.attr.hart.occupancy() > 0.9, "{}", summary.attribution_report());
        assert_eq!(summary.attr.lanes[0].get(StallCause::Idle), roi);
    }

    /// The dirty-set soundness property: once [`CoreComplex::is_idle`]
    /// holds, a full [`CoreComplex::tick`] and the skip path
    /// [`CoreComplex::tick_idle`] must leave bit-identical state — the
    /// skip is only legal because the tick it elides is a provable
    /// no-op. Checked with the ROI closed (plain counting) and left
    /// open at `halt` (attribution keeps recording every idle cycle).
    fn assert_idle_tick_equivalence(close_roi: bool) {
        let build = || {
            let mut a = Assembler::new();
            a.li(R::T0, 8);
            a.roi_begin();
            let head = a.bind_label();
            a.addi(R::T0, R::T0, -1);
            a.bnez(R::T0, head);
            if close_roi {
                a.roi_end();
            }
            a.halt();
            a.finish().unwrap()
        };
        let mut full = SingleCcSim::new(build());
        let mut skip = SingleCcSim::new(build());
        // Identical programs run identically; both stop quiescent, then
        // tick until the writeback slots drain and `is_idle` latches.
        for sim in [&mut full, &mut skip] {
            sim.run(1000).unwrap();
            for _ in 0..16 {
                if sim.cc.is_idle() {
                    break;
                }
                let now = sim.now;
                sim.cc.tick(now, &mut sim.ports, None, None);
                let mut refs: Vec<&mut MemPort> = sim.ports.iter_mut().collect();
                sim.mem.tick(now, &mut refs, &[]);
                sim.now += 1;
            }
            assert!(sim.cc.is_idle(), "CC failed to reach the idle state");
        }
        assert_eq!(format!("{:?}", full.cc), format!("{:?}", skip.cc));
        // Diverge: one CC keeps taking full ticks, the other only the
        // skip path's bookkeeping. Every observable must stay equal.
        for _ in 0..16 {
            let now = full.now;
            full.cc.tick(now, &mut full.ports, None, None);
            let mut refs: Vec<&mut MemPort> = full.ports.iter_mut().collect();
            full.mem.tick(now, &mut refs, &[]);
            full.now += 1;
            skip.cc.tick_idle();
            assert!(full.cc.is_idle(), "idle must be sticky under full ticks");
            assert_eq!(format!("{:?}", full.cc), format!("{:?}", skip.cc));
            assert_eq!(format!("{:?}", full.ports), format!("{:?}", skip.ports));
            assert_eq!(format!("{:?}", full.mem), format!("{:?}", skip.mem));
        }
    }

    #[test]
    fn idle_tick_is_a_no_op() {
        assert_idle_tick_equivalence(true);
    }

    #[test]
    fn idle_tick_is_a_no_op_with_roi_open() {
        assert_idle_tick_equivalence(false);
    }

    /// `mul_latency` and `div_latency` are live: a `mul` (or `divu`)
    /// followed by a dependent `addi`, in a loop, takes exactly
    /// `iters × Δ` more ROI cycles with the latency raised by `Δ` — and
    /// computes the same registers.
    #[test]
    fn mul_and_div_latencies_come_from_the_params() {
        const ITERS: u32 = 24;
        let run = |divide: bool, params: CcParams| {
            let mut a = Assembler::new();
            a.li(R::T0, i64::from(ITERS));
            a.li(R::T1, 3);
            a.li(R::T2, 7);
            a.li(R::T4, 1_000_003);
            a.roi_begin();
            let head = a.bind_label();
            if divide {
                a.divu(R::T1, R::T4, R::T2);
            } else {
                a.mul(R::T1, R::T1, R::T2);
            }
            a.addi(R::T3, R::T1, 1);
            a.addi(R::T0, R::T0, -1);
            a.bnez(R::T0, head);
            a.roi_end();
            a.halt();
            let mut sim = SingleCcSim::with_params(a.finish().unwrap(), params);
            let roi = sim.run(100_000).unwrap().expect_clean().metrics.roi.cycles;
            (roi, sim.cc.core.reg(R::T1), sim.cc.core.reg(R::T3))
        };
        let default = CcParams::default();
        for delta in [1, 2, 10] {
            let slow_mul = CcParams { mul_latency: default.mul_latency + delta, ..default };
            let (base, slow) = (run(false, default), run(false, slow_mul));
            assert_eq!(slow.0, base.0 + u64::from(ITERS) * delta, "mul, Δ = {delta}");
            assert_eq!((slow.1, slow.2), (base.1, base.2));
            assert_eq!(base.1, 3u32.wrapping_mul(7u32.wrapping_pow(ITERS)));
            let slow_div = CcParams { div_latency: default.div_latency + delta, ..default };
            let (base, slow) = (run(true, default), run(true, slow_div));
            assert_eq!(slow.0, base.0 + u64::from(ITERS) * delta, "div, Δ = {delta}");
            assert_eq!((slow.1, slow.2), (base.1, base.2));
            assert_eq!(base.1, 1_000_003 / 7);
        }
    }

    /// A stream job the core launches in cycle *n* is ticked in cycle
    /// *n*: the streamer's quiet gate is evaluated where the CC calls
    /// the streamer — after the core ran — so the launch tick already
    /// issues the lane's first request and forwards it.
    #[test]
    fn launched_job_is_ticked_in_its_launch_cycle() {
        use issr_core::cfg::{cfg_addr, reg as sreg};
        let mut a = Assembler::new();
        a.li(R::T0, 3);
        a.scfgwi(R::T0, cfg_addr(sreg::BOUNDS[0], 0));
        a.li(R::T0, 8);
        a.scfgwi(R::T0, cfg_addr(sreg::STRIDES[0], 0));
        a.li_addr(R::T0, SINGLE_CC_ARENA);
        a.scfgwi(R::T0, cfg_addr(sreg::RPTR[0], 0)); // launch
        a.halt();
        let mut sim = SingleCcSim::new(a.finish().unwrap());
        for now in 0..32 {
            assert!(sim.cc.streamer.is_idle(), "nothing launched before cycle {now}");
            sim.cc.tick(now, &mut sim.ports, None, None);
            if sim.cc.streamer.lane(0).is_streaming() {
                assert_eq!(sim.cc.streamer.lane(0).stats().data_reads, 1, "first word requested");
                assert_eq!(sim.cc.last_causes().streamer.lanes[0], StallCause::Active);
                assert!(sim.ports[0].pending().is_some(), "and forwarded to the physical port");
                return;
            }
            sim.mem.tick(now, &mut sim.ports, &[]);
        }
        panic!("the launch never happened");
    }

    /// The unit gates over the shapes the kernel catalog runs. Under
    /// `cfg(test)` every gate in this crate — the FPU subsystem's, the
    /// shared port's relay and arbiter — runs the tick body it declines
    /// and asserts it changed nothing, in this and every other test of
    /// the crate; this one makes sure the shapes the others lack get
    /// run (an ISSR gather under FREP, SpAcc feeds and a drain, a job
    /// that traps mid-stream and freezes the streamer, a write stream
    /// whose one word issues and retires in a cycle) and that the gates
    /// really hold on a share of their cycles.
    #[test]
    fn unit_gates_hold_and_decline_only_no_op_ticks() {
        use issr_core::cfg::{acc_cfg_word, cfg_addr, idx_cfg_word, reg as sreg};
        use issr_core::serializer::IndexSize;
        let (idx, data, out) =
            (SINGLE_CC_ARENA, SINGLE_CC_ARENA + 0x1000, SINGLE_CC_ARENA + 0x2000);
        let spin_until_spacc_idle = |a: &mut Assembler| {
            let spin = a.bind_label();
            a.scfgri(R::T0, cfg_addr(sreg::ACC_STATUS, 0));
            a.andi(R::T0, R::T0, 1);
            a.beqz(R::T0, spin);
        };
        // BASE: integer loop, then scalar FP through the FPU's LSU.
        let mut base = Assembler::new();
        base.li(R::T0, 12);
        let head = base.bind_label();
        base.addi(R::T0, R::T0, -1);
        base.bnez(R::T0, head);
        base.li_addr(R::A0, data);
        base.fld(F::FT3, R::A0, 0);
        base.fadd_d(F::FT4, F::FT3, F::FT3);
        base.fsd(F::FT4, R::A0, 8);
        base.halt();
        // ISSR: eight gathered values summed under FREP.
        let mut issr = Assembler::new();
        issr.li(R::T0, 7);
        issr.scfgwi(R::T0, cfg_addr(sreg::BOUNDS[0], 1));
        issr.li(R::T0, i64::from(idx_cfg_word(IndexSize::U16, 0)));
        issr.scfgwi(R::T0, cfg_addr(sreg::IDX_CFG, 1));
        issr.li_addr(R::T0, data);
        issr.scfgwi(R::T0, cfg_addr(sreg::DATA_BASE, 1));
        issr.li_addr(R::T0, idx);
        issr.scfgwi(R::T0, cfg_addr(sreg::RPTR[0], 1));
        issr.fcvt_d_w(F::FT3, R::ZERO);
        issr.csrsi(issr_isa::Csr::Ssr, 1);
        issr.li(R::T1, 7);
        issr.frep_outer(R::T1, 1, Stagger::NONE);
        issr.fadd_d(F::FT3, F::FT3, F::FT1);
        issr.csrci(issr_isa::Csr::Ssr, 1);
        issr.li_addr(R::A0, out);
        issr.fsd(F::FT3, R::A0, 0);
        issr.halt();
        // SpAcc: a four-pair feed through the ft1 write stream, drained.
        let mut spacc = Assembler::new();
        spacc.li(R::T0, i64::from(acc_cfg_word(IndexSize::U16)));
        spacc.scfgwi(R::T0, cfg_addr(sreg::ACC_CFG, 0));
        spacc.li(R::T0, 4);
        spacc.scfgwi(R::T0, cfg_addr(sreg::ACC_COUNT, 0));
        spacc.li_addr(R::T0, idx);
        spacc.scfgwi(R::T0, cfg_addr(sreg::ACC_FEED, 0));
        spacc.li_addr(R::A0, data);
        spacc.fld(F::FT3, R::A0, 0);
        spacc.csrsi(issr_isa::Csr::Ssr, 1);
        for _ in 0..4 {
            spacc.fmv_d(F::FT1, F::FT3);
        }
        spacc.csrci(issr_isa::Csr::Ssr, 1);
        spin_until_spacc_idle(&mut spacc);
        spacc.li_addr(R::T0, out + 0x100);
        spacc.scfgwi(R::T0, cfg_addr(sreg::ACC_VAL_OUT, 0));
        spacc.li_addr(R::T0, out);
        spacc.scfgwi(R::T0, cfg_addr(sreg::ACC_DRAIN, 0));
        spin_until_spacc_idle(&mut spacc);
        spacc.halt();
        // Mid-stream trap: a lane job on the port a busy SpAcc owns.
        let mut trap = Assembler::new();
        trap.li(R::T0, 4);
        trap.scfgwi(R::T0, cfg_addr(sreg::ACC_COUNT, 0));
        trap.li_addr(R::T0, idx);
        trap.scfgwi(R::T0, cfg_addr(sreg::ACC_FEED, 0));
        trap.li(R::T0, 3);
        trap.scfgwi(R::T0, cfg_addr(sreg::BOUNDS[0], 1));
        trap.li(R::T0, 8);
        trap.scfgwi(R::T0, cfg_addr(sreg::STRIDES[0], 1));
        trap.li_addr(R::T0, data);
        trap.scfgwi(R::T0, cfg_addr(sreg::RPTR[0], 1));
        let spin = trap.bind_label();
        // The stream fault parks the core in this loop.
        trap.j(spin);
        // Write stream: one word through ft1, issued and retired at once.
        let mut write = Assembler::new();
        write.li_addr(R::A0, data);
        write.fld(F::FT3, R::A0, 0);
        write.scfgwi(R::ZERO, cfg_addr(sreg::BOUNDS[0], 1));
        write.li_addr(R::T0, out);
        write.scfgwi(R::T0, cfg_addr(sreg::WPTR[0], 1));
        write.csrsi(issr_isa::Csr::Ssr, 1);
        write.fmv_d(F::FT1, F::FT3);
        write.csrci(issr_isa::Csr::Ssr, 1);
        write.halt();
        let shapes = [
            ("base", base, false, false),
            ("issr", issr, false, false),
            ("spacc", spacc, true, false),
            ("trap", trap, true, true),
            ("write stream", write, false, false),
        ];
        for (name, asm, sssr, traps) in shapes {
            let program = asm.finish().unwrap();
            let mut sim =
                if sssr { SingleCcSim::with_joiner(program) } else { SingleCcSim::new(program) };
            sim.mem.array_mut().store_u16_slice(idx, &[1, 2, 5, 7, 8, 11, 12, 15]);
            for i in 0..16 {
                sim.mem.array_mut().store_f64(data + 8 * i, f64::from(i) + 0.5);
            }
            // Cycles on which the FPU's and the streamer's gate held
            // going in (the shared port's requests come and go within
            // a tick; its gates are only visible from inside).
            let (mut fpu, mut streamer, mut cycles) = (0u32, 0u32, 0u32);
            while !sim.cc.quiescent() {
                let cc = &sim.cc;
                fpu += u32::from(cc.fpu.is_drained() && !cc.shared.fpu_lsu.has_rsp());
                streamer +=
                    u32::from(cc.streamer.is_idle() && cc.streamer.stream_fault().is_none());
                let _ = sim.run(1);
                cycles += 1;
                assert!(cycles < 2000, "{name} never finished");
            }
            assert_eq!(sim.cc.core.trap().is_some(), traps, "{name}: {:?}", sim.cc.core.trap());
            assert!(fpu >= 4, "{name}: FPU drained on {fpu}/{cycles} cycles");
            assert!(streamer >= 2, "{name}: streamer quiet on {streamer}/{cycles} cycles");
        }
    }

    #[test]
    fn timeout_reports_pc() {
        let mut a = Assembler::new();
        let head = a.bind_label();
        a.j(head); // infinite loop
        let mut sim = SingleCcSim::new(a.finish().unwrap());
        let err = sim.run(100).unwrap_err();
        assert_eq!(err.max_cycles, 100);
        let pm = &err.post_mortem;
        assert_eq!(pm.at, 100);
        assert_eq!(pm.stuck.len(), 1, "the single CC's one hart");
        assert_eq!((pm.stuck[0].name.as_str(), pm.stuck[0].pc), ("c0 hart 0", 0), "at the loop");
        assert_eq!(err.to_string().matches("pc=").count(), 1, "{err}");
    }
}
