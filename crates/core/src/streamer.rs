//! The streamer: the set of SSR/ISSR lanes multiplexed into the FPU
//! register file (Fig. 2).
//!
//! The paper's area-optimized configuration provides one plain SSR
//! (mapped to `ft0`) and one ISSR (mapped to `ft1`), each with a private
//! memory port; [`HwCaps::PAPER`] describes exactly that. Other mixes
//! (e.g. [`HwCaps::CODEBOOK`]'s two ISSRs for codebook-compressed sparse
//! values, §III-C) are other descriptions: [`Streamer::new`] builds
//! whatever [`HwCaps`] it is given.
//!
//! While the `ssr` CSR bit is set, floating-point register indices below
//! the lane count read/write the streams instead of the register file —
//! the *register redirection* the kernels toggle around their compute
//! loops.
//!
//! A streamer described with `has_joiner` ([`HwCaps::SSSR`]) also
//! carries the sparse-sparse **index joiner** (arXiv:2305.05559). A
//! joiner job is configured through lane 0's shadow registers (`JOIN_*`)
//! and launched by writing lane 0's read pointer with the A-side index
//! array; while it runs it owns the memory ports of lanes 0 and 1 and
//! delivers matched value pairs through those two registers. How many
//! pairs an `Intersect` or `Union` job emits depends on the data; a
//! kernel ends its loop on them with `frep.s`, which stops when
//! [`Streamer::read_stream_terminated`] reports the streams done, the
//! only way a kernel ends a stream of unknown length.
//!
//! **Stall causes are latched, not re-derived.** Each unit records what
//! its cycle was spent on where its tick decides it: a lane at the end
//! of [`Lane::tick`] (from that tick's two port outcomes), the SpAcc at
//! the end of [`SpAcc::tick`], the joiner at the end of its hand-off to
//! the lanes; a freeze overwrites all of them with `Parked`.
//! The streamer's tick ends by gathering those latches — with the two
//! lane upgrades that need its view — into one [`StreamerProbe`], which
//! [`Streamer::attr_probe_into`] copies out.
//!
//! **A quiet streamer is not ticked.** When the streamer is not frozen
//! and [`Streamer::is_idle`], [`Streamer::tick`] returns at once and the
//! probe keeps reading all-`Idle`: with no job running or queued
//! anywhere, no response in flight and every FIFO empty, the tick body
//! could touch nothing — a job launched by `scfgwi` this cycle already
//! makes `is_idle` false, because the core ticks before the streamer.

use crate::cfg::{reg, AccDrainSpec, AccFeedSpec, JoinerSpec};
use crate::cfg_check::{self, HwCaps};
use crate::fault::{StreamFault, StreamFaultKind, StreamUnit, STREAM_WATCHDOG_RESET};
use crate::joiner::{IndexJoiner, JoinerStats};
use crate::lane::{Lane, LaneStats};
use crate::spacc::{SpAcc, SpAccStats, SPACC_LANE};
use issr_mem::port::MemPort;
use issr_trace::{StallCause, StatMerge};

/// One cycle's stall-cause classification of every stream unit, read
/// after [`Streamer::tick`] by the core-complex attribution sampler.
/// Pure state readout: taking a probe never changes timing.
#[derive(Clone, Debug)]
pub struct StreamerProbe {
    /// Per-lane causes, indexed like the lanes (`ft0`, `ft1`, ...).
    pub lanes: Vec<StallCause>,
    /// The index joiner's cause ([`StallCause::Idle`] when absent).
    pub joiner: StallCause,
    /// The sparse accumulator's cause ([`StallCause::Idle`] when absent).
    pub spacc: StallCause,
}

impl Default for StreamerProbe {
    fn default() -> Self {
        Self::with_lanes(0)
    }
}

impl StreamerProbe {
    /// Whether every unit reads [`StallCause::Idle`].
    fn is_all_idle(&self) -> bool {
        let idle = |&cause| cause == StallCause::Idle;
        self.lanes.iter().all(idle) && idle(&self.joiner) && idle(&self.spacc)
    }

    /// An all-idle probe of a streamer with `n_lanes` lanes.
    fn with_lanes(n_lanes: usize) -> Self {
        Self {
            lanes: vec![StallCause::Idle; n_lanes],
            joiner: StallCause::Idle,
            spacc: StallCause::Idle,
        }
    }
}

// The fault type and its validation predicates live in
// [`crate::cfg_check`], shared with `issr-lint`; re-exported here for
// the original path's compatibility.
pub use crate::cfg_check::CfgFault;

/// The lane bundle attached to one core's FPU subsystem.
#[derive(Debug)]
pub struct Streamer {
    lanes: Vec<Lane>,
    /// The description the streamer was built from; configuration
    /// accesses are checked against it.
    caps: HwCaps,
    enabled: bool,
    joiner: Option<IndexJoiner>,
    /// One-deep shadow queue for joiner jobs (like a lane's pending slot).
    pending_join: Option<JoinerSpec>,
    joiner_stats: JoinerStats,
    spacc: SpAcc,
    /// The latched mid-stream fault, if any: the first fault freezes
    /// every stream unit; the core takes it as a trap once.
    fault: Option<StreamFault>,
    /// Whether the latched fault was already handed to the core.
    fault_delivered: bool,
    /// Whether every unit is frozen and only drains: set by the first
    /// mid-stream fault, or by [`Streamer::freeze`] when the core
    /// complex parks on a fault of its own.
    frozen: bool,
    /// Watchdog threshold applied to newly promoted joiner jobs.
    joiner_watchdog: u64,
    /// Every unit's cause for the cycle that last ticked (or froze) the
    /// streamer ([`Streamer::attr_probe_into`]).
    probe: StreamerProbe,
}

impl Streamer {
    /// Creates the streamer `caps` describes; lane *i* maps to
    /// floating-point register *f_i*.
    ///
    /// # Panics
    /// Panics if no lanes are given or more than 8 (the register-map
    /// window), or if a joiner or SpAcc comes with fewer than two lanes
    /// (the joiner needs the ports of lanes 0 and 1, the SpAcc sits on
    /// lane 1) — host construction errors, not simulator input.
    #[must_use]
    pub fn new(caps: HwCaps) -> Self {
        let n_lanes = caps.lanes.len();
        assert!((1..=8).contains(&n_lanes), "streamer supports 1..=8 lanes"); // gate-allow
        let joiner_ok = !caps.has_joiner || n_lanes >= 2;
        assert!(joiner_ok, "the index joiner spans lanes 0 and 1"); // gate-allow
        let spacc_ok = !caps.has_spacc || n_lanes > SPACC_LANE;
        assert!(spacc_ok, "the sparse accumulator sits on lane 1"); // gate-allow
        Self {
            lanes: caps.lanes.iter().map(|&k| Lane::new(k)).collect(),
            caps,
            enabled: false,
            joiner: None,
            pending_join: None,
            joiner_stats: JoinerStats::default(),
            spacc: SpAcc::new(),
            fault: None,
            fault_delivered: false,
            frozen: false,
            joiner_watchdog: STREAM_WATCHDOG_RESET,
            probe: StreamerProbe::with_lanes(n_lanes),
        }
    }

    /// The paper's evaluated configuration ([`HwCaps::PAPER`]).
    #[must_use]
    pub fn paper_config() -> Self {
        Self::new(HwCaps::PAPER)
    }

    /// The sparse-sparse configuration ([`HwCaps::SSSR`]).
    #[must_use]
    pub fn sssr_config() -> Self {
        Self::new(HwCaps::SSSR)
    }

    /// The description configuration accesses are validated against —
    /// the same value `issr-lint` checks statically.
    #[must_use]
    pub fn caps(&self) -> HwCaps {
        self.caps
    }

    /// Selects single- or double-buffered SpAcc row storage (see
    /// [`SpAcc::set_double_buffered`]).
    pub fn set_spacc_double_buffered(&mut self, enabled: bool) {
        self.spacc.set_double_buffered(enabled);
    }

    /// Sets the SpAcc progress-watchdog threshold (tests shrink it;
    /// resets to [`STREAM_WATCHDOG_RESET`]).
    pub fn set_spacc_watchdog(&mut self, cycles: u64) {
        self.spacc.set_watchdog(cycles);
    }

    /// Sets the joiner progress-watchdog threshold, applied to the
    /// running job and every job promoted after this call.
    pub fn set_joiner_watchdog(&mut self, cycles: u64) {
        self.joiner_watchdog = cycles.max(1);
        if let Some(joiner) = &mut self.joiner {
            joiner.set_watchdog(cycles);
        }
    }

    /// The latched mid-stream fault, if any stream unit froze on one.
    #[must_use]
    pub fn stream_fault(&self) -> Option<StreamFault> {
        self.fault
    }

    /// Hands the latched mid-stream fault to the core exactly once (the
    /// core-complex delivery path: the core parks on the trap and the
    /// FPU subsystem squashes). Later calls return `None`; the fault
    /// itself stays latched and the streamer stays frozen.
    pub fn take_stream_fault(&mut self) -> Option<StreamFault> {
        if self.fault_delivered {
            return None;
        }
        let fault = self.fault?;
        self.fault_delivered = true;
        Some(fault)
    }

    /// Latches the first mid-stream fault and freezes the streamer.
    fn latch_stream_fault(&mut self, unit: StreamUnit, kind: StreamFaultKind) {
        if self.fault.is_some() {
            return;
        }
        self.fault = Some(StreamFault { unit, kind });
        self.freeze();
    }

    /// Freezes every stream unit: lanes stop issuing and drain, the
    /// joiner's merge stops, the SpAcc aborts to its row-buffer
    /// checkpoint. In-flight memory responses drain over the following
    /// cycles so the ports settle. Also the core complex's hook for a
    /// fault that parks it from outside the streamer (an access fault).
    pub fn freeze(&mut self) {
        self.frozen = true;
        for lane in &mut self.lanes {
            lane.freeze();
        }
        if let Some(joiner) = &mut self.joiner {
            joiner.freeze();
        }
        self.pending_join = None;
        self.spacc.freeze();
        self.latch_probe();
    }

    /// Whether `lane`'s *read* stream has terminated: no read job is
    /// running or queued, nothing is in flight, every delivered value
    /// has been consumed, and — for lanes 0/1 — no joiner job is active
    /// or pending (the joiner injects into those lanes). This is the
    /// `done` signal the FREP sequencer's stream-terminated loops
    /// (`frep.s`) poll to end a data-dependent loop without a
    /// pre-counted trip.
    #[must_use]
    pub fn read_stream_terminated(&self, lane: usize) -> bool {
        if lane <= 1 && (self.joiner.is_some() || self.pending_join.is_some()) {
            return false;
        }
        self.lanes[lane].read_stream_done()
    }

    /// Number of lanes.
    #[must_use]
    #[inline]
    pub fn n_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Sets the register-redirection enable (the `ssr` CSR bit).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether register redirection is active.
    #[must_use]
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The lane a floating-point register redirects to, if any.
    #[must_use]
    #[inline]
    pub fn lane_of_reg(&self, fp_reg: u8) -> Option<usize> {
        if self.enabled && (fp_reg as usize) < self.lanes.len() {
            Some(fp_reg as usize)
        } else {
            None
        }
    }

    /// Immutable lane access.
    #[must_use]
    #[inline]
    pub fn lane(&self, index: usize) -> &Lane {
        &self.lanes[index]
    }

    /// Mutable lane access (register-file side uses this to pop/push).
    #[inline]
    pub fn lane_mut(&mut self, index: usize) -> &mut Lane {
        &mut self.lanes[index]
    }

    /// Configuration write from the core (`scfgwi`); the 12-bit address is
    /// `reg << 5 | lane`. Returns `Ok(false)` if the lane cannot accept
    /// the write this cycle (job queue full — the core retries) and
    /// `Err` for a malformed access the core latches as a trap.
    ///
    /// A read-pointer write to lane 0 with `JOIN_CFG` enabled launches a
    /// **joiner job** across lanes 0 and 1 instead of a lane job.
    ///
    /// # Errors
    /// Returns a [`CfgFault`] for accesses the hardware cannot execute:
    /// a nonexistent lane, a joiner/SpAcc launch without that hardware,
    /// a zero-capacity feed, or a misaligned drain.
    pub fn cfg_write(&mut self, addr: u16, value: u32) -> Result<bool, CfgFault> {
        let (register, lane) = crate::cfg::split_addr(addr);
        self.caps.check_lane(lane)?;
        let lane = lane as usize;
        if cfg_check::is_joiner_launch(register, lane as u8, self.lanes[0].shadow()) {
            self.caps.check_joiner_present()?;
            if self.pending_join.is_some() {
                return Ok(false);
            }
            self.pending_join = Some(JoinerSpec::from_shadow(self.lanes[0].shadow(), value));
            self.promote_join();
            return Ok(true);
        }
        if lane == 0 && register == reg::ACC_FEED {
            let spec = AccFeedSpec::from_shadow(self.lanes[0].shadow(), value);
            self.caps.check_feed(&spec)?;
            return Ok(self.spacc.launch_feed(spec));
        }
        if lane == 0 && register == reg::ACC_DRAIN {
            let spec = AccDrainSpec::from_shadow(self.lanes[0].shadow(), value);
            self.caps.check_drain(&spec)?;
            return Ok(self.spacc.launch_drain(spec));
        }
        // Launch-time capability checks: a pointer write decodes
        // against the lane's shadow, and malformed combinations fault
        // here (the lane itself only debug-asserts them). Lane 0's
        // RPTR[0] joiner launch was dispatched above.
        if cfg_check::is_pointer_reg(register) {
            self.caps.check_pointer_write(self.lanes[lane].shadow(), lane as u8)?;
        }
        Ok(self.lanes[lane].cfg_write(register, value))
    }

    /// Configuration read from the core (`scfgri`).
    ///
    /// # Errors
    /// Returns [`CfgFault::BadLane`] for a nonexistent lane, and
    /// [`CfgFault::NoJoiner`]/[`CfgFault::NoSpAcc`] for joiner/SpAcc
    /// readbacks on a streamer without that hardware — a kernel
    /// mis-targeted at a plain core faults instead of spinning on
    /// absent status bits.
    pub fn cfg_read(&self, addr: u16) -> Result<u32, CfgFault> {
        let (register, lane) = crate::cfg::split_addr(addr);
        self.caps.check_lane(lane)?;
        let lane = lane as usize;
        if lane == 0 && register == reg::ACC_NNZ {
            self.caps.check_spacc_present()?;
            return Ok(u32::try_from(self.spacc.nnz()).expect("row buffer exceeds u32"));
        }
        if lane == 0 && register == reg::ACC_STATUS {
            self.caps.check_spacc_present()?;
            let done = self.spacc.is_idle();
            let feeds_done = self.spacc.feeds_idle();
            return Ok(u32::from(done) | (u32::from(!done) << 1) | (u32::from(feeds_done) << 2));
        }
        if lane == 0 && register == reg::STATUS {
            let done =
                self.lanes[0].is_idle() && self.joiner.is_none() && self.pending_join.is_none();
            return Ok(u32::from(done) | (u32::from(!done) << 1));
        }
        Ok(self.lanes[lane].cfg_read(register))
    }

    /// Starts the queued joiner job once the previous one retired and
    /// lanes 0/1 have released their ports.
    fn promote_join(&mut self) {
        if self.joiner.is_some() || self.pending_join.is_none() {
            return;
        }
        if self.lanes[0].is_streaming() || self.lanes[1].is_streaming() {
            return;
        }
        let spec = self.pending_join.take().expect("checked above");
        let mut joiner = IndexJoiner::new(&spec);
        joiner.set_watchdog(self.joiner_watchdog);
        self.joiner = Some(joiner);
    }

    /// Advances all lanes one cycle; `first` is lane 0's memory port,
    /// `rest[i]` is lane *i+1*'s. (The split mirrors the physical
    /// topology — lane 0 rides the core's shared port, further lanes
    /// own exclusive ports — and keeps the hot tick free of a
    /// per-cycle port-reference collection.) An active joiner job runs
    /// on the ports of lanes 0 and 1 and delivers matched pairs into
    /// those lanes' FIFOs; an active SpAcc job runs on lane 1's port
    /// and consumes its write stream.
    ///
    /// Mid-stream failures — a lane job launched on a port the joiner
    /// or SpAcc owns, a joiner overlapping an active SpAcc job, or a
    /// fault latched inside a unit (overflow, unsorted feed, stall
    /// watchdog) — latch a [`StreamFault`] and freeze the streamer
    /// instead of panicking; the frozen units drain their in-flight
    /// traffic and the streamer settles to idle.
    pub fn tick(&mut self, now: u64, first: &mut MemPort, rest: &mut [MemPort]) {
        debug_assert_eq!(rest.len() + 1, self.lanes.len(), "one port per lane");
        if self.is_quiet() {
            if cfg!(test) {
                crate::gate_check::assert_no_op("quiet", (self, first, rest), |u| {
                    u.0.tick_busy(now, u.1, u.2);
                });
            }
            return;
        }
        self.tick_busy(now, first, rest);
    }

    /// Whether [`Streamer::tick`] is provably a no-op: nothing runs, is
    /// queued, in flight or buffered in any unit. The latched probe
    /// then reads all-`Idle` already — since the last tick only the FPU
    /// popped or pushed lane FIFOs, which no cause depends on once
    /// nothing streams. A frozen streamer is never quiet: its lanes
    /// read `Parked`, and its units still settle over a few drain-only
    /// ticks.
    fn is_quiet(&self) -> bool {
        let quiet = !self.frozen && self.is_idle();
        debug_assert!(
            !quiet || self.probe.is_all_idle(),
            "a quiet streamer latched {:?}",
            self.probe
        );
        quiet
    }

    /// The tick body, behind the quiet gate of [`Streamer::tick`].
    fn tick_busy(&mut self, now: u64, first: &mut MemPort, rest: &mut [MemPort]) {
        if !self.frozen {
            self.detect_port_conflicts();
        }
        if self.frozen {
            self.tick_frozen(now, first, rest);
            return;
        }
        if self.spacc.busy() {
            self.spacc.tick(now, &mut rest[SPACC_LANE - 1], &mut self.lanes[SPACC_LANE]);
            if let Some(kind) = self.spacc.fault() {
                self.latch_stream_fault(StreamUnit::SpAcc, kind);
                return;
            }
        }
        self.promote_join();
        if let Some(joiner) = &mut self.joiner {
            joiner.tick(now, first, &mut rest[0]);
            let (lane_a, lane_b) = self.lanes.split_at_mut(1);
            joiner.deliver(&mut lane_a[0], &mut lane_b[0]);
            if let Some(kind) = joiner.fault() {
                self.latch_stream_fault(StreamUnit::Joiner, kind);
                return;
            }
            if joiner.is_done() {
                self.joiner_stats.merge_from(&joiner.stats());
                self.joiner_stats.jobs += 1;
                self.joiner = None;
                self.promote_join();
            }
        }
        let ports = std::iter::once(first).chain(rest.iter_mut());
        for (lane, port) in self.lanes.iter_mut().zip(ports) {
            lane.tick(now, port);
        }
        self.latch_probe();
    }

    /// Latches a [`StreamFaultKind::PortConflict`] when two masters
    /// claim one lane port. Detection runs before any lane issues, so
    /// the conflicting newcomer has no traffic in flight yet and the
    /// freeze drains deterministically.
    fn detect_port_conflicts(&mut self) {
        if self.spacc.busy() && self.joiner.is_some() {
            self.latch_stream_fault(StreamUnit::Joiner, StreamFaultKind::PortConflict);
        } else if self.spacc.busy() && self.lanes[SPACC_LANE].is_streaming() {
            self.latch_stream_fault(
                StreamUnit::Lane(SPACC_LANE as u8),
                StreamFaultKind::PortConflict,
            );
        } else if self.joiner.is_some()
            && (self.lanes[0].is_streaming() || self.lanes[1].is_streaming())
        {
            let lane = u8::from(!self.lanes[0].is_streaming());
            self.latch_stream_fault(StreamUnit::Lane(lane), StreamFaultKind::PortConflict);
        }
    }

    /// A frozen cycle: every unit only drains. The joiner keeps lanes
    /// 0/1's ports until its in-flight responses return; the SpAcc
    /// sinks its aborted feed's index responses; lanes drop their jobs
    /// and buffers once their own responses settle.
    fn tick_frozen(&mut self, now: u64, first: &mut MemPort, rest: &mut [MemPort]) {
        if let Some(joiner) = &mut self.joiner {
            joiner.tick(now, &mut *first, &mut rest[0]);
            if joiner.is_done() {
                self.joiner_stats.merge_from(&joiner.stats());
                self.joiner = None;
            }
        }
        let joiner_active = self.joiner.is_some();
        let spacc = &mut self.spacc;
        let ports = std::iter::once(first).chain(rest.iter_mut());
        for (i, (lane, port)) in self.lanes.iter_mut().zip(ports).enumerate() {
            if joiner_active && i <= 1 {
                continue;
            }
            if i == SPACC_LANE && spacc.sink_pending() {
                spacc.tick(now, port, lane);
            } else {
                lane.tick(now, port);
            }
        }
        self.latch_probe();
    }

    /// Whether every lane has fully drained and no joiner or SpAcc job
    /// is active or queued.
    #[must_use]
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.lanes.iter().all(Lane::is_idle)
            && self.joiner.is_none()
            && self.pending_join.is_none()
            && self.spacc.is_idle()
    }

    /// Classifies lane `i`'s current cycle for attribution. Starts from
    /// the cause the lane latched ([`Lane::attr_cause`]) and applies the
    /// two streamer-level upgrades the lane cannot see:
    ///
    /// * a joiner-fed lane (0/1) with no job of its own is waiting on
    ///   the joiner's merge, not on memory — [`StallCause::JoinerWait`],
    ///   unless matched pairs are already queued for the FPU
    ///   ([`StallCause::Active`]);
    /// * the SpAcc-owned lane while a SpAcc job runs inherits the
    ///   accumulator's cause, since the unit borrowing the port is what
    ///   the lane's cycles are spent on.
    #[must_use]
    pub fn lane_attr_cause(&self, i: usize) -> StallCause {
        let lane = &self.lanes[i];
        let base = lane.attr_cause();
        if matches!(base, StallCause::Parked | StallCause::Active | StallCause::PortConflict) {
            return base;
        }
        if i <= 1 && (self.joiner.is_some() || self.pending_join.is_some()) && !lane.is_streaming()
        {
            return if lane.can_pop() { StallCause::Active } else { StallCause::JoinerWait };
        }
        if i == SPACC_LANE && self.spacc.busy() && !lane.is_streaming() {
            return self.spacc.attr_cause();
        }
        base
    }

    /// One cycle's classification of every stream unit (lanes, joiner,
    /// SpAcc), read after [`Streamer::tick`] by the attribution sampler.
    #[must_use]
    pub fn attr_probe(&self) -> StreamerProbe {
        self.probe.clone()
    }

    /// [`Streamer::attr_probe`] into a caller-owned probe, reusing its
    /// lane buffer — the per-cycle sampler path, kept allocation-free:
    /// a copy of what the last tick latched.
    #[inline]
    pub fn attr_probe_into(&self, probe: &mut StreamerProbe) {
        probe.lanes.clone_from(&self.probe.lanes);
        probe.joiner = self.probe.joiner;
        probe.spacc = self.probe.spacc;
    }

    /// Latches every unit's cause for the cycle that just ticked, from
    /// the causes the units latched themselves — the end of every
    /// [`Streamer::tick`] that is not gated away, and of a freeze.
    fn latch_probe(&mut self) {
        self.probe.joiner = match &self.joiner {
            Some(joiner) => joiner.attr_cause(),
            // A queued job waiting for lanes 0/1 to release their ports
            // is blocked on the port handover, not on input data.
            None if self.pending_join.is_some() => StallCause::PortConflict,
            None => StallCause::Idle,
        };
        self.probe.spacc = self.spacc.attr_cause();
        for i in 0..self.lanes.len() {
            self.probe.lanes[i] = self.lane_attr_cause(i);
        }
    }

    /// Per-lane statistics.
    #[must_use]
    pub fn stats(&self) -> Vec<LaneStats> {
        self.lanes.iter().map(|l| l.stats()).collect()
    }

    /// Accumulated joiner statistics (completed jobs).
    #[must_use]
    pub fn joiner_stats(&self) -> JoinerStats {
        self.joiner_stats
    }

    /// Accumulated sparse-accumulator statistics.
    #[must_use]
    pub fn spacc_stats(&self) -> SpAccStats {
        self.spacc.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{cfg_addr, idx_cfg_word, reg, JoinerMode};
    use crate::lane::LaneKind;
    use crate::serializer::IndexSize;
    use issr_mem::tcdm::Tcdm;

    const BASE: u32 = 0x0010_0000;

    #[test]
    fn paper_config_shape() {
        let s = Streamer::paper_config();
        assert_eq!(s.n_lanes(), 2);
        assert_eq!(s.lane(0).kind(), LaneKind::Ssr);
        assert_eq!(s.lane(1).kind(), LaneKind::Issr);
    }

    #[test]
    #[should_panic(expected = "the index joiner spans lanes 0 and 1")]
    fn joiner_needs_two_lanes() {
        let _ = Streamer::new(HwCaps { lanes: &[LaneKind::Ssr], ..HwCaps::SSSR });
    }

    #[test]
    #[should_panic(expected = "the sparse accumulator sits on lane 1")]
    fn spacc_needs_two_lanes() {
        let _ =
            Streamer::new(HwCaps { lanes: &[LaneKind::Issr], has_joiner: false, has_spacc: true });
    }

    #[test]
    fn redirection_gated_by_enable() {
        let mut s = Streamer::paper_config();
        assert_eq!(s.lane_of_reg(0), None);
        s.set_enabled(true);
        assert_eq!(s.lane_of_reg(0), Some(0));
        assert_eq!(s.lane_of_reg(1), Some(1));
        assert_eq!(s.lane_of_reg(2), None);
    }

    /// The paper's SpVV data flow: SSR streams the sparse values while
    /// the ISSR gathers dense operands at the sparse indices — both
    /// sustained concurrently on private ports.
    #[test]
    fn concurrent_ssr_and_issr_streams() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        let nnz = 40u32;
        let a_vals = BASE;
        let b = BASE + 0x4000;
        let a_idcs = BASE + 0x8000;
        for j in 0..nnz {
            tcdm.array_mut().store_f64(a_vals + j * 8, f64::from(j));
        }
        for i in 0..256u32 {
            tcdm.array_mut().store_f64(b + i * 8, f64::from(i) * 0.5);
        }
        let idcs: Vec<u16> = (0..nnz as u16).map(|j| (j * 13) % 256).collect();
        tcdm.array_mut().store_u16_slice(a_idcs, &idcs);

        let mut s = Streamer::paper_config();
        // ft0: affine over a_vals.
        assert!(s.cfg_write(cfg_addr(reg::BOUNDS[0], 0), nnz - 1).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::STRIDES[0], 0), 8).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::RPTR[0], 0), a_vals).unwrap());
        // ft1: indirect over b at a_idcs.
        assert!(s.cfg_write(cfg_addr(reg::BOUNDS[0], 1), nnz - 1).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::IDX_CFG, 1), idx_cfg_word(IndexSize::U16, 0)).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::DATA_BASE, 1), b).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::RPTR[0], 1), a_idcs).unwrap());
        s.set_enabled(true);

        let mut p0 = MemPort::new();
        let mut p1 = MemPort::new();
        let mut dot = 0.0f64;
        let mut pairs = 0u32;
        let mut cycles = 0u64;
        for now in 0..2000u64 {
            s.tick(now, &mut p0, std::slice::from_mut(&mut p1));
            tcdm.tick(now, &mut [&mut p0, &mut p1], &[]);
            if s.lane(0).can_pop() && s.lane(1).can_pop() {
                let a = f64::from_bits(s.lane_mut(0).pop());
                let x = f64::from_bits(s.lane_mut(1).pop());
                dot += a * x;
                pairs += 1;
            }
            cycles = now + 1;
            if pairs == nnz {
                break;
            }
        }
        let expected: f64 =
            (0..nnz).map(|j| f64::from(j) * (f64::from((j * 13) % 256) * 0.5)).sum();
        assert_eq!(dot, expected);
        // Pair rate limited by the ISSR's 4/5 cap, not the SSR.
        let rate = f64::from(pairs) / cycles as f64;
        assert!(rate > 0.7, "pair rate {rate:.3} too low");
        assert!(s.is_idle());
    }

    #[test]
    fn status_readable_over_cfg_interface() {
        let s = Streamer::paper_config();
        assert_eq!(s.cfg_read(cfg_addr(reg::STATUS, 0)).unwrap(), 1);
        assert_eq!(s.cfg_read(cfg_addr(reg::STATUS, 1)).unwrap(), 1);
    }

    #[test]
    fn cfg_access_to_missing_lane_faults() {
        let mut s = Streamer::paper_config();
        assert_eq!(s.cfg_write(cfg_addr(reg::STATUS, 5), 0), Err(CfgFault::BadLane { lane: 5 }));
        assert_eq!(s.cfg_read(cfg_addr(reg::STATUS, 5)), Err(CfgFault::BadLane { lane: 5 }));
    }

    /// Stores the standard sparse-sparse workload used by the joiner
    /// tests: indices at `IDX_*`, values `1000 + pos` / `2000 + pos`.
    fn place_join_workload(tcdm: &mut Tcdm, idcs_a: &[u16], idcs_b: &[u16]) {
        tcdm.array_mut().store_u16_slice(BASE + 0x1000, idcs_a);
        tcdm.array_mut().store_u16_slice(BASE + 0x2000, idcs_b);
        for j in 0..idcs_a.len() as u32 {
            tcdm.array_mut().store_u64(BASE + 0x4000 + j * 8, 1000 + u64::from(j));
        }
        for j in 0..idcs_b.len() as u32 {
            tcdm.array_mut().store_u64(BASE + 0x8000 + j * 8, 2000 + u64::from(j));
        }
    }

    fn configure_join(s: &mut Streamer, mode: JoinerMode, nnz_a: u32, nnz_b: u32) -> bool {
        assert!(s
            .cfg_write(cfg_addr(reg::JOIN_CFG, 0), crate::cfg::join_cfg_word(mode, IndexSize::U16))
            .unwrap());
        assert!(s.cfg_write(cfg_addr(reg::DATA_BASE, 0), BASE + 0x4000).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::JOIN_IDX_B, 0), BASE + 0x2000).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::JOIN_DATA_B, 0), BASE + 0x8000).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::JOIN_NNZ_A, 0), nnz_a).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::JOIN_NNZ_B, 0), nnz_b).unwrap());
        s.cfg_write(cfg_addr(reg::RPTR[0], 0), BASE + 0x1000).unwrap()
    }

    /// A joiner job launched over the configuration interface delivers
    /// matched pairs through lanes 0/1 like ordinary streams.
    #[test]
    fn joiner_job_streams_matched_pairs() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        place_join_workload(&mut tcdm, &[1, 4, 9], &[0, 4, 9, 12]);
        let mut s = Streamer::sssr_config();
        assert!(configure_join(&mut s, JoinerMode::Intersect, 3, 4));
        s.set_enabled(true);
        let mut p0 = MemPort::new();
        let mut p1 = MemPort::new();
        let mut pairs = Vec::new();
        for now in 0..2000u64 {
            s.tick(now, &mut p0, std::slice::from_mut(&mut p1));
            tcdm.tick(now, &mut [&mut p0, &mut p1], &[]);
            if s.lane(0).can_pop() && s.lane(1).can_pop() {
                pairs.push((s.lane_mut(0).pop(), s.lane_mut(1).pop()));
            }
            if s.is_idle() {
                break;
            }
        }
        // Matches at indices 4 and 9: A positions 1, 2; B positions 1, 2.
        assert_eq!(pairs, [(1001, 2001), (1002, 2002)]);
        assert!(s.is_idle());
        assert_eq!(s.joiner_stats().jobs, 1);
        assert_eq!(s.joiner_stats().emissions, 2);
        assert_eq!(s.joiner_stats().matches, 2);
    }

    /// Back-to-back joiner jobs: the second launch queues in the shadow
    /// slot while the first drains, and a third is rejected until then.
    #[test]
    fn joiner_jobs_queue_one_deep() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        place_join_workload(&mut tcdm, &[0, 1, 2, 3], &[0, 1, 2, 3]);
        let mut s = Streamer::sssr_config();
        assert!(configure_join(&mut s, JoinerMode::GatherA, 4, 4));
        // Queue a second job (same shadow) and verify a third is refused.
        assert!(s.cfg_write(cfg_addr(reg::RPTR[0], 0), BASE + 0x1000).unwrap());
        assert!(!s.cfg_write(cfg_addr(reg::RPTR[0], 0), BASE + 0x1000).unwrap());
        s.set_enabled(true);
        let mut p0 = MemPort::new();
        let mut p1 = MemPort::new();
        let mut pairs = 0;
        for now in 0..4000u64 {
            s.tick(now, &mut p0, std::slice::from_mut(&mut p1));
            tcdm.tick(now, &mut [&mut p0, &mut p1], &[]);
            if s.lane(0).can_pop() && s.lane(1).can_pop() {
                let _ = s.lane_mut(0).pop();
                let _ = s.lane_mut(1).pop();
                pairs += 1;
            }
            if s.is_idle() {
                break;
            }
        }
        assert_eq!(pairs, 8, "both queued jobs must run");
        assert_eq!(s.joiner_stats().jobs, 2);
    }

    /// The SpAcc end to end over the configuration interface: two feed
    /// jobs merge through the write stream, `ACC_NNZ` reports the merged
    /// row length, and a drain packs it to memory.
    #[test]
    fn spacc_feed_and_drain_over_cfg_interface() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        tcdm.array_mut().store_u16_slice(BASE + 0x1000, &[2, 7]);
        tcdm.array_mut().store_u16_slice(BASE + 0x1100, &[2, 9]);
        let mut s = Streamer::sssr_config();
        assert!(s.caps().has_spacc);
        assert!(s
            .cfg_write(cfg_addr(reg::ACC_CFG, 0), crate::cfg::acc_cfg_word(IndexSize::U16))
            .unwrap());
        assert!(s.cfg_write(cfg_addr(reg::ACC_COUNT, 0), 2).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::ACC_FEED, 0), BASE + 0x1000).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::ACC_FEED, 0), BASE + 0x1100).unwrap());
        assert!(
            !s.cfg_write(cfg_addr(reg::ACC_FEED, 0), BASE + 0x1100).unwrap(),
            "queue is one deep"
        );
        let mut p0 = MemPort::new();
        let mut p1 = MemPort::new();
        let vals = [1.0f64, 2.0, 10.0, 20.0];
        let mut next = 0;
        for now in 0..2000u64 {
            if next < vals.len() && s.lane(1).can_push() {
                s.lane_mut(1).push(vals[next].to_bits());
                next += 1;
            }
            s.tick(now, &mut p0, std::slice::from_mut(&mut p1));
            tcdm.tick(now, &mut [&mut p0, &mut p1], &[]);
            if s.is_idle() && next == vals.len() {
                break;
            }
        }
        assert!(s.is_idle());
        // Idle: done bit and feed-done bit both set.
        assert_eq!(s.cfg_read(cfg_addr(reg::ACC_STATUS, 0)).unwrap(), 0b101);
        assert_eq!(s.cfg_read(cfg_addr(reg::ACC_NNZ, 0)).unwrap(), 3); // {2, 7, 9}
        assert!(s.cfg_write(cfg_addr(reg::ACC_VAL_OUT, 0), BASE + 0x8000).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::ACC_DRAIN, 0), BASE + 0x4000).unwrap());
        assert_eq!(s.cfg_read(cfg_addr(reg::ACC_STATUS, 0)).unwrap() & 2, 2, "drain busy");
        for now in 2000..4000u64 {
            s.tick(now, &mut p0, std::slice::from_mut(&mut p1));
            tcdm.tick(now, &mut [&mut p0, &mut p1], &[]);
            if s.is_idle() {
                break;
            }
        }
        assert_eq!(tcdm.array().load_u16(BASE + 0x4000), 2);
        assert_eq!(tcdm.array().load_u16(BASE + 0x4002), 7);
        assert_eq!(tcdm.array().load_u16(BASE + 0x4004), 9);
        assert_eq!(tcdm.array().load_f64(BASE + 0x8000), 11.0); // 1 + 10
        assert_eq!(tcdm.array().load_f64(BASE + 0x8008), 2.0);
        assert_eq!(tcdm.array().load_f64(BASE + 0x8010), 20.0);
        assert_eq!(s.cfg_read(cfg_addr(reg::ACC_NNZ, 0)).unwrap(), 0, "drain clears the row");
        assert_eq!(s.spacc_stats().feeds, 2);
        assert_eq!(s.spacc_stats().drains, 1);
    }

    #[test]
    fn spacc_launch_without_hardware_faults() {
        let mut s = Streamer::paper_config();
        assert!(s.cfg_write(cfg_addr(reg::ACC_COUNT, 0), 1).unwrap());
        assert_eq!(s.cfg_write(cfg_addr(reg::ACC_FEED, 0), BASE), Err(CfgFault::NoSpAcc));
        assert_eq!(s.cfg_write(cfg_addr(reg::ACC_DRAIN, 0), BASE), Err(CfgFault::NoSpAcc));
        // Readbacks fault too: a mis-targeted kernel must not spin on
        // status bits the hardware does not have.
        assert_eq!(s.cfg_read(cfg_addr(reg::ACC_STATUS, 0)), Err(CfgFault::NoSpAcc));
        assert_eq!(s.cfg_read(cfg_addr(reg::ACC_NNZ, 0)), Err(CfgFault::NoSpAcc));
    }

    #[test]
    fn joiner_launch_without_hardware_faults() {
        let mut s = Streamer::paper_config();
        assert!(s
            .cfg_write(
                cfg_addr(reg::JOIN_CFG, 0),
                crate::cfg::join_cfg_word(JoinerMode::Intersect, IndexSize::U16)
            )
            .unwrap());
        assert_eq!(s.cfg_write(cfg_addr(reg::RPTR[0], 0), BASE), Err(CfgFault::NoJoiner));
    }

    /// A zero-capacity row buffer faults the feed launch; an aligned
    /// drain on the same shadow is accepted.
    #[test]
    fn spacc_malformed_cfg_words_fault() {
        let mut s = Streamer::sssr_config();
        assert!(s.cfg_write(cfg_addr(reg::ACC_COUNT, 0), 1).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::ACC_BUF_CAP, 0), 0).unwrap());
        assert_eq!(s.cfg_write(cfg_addr(reg::ACC_FEED, 0), BASE), Err(CfgFault::ZeroCapacity));
        assert!(s.cfg_write(cfg_addr(reg::ACC_BUF_CAP, 0), 64).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::ACC_DRAIN, 0), BASE).unwrap());
    }

    /// Misaligned drain output bases fault at launch (CfgFault), before
    /// the unit plans any strobed write.
    #[test]
    fn misaligned_drain_launch_faults() {
        let mut s = Streamer::sssr_config();
        assert!(s
            .cfg_write(cfg_addr(reg::ACC_CFG, 0), crate::cfg::acc_cfg_word(IndexSize::U16))
            .unwrap());
        // Value base not word aligned.
        assert!(s.cfg_write(cfg_addr(reg::ACC_VAL_OUT, 0), BASE + 4).unwrap());
        assert_eq!(
            s.cfg_write(cfg_addr(reg::ACC_DRAIN, 0), BASE + 0x100),
            Err(CfgFault::MisalignedDrain { idx_out: BASE + 0x100, val_out: BASE + 4 })
        );
        // Index base not element aligned (u16 → odd byte address).
        assert!(s.cfg_write(cfg_addr(reg::ACC_VAL_OUT, 0), BASE + 8).unwrap());
        assert_eq!(
            s.cfg_write(cfg_addr(reg::ACC_DRAIN, 0), BASE + 0x101),
            Err(CfgFault::MisalignedDrain { idx_out: BASE + 0x101, val_out: BASE + 8 })
        );
        // Aligned bases launch (element-aligned mid-word is fine).
        assert!(s.cfg_write(cfg_addr(reg::ACC_DRAIN, 0), BASE + 0x102).unwrap());
    }

    /// One cycle of the quiet-gate property test: the FPU side pops
    /// the first `consume` lanes where readable and feeds `push` into
    /// lane 1's write stream, then the streamer and the memory tick.
    /// [`Streamer::tick`] itself checks — in every unit test of this
    /// crate — that a tick it declines would have changed nothing;
    /// here the predicate's other half is checked: a quiet streamer
    /// probes all-idle. Returns whether the cycle was quiet.
    fn gated_cycle(
        s: &mut Streamer,
        tcdm: &mut Tcdm,
        ports: &mut [MemPort; 2],
        now: u64,
        consume: usize,
        push: Option<u64>,
    ) -> bool {
        for l in 0..consume {
            if s.lane(l).can_pop() {
                let _ = s.lane_mut(l).pop();
            }
        }
        if let Some(value) = push {
            s.lane_mut(1).push(value);
        }
        let quiet = s.is_quiet();
        let [first, rest] = ports;
        s.tick(now, first, std::slice::from_mut(rest));
        if quiet {
            assert!(s.attr_probe().is_all_idle(), "quiet streamer probes {:?}", s.attr_probe());
        }
        tcdm.tick(now, &mut ports[..], &[]);
        quiet
    }

    /// The quiet gate over the job shapes of the kernel catalog, each
    /// behind an idle stretch and drained by a consumer that stalls at
    /// random: no job at all (BASE), an affine read (SSR), an affine
    /// plus an indirect read (ISSR), a joiner job, SpAcc feeds and a
    /// drain, and a write stream whose only word issues and retires in
    /// one cycle. Every shape must reach quiet cycles before, between
    /// and after its jobs, on the paper and the SSSR streamer.
    #[test]
    fn quiet_gate_declines_only_no_op_ticks() {
        type Launch = fn(&mut Streamer);
        // (name, needs the SSSR units, launch, write-stream values to
        // push; with any, lane 1 is a write stream and is not popped)
        let shapes: [(&str, bool, Launch, usize); 6] = [
            ("base", false, |_| {}, 0),
            (
                "ssr",
                false,
                |s| {
                    assert!(s.cfg_write(cfg_addr(reg::BOUNDS[0], 0), 23).unwrap());
                    assert!(s.cfg_write(cfg_addr(reg::STRIDES[0], 0), 8).unwrap());
                    assert!(s.cfg_write(cfg_addr(reg::RPTR[0], 0), BASE).unwrap());
                },
                0,
            ),
            (
                "issr",
                false,
                |s| {
                    assert!(s.cfg_write(cfg_addr(reg::BOUNDS[0], 0), 9).unwrap());
                    assert!(s.cfg_write(cfg_addr(reg::STRIDES[0], 0), 8).unwrap());
                    assert!(s.cfg_write(cfg_addr(reg::RPTR[0], 0), BASE).unwrap());
                    assert!(s.cfg_write(cfg_addr(reg::BOUNDS[0], 1), 9).unwrap());
                    let idx = idx_cfg_word(IndexSize::U16, 0);
                    assert!(s.cfg_write(cfg_addr(reg::IDX_CFG, 1), idx).unwrap());
                    assert!(s.cfg_write(cfg_addr(reg::DATA_BASE, 1), BASE + 0x4000).unwrap());
                    assert!(s.cfg_write(cfg_addr(reg::RPTR[0], 1), BASE + 0x1000).unwrap());
                },
                0,
            ),
            ("joiner", true, |s| assert!(configure_join(s, JoinerMode::Union, 5, 4)), 0),
            (
                "spacc",
                true,
                |s| {
                    let cfg = crate::cfg::acc_cfg_word(IndexSize::U16);
                    assert!(s.cfg_write(cfg_addr(reg::ACC_CFG, 0), cfg).unwrap());
                    assert!(s.cfg_write(cfg_addr(reg::ACC_COUNT, 0), 4).unwrap());
                    assert!(s.cfg_write(cfg_addr(reg::ACC_FEED, 0), BASE + 0x1000).unwrap());
                    assert!(s.cfg_write(cfg_addr(reg::ACC_VAL_OUT, 0), BASE + 0x8000).unwrap());
                    assert!(s.cfg_write(cfg_addr(reg::ACC_DRAIN, 0), BASE + 0x6000).unwrap());
                },
                4,
            ),
            (
                "write stream",
                false,
                |s| {
                    // One word, its value already in the FIFO: the
                    // lane issues the write and retires the job in the
                    // same tick, and is idle the cycle after.
                    s.lane_mut(1).push(77);
                    assert!(s.cfg_write(cfg_addr(reg::BOUNDS[0], 1), 0).unwrap());
                    assert!(s.cfg_write(cfg_addr(reg::STRIDES[0], 1), 8).unwrap());
                    assert!(s.cfg_write(cfg_addr(reg::WPTR[0], 1), BASE + 0x7000).unwrap());
                },
                1,
            ),
        ];
        let mut lcg = 0x2545_F491u32;
        let mut roll = move |n: u32| {
            lcg = lcg.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (lcg >> 16) % n
        };
        for (name, sssr, launch, pushes) in shapes {
            for sssr in [sssr, true] {
                let mut tcdm = Tcdm::ideal(BASE, 0x10000);
                place_join_workload(&mut tcdm, &[1, 4, 9, 11, 12], &[0, 4, 9, 12]);
                let mut s = if sssr { Streamer::sssr_config() } else { Streamer::paper_config() };
                s.set_enabled(true);
                let mut ports = [MemPort::new(), MemPort::new()];
                let (mut now, mut quiet_cycles) = (0u64, 0u32);
                for _job in 0..3 {
                    // A random idle stretch, then the job, drained by a
                    // consumer that stalls one cycle in three.
                    let lanes = if pushes > 0 { 1 } else { 2 };
                    for _ in 0..roll(5) {
                        quiet_cycles +=
                            u32::from(gated_cycle(&mut s, &mut tcdm, &mut ports, now, lanes, None));
                        now += 1;
                    }
                    launch(&mut s);
                    // The one-word write stream pushed its value itself.
                    let mut pushed = usize::from(name == "write stream");
                    let mut settled = 0;
                    while settled < 3 {
                        let push =
                            (pushed < pushes && s.lane(1).can_push() && roll(2) == 0).then(|| {
                                pushed += 1;
                                1.5f64.to_bits()
                            });
                        let consume = if roll(3) != 0 { lanes } else { 0 };
                        quiet_cycles += u32::from(gated_cycle(
                            &mut s, &mut tcdm, &mut ports, now, consume, push,
                        ));
                        now += 1;
                        settled = if s.is_idle() { settled + 1 } else { 0 };
                        assert!(now < 5000, "{name}: the job never drained");
                    }
                }
                assert!(s.stream_fault().is_none(), "{name}: {:?}", s.stream_fault());
                assert!(quiet_cycles >= 6, "{name}: only {quiet_cycles} quiet cycles");
            }
        }
    }

    /// A frozen streamer is never quiet, not even once it has drained
    /// to idle: its lanes read `Parked`, not `Idle`, and every tick
    /// still runs the drain-only body.
    #[test]
    fn frozen_streamer_is_not_quiet() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        tcdm.array_mut().store_u16_slice(BASE + 0x1000, &[1, 2, 3, 4]);
        let mut s = Streamer::sssr_config();
        // A lane job on the port a busy SpAcc owns: the mid-stream trap.
        assert!(s.cfg_write(cfg_addr(reg::ACC_COUNT, 0), 4).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::ACC_FEED, 0), BASE + 0x1000).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::BOUNDS[0], 1), 3).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::STRIDES[0], 1), 8).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::RPTR[0], 1), BASE).unwrap());
        let mut ports = [MemPort::new(), MemPort::new()];
        for now in 0..64 {
            assert!(!gated_cycle(&mut s, &mut tcdm, &mut ports, now, 2, None));
        }
        assert!(s.stream_fault().is_some() && s.is_idle(), "the freeze drained to idle");
        let probe = s.attr_probe();
        assert_eq!(probe.lanes, [StallCause::Parked, StallCause::Parked]);
        assert_eq!(probe.spacc, StallCause::Parked);
        assert!(!s.is_quiet());
    }

    /// A lane job launched on lane 1 while the SpAcc owns its port is a
    /// mid-stream port conflict: the streamer latches a `StreamFault`,
    /// freezes, drains to idle, and delivers the fault exactly once.
    #[test]
    fn lane_job_on_spacc_port_latches_stream_fault() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        tcdm.array_mut().store_u16_slice(BASE + 0x1000, &[1, 2, 3, 4]);
        let mut s = Streamer::sssr_config();
        // A value-mode feed that stays busy (its values never arrive).
        assert!(s.cfg_write(cfg_addr(reg::ACC_COUNT, 0), 4).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::ACC_FEED, 0), BASE + 0x1000).unwrap());
        // A plain affine read job on lane 1 — the port the SpAcc owns.
        assert!(s.cfg_write(cfg_addr(reg::BOUNDS[0], 1), 3).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::STRIDES[0], 1), 8).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::RPTR[0], 1), BASE).unwrap());
        let mut p0 = MemPort::new();
        let mut p1 = MemPort::new();
        for now in 0..200u64 {
            s.tick(now, &mut p0, std::slice::from_mut(&mut p1));
            tcdm.tick(now, &mut [&mut p0, &mut p1], &[]);
            if s.stream_fault().is_some() && s.is_idle() {
                break;
            }
        }
        let fault = s.stream_fault().expect("conflict must latch");
        assert_eq!(fault.unit, crate::fault::StreamUnit::Lane(1));
        assert_eq!(fault.kind, crate::fault::StreamFaultKind::PortConflict);
        assert!(s.is_idle(), "frozen streamer must drain to idle");
        // Delivery is once-only; the latch itself stays visible.
        assert!(s.take_stream_fault().is_some());
        assert!(s.take_stream_fault().is_none());
        assert!(s.stream_fault().is_some());
    }

    /// A joiner job overlapping an active SpAcc job latches a port
    /// conflict on the joiner instead of panicking.
    #[test]
    fn joiner_overlapping_spacc_latches_stream_fault() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        place_join_workload(&mut tcdm, &[1, 2], &[2, 3]);
        tcdm.array_mut().store_u16_slice(BASE + 0x3000, &[1, 2, 3, 4]);
        let mut s = Streamer::sssr_config();
        assert!(s.cfg_write(cfg_addr(reg::ACC_COUNT, 0), 4).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::ACC_FEED, 0), BASE + 0x3000).unwrap());
        assert!(configure_join(&mut s, JoinerMode::Intersect, 2, 2));
        let mut p0 = MemPort::new();
        let mut p1 = MemPort::new();
        for now in 0..200u64 {
            s.tick(now, &mut p0, std::slice::from_mut(&mut p1));
            tcdm.tick(now, &mut [&mut p0, &mut p1], &[]);
            if s.stream_fault().is_some() && s.is_idle() {
                break;
            }
        }
        let fault = s.stream_fault().expect("overlap must latch");
        assert_eq!(fault.unit, crate::fault::StreamUnit::Joiner);
        assert_eq!(fault.kind, crate::fault::StreamFaultKind::PortConflict);
        assert!(s.is_idle());
    }

    /// Lane jobs launched before the joiner defer it: the joiner waits
    /// until lanes 0/1 release their ports.
    #[test]
    fn joiner_waits_for_lane_jobs_to_drain() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        for i in 0..8u32 {
            tcdm.array_mut().store_u64(BASE + i * 8, u64::from(i) + 700);
        }
        place_join_workload(&mut tcdm, &[3, 5], &[5]);
        let mut s = Streamer::sssr_config();
        // An affine job on lane 0 first.
        assert!(s.cfg_write(cfg_addr(reg::BOUNDS[0], 0), 7).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::STRIDES[0], 0), 8).unwrap());
        assert!(s.cfg_write(cfg_addr(reg::RPTR[0], 0), BASE).unwrap());
        // Then the joiner job; it must wait for the affine stream.
        assert!(configure_join(&mut s, JoinerMode::GatherA, 2, 1));
        s.set_enabled(true);
        let mut p0 = MemPort::new();
        let mut p1 = MemPort::new();
        let mut lane0 = Vec::new();
        let mut lane1 = Vec::new();
        for now in 0..4000u64 {
            s.tick(now, &mut p0, std::slice::from_mut(&mut p1));
            tcdm.tick(now, &mut [&mut p0, &mut p1], &[]);
            while s.lane(0).can_pop() {
                lane0.push(s.lane_mut(0).pop());
            }
            while s.lane(1).can_pop() {
                lane1.push(s.lane_mut(1).pop());
            }
            if s.is_idle() {
                break;
            }
        }
        assert!(s.is_idle());
        // Affine stream first, then the joiner's A side.
        assert_eq!(lane0, [700, 701, 702, 703, 704, 705, 706, 707, 1000, 1001]);
        // B side: index 3 absent (zero-fill), index 5 at B position 0.
        assert_eq!(lane1, [0, 2000]);
    }
}
