//! A single stream lane: either a plain SSR or an indirection-capable
//! ISSR.
//!
//! Each lane owns one 64-bit memory port (§II-B: the area-optimized
//! configuration with one port per SSR). A plain SSR lane drives its
//! port from the affine address generator alone and sustains one element
//! per cycle. An ISSR lane in indirection mode multiplexes **index-word
//! fetches** and **data accesses** onto the same port with a round-robin
//! arbiter (Fig. 2, block F): one index word serves 2 (32-bit) or
//! 4 (16-bit) elements, capping sustained data throughput at 2/3 resp.
//! 4/5 of a word per cycle — the paper's peak FPU utilization limits.
//! The index pipeline and the arbiter are the crate's `idxstream`; the
//! lane adds what it does with an index: shift, base add, data access.

use crate::affine::AffineIterator;
use crate::cfg::{reg, CfgShadow, JobKind, JobSpec, Pattern};
use crate::fifo::Fifo;
use crate::idxstream::{IndexStream, RoundRobin};
use issr_mem::port::{MemPort, MemReq};
use issr_trace::StallCause;
use std::collections::VecDeque;

/// What a lane's hardware supports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LaneKind {
    /// Affine streaming only (the baseline SSR).
    Ssr,
    /// Affine streaming plus streaming indirection (the paper's ISSR).
    Issr,
}

/// Default data FIFO depth (five stages, as synthesized in §IV-C).
pub const DATA_FIFO_DEPTH: usize = 5;
/// Default index-word FIFO depth (the decoupling FIFO of Fig. 1).
pub const IDX_FIFO_DEPTH: usize = 4;

/// Per-lane activity counters for verification and the power model.
#[derive(Clone, Copy, Debug, Default)]
pub struct LaneStats {
    /// Data words fetched from memory (read jobs).
    pub data_reads: u64,
    /// Data words written to memory (write jobs).
    pub data_writes: u64,
    /// Index words fetched (indirection only).
    pub idx_words: u64,
    /// Values handed to the register file (includes repeats).
    pub fpu_reads: u64,
    /// Values accepted from the register file.
    pub fpu_writes: u64,
    /// Jobs completed.
    pub jobs: u64,
}

impl issr_trace::StatMerge for LaneStats {
    fn merge_from(&mut self, other: &Self) {
        self.data_reads += other.data_reads;
        self.data_writes += other.data_writes;
        self.idx_words += other.idx_words;
        self.fpu_reads += other.fpu_reads;
        self.fpu_writes += other.fpu_writes;
        self.jobs += other.jobs;
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RspTag {
    IdxWord,
    DataWord { repeat: u32 },
}

/// The indirection address generator: an index stream, the shift +
/// base adder, and the arbiter sharing the port between the two.
#[derive(Debug)]
struct IndirectUnit {
    idx: IndexStream,
    shift: u32,
    data_base: u32,
    /// Index fetcher (first) vs. data mover (second).
    port_rr: RoundRobin,
}

impl IndirectUnit {
    /// Address of the element a consumed index selects.
    fn data_addr(&self, idx: u32) -> u32 {
        self.data_base.wrapping_add(idx << (3 + self.shift))
    }
}

#[derive(Debug)]
enum Engine {
    Affine(AffineIterator),
    Indirect(IndirectUnit),
}

#[derive(Debug)]
struct RunningJob {
    kind: JobKind,
    repeat: u32,
    engine: Engine,
}

/// One SSR/ISSR lane.
#[derive(Debug)]
pub struct Lane {
    kind: LaneKind,
    shadow: CfgShadow,
    job: Option<RunningJob>,
    pending: Option<JobSpec>,
    data_fifo: Fifo<(u64, u32)>,
    head_served: u32,
    outstanding_data: usize,
    rsp_tags: VecDeque<RspTag>,
    /// Set by a streamer-level stream fault: the lane stops issuing,
    /// drains its in-flight responses, then discards all job and buffer
    /// state so the frozen streamer settles to idle.
    frozen: bool,
    /// What the lane spent its last cycle on, latched where
    /// [`Self::tick`] decides it ([`Self::attr_cause`]).
    cause: StallCause,
    stats: LaneStats,
}

impl Lane {
    /// Creates an idle lane.
    #[must_use]
    pub fn new(kind: LaneKind) -> Self {
        Self {
            kind,
            shadow: CfgShadow::default(),
            job: None,
            pending: None,
            data_fifo: Fifo::new(DATA_FIFO_DEPTH),
            head_served: 0,
            outstanding_data: 0,
            rsp_tags: VecDeque::new(),
            frozen: false,
            cause: StallCause::Idle,
            stats: LaneStats::default(),
        }
    }

    /// Freezes the lane after a stream fault elsewhere in the streamer:
    /// no new requests issue and, once the in-flight responses drain,
    /// the running job, the queued job and all buffered data are
    /// discarded ([`Self::tick`] finishes the drain).
    pub(crate) fn freeze(&mut self) {
        self.frozen = true;
        self.pending = None;
        self.cause = StallCause::Parked;
    }

    /// The lane's capability class.
    #[must_use]
    pub fn kind(&self) -> LaneKind {
        self.kind
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> LaneStats {
        self.stats
    }

    /// Whether the lane has fully drained (no job, no queued job, no data
    /// in flight or buffered).
    #[must_use]
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.job.is_none()
            && self.pending.is_none()
            && self.data_fifo.is_empty()
            && self.outstanding_data == 0
            && self.rsp_tags.is_empty()
    }

    /// Entries buffered in the data FIFO (Perfetto counter-track probe;
    /// occupancy only, the contents stay private).
    #[must_use]
    #[inline]
    pub fn fifo_len(&self) -> usize {
        self.data_fifo.len()
    }

    /// Whether the lane owns its memory port: a job is running or queued,
    /// or responses are still in flight. Unlike [`Self::is_idle`], data
    /// already buffered for the register file does not count — the
    /// streamer uses this to decide when the joiner may take over the
    /// lane's port.
    #[must_use]
    #[inline]
    pub fn is_streaming(&self) -> bool {
        self.job.is_some()
            || self.pending.is_some()
            || self.outstanding_data > 0
            || !self.rsp_tags.is_empty()
    }

    /// The lane's shadow configuration (streamer-side joiner decode).
    #[must_use]
    pub fn shadow(&self) -> &CfgShadow {
        &self.shadow
    }

    /// Whether this lane's *read* stream has fully terminated: no read
    /// job running or queued, no responses in flight, and every
    /// delivered value consumed. The streamer folds this into the
    /// stream-terminate signal for `frep.s` loops.
    #[must_use]
    pub fn read_stream_done(&self) -> bool {
        let job_read = self.job.as_ref().is_some_and(|j| j.kind == JobKind::Read);
        let pending_read = self.pending.as_ref().is_some_and(|s| s.kind == JobKind::Read);
        !job_read
            && !pending_read
            && self.outstanding_data == 0
            && self.rsp_tags.is_empty()
            && self.data_fifo.is_empty()
    }

    // ---- configuration interface (core side) ----

    /// Writes configuration register `register`. Pointer registers launch
    /// jobs; the write is rejected (returns `false`, core must retry)
    /// when the one-deep shadow job queue is full.
    ///
    /// Malformed launches — an indirection job on a plain SSR lane, or
    /// a joiner-enabled shadow (the joiner spans two lanes and launches
    /// only through the streamer) — are gated by the streamer, which
    /// latches a `CfgFault` before the write reaches the lane; the lane
    /// itself only debug-asserts those invariants.
    pub fn cfg_write(&mut self, register: u16, value: u32) -> bool {
        let launch = |kind: JobKind, dims: usize, this: &mut Self, ptr: u32| -> bool {
            if this.pending.is_some() {
                return false;
            }
            debug_assert!(
                !this.shadow.join_enabled(),
                "joiner jobs launch through the streamer, not a single lane"
            );
            let spec = JobSpec::from_shadow(&this.shadow, kind, dims, ptr);
            if matches!(spec.pattern, Pattern::Indirect { .. }) {
                debug_assert!(
                    this.kind == LaneKind::Issr,
                    "indirection job launched on a plain SSR lane"
                );
            }
            this.pending = Some(spec);
            // Setup is single-cycle: an idle lane starts the job at once
            // (the shadow slot frees for the next setup immediately).
            this.promote_pending();
            true
        };
        if let Some(d) = reg::RPTR.iter().position(|&r| r == register) {
            launch(JobKind::Read, d + 1, self, value)
        } else if let Some(d) = reg::WPTR.iter().position(|&r| r == register) {
            launch(JobKind::Write, d + 1, self, value)
        } else {
            self.shadow.write(register, value);
            true
        }
    }

    /// Reads configuration register `register`.
    #[must_use]
    pub fn cfg_read(&self, register: u16) -> u32 {
        match register {
            reg::STATUS => {
                let done = self.is_idle();
                u32::from(done) | (u32::from(!done) << 1)
            }
            other => self.shadow.read(other),
        }
    }

    // ---- register-file interface (FPU side) ----

    /// Whether a stream read of this lane's register would succeed now.
    #[must_use]
    #[inline]
    pub fn can_pop(&self) -> bool {
        !self.data_fifo.is_empty()
    }

    /// Pops one streamed value (a register read with stream semantics).
    ///
    /// # Panics
    /// Panics if no data is available (check [`Self::can_pop`]).
    #[inline]
    pub fn pop(&mut self) -> u64 {
        let &(value, repeat) = self.data_fifo.front().expect("stream register read while empty");
        self.head_served += 1;
        if self.head_served > repeat {
            self.data_fifo.pop();
            self.head_served = 0;
        }
        self.stats.fpu_reads += 1;
        value
    }

    /// Whether a stream write of this lane's register would succeed now.
    #[must_use]
    #[inline]
    pub fn can_push(&self) -> bool {
        !self.data_fifo.is_full()
    }

    /// Pushes one value into the write stream (a register write with
    /// stream semantics).
    ///
    /// # Panics
    /// Panics if the FIFO is full (check [`Self::can_push`]).
    #[inline]
    pub fn push(&mut self, value: u64) {
        self.data_fifo.push((value, 0));
        self.stats.fpu_writes += 1;
    }

    /// Injects one value into the *read* stream from the streamer side —
    /// the path the index joiner uses to deliver matched values through
    /// this lane's register mapping.
    ///
    /// # Panics
    /// Panics if the FIFO is full (check [`Self::can_push`]).
    #[inline]
    pub fn inject(&mut self, value: u64) {
        self.data_fifo.push((value, 0));
    }

    /// Consumes one value from the *write* stream on the streamer side —
    /// the path the sparse accumulator uses to pair FPU results with its
    /// index stream while the lane itself runs no job. Returns `None`
    /// when the FIFO is empty.
    #[inline]
    pub fn take_write(&mut self) -> Option<u64> {
        debug_assert!(self.job.is_none(), "write-stream takeover while a lane job is running");
        self.data_fifo.pop().map(|(value, _)| value)
    }

    // ---- cycle behaviour ----

    /// Advances the lane by one cycle against its memory port.
    pub fn tick(&mut self, now: u64, port: &mut MemPort) {
        if !self.frozen && !self.is_streaming() {
            // No job, none queued, nothing in flight: no response can
            // arrive, nothing can issue, and the latched cause is
            // `Idle` already. (Values the FPU has yet to pop may still
            // sit in the FIFO; they need no tick.)
            if cfg!(test) {
                crate::gate_check::assert_no_op("lane", (self, port), |u| {
                    u.0.tick_streaming(now, u.1);
                });
            }
            return;
        }
        self.tick_streaming(now, port);
    }

    /// The tick body, behind the not-streaming gate of [`Self::tick`].
    fn tick_streaming(&mut self, now: u64, port: &mut MemPort) {
        self.drain_responses(now, port);
        if self.frozen {
            // Drain-only: once every in-flight response has returned,
            // drop all job and buffer state so the lane reads idle.
            self.pending = None;
            if self.rsp_tags.is_empty() {
                self.job = None;
                self.data_fifo.clear();
                self.head_served = 0;
            }
            self.cause = StallCause::Parked;
            return;
        }
        self.promote_pending();
        let (idx_wants, data_wants) = self.wants();
        // A request went out / wanted out but the port was taken.
        let (mut issued, mut blocked_on_port) = (false, false);
        if port.can_send() {
            issued = self.issue(port, idx_wants, data_wants);
        } else {
            blocked_on_port = idx_wants || data_wants;
        }
        self.retire_if_done();
        self.cause = self.classify(issued, blocked_on_port);
    }

    /// What the running job would put on the port this cycle: an
    /// index-word fetch, a data access. [`Self::issue`] grants one of
    /// them; with the port taken, either one is a shared-port loss
    /// ([`Self::classify`]'s port-conflict classification).
    fn wants(&self) -> (bool, bool) {
        let Some(job) = &self.job else {
            return (false, false);
        };
        let data_ready = match job.kind {
            JobKind::Read => self.data_credit(),
            JobKind::Write => !self.data_fifo.is_empty(),
        };
        match &job.engine {
            Engine::Affine(it) => (false, data_ready && !it.is_done()),
            Engine::Indirect(unit) => (unit.idx.wants_fetch(), data_ready && unit.idx.can_take()),
        }
    }

    /// What this lane spent the cycle that last ticked it on, as
    /// [`Self::tick`] latched it (a freeze in between reads
    /// [`StallCause::Parked`]). Exactly one cause per cycle; the
    /// core-complex sampler records it once per ROI cycle, so the
    /// breakdown sums to the ROI length by construction.
    #[must_use]
    #[inline]
    pub fn attr_cause(&self) -> StallCause {
        self.cause
    }

    /// Classifies the cycle [`Self::tick`] just finished from its two
    /// port outcomes and the state it left behind.
    fn classify(&self, issued: bool, blocked_on_port: bool) -> StallCause {
        if !self.is_streaming() {
            return StallCause::Idle;
        }
        if issued {
            return StallCause::Active;
        }
        if blocked_on_port {
            return StallCause::PortConflict;
        }
        match self.job.as_ref().map(|j| j.kind) {
            // A read stream with no FIFO credit is back-pressured by
            // its consumer; otherwise it waits on upstream words
            // (index fetches, in-flight responses).
            Some(JobKind::Read) => {
                if self.data_credit() {
                    StallCause::FifoEmpty
                } else {
                    StallCause::FifoFull
                }
            }
            // A write stream starves until the producer pushes.
            Some(JobKind::Write) => StallCause::FifoEmpty,
            // No job but responses in flight: upstream latency.
            None => StallCause::FifoEmpty,
        }
    }

    fn drain_responses(&mut self, now: u64, port: &mut MemPort) {
        while let Some(rsp) = port.take_rsp(now) {
            match self.rsp_tags.pop_front().expect("response without request") {
                RspTag::DataWord { repeat } => {
                    self.outstanding_data -= 1;
                    self.data_fifo.push((rsp.data, repeat));
                }
                RspTag::IdxWord => {
                    let Some(RunningJob { engine: Engine::Indirect(unit), .. }) = &mut self.job
                    else {
                        panic!("index response without indirection job"); // gate-allow: internal invariant: responses are tagged by the job that issued them
                    };
                    unit.idx.accept(rsp.data);
                }
            }
        }
    }

    fn promote_pending(&mut self) {
        if self.job.is_some() {
            return;
        }
        let Some(spec) = self.pending.take() else {
            return;
        };
        let engine = match spec.pattern {
            Pattern::Affine { base, dims, bounds, strides } => {
                Engine::Affine(AffineIterator::new(base, dims, bounds, strides))
            }
            Pattern::Indirect { idx_base, idx_size, shift, data_base, count } => {
                Engine::Indirect(IndirectUnit {
                    idx: IndexStream::new(idx_base, idx_size, count),
                    shift,
                    data_base,
                    port_rr: RoundRobin::default(),
                })
            }
        };
        self.job = Some(RunningJob { kind: spec.kind, repeat: spec.repeat, engine });
    }

    /// Read-side credit: FIFO slots not yet spoken for.
    fn data_credit(&self) -> bool {
        self.data_fifo.len() + self.outstanding_data < self.data_fifo.capacity()
    }

    /// Puts at most one request on the port: the index-word fetch or
    /// the data access [`Self::wants`] reported, round-robin when both.
    fn issue(&mut self, port: &mut MemPort, idx_wants: bool, data_wants: bool) -> bool {
        let Some(job) = &mut self.job else {
            return false;
        };
        let addr = match &mut job.engine {
            Engine::Affine(_) if !data_wants => return false,
            Engine::Affine(it) => it.next_addr().expect("not done"),
            Engine::Indirect(unit) => match unit.port_rr.grant(idx_wants, data_wants) {
                None => return false,
                Some(true) => {
                    port.send(MemReq::read(unit.idx.fetch()));
                    self.rsp_tags.push_back(RspTag::IdxWord);
                    self.stats.idx_words += 1;
                    return true;
                }
                Some(false) => {
                    let idx = unit.idx.take();
                    unit.data_addr(idx)
                }
            },
        };
        match job.kind {
            JobKind::Read => {
                port.send(MemReq::read(addr));
                self.rsp_tags.push_back(RspTag::DataWord { repeat: job.repeat });
                self.outstanding_data += 1;
                self.stats.data_reads += 1;
            }
            JobKind::Write => {
                let (value, _) = self.data_fifo.pop().expect("data_wants checked");
                port.send(MemReq::write(addr, value));
                self.stats.data_writes += 1;
            }
        }
        true
    }

    fn retire_if_done(&mut self) {
        let done = match &self.job {
            Some(job) => match &job.engine {
                Engine::Affine(it) => it.is_done(),
                Engine::Indirect(unit) => unit.idx.all_taken(),
            },
            None => false,
        };
        if done {
            if let Some(RunningJob { engine: Engine::Indirect(unit), .. }) = &self.job {
                debug_assert_eq!(unit.idx.in_flight(), 0, "index words still in flight at retire");
            }
            self.job = None;
            self.stats.jobs += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::idx_cfg_word;
    use crate::serializer::IndexSize;
    use issr_mem::tcdm::Tcdm;

    const BASE: u32 = 0x0010_0000;

    fn run_lane(lane: &mut Lane, tcdm: &mut Tcdm, max_cycles: u64) -> Vec<u64> {
        let mut port = MemPort::new();
        let mut out = Vec::new();
        for now in 0..max_cycles {
            lane.tick(now, &mut port);
            tcdm.tick(now, &mut [&mut port], &[]);
            while lane.can_pop() {
                out.push(lane.pop());
            }
            if lane.is_idle() {
                break;
            }
        }
        out
    }

    #[test]
    fn affine_read_streams_contiguous_values() {
        let mut tcdm = Tcdm::ideal(BASE, 0x1000);
        for i in 0..16u32 {
            tcdm.array_mut().store_u64(BASE + i * 8, u64::from(i) + 100);
        }
        let mut lane = Lane::new(LaneKind::Ssr);
        assert!(lane.cfg_write(reg::BOUNDS[0], 15));
        assert!(lane.cfg_write(reg::STRIDES[0], 8));
        assert!(lane.cfg_write(reg::RPTR[0], BASE));
        let out = run_lane(&mut lane, &mut tcdm, 200);
        assert_eq!(out, (100..116).collect::<Vec<u64>>());
        assert_eq!(lane.stats().data_reads, 16);
        assert_eq!(lane.stats().jobs, 1);
    }

    #[test]
    fn affine_read_sustains_one_element_per_cycle() {
        let n = 64u32;
        let mut tcdm = Tcdm::ideal(BASE, 0x1000);
        for i in 0..n {
            tcdm.array_mut().store_u64(BASE + i * 8, u64::from(i));
        }
        let mut lane = Lane::new(LaneKind::Ssr);
        lane.cfg_write(reg::BOUNDS[0], n - 1);
        lane.cfg_write(reg::STRIDES[0], 8);
        lane.cfg_write(reg::RPTR[0], BASE);
        let mut port = MemPort::new();
        let mut popped = 0u32;
        let mut cycles = 0u64;
        for now in 0..500u64 {
            lane.tick(now, &mut port);
            tcdm.tick(now, &mut [&mut port], &[]);
            if lane.can_pop() {
                lane.pop();
                popped += 1;
            }
            cycles = now + 1;
            if popped == n {
                break;
            }
        }
        // 1 element/cycle steady state with a couple of warm-up cycles.
        assert!(cycles <= u64::from(n) + 4, "took {cycles} cycles for {n} elements");
    }

    #[test]
    fn repeat_delivers_each_element_multiple_times() {
        let mut tcdm = Tcdm::ideal(BASE, 0x1000);
        tcdm.array_mut().store_u64(BASE, 7);
        tcdm.array_mut().store_u64(BASE + 8, 9);
        let mut lane = Lane::new(LaneKind::Ssr);
        lane.cfg_write(reg::REPEAT, 2);
        lane.cfg_write(reg::BOUNDS[0], 1);
        lane.cfg_write(reg::STRIDES[0], 8);
        lane.cfg_write(reg::RPTR[0], BASE);
        let out = run_lane(&mut lane, &mut tcdm, 100);
        assert_eq!(out, [7, 7, 7, 9, 9, 9]);
        // Only two memory fetches despite six register reads.
        assert_eq!(lane.stats().data_reads, 2);
        assert_eq!(lane.stats().fpu_reads, 6);
    }

    #[test]
    fn affine_write_stores_stream() {
        let mut tcdm = Tcdm::ideal(BASE, 0x1000);
        let mut lane = Lane::new(LaneKind::Ssr);
        lane.cfg_write(reg::BOUNDS[0], 3);
        lane.cfg_write(reg::STRIDES[0], 16);
        lane.cfg_write(reg::WPTR[0], BASE + 8);
        let mut port = MemPort::new();
        let mut pushed = 0u64;
        for now in 0..50u64 {
            if pushed < 4 && lane.can_push() {
                lane.push(pushed + 50);
                pushed += 1;
            }
            lane.tick(now, &mut port);
            tcdm.tick(now, &mut [&mut port], &[]);
            if pushed == 4 && lane.is_idle() {
                break;
            }
        }
        assert!(lane.is_idle());
        for i in 0..4u32 {
            assert_eq!(tcdm.array().load_u64(BASE + 8 + i * 16), u64::from(i) + 50);
        }
        assert_eq!(lane.stats().data_writes, 4);
    }

    #[test]
    fn indirect_read_gathers_by_index() {
        let mut tcdm = Tcdm::ideal(BASE, 0x4000);
        // Dense data at BASE+0x2000; indices at BASE+0x1000.
        let data = BASE + 0x2000;
        for i in 0..32u32 {
            tcdm.array_mut().store_u64(data + i * 8, u64::from(i) * 10);
        }
        let idcs: [u16; 6] = [5, 0, 31, 2, 2, 17];
        let idx_base = BASE + 0x1000;
        tcdm.array_mut().store_u16_slice(idx_base, &idcs);
        let mut lane = Lane::new(LaneKind::Issr);
        lane.cfg_write(reg::BOUNDS[0], 5);
        lane.cfg_write(reg::IDX_CFG, idx_cfg_word(IndexSize::U16, 0));
        lane.cfg_write(reg::DATA_BASE, data);
        lane.cfg_write(reg::RPTR[0], idx_base);
        let out = run_lane(&mut lane, &mut tcdm, 200);
        assert_eq!(out, [50, 0, 310, 20, 20, 170]);
        assert_eq!(lane.stats().idx_words, 2);
        assert_eq!(lane.stats().data_reads, 6);
    }

    #[test]
    fn indirect_read_unaligned_index_base() {
        let mut tcdm = Tcdm::ideal(BASE, 0x4000);
        let data = BASE + 0x2000;
        for i in 0..8u32 {
            tcdm.array_mut().store_u64(data + i * 8, u64::from(i) + 1);
        }
        // Index array starts mid-word.
        let idx_base = BASE + 0x1006;
        tcdm.array_mut().store_u16_slice(idx_base, &[3, 1, 4]);
        let mut lane = Lane::new(LaneKind::Issr);
        lane.cfg_write(reg::BOUNDS[0], 2);
        lane.cfg_write(reg::IDX_CFG, idx_cfg_word(IndexSize::U16, 0));
        lane.cfg_write(reg::DATA_BASE, data);
        lane.cfg_write(reg::RPTR[0], idx_base);
        let out = run_lane(&mut lane, &mut tcdm, 200);
        assert_eq!(out, [4, 2, 5]);
    }

    #[test]
    fn indirect_read_32bit_indices() {
        let mut tcdm = Tcdm::ideal(BASE, 0x4000);
        let data = BASE + 0x2000;
        for i in 0..64u32 {
            tcdm.array_mut().store_u64(data + i * 8, u64::from(i) * 3);
        }
        let idx_base = BASE + 0x1000;
        tcdm.array_mut().store_u32_slice(idx_base, &[63, 0, 7]);
        let mut lane = Lane::new(LaneKind::Issr);
        lane.cfg_write(reg::BOUNDS[0], 2);
        lane.cfg_write(reg::IDX_CFG, idx_cfg_word(IndexSize::U32, 0));
        lane.cfg_write(reg::DATA_BASE, data);
        lane.cfg_write(reg::RPTR[0], idx_base);
        let out = run_lane(&mut lane, &mut tcdm, 200);
        assert_eq!(out, [189, 0, 21]);
    }

    #[test]
    fn indirect_shift_addresses_higher_axes() {
        // shift = 1: each index selects a 2-word row.
        let mut tcdm = Tcdm::ideal(BASE, 0x4000);
        let data = BASE + 0x2000;
        for i in 0..16u32 {
            tcdm.array_mut().store_u64(data + i * 8, u64::from(i));
        }
        let idx_base = BASE + 0x1000;
        tcdm.array_mut().store_u16_slice(idx_base, &[0, 3]);
        let mut lane = Lane::new(LaneKind::Issr);
        lane.cfg_write(reg::BOUNDS[0], 1);
        lane.cfg_write(reg::IDX_CFG, idx_cfg_word(IndexSize::U16, 1));
        lane.cfg_write(reg::DATA_BASE, data);
        lane.cfg_write(reg::RPTR[0], idx_base);
        let out = run_lane(&mut lane, &mut tcdm, 200);
        // idx 0 -> word 0; idx 3 -> word 6 (3 << 1).
        assert_eq!(out, [0, 6]);
    }

    #[test]
    fn indirect_write_scatters() {
        let mut tcdm = Tcdm::ideal(BASE, 0x4000);
        let data = BASE + 0x2000;
        let idx_base = BASE + 0x1000;
        tcdm.array_mut().store_u16_slice(idx_base, &[4, 1, 9]);
        let mut lane = Lane::new(LaneKind::Issr);
        lane.cfg_write(reg::BOUNDS[0], 2);
        lane.cfg_write(reg::IDX_CFG, idx_cfg_word(IndexSize::U16, 0));
        lane.cfg_write(reg::DATA_BASE, data);
        lane.cfg_write(reg::WPTR[0], idx_base);
        let mut port = MemPort::new();
        let values = [111u64, 222, 333];
        let mut sent = 0;
        for now in 0..100u64 {
            if sent < values.len() && lane.can_push() {
                lane.push(values[sent]);
                sent += 1;
            }
            lane.tick(now, &mut port);
            tcdm.tick(now, &mut [&mut port], &[]);
            if sent == values.len() && lane.is_idle() {
                break;
            }
        }
        assert!(lane.is_idle());
        assert_eq!(tcdm.array().load_u64(data + 4 * 8), 111);
        assert_eq!(tcdm.array().load_u64(data + 8), 222);
        assert_eq!(tcdm.array().load_u64(data + 9 * 8), 333);
    }

    #[test]
    fn indirect_16bit_sustains_four_fifths() {
        let n = 400u32;
        let mut tcdm = Tcdm::ideal(BASE, 0x8000);
        let data = BASE + 0x4000;
        for i in 0..512u32 {
            tcdm.array_mut().store_u64(data + i * 8, u64::from(i));
        }
        let idx_base = BASE + 0x1000;
        let idcs: Vec<u16> = (0..n as u16).map(|i| (i * 7) % 512).collect();
        tcdm.array_mut().store_u16_slice(idx_base, &idcs);
        let mut lane = Lane::new(LaneKind::Issr);
        lane.cfg_write(reg::BOUNDS[0], n - 1);
        lane.cfg_write(reg::IDX_CFG, idx_cfg_word(IndexSize::U16, 0));
        lane.cfg_write(reg::DATA_BASE, data);
        lane.cfg_write(reg::RPTR[0], idx_base);
        let mut port = MemPort::new();
        let mut popped = 0u32;
        let mut cycles = 0u64;
        for now in 0..5000u64 {
            lane.tick(now, &mut port);
            tcdm.tick(now, &mut [&mut port], &[]);
            if lane.can_pop() {
                lane.pop();
                popped += 1;
            }
            cycles = now + 1;
            if popped == n {
                break;
            }
        }
        let rate = f64::from(n) / cycles as f64;
        assert!(
            (rate - 0.8).abs() < 0.02,
            "16-bit indirection rate {rate:.3}, expected ~0.80 over {cycles} cycles"
        );
    }

    #[test]
    fn indirect_32bit_sustains_two_thirds() {
        let n = 400u32;
        let mut tcdm = Tcdm::ideal(BASE, 0x8000);
        let data = BASE + 0x4000;
        for i in 0..512u32 {
            tcdm.array_mut().store_u64(data + i * 8, u64::from(i));
        }
        let idx_base = BASE + 0x1000;
        let idcs: Vec<u32> = (0..n).map(|i| (i * 5) % 512).collect();
        tcdm.array_mut().store_u32_slice(idx_base, &idcs);
        let mut lane = Lane::new(LaneKind::Issr);
        lane.cfg_write(reg::BOUNDS[0], n - 1);
        lane.cfg_write(reg::IDX_CFG, idx_cfg_word(IndexSize::U32, 0));
        lane.cfg_write(reg::DATA_BASE, data);
        lane.cfg_write(reg::RPTR[0], idx_base);
        let mut port = MemPort::new();
        let mut popped = 0u32;
        let mut cycles = 0u64;
        for now in 0..5000u64 {
            lane.tick(now, &mut port);
            tcdm.tick(now, &mut [&mut port], &[]);
            if lane.can_pop() {
                lane.pop();
                popped += 1;
            }
            cycles = now + 1;
            if popped == n {
                break;
            }
        }
        let rate = f64::from(n) / cycles as f64;
        assert!(
            (rate - 2.0 / 3.0).abs() < 0.02,
            "32-bit indirection rate {rate:.3}, expected ~0.67 over {cycles} cycles"
        );
    }

    #[test]
    fn shadow_job_queued_while_running() {
        let mut tcdm = Tcdm::ideal(BASE, 0x1000);
        for i in 0..8u32 {
            tcdm.array_mut().store_u64(BASE + i * 8, u64::from(i));
        }
        let mut lane = Lane::new(LaneKind::Ssr);
        lane.cfg_write(reg::BOUNDS[0], 3);
        lane.cfg_write(reg::STRIDES[0], 8);
        assert!(lane.cfg_write(reg::RPTR[0], BASE));
        // Queue a second job immediately (shadow regs reused).
        assert!(lane.cfg_write(reg::RPTR[0], BASE + 32));
        // A third launch must be rejected until the queue drains.
        assert!(!lane.cfg_write(reg::RPTR[0], BASE));
        let out = run_lane(&mut lane, &mut tcdm, 300);
        assert_eq!(out, [0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(lane.stats().jobs, 2);
    }

    /// The lane only debug-asserts this (the streamer's launch check is
    /// the guest-facing gate), so the test exists in debug builds only.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "plain SSR lane")]
    fn indirection_on_ssr_lane_panics() {
        let mut lane = Lane::new(LaneKind::Ssr);
        lane.cfg_write(reg::IDX_CFG, idx_cfg_word(IndexSize::U16, 0));
        lane.cfg_write(reg::BOUNDS[0], 0);
        let _ = lane.cfg_write(reg::RPTR[0], BASE);
    }

    #[test]
    fn status_register_reflects_idle() {
        let lane = Lane::new(LaneKind::Issr);
        assert_eq!(lane.cfg_read(reg::STATUS), 1);
    }
}
