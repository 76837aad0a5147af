//! The FPU subsystem: offload queue, FREP sequencer, double-precision
//! pipeline, FP register file and scoreboard, and the FP load/store path.
//!
//! Snitch offloads every floating-point instruction (with any captured
//! integer operands) into this subsystem and keeps executing — the
//! *pseudo-dual-issue* behaviour the paper leans on: integer bookkeeping
//! for the next row overlaps the FPU stream of the current one.
//!
//! The FREP sequencer implements the paper's hardware loop: it captures
//! the next `n_insns` offloaded FP instructions while executing them
//! (iteration 0) and replays the buffer `max_rpt` more times without any
//! core involvement. *Register staggering* rotates operand registers
//! selected by the stagger mask through `stagger_count + 1` consecutive
//! registers per iteration, maintaining the parallel accumulators that
//! hide FMA latency (Listing 1).
//!
//! Every FP instruction issues through one path, driven by its operand
//! slots ([`Instr::fp_operands`], defined in `issr-isa` with the
//! encoding): stagger each slot, check that the sources are ready and
//! the destination has room, read the sources in slot order (popping
//! stream lanes), compute, and deliver the result as an FP write or
//! stream push, an integer write-back or a store. Only `fld` has its own
//! arm, for the memory read and the fault on a stream destination.

use crate::metrics::Metrics;
use crate::params::CcParams;
use issr_core::gate_check;
use issr_core::streamer::Streamer;
use issr_isa::instr::{FpCmp, FpOp2, FpOp3, FrepKind, Instr, Stagger};
use issr_isa::reg::FpReg;
use issr_mem::port::{MemPort, MemReq};
use std::collections::VecDeque;

/// An offloaded FP instruction with its captured integer operand:
/// the effective address for `fld`/`fsd`, the register value for
/// `fcvt.d.w`, the trip count for `frep`.
#[derive(Clone, Copy, Debug)]
pub struct FpOp {
    /// The instruction.
    pub instr: Instr,
    /// Captured integer operand (meaning depends on the instruction).
    pub aux: u32,
}

/// Why the FREP sequencer rejected the offloaded instruction stream: the
/// guest bugs `issr-lint` reports as `FaultClass::Sequencer`, latched
/// like every other guest fault and delivered by the core complex as
/// [`crate::core::TrapCause::SequencerFault`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SequencerFault {
    /// An `frep` arrived while the sequencer was capturing another's
    /// body (the only non-FP operation the core offloads).
    NestedFrep,
    /// The `frep` body is longer than the sequencer buffer.
    BodyTooLong {
        /// The body length the `frep` asked for.
        n_insns: u8,
        /// The buffer's capacity ([`CcParams::frep_buffer`]).
        buffer: usize,
    },
    /// An `frep` with `n_insns = 0`.
    EmptyBody,
    /// An `fld` into a register the streamer currently redirects.
    FldIntoStream {
        /// The redirected destination register.
        rd: FpReg,
    },
    /// The core halted while an `frep` was still capturing its body:
    /// control flow left the window, so the instructions it waits for
    /// will never be offloaded.
    AbandonedWindow {
        /// Body instructions the capture was still waiting for.
        remaining: u8,
    },
}

impl std::fmt::Display for SequencerFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::NestedFrep => write!(f, "nested frep"),
            Self::BodyTooLong { n_insns, buffer } => {
                write!(f, "frep body of {n_insns} instructions exceeds the {buffer}-entry buffer")
            }
            Self::EmptyBody => write!(f, "frep with an empty body"),
            Self::FldIntoStream { rd } => write!(f, "fld into redirected stream register {rd}"),
            Self::AbandonedWindow { remaining } => {
                write!(f, "core halted with {remaining} frep body instructions still to capture")
            }
        }
    }
}

/// Integer write-back produced by the FPU (comparisons, conversions),
/// delivered to the core by the core complex.
#[derive(Clone, Copy, Debug)]
pub struct IntWriteback {
    /// Destination integer register index.
    pub reg: u8,
    /// Value.
    pub value: u32,
}

#[derive(Debug)]
enum SeqState {
    Idle,
    Capturing {
        remaining: u8,
        max_rpt: u32,
        stagger: Stagger,
        kind: FrepKind,
        /// Whether the captured body executes as it streams by
        /// (iteration 0 of `frep.o`/`frep.i`). Stream-terminated loops
        /// buffer without executing — the body may run zero times.
        execute: bool,
        buf: Vec<FpOp>,
    },
    Replaying {
        iter: u32,
        pos: usize,
        max_rpt: u32,
        stagger: Stagger,
        kind: FrepKind,
        buf: Vec<FpOp>,
    },
}

/// Reason the FPU could not issue this cycle (for stall accounting).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Blocked {
    /// Nothing to do (or a sequencer fault just latched: the core
    /// complex squashes the subsystem before its next tick).
    Empty,
    /// An operand or resource was not ready.
    Stalled,
}

/// The FPU subsystem of one core complex.
#[derive(Debug)]
pub struct FpuSubsystem {
    params: CcParams,
    regs: [u64; 32],
    busy: [bool; 32],
    queue: VecDeque<FpOp>,
    seq: SeqState,
    /// Scheduled FP write-backs: (ready_cycle, reg, value).
    wb_fp: Vec<(u64, u8, u64)>,
    /// Scheduled integer write-backs.
    wb_int: Vec<(u64, IntWriteback)>,
    /// Destination registers of outstanding `fld`s, in request order.
    lsu_tags: VecDeque<u8>,
    /// The latched sequencer fault, until the core complex takes it.
    fault: Option<SequencerFault>,
}

impl FpuSubsystem {
    /// Creates an idle subsystem.
    #[must_use]
    pub fn new(params: CcParams) -> Self {
        Self {
            params,
            regs: [0; 32],
            busy: [false; 32],
            queue: VecDeque::new(),
            seq: SeqState::Idle,
            wb_fp: Vec::new(),
            wb_int: Vec::new(),
            lsu_tags: VecDeque::new(),
            fault: None,
        }
    }

    /// Hands the latched sequencer fault to the core complex, which
    /// parks the core on it and squashes the subsystem
    /// ([`Self::flush`]) — so a fault is taken exactly once.
    pub fn take_sequencer_fault(&mut self) -> Option<SequencerFault> {
        self.fault.take()
    }

    /// Latches `fault`; the faulting instruction stays at the queue
    /// head and nothing issues this cycle.
    fn sequencer_fault(&mut self, fault: SequencerFault) -> Result<(), Blocked> {
        self.fault = Some(fault);
        Err(Blocked::Empty)
    }

    /// The halted core's notice that nothing more will be offloaded: a
    /// capture still open once the queue has drained can never
    /// complete, so it latches [`SequencerFault::AbandonedWindow`]
    /// instead of spinning to the cycle limit.
    pub(crate) fn core_halted(&mut self) {
        if let SeqState::Capturing { remaining, .. } = self.seq {
            if self.queue.is_empty() {
                self.fault = Some(SequencerFault::AbandonedWindow { remaining });
            }
        }
    }

    /// Whether the offload queue can accept another instruction.
    #[must_use]
    pub fn can_offload(&self) -> bool {
        self.queue.len() < self.params.offload_depth
    }

    /// Offloads one FP instruction (or `frep`) from the core.
    ///
    /// # Panics
    /// Panics if the queue is full (check [`Self::can_offload`]).
    pub fn offload(&mut self, op: FpOp) {
        assert!(self.can_offload(), "FPU offload queue overflow"); // gate-allow: documented precondition; the core checks can_offload first
        self.queue.push_back(op);
    }

    /// Squashes every queued and in-flight operation that has not yet
    /// touched memory — the stream-fault delivery path: the core is
    /// parked on a trap, so replaying the captured FREP body or the
    /// offload queue would block forever on frozen streams. Scheduled
    /// FP write-backs apply immediately (the scoreboard clears),
    /// pending integer write-backs are dropped (the core no longer
    /// issues), and outstanding `fld` responses still drain through
    /// [`Self::tick`].
    pub fn flush(&mut self) {
        self.queue.clear();
        self.seq = SeqState::Idle;
        for (_, reg, value) in self.wb_fp.drain(..) {
            self.regs[reg as usize] = value;
            self.busy[reg as usize] = false;
        }
        self.wb_int.clear();
    }

    /// Whether every offloaded instruction has fully completed.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.queue.is_empty()
            && matches!(self.seq, SeqState::Idle)
            && self.wb_fp.is_empty()
            && self.wb_int.is_empty()
            && self.lsu_tags.is_empty()
    }

    /// Direct register-file read (tests and result marshalling).
    #[must_use]
    pub fn reg(&self, r: FpReg) -> f64 {
        f64::from_bits(self.regs[r.index() as usize])
    }

    /// Direct register-file write (tests).
    pub fn set_reg(&mut self, r: FpReg, value: f64) {
        self.regs[r.index() as usize] = value.to_bits();
    }

    /// Advances one cycle. `port` is the FPU's virtual slice of the
    /// shared CC memory port; `streamer` provides the stream registers.
    /// Returns integer write-backs that completed this cycle.
    ///
    /// A drained subsystem whose port holds no response is not ticked:
    /// with nothing queued, captured, scheduled or outstanding, the
    /// body has no write-back to retire, no load to accept and no
    /// operation to issue.
    pub fn tick(
        &mut self,
        now: u64,
        port: &mut MemPort,
        streamer: &mut Streamer,
        metrics: &mut Metrics,
    ) -> Vec<IntWriteback> {
        if self.is_drained() && !port.has_rsp() {
            if cfg!(test) {
                gate_check::assert_no_op("fpu", (self, port, streamer, metrics), |u| {
                    let _ = u.0.tick_busy(now, u.1, u.2, u.3);
                });
            }
            return Vec::new();
        }
        self.tick_busy(now, port, streamer, metrics)
    }

    /// The tick body, behind the drained gate of [`Self::tick`].
    fn tick_busy(
        &mut self,
        now: u64,
        port: &mut MemPort,
        streamer: &mut Streamer,
        metrics: &mut Metrics,
    ) -> Vec<IntWriteback> {
        // 1. Retire scheduled write-backs.
        let mut int_out = Vec::new();
        let mut i = 0;
        while i < self.wb_fp.len() {
            if self.wb_fp[i].0 <= now {
                let (_, reg, value) = self.wb_fp.swap_remove(i);
                self.regs[reg as usize] = value;
                self.busy[reg as usize] = false;
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.wb_int.len() {
            if self.wb_int[i].0 <= now {
                let (_, wb) = self.wb_int.swap_remove(i);
                int_out.push(wb);
            } else {
                i += 1;
            }
        }
        // 2. FP load responses.
        while let Some(rsp) = port.take_rsp(now) {
            let reg = self.lsu_tags.pop_front().expect("fld response without tag");
            self.regs[reg as usize] = rsp.data;
            self.busy[reg as usize] = false;
        }
        // 3. Issue at most one operation.
        match self.try_issue(now, port, streamer, metrics) {
            Ok(()) => {}
            Err(Blocked::Empty) => {}
            Err(Blocked::Stalled) => {
                if metrics.roi_active {
                    metrics.roi.fpu_stall += 1;
                }
            }
        }
        int_out
    }

    /// Attempts to issue one op from the sequencer or the queue head.
    fn try_issue(
        &mut self,
        now: u64,
        port: &mut MemPort,
        streamer: &mut Streamer,
        metrics: &mut Metrics,
    ) -> Result<(), Blocked> {
        // A stream-terminated loop samples the terminate signal at each
        // body start: once every stream the body reads has raised `done`
        // and drained, the loop retires and the queue behind it resumes
        // in the same cycle — the data-dependent trip count the joiner
        // and SpAcc handshakes feed (`frep.s`).
        if let SeqState::Replaying { kind: FrepKind::Stream, pos: 0, buf, .. } = &self.seq {
            if Self::stream_sources_terminated(buf, streamer) {
                self.seq = SeqState::Idle;
            }
        }
        // Replay takes priority: the queue is stalled behind the loop.
        if let SeqState::Replaying { iter, pos, max_rpt, stagger, kind, buf } = &self.seq {
            let op = buf[*pos];
            let (iter, pos, max_rpt, stagger, kind, buf_len) =
                (*iter, *pos, *max_rpt, *stagger, *kind, buf.len());
            self.issue_op(op, stagger, stagger.offset_at(iter), now, port, streamer, metrics)?;
            // Advance the sequencer.
            let (next_iter, next_pos) = match kind {
                FrepKind::Outer | FrepKind::Stream => {
                    if pos + 1 < buf_len {
                        (iter, pos + 1)
                    } else {
                        (iter + 1, 0)
                    }
                }
                FrepKind::Inner => {
                    if iter < max_rpt {
                        (iter + 1, pos)
                    } else {
                        (1, pos + 1)
                    }
                }
            };
            let done = match kind {
                FrepKind::Outer => next_iter > max_rpt,
                FrepKind::Inner => next_pos >= buf_len,
                // Stream loops end only through the terminate check above.
                FrepKind::Stream => false,
            };
            if done {
                self.seq = SeqState::Idle;
            } else if let SeqState::Replaying { iter, pos, .. } = &mut self.seq {
                *iter = next_iter;
                *pos = next_pos;
            }
            return Ok(());
        }
        // Sequencer markers are processed without consuming issue slots.
        loop {
            match self.queue.front() {
                Some(FpOp { instr: Instr::Frep { kind, n_insns, stagger, .. }, aux }) => {
                    if !matches!(self.seq, SeqState::Idle) {
                        return self.sequencer_fault(SequencerFault::NestedFrep);
                    }
                    if (*n_insns as usize) > self.params.frep_buffer {
                        let (n_insns, buffer) = (*n_insns, self.params.frep_buffer);
                        return self
                            .sequencer_fault(SequencerFault::BodyTooLong { n_insns, buffer });
                    }
                    if *n_insns == 0 {
                        return self.sequencer_fault(SequencerFault::EmptyBody);
                    }
                    self.seq = SeqState::Capturing {
                        remaining: *n_insns,
                        max_rpt: *aux,
                        stagger: *stagger,
                        kind: *kind,
                        execute: !matches!(kind, FrepKind::Stream),
                        buf: Vec::with_capacity(*n_insns as usize),
                    };
                    self.queue.pop_front();
                }
                Some(_) => break,
                None => return Err(Blocked::Empty),
            }
        }
        // A stream-terminated body buffers without executing: the
        // terminate signal may already be up, in which case the body
        // must run zero times.
        while let SeqState::Capturing { execute: false, remaining, stagger, kind, buf, .. } =
            &mut self.seq
        {
            let Some(&op) = self.queue.front() else {
                return Err(Blocked::Empty);
            };
            if !op.instr.is_fp() {
                // Only `frep` markers share the queue with FP operations.
                return self.sequencer_fault(SequencerFault::NestedFrep);
            }
            buf.push(op);
            self.queue.pop_front();
            *remaining -= 1;
            if *remaining == 0 {
                let (stagger, kind, buf) = (*stagger, *kind, std::mem::take(buf));
                self.seq = SeqState::Replaying { iter: 0, pos: 0, max_rpt: 0, stagger, kind, buf };
                // The first body pass issues next cycle, behind the
                // terminate check.
                return Ok(());
            }
        }
        let op = *self.queue.front().expect("checked non-empty");
        // Iteration 0 of a captured body executes as it streams by,
        // unstaggered.
        self.issue_op(op, Stagger::NONE, 0, now, port, streamer, metrics)?;
        self.queue.pop_front();
        if let SeqState::Capturing { remaining, max_rpt, stagger, kind, buf, .. } = &mut self.seq {
            buf.push(op);
            *remaining -= 1;
            if *remaining == 0 {
                if *max_rpt == 0 {
                    self.seq = SeqState::Idle;
                } else {
                    self.seq = SeqState::Replaying {
                        iter: 1,
                        pos: 0,
                        max_rpt: *max_rpt,
                        stagger: *stagger,
                        kind: *kind,
                        buf: std::mem::take(buf),
                    };
                }
            }
        }
        Ok(())
    }

    /// Whether every stream lane the body *reads* has terminated: the
    /// producer (lane job or joiner) raised `done` and every delivered
    /// value has been consumed. Lanes the body only writes (e.g. the
    /// SpAcc's write stream) do not gate termination. Stagger rotation
    /// is ignored here — staggered operands are accumulators, not
    /// stream-mapped registers.
    fn stream_sources_terminated(buf: &[FpOp], streamer: &Streamer) -> bool {
        buf.iter()
            .flat_map(|op| {
                let [_, srcs @ ..] = op.instr.fp_operands();
                srcs
            })
            .flatten()
            .filter_map(|r| streamer.lane_of_reg(r.index()))
            .all(|lane| streamer.read_stream_terminated(lane))
    }

    /// Whether an FP source can be read this cycle: its stream lane has
    /// data, or its register has no write in flight.
    fn src_ready(&self, reg: FpReg, streamer: &Streamer) -> bool {
        match streamer.lane_of_reg(reg.index()) {
            Some(lane) => streamer.lane(lane).can_pop(),
            None => !self.busy[reg.index() as usize],
        }
    }

    fn read_src(&mut self, reg: FpReg, streamer: &mut Streamer) -> u64 {
        match streamer.lane_of_reg(reg.index()) {
            Some(lane) => streamer.lane_mut(lane).pop(),
            None => self.regs[reg.index() as usize],
        }
    }

    /// Checks the destination: a stream register needs room in its
    /// lane's FIFO; a plain register must not have a write in flight
    /// (WAW).
    fn dst_ready(&self, reg: FpReg, streamer: &Streamer) -> bool {
        match streamer.lane_of_reg(reg.index()) {
            Some(lane) => streamer.lane(lane).can_push(),
            None => !self.busy[reg.index() as usize],
        }
    }

    /// Commits a result: schedules a register write-back or a stream push.
    fn write_dst(
        &mut self,
        reg: FpReg,
        value: u64,
        latency: u64,
        now: u64,
        streamer: &mut Streamer,
    ) {
        match streamer.lane_of_reg(reg.index()) {
            // Stream writes commit at issue: the FIFO is the pipeline
            // decoupling stage and its room was checked.
            Some(lane) => streamer.lane_mut(lane).push(value),
            None => {
                self.busy[reg.index() as usize] = true;
                self.wb_fp.push((now + latency, reg.index(), value));
            }
        }
    }

    /// Issues `op` on a loop iteration whose stagger offset is `offset`.
    /// Every FP instruction but `fld` takes one path: stagger each
    /// operand slot; check that every source is ready and the
    /// destination has room; read the sources in slot order (a stream
    /// register named twice pops twice); compute; deliver the result as
    /// an FP write or stream push, an integer write-back, or a store.
    #[allow(clippy::too_many_arguments)]
    fn issue_op(
        &mut self,
        op: FpOp,
        stagger: Stagger,
        offset: u8,
        now: u64,
        port: &mut MemPort,
        streamer: &mut Streamer,
        metrics: &mut Metrics,
    ) -> Result<(), Blocked> {
        let mut slots = op.instr.fp_operands();
        for (slot, reg) in slots.iter_mut().enumerate() {
            *reg = reg.map(|r| stagger.apply(r, slot, offset));
        }
        let [dst, srcs @ ..] = slots;
        if let (Instr::Fld { .. }, Some(rd)) = (op.instr, dst) {
            // `fld` writes its register through memory, which cannot
            // feed a stream: a redirected destination is a guest fault.
            if streamer.lane_of_reg(rd.index()).is_some() {
                return self.sequencer_fault(SequencerFault::FldIntoStream { rd });
            }
            if self.busy[rd.index() as usize] || !port.can_send() {
                return Err(Blocked::Stalled);
            }
            debug_assert_eq!(op.aux % 8, 0, "fld address must be 8-byte aligned");
            port.send(MemReq::read(op.aux & !7));
            self.busy[rd.index() as usize] = true;
            self.lsu_tags.push_back(rd.index());
            count_issue(metrics, op.instr);
            return Ok(());
        }
        let store = matches!(op.instr, Instr::Fsd { .. });
        if !(srcs.into_iter().flatten().all(|r| self.src_ready(r, streamer))
            && dst.is_none_or(|rd| self.dst_ready(rd, streamer))
            && (!store || port.can_send()))
        {
            return Err(Blocked::Stalled);
        }
        let mut values = [0; 3];
        for (value, src) in values.iter_mut().zip(srcs) {
            if let Some(src) = src {
                *value = self.read_src(src, streamer);
            }
        }
        let (value, latency) = execute(op.instr, values, op.aux, &self.params);
        if let Some(rd) = dst {
            self.write_dst(rd, value, latency, now, streamer);
        } else if let Instr::FpuCmp { rd, .. } | Instr::FcvtWD { rd, .. } = op.instr {
            let wb = IntWriteback { reg: rd.index(), value: value as u32 };
            self.wb_int.push((now + latency, wb));
        } else {
            // `fsd`, the one FP instruction with no destination.
            debug_assert_eq!(op.aux % 8, 0, "fsd address must be 8-byte aligned");
            port.send(MemReq::write(op.aux & !7, value));
        }
        count_issue(metrics, op.instr);
        Ok(())
    }
}

/// The FP arithmetic: the result bits and latency of `instr` from its
/// source values (slots 1–3) and its captured integer operand `aux`.
/// The result of a compare or `fcvt.w.d` is an integer; `fsd`'s is the
/// word it stores.
fn execute(instr: Instr, [a, b, c]: [u64; 3], aux: u32, p: &CcParams) -> (u64, u64) {
    let (x, y, z) = (f64::from_bits(a), f64::from_bits(b), f64::from_bits(c));
    let fp = |v: f64, latency: u64| (v.to_bits(), latency);
    match instr {
        Instr::FpuOp3 { op, .. } => match op {
            FpOp3::FmaddD => fp(x.mul_add(y, z), p.fpu_latency),
            FpOp3::FmsubD => fp(x.mul_add(y, -z), p.fpu_latency),
            FpOp3::FnmsubD => fp((-x).mul_add(y, z), p.fpu_latency),
            FpOp3::FnmaddD => fp((-x).mul_add(y, -z), p.fpu_latency),
        },
        Instr::FpuOp2 { op, .. } => match op {
            FpOp2::FaddD => fp(x + y, p.fpu_latency),
            FpOp2::FsubD => fp(x - y, p.fpu_latency),
            FpOp2::FmulD => fp(x * y, p.fpu_latency),
            FpOp2::FdivD => fp(x / y, p.fdiv_latency),
            FpOp2::FsgnjD => fp(x.copysign(y), p.fpu_short_latency),
            FpOp2::FsgnjnD => fp(x.copysign(-y), p.fpu_short_latency),
            FpOp2::FsgnjxD => {
                let sign = if y.is_sign_negative() ^ x.is_sign_negative() { -1.0 } else { 1.0 };
                fp(x.abs() * sign, p.fpu_short_latency)
            }
            FpOp2::FminD => fp(x.min(y), p.fpu_short_latency),
            FpOp2::FmaxD => fp(x.max(y), p.fpu_short_latency),
        },
        Instr::FmvD { .. } => (a, p.fpu_short_latency),
        Instr::FcvtDW { .. } => fp(f64::from(aux as i32), p.fpu_short_latency),
        Instr::FcvtWD { .. } => (u64::from(x as i32 as u32), p.fpu_short_latency),
        Instr::FpuCmp { op, .. } => {
            let flag = match op {
                FpCmp::FeqD => x == y,
                FpCmp::FltD => x < y,
                FpCmp::FleD => x <= y,
            };
            (u64::from(flag), p.fpu_short_latency)
        }
        Instr::Fsd { .. } => (b, 0),
        other => panic!("non-FP instruction {other} offloaded to FPU"), // gate-allow: internal invariant: the core only offloads is_fp instructions
    }
}

/// Counts an issued FP instruction in the ROI metrics.
fn count_issue(metrics: &mut Metrics, instr: Instr) {
    if metrics.roi_active {
        metrics.roi.fpu_ops += 1;
        metrics.roi.fmadds += u64::from(matches!(instr, Instr::FpuOp3 { .. }));
        metrics.roi.fadds +=
            u64::from(matches!(instr, Instr::FpuOp2 { op: FpOp2::FaddD | FpOp2::FsubD, .. }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use issr_isa::instr::Stagger;
    use issr_isa::reg::FpReg as F;

    fn fp3(rd: F, rs1: F, rs2: F, rs3: F) -> FpOp {
        FpOp { instr: Instr::FpuOp3 { op: FpOp3::FmaddD, rd, rs1, rs2, rs3 }, aux: 0 }
    }

    fn tick_n(
        fpu: &mut FpuSubsystem,
        streamer: &mut Streamer,
        metrics: &mut Metrics,
        start: u64,
        n: u64,
    ) {
        let mut port = MemPort::new();
        for now in start..start + n {
            fpu.tick(now, &mut port, streamer, metrics);
        }
    }

    #[test]
    fn fmadd_has_pipeline_latency() {
        let mut fpu = FpuSubsystem::new(CcParams::default());
        let mut streamer = Streamer::paper_config();
        let mut metrics = Metrics::default();
        fpu.set_reg(F::FT3, 2.0);
        fpu.set_reg(F::FT4, 3.0);
        fpu.set_reg(F::FT5, 1.0);
        fpu.offload(fp3(F::FT6, F::FT3, F::FT4, F::FT5));
        // Issues at cycle 0; completes at fpu_latency.
        tick_n(&mut fpu, &mut streamer, &mut metrics, 0, 1);
        assert!(!fpu.is_drained());
        tick_n(&mut fpu, &mut streamer, &mut metrics, 1, CcParams::default().fpu_latency);
        assert!(fpu.is_drained());
        assert_eq!(fpu.reg(F::FT6), 7.0);
    }

    #[test]
    fn dependent_ops_stall_on_scoreboard() {
        let mut fpu = FpuSubsystem::new(CcParams::default());
        let mut streamer = Streamer::paper_config();
        let mut metrics = Metrics::default();
        metrics.roi_begin(0);
        metrics.roi_active = true;
        fpu.set_reg(F::FT3, 1.0);
        fpu.set_reg(F::FT4, 1.0);
        // acc = acc*1 + 1 twice: second depends on first.
        fpu.offload(fp3(F::FT5, F::FT5, F::FT3, F::FT4));
        fpu.offload(fp3(F::FT5, F::FT5, F::FT3, F::FT4));
        let mut port = MemPort::new();
        let mut cycles = 0;
        for now in 0..40 {
            fpu.tick(now, &mut port, &mut streamer, &mut metrics);
            cycles = now + 1;
            if fpu.is_drained() {
                break;
            }
        }
        // Two dependent FMAs: latency-bound, ~2 * fpu_latency.
        assert!(cycles >= 2 * CcParams::default().fpu_latency);
        assert!(metrics.roi.fpu_stall > 0);
    }

    #[test]
    fn frep_outer_replays_body() {
        let mut fpu = FpuSubsystem::new(CcParams::default());
        let mut streamer = Streamer::paper_config();
        let mut metrics = Metrics::default();
        metrics.roi_begin(0);
        metrics.roi_active = true;
        fpu.set_reg(F::FT3, 1.0);
        fpu.set_reg(F::FT4, 2.0);
        fpu.set_reg(F::FT5, 0.0);
        // frep.o with max_rpt = 4 (5 iterations), body = 1 fmadd; no stagger:
        // the dependent accumulation is latency-bound but correct.
        fpu.offload(FpOp {
            instr: Instr::Frep {
                kind: FrepKind::Outer,
                max_rpt: issr_isa::reg::IntReg::T0,
                n_insns: 1,
                stagger: Stagger::NONE,
            },
            aux: 4,
        });
        fpu.offload(fp3(F::FT5, F::FT3, F::FT4, F::FT5));
        let mut port = MemPort::new();
        for now in 0..200 {
            fpu.tick(now, &mut port, &mut streamer, &mut metrics);
            if fpu.is_drained() {
                break;
            }
        }
        assert!(fpu.is_drained());
        assert_eq!(fpu.reg(F::FT5), 10.0); // 5 iterations of +2
        assert_eq!(metrics.roi.fmadds, 5);
    }

    #[test]
    fn frep_stagger_rotates_accumulators_at_full_rate() {
        let params = CcParams::default();
        let mut fpu = FpuSubsystem::new(params);
        let mut streamer = Streamer::paper_config();
        let mut metrics = Metrics::default();
        metrics.roi_begin(0);
        metrics.roi_active = true;
        fpu.set_reg(F::FT0, 1.0);
        fpu.set_reg(F::FT1, 1.0);
        let n_acc = params.fpu_latency as u8; // enough to hide latency
        for k in 0..n_acc {
            fpu.set_reg(F::FT2.offset(k), 0.0);
        }
        let iters = 64u32;
        fpu.offload(FpOp {
            instr: Instr::Frep {
                kind: FrepKind::Outer,
                max_rpt: issr_isa::reg::IntReg::T0,
                n_insns: 1,
                stagger: Stagger::accumulator(n_acc),
            },
            aux: iters - 1,
        });
        fpu.offload(fp3(F::FT2, F::FT0, F::FT1, F::FT2));
        let mut port = MemPort::new();
        let mut cycles = 0;
        for now in 0..500 {
            fpu.tick(now, &mut port, &mut streamer, &mut metrics);
            cycles = now + 1;
            if fpu.is_drained() {
                break;
            }
        }
        // Sum over the accumulator group is the iteration count.
        let total: f64 = (0..n_acc).map(|k| fpu.reg(F::FT2.offset(k))).sum();
        assert_eq!(total, f64::from(iters));
        // Staggering hides FMA latency: ~1 issue/cycle plus drain.
        assert!(
            cycles <= u64::from(iters) + params.fpu_latency + 4,
            "staggered loop took {cycles} cycles for {iters} iterations"
        );
        assert_eq!(metrics.roi.fmadds, u64::from(iters));
    }

    /// The stagger mask selects operand slots on every FP instruction,
    /// including the compares whose destination is an integer: `flt.d`
    /// under mask `0b0010` compares a rotated `ft1..ft4` each iteration.
    #[test]
    fn frep_stagger_rotates_compare_sources() {
        let mut fpu = FpuSubsystem::new(CcParams::default());
        let mut streamer = Streamer::paper_config();
        let mut metrics = Metrics::default();
        for (k, v) in [1.0, 2.0, 3.0, 4.0].into_iter().enumerate() {
            fpu.set_reg(F::FT1.offset(k as u8), v);
        }
        fpu.set_reg(F::FT0, 2.5);
        fpu.offload(FpOp {
            instr: Instr::Frep {
                kind: FrepKind::Outer,
                max_rpt: issr_isa::reg::IntReg::T0,
                n_insns: 1,
                stagger: Stagger { count: 3, mask: 0b0010 },
            },
            aux: 3,
        });
        let rd = issr_isa::reg::IntReg::T1;
        fpu.offload(FpOp {
            instr: Instr::FpuCmp { op: FpCmp::FltD, rd, rs1: F::FT1, rs2: F::FT0 },
            aux: 0,
        });
        let mut port = MemPort::new();
        let mut flags = Vec::new();
        for now in 0..50 {
            for wb in fpu.tick(now, &mut port, &mut streamer, &mut metrics) {
                assert_eq!(wb.reg, rd.index());
                flags.push(wb.value);
            }
        }
        assert!(fpu.is_drained());
        assert_eq!(flags, [1, 1, 0, 0], "ft1 < ft0, ft2 < ft0, ft3 < ft0, ft4 < ft0");
    }

    #[test]
    fn frep_inner_repeats_each_instruction() {
        let mut fpu = FpuSubsystem::new(CcParams::default());
        let mut streamer = Streamer::paper_config();
        let mut metrics = Metrics::default();
        fpu.set_reg(F::FT3, 1.0);
        fpu.set_reg(F::FT5, 0.0);
        fpu.set_reg(F::FT6, 100.0);
        // Body: [ft5 += 1; ft6 += 1] with frep.i ×2 → each repeated
        // before moving on.
        fpu.offload(FpOp {
            instr: Instr::Frep {
                kind: FrepKind::Inner,
                max_rpt: issr_isa::reg::IntReg::T0,
                n_insns: 2,
                stagger: Stagger::NONE,
            },
            aux: 1,
        });
        fpu.offload(FpOp {
            instr: Instr::FpuOp2 { op: FpOp2::FaddD, rd: F::FT5, rs1: F::FT5, rs2: F::FT3 },
            aux: 0,
        });
        fpu.offload(FpOp {
            instr: Instr::FpuOp2 { op: FpOp2::FaddD, rd: F::FT6, rs1: F::FT6, rs2: F::FT3 },
            aux: 0,
        });
        let mut port = MemPort::new();
        for now in 0..100 {
            fpu.tick(now, &mut port, &mut streamer, &mut metrics);
            if fpu.is_drained() {
                break;
            }
        }
        assert_eq!(fpu.reg(F::FT5), 2.0);
        assert_eq!(fpu.reg(F::FT6), 102.0);
    }

    #[test]
    fn fld_round_trips_through_port() {
        let mut fpu = FpuSubsystem::new(CcParams::default());
        let mut streamer = Streamer::paper_config();
        let mut metrics = Metrics::default();
        let mut port = MemPort::new();
        fpu.offload(FpOp {
            instr: Instr::Fld { rd: F::FT7, rs1: issr_isa::reg::IntReg::A0, offset: 0 },
            aux: 0x1000,
        });
        fpu.tick(0, &mut port, &mut streamer, &mut metrics);
        // The request is on the port; emulate a 1-cycle memory.
        let req = port.take_pending().expect("fld issued");
        assert_eq!(req.addr, 0x1000);
        port.push_rsp(1, issr_mem::port::MemRsp { data: 2.5f64.to_bits() });
        fpu.tick(1, &mut port, &mut streamer, &mut metrics);
        assert_eq!(fpu.reg(F::FT7), 2.5);
        assert!(fpu.is_drained());
    }

    #[test]
    fn fsd_waits_for_pending_result() {
        let params = CcParams::default();
        let mut fpu = FpuSubsystem::new(params);
        let mut streamer = Streamer::paper_config();
        let mut metrics = Metrics::default();
        let mut port = MemPort::new();
        fpu.set_reg(F::FT3, 4.0);
        fpu.set_reg(F::FT4, 0.25);
        fpu.offload(FpOp {
            instr: Instr::FpuOp2 { op: FpOp2::FmulD, rd: F::FT5, rs1: F::FT3, rs2: F::FT4 },
            aux: 0,
        });
        fpu.offload(FpOp {
            instr: Instr::Fsd { rs2: F::FT5, rs1: issr_isa::reg::IntReg::A0, offset: 0 },
            aux: 0x2000,
        });
        let mut store_cycle = None;
        for now in 0..30 {
            fpu.tick(now, &mut port, &mut streamer, &mut metrics);
            if let Some(req) = port.take_pending() {
                assert!(!req.is_read());
                store_cycle = Some(now);
                match req.op {
                    issr_mem::port::MemOp::Write { data, .. } => {
                        assert_eq!(f64::from_bits(data), 1.0);
                    }
                    issr_mem::port::MemOp::Read => unreachable!(),
                }
                break;
            }
        }
        // The store cannot issue before the multiply's write-back.
        assert!(store_cycle.expect("store issued") >= params.fpu_latency);
    }

    #[test]
    #[should_panic(expected = "offload queue overflow")]
    fn offload_overflow_panics() {
        let mut fpu = FpuSubsystem::new(CcParams { offload_depth: 1, ..CcParams::default() });
        fpu.offload(fp3(F::FT3, F::FT3, F::FT3, F::FT3));
        fpu.offload(fp3(F::FT4, F::FT4, F::FT4, F::FT4));
    }
}
