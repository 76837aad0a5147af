//! The index joiner: sparse-sparse stream matching.
//!
//! The ISSR's indirection unit handles one sparse operand against a
//! dense one. Its successor, *Sparse Stream Semantic Registers*
//! (arXiv:2305.05559), shows the same lane machinery generalizes to two
//! **sparse** operands by inserting an index comparator between two
//! index streams. This module models that comparator and its two stream
//! sides cycle by cycle, with the same FIFO/ready-valid discipline as
//! [`crate::lane`]:
//!
//! * each side owns one 64-bit memory port and multiplexes **index-word
//!   fetches** and **value fetches** onto it with the lane's round-robin
//!   arbiter, reusing the word fetcher, decoupling FIFO and 16/32-bit
//!   serializer (the crate's `idxstream` — the same code the lane runs);
//! * a comparator inspects the two head indices and performs one merge
//!   step per cycle: on a match both sides fetch the value at their
//!   stream *position*; on a mismatch the smaller head is skipped (or
//!   zero-filled, depending on the [`JoinerMode`]);
//! * matched values retire in order through per-side output queues that
//!   the streamer drains into the mapped register-file lanes, so an
//!   `fmadd` loop consumes matched pairs exactly like a dense stream.
//!
//! Both index streams must be sorted; duplicate-free streams implement
//! set semantics (the oracle the property tests check against).

use crate::cfg::{JoinerMode, JoinerSpec};
use crate::fault::StreamFaultKind;
use crate::idxstream::{IndexStream, RoundRobin, Watchdog};
use crate::lane::Lane;
use crate::serializer::IndexSize;
use issr_mem::port::{MemPort, MemReq};
use issr_trace::StallCause;
use std::collections::VecDeque;

/// Depth of each side's matched-value output queue (mirrors the lane's
/// five-deep data FIFO).
pub const JOIN_OUT_DEPTH: usize = 5;

/// Activity counters of one joiner (one job), for verification and the
/// utilization reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct JoinerStats {
    /// Comparator merge steps (head pops, matching or not).
    pub steps: u64,
    /// Steps where both heads carried the same index.
    pub matches: u64,
    /// Value pairs emitted toward the register file.
    pub emissions: u64,
    /// Index words fetched (both sides).
    pub idx_words: u64,
    /// Values fetched from memory (both sides).
    pub val_reads: u64,
    /// Zero-filled outputs (union / gather modes).
    pub zero_fills: u64,
    /// Jobs completed.
    pub jobs: u64,
}

impl issr_trace::StatMerge for JoinerStats {
    fn merge_from(&mut self, other: &Self) {
        self.steps += other.steps;
        self.matches += other.matches;
        self.emissions += other.emissions;
        self.idx_words += other.idx_words;
        self.val_reads += other.val_reads;
        self.zero_fills += other.zero_fills;
        self.jobs += other.jobs;
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SideTag {
    IdxWord,
    Value,
}

/// A matched value on its way out: `None` while its fetch is in flight.
type OutSlot = Option<u64>;

/// One operand stream of the joiner: an index stream plus value fetches
/// at matched positions, sharing one memory port.
#[derive(Debug)]
struct Side {
    idx: IndexStream,
    vals_base: u32,
    /// Matched values awaiting delivery, oldest first.
    out: VecDeque<OutSlot>,
    /// Value fetches granted a slot but not yet on the port.
    val_reqs: VecDeque<u32>,
    /// Per-port response tags, in request order.
    rsp_tags: VecDeque<SideTag>,
    /// Index fetcher (first) vs. value fetcher (second).
    port_rr: RoundRobin,
}

impl Side {
    fn new(idx_base: u32, vals_base: u32, count: u64, idx_size: IndexSize) -> Self {
        Self {
            idx: IndexStream::new(idx_base, idx_size, count),
            vals_base,
            out: VecDeque::new(),
            val_reqs: VecDeque::new(),
            rsp_tags: VecDeque::new(),
            port_rr: RoundRobin::default(),
        }
    }

    /// Whether an output slot is free for one more emission.
    fn can_emit(&self) -> bool {
        self.out.len() < JOIN_OUT_DEPTH
    }

    /// Reserves a slot and queues the value fetch for stream position
    /// `pos`.
    fn emit_fetch(&mut self, pos: u64) {
        debug_assert!(self.can_emit(), "emission without a free slot");
        self.out.push_back(None);
        self.val_reqs.push_back(self.vals_base.wrapping_add((pos as u32) << 3));
    }

    /// Reserves a slot carrying a zero-fill (no memory traffic).
    fn emit_zero(&mut self) {
        debug_assert!(self.can_emit(), "emission without a free slot");
        self.out.push_back(Some(0));
    }

    /// Drains ready responses: index words into the decoupling FIFO,
    /// values into their (oldest pending) output slot. Returns whether
    /// any arrived.
    fn drain_responses(&mut self, now: u64, port: &mut MemPort) -> bool {
        let mut any = false;
        while let Some(rsp) = port.take_rsp(now) {
            any = true;
            match self.rsp_tags.pop_front().expect("response without request") {
                SideTag::IdxWord => self.idx.accept(rsp.data),
                SideTag::Value => {
                    let slot = self
                        .out
                        .iter_mut()
                        .find(|s| s.is_none())
                        .expect("value response without pending slot");
                    *slot = Some(rsp.data);
                }
            }
        }
        any
    }

    /// Frozen-mode drain: takes at most as many responses as this side
    /// has outstanding, discarding the data — on a port-conflict fault
    /// another master's responses may share the port, and those are left
    /// for their owner's sink.
    fn drain_discard_bounded(&mut self, now: u64, port: &mut MemPort) {
        while !self.rsp_tags.is_empty() {
            if port.take_rsp(now).is_none() {
                break;
            }
            if self.rsp_tags.pop_front() == Some(SideTag::IdxWord) {
                self.idx.discard();
            }
        }
    }

    /// Issues at most one request, arbitrating index vs. value fetches
    /// round-robin exactly like the indirection lane; returns whether
    /// one went out. `quiesce` stops new index-word fetches (job
    /// finished early).
    fn issue(&mut self, port: &mut MemPort, quiesce: bool, stats: &mut JoinerStats) -> bool {
        if !port.can_send() {
            return false;
        }
        let idx_wants = !quiesce && self.idx.wants_fetch();
        match self.port_rr.grant(idx_wants, !self.val_reqs.is_empty()) {
            None => return false,
            Some(true) => {
                port.send(MemReq::read(self.idx.fetch()));
                self.rsp_tags.push_back(SideTag::IdxWord);
                stats.idx_words += 1;
            }
            Some(false) => {
                let addr = self.val_reqs.pop_front().expect("grant checked");
                port.send(MemReq::read(addr));
                self.rsp_tags.push_back(SideTag::Value);
                stats.val_reads += 1;
            }
        }
        true
    }

    /// Whether the head output is deliverable.
    fn out_ready(&self) -> bool {
        matches!(self.out.front(), Some(Some(_)))
    }

    /// Delivers the head output.
    fn pop_out(&mut self) -> u64 {
        self.out.pop_front().flatten().expect("out_ready checked")
    }

    /// Whether all memory traffic has drained and outputs are delivered.
    fn drained(&self) -> bool {
        self.out.is_empty()
            && self.val_reqs.is_empty()
            && self.idx.in_flight() == 0
            && self.rsp_tags.is_empty()
    }

    /// Whether only the memory traffic has drained (a frozen job's
    /// undelivered outputs are discarded, not waited for).
    fn traffic_drained(&self) -> bool {
        self.idx.in_flight() == 0 && self.rsp_tags.is_empty()
    }
}

/// One index-joiner job in flight.
#[derive(Debug)]
pub struct IndexJoiner {
    mode: JoinerMode,
    a: Side,
    b: Side,
    /// Set once the merge has reached its terminal condition; remaining
    /// traffic only drains.
    done_stepping: bool,
    /// Frozen by a stream fault: the merge stops, queued value fetches
    /// are cancelled, in-flight responses drain, undelivered outputs
    /// are discarded.
    frozen: bool,
    /// The latched mid-stream fault, if any ([`Self::fault`]).
    fault: Option<StreamFaultKind>,
    /// Progress watchdog over the live job ([`Self::set_watchdog`]).
    watchdog: Watchdog,
    /// Progress happened since the last watchdog check (response
    /// drained, head refilled, merge step, request issued, or a
    /// consumer pop).
    progress: bool,
    /// Whether the last [`Self::tick`] observably advanced the job.
    advanced: bool,
    /// What the job spent its last cycle on, latched where the cycle
    /// is decided ([`Self::attr_cause`]).
    cause: StallCause,
    stats: JoinerStats,
}

impl IndexJoiner {
    /// Starts the job described by `spec`.
    #[must_use]
    pub fn new(spec: &JoinerSpec) -> Self {
        Self {
            mode: spec.mode,
            a: Side::new(spec.idx_a, spec.vals_a, spec.count_a, spec.idx_size),
            b: Side::new(spec.idx_b, spec.vals_b, spec.count_b, spec.idx_size),
            done_stepping: false,
            frozen: false,
            fault: None,
            watchdog: Watchdog::new(),
            progress: false,
            advanced: false,
            // A job that has not ticked yet waits on its first index words.
            cause: StallCause::FifoEmpty,
            stats: JoinerStats::default(),
        }
    }

    /// The latched mid-stream fault, if the watchdog fired.
    #[must_use]
    pub fn fault(&self) -> Option<StreamFaultKind> {
        self.fault
    }

    /// Sets the progress-watchdog threshold (cycles without progress
    /// before a [`StreamFaultKind::Stall`] latches).
    pub fn set_watchdog(&mut self, cycles: u64) {
        self.watchdog.set_limit(cycles);
    }

    /// Freezes the job after a stream fault: the merge stops, queued
    /// value fetches are cancelled, and once the in-flight responses
    /// drain the job reads done with its undelivered outputs discarded.
    pub fn freeze(&mut self) {
        self.frozen = true;
        self.cause = StallCause::Parked;
        self.done_stepping = true;
        self.a.val_reqs.clear();
        self.b.val_reqs.clear();
    }

    /// This job's matching mode.
    #[must_use]
    pub fn mode(&self) -> JoinerMode {
        self.mode
    }

    /// Activity counters so far.
    #[must_use]
    pub fn stats(&self) -> JoinerStats {
        self.stats
    }

    /// Whether an A-side output is deliverable.
    #[must_use]
    pub fn a_ready(&self) -> bool {
        self.a.out_ready()
    }

    /// Whether a B-side output is deliverable.
    #[must_use]
    pub fn b_ready(&self) -> bool {
        self.b.out_ready()
    }

    /// Delivers the next A-side value.
    ///
    /// # Panics
    /// Panics if no output is ready (check [`Self::a_ready`]).
    pub fn pop_a(&mut self) -> u64 {
        self.progress = true;
        self.a.pop_out()
    }

    /// Delivers the next B-side value.
    ///
    /// # Panics
    /// Panics if no output is ready (check [`Self::b_ready`]).
    pub fn pop_b(&mut self) -> u64 {
        self.progress = true;
        self.b.pop_out()
    }

    /// Whether the job has fully completed: merge finished, memory
    /// drained, and every matched value delivered. A frozen job is done
    /// once its memory traffic settles — undelivered outputs are
    /// discarded with it.
    #[must_use]
    pub fn is_done(&self) -> bool {
        if self.frozen {
            return self.a.traffic_drained() && self.b.traffic_drained();
        }
        self.done_stepping && self.a.drained() && self.b.drained()
    }

    /// Whether a stream fault froze this job.
    #[must_use]
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Whether both output queues have a free slot (the comparator can
    /// emit a matched pair this cycle).
    #[must_use]
    pub fn outputs_free(&self) -> bool {
        self.a.can_emit() && self.b.can_emit()
    }

    /// What the joiner spent the cycle that last ticked it on, latched
    /// by [`Self::tick`] and settled by `deliver`: parked when
    /// frozen, idle once done, active when it observably advanced,
    /// output back-pressure when the comparator has matches but no free
    /// slot, starved otherwise (index/value words still in flight).
    #[must_use]
    pub fn attr_cause(&self) -> StallCause {
        self.cause
    }

    /// Hands every deliverable value to the two lanes the job feeds —
    /// the end of the joiner's cycle. The hand-off can free an output
    /// slot or complete the job, so the cycle's cause settles here.
    pub(crate) fn deliver(&mut self, lane_a: &mut Lane, lane_b: &mut Lane) {
        while self.a_ready() && lane_a.can_push() {
            let value = self.pop_a();
            lane_a.inject(value);
        }
        while self.b_ready() && lane_b.can_push() {
            let value = self.pop_b();
            lane_b.inject(value);
        }
        self.cause = self.classify();
    }

    /// Classifies the cycle from the state it left behind.
    fn classify(&self) -> StallCause {
        if self.frozen {
            StallCause::Parked
        } else if self.is_done() {
            StallCause::Idle
        } else if self.advanced {
            StallCause::Active
        } else if !self.outputs_free() {
            StallCause::FifoFull
        } else {
            StallCause::FifoEmpty
        }
    }

    /// Advances one cycle against the two lane ports.
    pub fn tick(&mut self, now: u64, port_a: &mut MemPort, port_b: &mut MemPort) {
        if self.frozen {
            self.advanced = false;
            self.a.drain_discard_bounded(now, port_a);
            self.b.drain_discard_bounded(now, port_b);
            return;
        }
        self.progress |= self.a.drain_responses(now, port_a);
        self.progress |= self.b.drain_responses(now, port_b);
        self.progress |= self.a.idx.refill_head();
        self.progress |= self.b.idx.refill_head();
        self.step();
        self.progress |= self.a.issue(port_a, self.done_stepping, &mut self.stats);
        self.progress |= self.b.issue(port_b, self.done_stepping, &mut self.stats);
        // A live job that neither steps, moves memory, nor gets consumed
        // is deadlocked (a consumer that never reads its outputs): latch
        // a stall fault and freeze.
        self.advanced = std::mem::take(&mut self.progress);
        if let Some(cycles) = self.watchdog.observe(!self.is_done(), self.advanced) {
            self.fault = Some(StreamFaultKind::Stall { cycles });
            self.freeze();
        }
        self.cause = self.classify();
    }

    /// One comparator merge step, if inputs and output slots allow.
    fn step(&mut self) {
        if self.done_stepping {
            return;
        }
        let (a_head, b_head) = (self.a.idx.head, self.b.idx.head);
        let (a_out, b_out) = (self.a.idx.exhausted(), self.b.idx.exhausted());
        let pair_slots = self.outputs_free();
        match (self.mode, a_head, b_head) {
            (JoinerMode::Intersect, ..) if a_out || b_out => self.stop(),
            (JoinerMode::GatherA, ..) if a_out => self.stop(),
            (JoinerMode::Union, ..) if a_out && b_out => self.stop(),
            // Skips: the smaller head that cannot match is dropped.
            (JoinerMode::Intersect, Some(ia), Some(ib)) if ia != ib => {
                self.advance(ia < ib, ib < ia)
            }
            (JoinerMode::GatherA, Some(ia), Some(ib)) if ib < ia => self.advance(false, true),
            // Everything below emits a pair and needs the output slots.
            _ if !pair_slots => {}
            (JoinerMode::Union, Some(ia), Some(ib)) => self.emit_pair(ia <= ib, ib <= ia),
            // Intersect: the heads are equal here. GatherA: every A head
            // emits, matched or not.
            (_, Some(ia), Some(ib)) => self.emit_pair(true, ia == ib),
            (JoinerMode::GatherA | JoinerMode::Union, Some(_), None) if b_out => {
                self.emit_pair(true, false);
            }
            (JoinerMode::Union, None, Some(_)) if a_out => self.emit_pair(false, true),
            _ => {}
        }
    }

    /// The merge reached its terminal condition.
    fn stop(&mut self) {
        self.done_stepping = true;
        self.progress = true;
    }

    /// Retires one merge step, popping the selected heads.
    fn advance(&mut self, pop_a: bool, pop_b: bool) {
        if pop_a {
            self.a.idx.head = None;
        }
        if pop_b {
            self.b.idx.head = None;
        }
        self.stats.steps += 1;
        self.progress = true;
    }

    /// Emits one output pair and retires the step: a selected side
    /// fetches its value at the current head position and pops its
    /// head, the other zero-fills. Count-only jobs only tally the
    /// emission.
    fn emit_pair(&mut self, a_selected: bool, b_selected: bool) {
        self.stats.emissions += 1;
        self.stats.matches += u64::from(a_selected && b_selected);
        for (side, selected) in [(&mut self.a, a_selected), (&mut self.b, b_selected)] {
            if selected {
                side.emit_fetch(side.idx.head_pos());
            } else {
                side.emit_zero();
                self.stats.zero_fills += 1;
            }
        }
        self.advance(a_selected, b_selected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::JoinerMode;
    use issr_mem::tcdm::Tcdm;

    const BASE: u32 = 0x0010_0000;
    const IDX_A: u32 = BASE + 0x1000;
    const IDX_B: u32 = BASE + 0x2000;
    const VALS_A: u32 = BASE + 0x4000;
    const VALS_B: u32 = BASE + 0x8000;

    /// Places both streams and runs the joiner to completion; A values
    /// are `1000 + pos`, B values `2000 + pos`.
    fn run_joiner(
        mode: JoinerMode,
        idcs_a: &[u32],
        idcs_b: &[u32],
        wide: bool,
    ) -> (Vec<u64>, Vec<u64>, JoinerStats, u64) {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        let size = if wide { IndexSize::U32 } else { IndexSize::U16 };
        for (side, idcs) in [(IDX_A, idcs_a), (IDX_B, idcs_b)] {
            for (j, &idx) in idcs.iter().enumerate() {
                let addr = side + j as u32 * size.bytes();
                if wide {
                    tcdm.array_mut().store_u32(addr, idx);
                } else {
                    tcdm.array_mut().store_u16(addr, idx as u16);
                }
            }
        }
        for j in 0..idcs_a.len() as u32 {
            tcdm.array_mut().store_u64(VALS_A + j * 8, 1000 + u64::from(j));
        }
        for j in 0..idcs_b.len() as u32 {
            tcdm.array_mut().store_u64(VALS_B + j * 8, 2000 + u64::from(j));
        }
        let spec = JoinerSpec {
            count_only: false,
            mode,
            idx_size: size,
            idx_a: IDX_A,
            vals_a: VALS_A,
            count_a: idcs_a.len() as u64,
            idx_b: IDX_B,
            vals_b: VALS_B,
            count_b: idcs_b.len() as u64,
        };
        let mut joiner = IndexJoiner::new(&spec);
        let mut pa = MemPort::new();
        let mut pb = MemPort::new();
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        let mut cycles = 0;
        for now in 0..100_000u64 {
            joiner.tick(now, &mut pa, &mut pb);
            tcdm.tick(now, &mut [&mut pa, &mut pb], &[]);
            while joiner.a_ready() {
                out_a.push(joiner.pop_a());
            }
            while joiner.b_ready() {
                out_b.push(joiner.pop_b());
            }
            cycles = now + 1;
            if joiner.is_done() {
                break;
            }
        }
        assert!(joiner.is_done(), "joiner failed to drain");
        (out_a, out_b, joiner.stats(), cycles)
    }

    // Expected outputs below are hand-derived from each fixed input
    // (values tag stream positions); the randomized oracle comparison
    // lives in `tests/joiner_props.rs`.

    #[test]
    fn intersect_emits_only_matches() {
        let a = [1, 4, 7, 9, 12];
        let b = [0, 4, 5, 9, 30];
        for wide in [false, true] {
            let (out_a, out_b, stats, _) = run_joiner(JoinerMode::Intersect, &a, &b, wide);
            // Matches at 4 (A pos 1, B pos 1) and 9 (A pos 3, B pos 3).
            assert_eq!(out_a, [1001, 1003]);
            assert_eq!(out_b, [2001, 2003]);
            assert_eq!(stats.matches, 2);
            assert_eq!(stats.emissions, 2);
            assert_eq!(stats.zero_fills, 0);
        }
    }

    #[test]
    fn union_zero_fills_the_absent_side() {
        let a = [2, 3, 8];
        let b = [3, 5];
        let (out_a, out_b, stats, _) = run_joiner(JoinerMode::Union, &a, &b, false);
        // Union indices [2, 3, 5, 8]: 3 matches, 5 is B-only, rest A-only.
        assert_eq!(out_a, [1000, 1001, 0, 1002]);
        assert_eq!(out_b, [0, 2000, 2001, 0]);
        assert_eq!(stats.emissions, 4);
        assert_eq!(stats.matches, 1);
        assert_eq!(stats.zero_fills, 3);
    }

    #[test]
    fn gather_a_emits_once_per_a_index() {
        let a = [1, 6, 7, 20];
        let b = [0, 6, 19, 20, 25];
        let (out_a, out_b, stats, _) = run_joiner(JoinerMode::GatherA, &a, &b, true);
        // One pair per A element; 6 and 20 match B positions 1 and 3.
        assert_eq!(out_a, [1000, 1001, 1002, 1003]);
        assert_eq!(out_b, [0, 2001, 0, 2003]);
        assert_eq!(stats.emissions, a.len() as u64);
    }

    #[test]
    fn empty_streams_terminate_immediately() {
        let none: (Vec<u64>, Vec<u64>) = (vec![], vec![]);
        for mode in JoinerMode::ALL {
            let (out_a, out_b, _, _) = run_joiner(mode, &[], &[], false);
            assert!(out_a.is_empty() && out_b.is_empty(), "{mode}");
            // A = [3, 4], B empty: intersection is empty; union and
            // gather-A emit both A elements with a zero-filled B side.
            let (out_a, out_b, _, _) = run_joiner(mode, &[3, 4], &[], false);
            let (exp_a, exp_b) = match mode {
                JoinerMode::Intersect => none.clone(),
                JoinerMode::Union | JoinerMode::GatherA => (vec![1000, 1001], vec![0, 0]),
            };
            assert_eq!(out_a, exp_a, "{mode}");
            assert_eq!(out_b, exp_b, "{mode}");
            // A empty, B = [1, 9]: only union emits (B side, A zeroed).
            let (out_a, out_b, _, _) = run_joiner(mode, &[], &[1, 9], false);
            let (exp_a, exp_b) = match mode {
                JoinerMode::Intersect | JoinerMode::GatherA => none.clone(),
                JoinerMode::Union => (vec![0, 0], vec![2000, 2001]),
            };
            assert_eq!(out_a, exp_a, "{mode}");
            assert_eq!(out_b, exp_b, "{mode}");
        }
    }

    #[test]
    fn intersect_stops_early_when_one_stream_ends() {
        // B ends at 5; the joiner must not fetch A's tail index words
        // beyond its lookahead.
        let a: Vec<u32> = (0..200).map(|i| i * 2).collect();
        let b = [1, 5];
        let (out_a, _, stats, cycles) = run_joiner(JoinerMode::Intersect, &a, &b, false);
        assert!(out_a.is_empty());
        // Merge visits at most the A heads below ~5 plus lookahead, far
        // fewer than the 200-element stream.
        assert!(stats.steps < 16, "steps {}", stats.steps);
        assert!(cycles < 64, "cycles {cycles}");
    }

    /// Disjoint streams in gather mode hit the zero-fill fast path: one
    /// emission per A element, throughput at the 16-bit lane limit.
    #[test]
    fn gather_a_sustains_lane_rate_on_disjoint_streams() {
        let n = 400u32;
        let a: Vec<u32> = (0..n).map(|i| i * 2 + 1).collect(); // odd
        let b: Vec<u32> = (0..64).map(|i| i * 2).collect(); // even
        let (out_a, out_b, _, cycles) = run_joiner(JoinerMode::GatherA, &a, &b, false);
        assert_eq!(out_a.len(), n as usize);
        assert!(out_b.iter().all(|&v| v == 0));
        let rate = f64::from(n) / cycles as f64;
        // A-side port: value fetch per emission + 1 index word per 4.
        // B-side skips interleave, costing a bit over the pure 4/5.
        assert!(rate > 0.6, "gather rate {rate:.3} over {cycles} cycles");
    }

    /// Identical streams intersect at full match rate: one emission per
    /// cycle bounded by the 16-bit index/value port sharing.
    #[test]
    fn intersect_identical_streams_beats_software_merge_rate() {
        let n = 300u32;
        let a: Vec<u32> = (0..n).collect();
        let (out_a, _, stats, cycles) = run_joiner(JoinerMode::Intersect, &a, &a, false);
        assert_eq!(out_a.len(), n as usize);
        assert_eq!(stats.matches, u64::from(n));
        let rate = f64::from(n) / cycles as f64;
        // The software two-pointer merge runs ~1/7 matches per cycle;
        // the joiner sustains close to the 4/5 port limit.
        assert!(rate > 0.7, "match rate {rate:.3} over {cycles} cycles");
    }

    #[test]
    fn unaligned_index_bases_join_correctly() {
        // Both index arrays start mid-word.
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        let a: [u16; 3] = [2, 5, 9];
        let b: [u16; 4] = [1, 5, 9, 11];
        tcdm.array_mut().store_u16_slice(IDX_A + 6, &a);
        tcdm.array_mut().store_u16_slice(IDX_B + 2, &b);
        for j in 0..4u32 {
            tcdm.array_mut().store_u64(VALS_A + j * 8, 100 + u64::from(j));
            tcdm.array_mut().store_u64(VALS_B + j * 8, 200 + u64::from(j));
        }
        let spec = JoinerSpec {
            count_only: false,
            mode: JoinerMode::Intersect,
            idx_size: IndexSize::U16,
            idx_a: IDX_A + 6,
            vals_a: VALS_A,
            count_a: 3,
            idx_b: IDX_B + 2,
            vals_b: VALS_B,
            count_b: 4,
        };
        let mut joiner = IndexJoiner::new(&spec);
        let mut pa = MemPort::new();
        let mut pb = MemPort::new();
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        for now in 0..10_000u64 {
            joiner.tick(now, &mut pa, &mut pb);
            tcdm.tick(now, &mut [&mut pa, &mut pb], &[]);
            while joiner.a_ready() {
                out_a.push(joiner.pop_a());
            }
            while joiner.b_ready() {
                out_b.push(joiner.pop_b());
            }
            if joiner.is_done() {
                break;
            }
        }
        assert_eq!(out_a, [101, 102]); // positions 1, 2 of A
        assert_eq!(out_b, [201, 202]); // positions 1, 2 of B
    }

    /// A consumer that never pops trips the progress watchdog: the
    /// stall fault latches, the frozen job drains its in-flight memory
    /// traffic, and `is_done` reports it reclaimable — no hang.
    #[test]
    fn unconsumed_outputs_latch_stall_fault() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        let idcs: Vec<u16> = (0..32).collect();
        tcdm.array_mut().store_u16_slice(IDX_A, &idcs);
        tcdm.array_mut().store_u16_slice(IDX_B, &idcs);
        let spec = JoinerSpec {
            count_only: false,
            mode: JoinerMode::Intersect,
            idx_size: IndexSize::U16,
            idx_a: IDX_A,
            vals_a: VALS_A,
            count_a: 32,
            idx_b: IDX_B,
            vals_b: VALS_B,
            count_b: 32,
        };
        let mut joiner = IndexJoiner::new(&spec);
        joiner.set_watchdog(64);
        let mut pa = MemPort::new();
        let mut pb = MemPort::new();
        for now in 0..5000u64 {
            joiner.tick(now, &mut pa, &mut pb);
            tcdm.tick(now, &mut [&mut pa, &mut pb], &[]);
            if joiner.fault().is_some() && joiner.is_done() {
                break;
            }
        }
        match joiner.fault() {
            Some(crate::fault::StreamFaultKind::Stall { cycles }) => assert!(cycles >= 64),
            other => panic!("expected stall fault, got {other:?}"),
        }
        assert!(joiner.is_done(), "frozen job must drain and read done");
    }

    /// A slow consumer must backpressure the comparator without losing
    /// or reordering matches.
    #[test]
    fn slow_consumer_backpressures() {
        let a: Vec<u32> = (0..60).collect();
        let b: Vec<u32> = (0..60).filter(|i| i % 3 == 0).collect();
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        tcdm.array_mut().store_u16_slice(IDX_A, &a.iter().map(|&i| i as u16).collect::<Vec<_>>());
        tcdm.array_mut().store_u16_slice(IDX_B, &b.iter().map(|&i| i as u16).collect::<Vec<_>>());
        for j in 0..60u32 {
            tcdm.array_mut().store_u64(VALS_A + j * 8, 1000 + u64::from(j));
            tcdm.array_mut().store_u64(VALS_B + j * 8, 2000 + u64::from(j));
        }
        let spec = JoinerSpec {
            count_only: false,
            mode: JoinerMode::Intersect,
            idx_size: IndexSize::U16,
            idx_a: IDX_A,
            vals_a: VALS_A,
            count_a: a.len() as u64,
            idx_b: IDX_B,
            vals_b: VALS_B,
            count_b: b.len() as u64,
        };
        let mut joiner = IndexJoiner::new(&spec);
        let mut pa = MemPort::new();
        let mut pb = MemPort::new();
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        for now in 0..100_000u64 {
            joiner.tick(now, &mut pa, &mut pb);
            tcdm.tick(now, &mut [&mut pa, &mut pb], &[]);
            if now % 5 == 0 && joiner.a_ready() && joiner.b_ready() {
                out_a.push(joiner.pop_a());
                out_b.push(joiner.pop_b());
            }
            if joiner.is_done() && !joiner.a_ready() {
                break;
            }
        }
        // Matches at every multiple of 3: A position 3k, B position k.
        let exp_a: Vec<u64> = (0..20).map(|k| 1000 + 3 * k).collect();
        let exp_b: Vec<u64> = (0..20).map(|k| 2000 + k).collect();
        assert_eq!(out_a, exp_a);
        assert_eq!(out_b, exp_b);
    }
}
