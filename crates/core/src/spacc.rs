//! The sparse accumulator (SpAcc): the write-stream side of the
//! sparse-sparse subsystem.
//!
//! Where the [`crate::joiner`] makes the *read* side of a lane pair
//! stream-semantic over two sparse operands, the SpAcc does the same for
//! the *write* side: it turns a lane's write stream into a **sparse
//! output builder**, the missing piece between the joiner's merge
//! primitives and row-wise Gustavson SpGEMM (cf. SparseZipper,
//! arXiv:2502.11353, and the symmetric write streamer of the SSSR
//! follow-up, arXiv:2305.05559). Two job kinds, launched through the
//! `ACC_*` shadow registers and sequenced in order through the familiar
//! one-deep shadow queue:
//!
//! * a **feed** job pairs `count` indices — fetched from memory over the
//!   lane port with the lane's own word-fetch / decoupling-FIFO /
//!   serializer machinery (the crate's `idxstream`) — with `count`
//!   values arriving through the mapped write-stream register, and
//!   merges the resulting
//!   (index, value) stream into an internal *row buffer*. The merge is
//!   the joiner's `Union` datapath pointed at the buffer: one comparator
//!   step per cycle walks the (sorted) buffer and the (sorted) incoming
//!   stream together, adding values on index matches and inserting
//!   otherwise, so duplicate indices merge **on the fly** and the buffer
//!   stays sorted and duplicate-free. Back-pressure is natural: a stalled
//!   merge stops popping the write FIFO, which stalls the FPU's stream
//!   writes exactly like a busy write job;
//! * a **drain** job streams the buffer out as a compressed row —
//!   `idcs[]` packed into 64-bit words (byte strobes cover partial words
//!   at unaligned row boundaries) followed by `vals[]` — at one memory
//!   word per cycle through the same port, then clears the buffer for
//!   the next row. The row length is read back through `ACC_NNZ`, giving
//!   kernels the data-dependent nonzero count they need to build CSR row
//!   pointers (grow-and-pack).
//!
//! Feed input must be sorted (non-decreasing) *within* one job, as every
//! CSR row expansion naturally is; separate feed jobs may overlap
//! arbitrarily — that is exactly the accumulation case the merge exists
//! for.
//!
//! A row's length is read through `ACC_NNZ` once its feeds retired; the
//! SpGEMM kernels chain the output offsets from it in the same pass that
//! computes the values.
//!
//! Row storage is **double-buffered**: a drain snapshots the merged row
//! at promotion, so the next row's first feed merges into the freed
//! buffer while the drain still writes — the two jobs share the lane
//! port round-robin, and [`SpAccStats::overlap_cycles`] counts the won
//! overlap.
//!
//! # Mid-stream faults and the grow-and-retry protocol
//!
//! No input can panic the unit: every mid-stream failure latches a
//! structured [`StreamFaultKind`] instead (surfaced by the streamer as a
//! [`crate::fault::StreamFault`] with unit [`crate::fault::StreamUnit::SpAcc`],
//! which the core takes as a trap):
//!
//! * [`StreamFaultKind::Overflow`] — the merged row's length exceeded
//!   the configured `ACC_BUF_CAP` (the fault carries the capacity);
//! * [`StreamFaultKind::Unsorted`] — a feed delivered a decreasing
//!   index within one job;
//! * [`StreamFaultKind::Stall`] — the progress watchdog expired: a job
//!   was in flight but no request, response, merge step or retire
//!   happened for [`crate::fault::STREAM_WATCHDOG_RESET`] cycles (a
//!   value feed whose FPU writes never arrive, a drain that cannot
//!   reach memory) — the deadlock becomes a latched fault, not a hang.
//!
//! On a fault the unit **freezes**: the in-flight feed aborts and the
//! row buffer is restored to its **pre-feed checkpoint** (`FeedRun`
//! keeps the old row untouched while the merge builds the new one), the
//! queued job is dropped, in-flight index responses drain into a sink,
//! and stray write-stream values are discarded so the FPU can drain.
//! Launches are refused until [`SpAcc::clear_fault`] re-arms the unit.
//!
//! The checkpoint makes [`StreamFaultKind::Overflow`] *recoverable*:
//!
//! 1. size `ACC_BUF_CAP` optimistically (SparseZipper's strategy — no
//!    worst-case expansion bound up front);
//! 2. on an overflow trap, grow the capacity (the kernels double it,
//!    clamped to the output width) — the row buffer still holds the
//!    pre-feed state, so the faulted row's feeds can simply be
//!    **replayed from their checkpointed cursor**;
//! 3. re-run the faulted feeds; every other row's state is unaffected.
//!
//! `issr-kernels::spgemm::run_spgemm_recover` and
//! `cluster_spgemm::run_cluster_spgemm_recover` drive exactly this loop
//! from the host harness, and the unit tests below replay a faulted
//! feed in place.

use crate::cfg::{AccDrainSpec, AccFeedSpec};
use crate::fault::StreamFaultKind;
use crate::idxstream::{IndexStream, RoundRobin, Watchdog};
use crate::lane::Lane;
use issr_mem::port::{MemPort, MemReq};
use std::collections::VecDeque;

/// The streamer lane whose port and write stream the SpAcc borrows
/// (lane 1, mirroring the joiner's span over lanes 0/1: reads arrive on
/// the pair, the compressed row leaves through the indirection lane).
pub const SPACC_LANE: usize = 1;

/// Activity counters of the sparse accumulator, for verification and
/// the benchmark reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpAccStats {
    /// Feed jobs completed.
    pub feeds: u64,
    /// Drain jobs completed.
    pub drains: u64,
    /// (index, value) pairs consumed from the input streams.
    pub pairs_in: u64,
    /// Pairs whose index hit an existing entry (merged with an add).
    pub merges: u64,
    /// Comparator merge steps (pair consumption and buffer walks).
    pub steps: u64,
    /// Index words fetched for feed jobs.
    pub idx_words: u64,
    /// Memory words written by drain jobs.
    pub out_words: u64,
    /// High-water row-buffer occupancy.
    pub peak_nnz: u64,
    /// Cycles where a drain and a feed were both in flight (the
    /// double-buffer overlap the second row buffer buys).
    pub overlap_cycles: u64,
    /// Cycles a granted drain write was deferred to a feed index fetch
    /// by the shared-port round-robin (contended overlap cycles).
    pub port_shared: u64,
}

impl issr_trace::StatMerge for SpAccStats {
    fn merge_from(&mut self, other: &Self) {
        self.feeds += other.feeds;
        self.drains += other.drains;
        self.pairs_in += other.pairs_in;
        self.merges += other.merges;
        self.steps += other.steps;
        self.idx_words += other.idx_words;
        self.out_words += other.out_words;
        self.peak_nnz = self.peak_nnz.max(other.peak_nnz);
        self.overlap_cycles += other.overlap_cycles;
        self.port_shared += other.port_shared;
    }
}

/// A queued SpAcc job.
#[derive(Clone, Copy, Debug)]
enum AccJob {
    Feed(AccFeedSpec),
    Drain(AccDrainSpec),
}

/// Outcome of one feed cycle.
#[derive(Clone, Copy, Debug)]
enum FeedStep {
    /// Still merging (or no feed in flight).
    Busy,
    /// The feed retired (row buffer swapped in).
    Done,
    /// A mid-stream fault (overflow, unsorted input) must latch.
    Fault(StreamFaultKind),
}

/// An in-flight feed job: the index stream plus the two-cursor merge.
#[derive(Debug)]
struct FeedRun {
    idx: IndexStream,
    /// Head of the incoming value stream, if pulled from the lane FIFO.
    val_head: Option<f64>,
    /// Pairs fully consumed by the merge.
    consumed: u64,
    count: u64,
    /// Row-buffer capacity in elements (checked at retire).
    cap: u32,
    /// The pre-feed row buffer being merged against.
    old: Vec<(u32, f64)>,
    /// Merge cursor into `old`.
    pos: usize,
    /// The merged row being built (becomes the row buffer at retire).
    new: Vec<(u32, f64)>,
}

impl FeedRun {
    fn new(spec: &AccFeedSpec, old: Vec<(u32, f64)>) -> Self {
        Self {
            idx: IndexStream::new(spec.idx_base, spec.idx_size, spec.count),
            val_head: None,
            consumed: 0,
            count: spec.count,
            cap: spec.cap,
            old,
            pos: 0,
            new: Vec::new(),
        }
    }
}

/// An in-flight drain job: the precomputed word-write sequence.
#[derive(Debug)]
struct DrainRun {
    reqs: VecDeque<MemReq>,
}

impl DrainRun {
    /// Plans the compressed-row writes: indices packed into 64-bit words
    /// (strobed at partial boundary words), then one word per value.
    /// Alignment is guaranteed by the streamer, which latches a
    /// `CfgFault` on misaligned drain launches before they reach the
    /// unit.
    fn new(spec: &AccDrainSpec, row: &[(u32, f64)]) -> Self {
        let ib = spec.idx_size.bytes();
        debug_assert_eq!(spec.idx_out % ib, 0, "index output base must be element aligned");
        debug_assert_eq!(spec.val_out % 8, 0, "value output base must be word aligned");
        let mut reqs = VecDeque::new();
        let mut word: Option<(u32, u64, u8)> = None;
        for (j, &(idx, _)) in row.iter().enumerate() {
            for b in 0..ib {
                let a = spec.idx_out + j as u32 * ib + b;
                let aligned = a & !7;
                match &mut word {
                    Some((w, data, strb)) if *w == aligned => {
                        *data |= u64::from((idx >> (8 * b)) & 0xFF) << ((a % 8) * 8);
                        *strb |= 1 << (a % 8);
                    }
                    current => {
                        if let Some((w, data, strb)) = current.take() {
                            reqs.push_back(MemReq::write_strb(w, data, strb));
                        }
                        *current = Some((
                            aligned,
                            u64::from((idx >> (8 * b)) & 0xFF) << ((a % 8) * 8),
                            1 << (a % 8),
                        ));
                    }
                }
            }
        }
        if let Some((w, data, strb)) = word {
            reqs.push_back(MemReq::write_strb(w, data, strb));
        }
        for (j, &(_, v)) in row.iter().enumerate() {
            reqs.push_back(MemReq::write(spec.val_out + j as u32 * 8, v.to_bits()));
        }
        Self { reqs }
    }
}

/// The sparse accumulator unit of one streamer.
///
/// Row storage is **double-buffered**: a drain snapshots the merged row
/// into its own write queue at promotion, freeing the live buffer so the
/// next row's first feed starts merging while the drain is still writing
/// the previous row out (the two jobs arbitrate the shared lane port
/// round-robin). [`SpAcc::set_double_buffered`] reverts to the
/// single-buffer behaviour (feed waits for the drain), which the
/// benchmark uses to report the overlap gain.
#[derive(Debug)]
pub struct SpAcc {
    /// The accumulated row: sorted, duplicate-free (index, value) pairs.
    row: Vec<(u32, f64)>,
    /// In-flight feed (fetch/merge state; boxed — it is large).
    feed: Option<Box<FeedRun>>,
    /// In-flight drain (its snapshot write queue).
    drain: Option<DrainRun>,
    /// One-deep shadow queue (like a lane's pending slot).
    pending: Option<AccJob>,
    /// Whether a feed may start while a drain is still writing.
    double_buffered: bool,
    /// Shared-port arbiter: drain write (first) vs. feed index fetch
    /// (second).
    port_rr: RoundRobin,
    /// The latched mid-stream fault, if any ([`Self::fault`]).
    fault: Option<StreamFaultKind>,
    /// Frozen (faulted here, or by a fault elsewhere in the streamer):
    /// jobs aborted, launches refused, in-flight traffic sinks.
    frozen: bool,
    /// Progress watchdog over the busy unit ([`Self::set_watchdog`]).
    watchdog: Watchdog,
    /// Progress happened this cycle (request, response, merge step,
    /// promotion or retire) — resets the watchdog.
    progress: bool,
    /// What the unit spent its last cycle on, latched where
    /// [`Self::tick`] decides it ([`Self::attr_cause`]).
    cause: issr_trace::StallCause,
    /// Index-word responses still in flight for an aborted feed,
    /// discarded as they arrive.
    sink_rsps: usize,
    stats: SpAccStats,
}

impl Default for SpAcc {
    fn default() -> Self {
        Self::new()
    }
}

impl SpAcc {
    /// Creates an idle, double-buffered unit with an empty row buffer.
    #[must_use]
    pub fn new() -> Self {
        Self {
            row: Vec::new(),
            feed: None,
            drain: None,
            pending: None,
            double_buffered: true,
            port_rr: RoundRobin::default(),
            fault: None,
            frozen: false,
            watchdog: Watchdog::new(),
            progress: false,
            cause: issr_trace::StallCause::Idle,
            sink_rsps: 0,
            stats: SpAccStats::default(),
        }
    }

    /// The latched mid-stream fault, if the unit froze on one.
    #[must_use]
    pub fn fault(&self) -> Option<StreamFaultKind> {
        self.fault
    }

    /// Re-arms a faulted unit: clears the fault and unfreezes, so a
    /// corrected job (e.g. a replayed feed after growing the capacity)
    /// can launch. The row buffer still holds the pre-fault checkpoint.
    pub fn clear_fault(&mut self) {
        self.fault = None;
        self.frozen = false;
        self.watchdog.reset();
        // The freeze dropped every job: the re-armed unit is idle.
        self.cause = issr_trace::StallCause::Idle;
    }

    /// Sets the progress-watchdog threshold (cycles without progress
    /// before a [`StreamFaultKind::Stall`] latches). Tests shrink it;
    /// resets to [`crate::fault::STREAM_WATCHDOG_RESET`].
    pub fn set_watchdog(&mut self, cycles: u64) {
        self.watchdog.set_limit(cycles);
    }

    /// Freezes the unit (a fault here or elsewhere in the streamer):
    /// the in-flight feed aborts and the row buffer is restored to its
    /// pre-feed checkpoint, the in-flight drain and the queued job are
    /// dropped, and subsequent launches are refused. In-flight index
    /// responses drain into a sink over the following cycles.
    pub fn freeze(&mut self) {
        self.frozen = true;
        self.cause = issr_trace::StallCause::Parked;
        self.pending = None;
        if let Some(run) = self.feed.take() {
            let run = *run;
            self.row = run.old;
            self.sink_rsps += run.idx.in_flight();
        }
        self.drain = None;
    }

    fn latch_fault(&mut self, kind: StreamFaultKind) {
        if self.fault.is_none() {
            self.fault = Some(kind);
        }
        self.freeze();
    }

    /// Selects single- or double-buffered row storage (hardware knob;
    /// the benchmark sweeps both to report the overlap delta).
    pub fn set_double_buffered(&mut self, enabled: bool) {
        self.double_buffered = enabled;
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> SpAccStats {
        self.stats
    }

    /// Current row-buffer occupancy (the `ACC_NNZ` readback). Stable
    /// once all feeds retired ([`Self::feeds_idle`]) — an in-flight
    /// drain holds its own snapshot and does not disturb it.
    #[must_use]
    pub fn nnz(&self) -> u64 {
        self.row.len() as u64
    }

    /// Whether a job is running or queued.
    #[must_use]
    pub fn busy(&self) -> bool {
        self.feed.is_some() || self.drain.is_some() || self.pending.is_some()
    }

    /// Whether the unit has fully drained (no job running or queued).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        !self.busy()
    }

    /// Whether every feed job has retired (drains may still be writing).
    /// The `ACC_STATUS` feed-done bit kernels poll before `ACC_NNZ`.
    #[must_use]
    pub fn feeds_idle(&self) -> bool {
        self.feed.is_none() && !matches!(self.pending, Some(AccJob::Feed(_)))
    }

    /// Queues a feed job; returns `false` if the shadow slot is full
    /// (the core retries the launch write).
    pub fn launch_feed(&mut self, spec: AccFeedSpec) -> bool {
        self.launch(AccJob::Feed(spec))
    }

    /// Queues a drain job; returns `false` if the shadow slot is full.
    pub fn launch_drain(&mut self, spec: AccDrainSpec) -> bool {
        self.launch(AccJob::Drain(spec))
    }

    fn launch(&mut self, job: AccJob) -> bool {
        if self.pending.is_some() || self.frozen {
            return false;
        }
        self.pending = Some(job);
        self.promote();
        true
    }

    /// Starts the queued job once its buffer slot frees. Jobs consume
    /// the row buffer at promotion time, so a drain queued behind feeds
    /// sees the fully merged row — and, double-buffered, a feed queued
    /// behind a drain starts on the fresh buffer while the drain's
    /// snapshot is still being written.
    fn promote(&mut self) {
        match self.pending {
            Some(AccJob::Feed(spec)) => {
                if self.feed.is_some() || (!self.double_buffered && self.drain.is_some()) {
                    return;
                }
                self.pending = None;
                self.progress = true;
                if spec.count == 0 {
                    // Zero-length feeds retire instantly (nothing to merge).
                    self.stats.feeds += 1;
                    return;
                }
                let old = std::mem::take(&mut self.row);
                self.feed = Some(Box::new(FeedRun::new(&spec, old)));
            }
            Some(AccJob::Drain(spec)) => {
                if self.drain.is_some() || self.feed.is_some() {
                    return;
                }
                self.pending = None;
                self.progress = true;
                self.drain = Some(DrainRun::new(&spec, &self.row));
                self.row.clear();
            }
            None => {}
        }
    }

    /// Whether the unit is frozen (sinking traffic after a fault).
    #[must_use]
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Whether frozen traffic is still in flight (the streamer keeps
    /// routing the lane port here until the sink drains).
    #[must_use]
    pub fn sink_pending(&self) -> bool {
        self.frozen && self.sink_rsps > 0
    }

    /// A frozen cycle: discard in-flight index responses and stray
    /// write-stream values so the port and the FPU can drain.
    fn tick_frozen(&mut self, now: u64, port: &mut MemPort, lane: &mut Lane) {
        while port.take_rsp(now).is_some() {
            self.sink_rsps = self.sink_rsps.saturating_sub(1);
        }
        if !lane.is_streaming() {
            while lane.take_write().is_some() {}
        }
    }

    /// Advances one cycle against the borrowed lane: `port` carries the
    /// index fetches and drain writes (round-robin when both jobs are in
    /// flight), `lane`'s write FIFO supplies the feed values.
    pub fn tick(&mut self, now: u64, port: &mut MemPort, lane: &mut Lane) {
        if self.frozen {
            self.tick_frozen(now, port, lane);
            return;
        }
        self.promote();
        if self.feed.is_some() && self.drain.is_some() {
            self.stats.overlap_cycles += 1;
        }
        // Feed datapath: responses, stream heads, one merge step.
        let feed_step = match &mut self.feed {
            Some(run) => Self::tick_feed(
                run,
                now,
                port,
                lane,
                &mut self.stats,
                &mut self.row,
                &mut self.progress,
            ),
            None => FeedStep::Busy,
        };
        if let FeedStep::Fault(kind) = feed_step {
            self.latch_fault(kind);
            return;
        }
        // One request on the shared port: drain write vs. feed index
        // fetch, arbitrated round-robin like the lane's fetchers.
        if port.can_send() {
            let drain_wants = self.drain.as_ref().is_some_and(|run| !run.reqs.is_empty());
            let feed_wants = self.feed.as_ref().is_some_and(|run| run.idx.wants_fetch());
            self.stats.port_shared += u64::from(drain_wants && feed_wants);
            if let Some(grant_drain) = self.port_rr.grant(drain_wants, feed_wants) {
                if grant_drain {
                    let run = self.drain.as_mut().expect("drain_wants checked");
                    port.send(run.reqs.pop_front().expect("drain_wants checked"));
                    self.stats.out_words += 1;
                } else {
                    let run = self.feed.as_mut().expect("feed_wants checked");
                    port.send(MemReq::read(run.idx.fetch()));
                    self.stats.idx_words += 1;
                }
                self.progress = true;
            }
        }
        if matches!(feed_step, FeedStep::Done) {
            self.feed = None;
            self.progress = true;
        }
        if self.drain.as_ref().is_some_and(|run| run.reqs.is_empty()) {
            self.drain = None;
            self.stats.drains += 1;
            self.progress = true;
        }
        self.promote();
        // A busy unit that makes zero progress is deadlocked (values
        // that never arrive, a port that never grants): latch a stall
        // fault instead of hanging the simulation.
        if let Some(cycles) = self.watchdog.observe(self.busy(), self.progress) {
            self.latch_fault(StreamFaultKind::Stall { cycles });
            return;
        }
        let advanced = std::mem::take(&mut self.progress);
        self.cause = self.classify(advanced);
    }

    /// What the unit spent the cycle that last ticked it on, as
    /// [`Self::tick`] latched it: parked when frozen, idle once nothing
    /// is running or queued, active when any datapath advanced, queued
    /// work blocked behind a drain, a drain write that lost the shared
    /// port, or a feed starved for indices/values.
    #[must_use]
    pub fn attr_cause(&self) -> issr_trace::StallCause {
        self.cause
    }

    /// Classifies the unfrozen cycle [`Self::tick`] just finished.
    fn classify(&self, advanced: bool) -> issr_trace::StallCause {
        use issr_trace::StallCause;
        if !self.busy() {
            StallCause::Idle
        } else if advanced {
            StallCause::Active
        } else if self.feed.is_none() && self.pending.is_some() && self.drain.is_some() {
            StallCause::DrainBusy
        } else if self.feed.is_none() && self.drain.is_some() {
            StallCause::PortConflict
        } else {
            StallCause::FifoEmpty
        }
    }

    /// One feed cycle: drain index-word responses, pull the stream
    /// heads, perform one merge step (the index fetch issues from
    /// [`Self::tick`]'s shared-port arbiter). Overflow and order
    /// violations surface as [`FeedStep::Fault`] the cycle the merged
    /// row first exceeds the capacity (or the bad index arrives) — the
    /// pre-feed checkpoint in `run.old` is still intact at that point.
    #[allow(clippy::too_many_arguments)]
    fn tick_feed(
        run: &mut FeedRun,
        now: u64,
        port: &mut MemPort,
        lane: &mut Lane,
        stats: &mut SpAccStats,
        row: &mut Vec<(u32, f64)>,
        progress: &mut bool,
    ) -> FeedStep {
        while let Some(rsp) = port.take_rsp(now) {
            run.idx.accept(rsp.data);
            *progress = true;
        }
        *progress |= run.idx.refill_head();
        // Pull a value only while pairs remain — values beyond `count`
        // belong to the next queued feed job.
        if run.val_head.is_none() && run.consumed < run.count {
            if let Some(bits) = lane.take_write() {
                run.val_head = Some(f64::from_bits(bits));
                *progress = true;
            }
        }
        let cap = run.cap as usize;
        // One comparator step per cycle (the joiner-Union datapath).
        if run.consumed == run.count {
            if run.pos < run.old.len() {
                run.new.push(run.old[run.pos]);
                run.pos += 1;
                stats.steps += 1;
                *progress = true;
                if run.new.len() > cap {
                    return FeedStep::Fault(StreamFaultKind::Overflow { cap: run.cap });
                }
            } else if run.idx.in_flight() == 0 {
                *row = std::mem::take(&mut run.new);
                stats.feeds += 1;
                stats.peak_nnz = stats.peak_nnz.max(row.len() as u64);
                return FeedStep::Done;
            }
        } else if let (Some(idx), Some(val)) = (run.idx.head, run.val_head) {
            stats.steps += 1;
            *progress = true;
            if run.pos < run.old.len() && run.old[run.pos].0 < idx {
                run.new.push(run.old[run.pos]);
                run.pos += 1;
            } else {
                if run.pos < run.old.len() && run.old[run.pos].0 == idx {
                    run.new.push((idx, run.old[run.pos].1 + val));
                    run.pos += 1;
                    stats.merges += 1;
                } else {
                    match run.new.last_mut() {
                        Some(last) if last.0 == idx => {
                            last.1 += val;
                            stats.merges += 1;
                        }
                        Some(&mut (last, _)) if last > idx => {
                            return FeedStep::Fault(StreamFaultKind::Unsorted {
                                prev: last,
                                next: idx,
                            });
                        }
                        _ => run.new.push((idx, val)),
                    }
                }
                run.idx.head = None;
                run.val_head = None;
                run.consumed += 1;
                stats.pairs_in += 1;
            }
            if run.new.len() > cap {
                return FeedStep::Fault(StreamFaultKind::Overflow { cap: run.cap });
            }
        }
        FeedStep::Busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serializer::IndexSize;
    use issr_mem::tcdm::Tcdm;

    const BASE: u32 = 0x0010_0000;
    const IDX_IN: u32 = BASE + 0x1000;
    const IDX_OUT: u32 = BASE + 0x4000;
    const VAL_OUT: u32 = BASE + 0x8000;

    fn feed_spec(idx_base: u32, count: u64) -> AccFeedSpec {
        AccFeedSpec {
            idx_base,
            count,
            idx_size: IndexSize::U16,
            count_only: false,
            cap: crate::cfg::SPACC_ROW_CAP_RESET,
        }
    }

    fn drain_spec(idx_out: u32) -> AccDrainSpec {
        AccDrainSpec { idx_out, val_out: VAL_OUT, idx_size: IndexSize::U16 }
    }

    /// Runs the unit to idle, pushing `vals` into the lane write FIFO as
    /// capacity allows (the FPU's behaviour).
    fn run_to_idle(spacc: &mut SpAcc, tcdm: &mut Tcdm, lane: &mut Lane, vals: &[f64]) -> u64 {
        let mut port = MemPort::new();
        let mut next = 0;
        for now in 0..100_000u64 {
            if next < vals.len() && lane.can_push() {
                lane.push(vals[next].to_bits());
                next += 1;
            }
            spacc.tick(now, &mut port, lane);
            tcdm.tick(now, &mut [&mut port], &[]);
            if spacc.is_idle() && next == vals.len() {
                return now + 1;
            }
        }
        panic!("SpAcc failed to drain");
    }

    /// Feeds one sorted (idcs, vals) stream as a single job.
    fn feed_stream(spacc: &mut SpAcc, tcdm: &mut Tcdm, idcs: &[u16], vals: &[f64]) {
        assert_eq!(idcs.len(), vals.len());
        tcdm.array_mut().store_u16_slice(IDX_IN, idcs);
        let mut lane = Lane::new(crate::lane::LaneKind::Issr);
        assert!(spacc.launch_feed(feed_spec(IDX_IN, idcs.len() as u64)));
        run_to_idle(spacc, tcdm, &mut lane, vals);
    }

    #[test]
    fn feed_merges_duplicates_on_the_fly() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        let mut spacc = SpAcc::new();
        // Duplicates both within the stream (4, 4) and across entries.
        feed_stream(&mut spacc, &mut tcdm, &[1, 4, 4, 9], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(spacc.nnz(), 3);
        assert_eq!(spacc.row, [(1, 1.0), (4, 5.0), (9, 4.0)]);
        let stats = spacc.stats();
        assert_eq!(stats.feeds, 1);
        assert_eq!(stats.pairs_in, 4);
        assert_eq!(stats.merges, 1);
    }

    #[test]
    fn feeds_accumulate_across_jobs_union_style() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        let mut spacc = SpAcc::new();
        feed_stream(&mut spacc, &mut tcdm, &[2, 5, 8], &[1.0, 2.0, 3.0]);
        feed_stream(&mut spacc, &mut tcdm, &[0, 5, 9], &[10.0, 20.0, 30.0]);
        feed_stream(&mut spacc, &mut tcdm, &[8], &[100.0]);
        assert_eq!(spacc.row, [(0, 10.0), (2, 1.0), (5, 22.0), (8, 103.0), (9, 30.0)]);
        assert_eq!(spacc.stats().merges, 2);
        assert_eq!(spacc.stats().peak_nnz, 5);
    }

    #[test]
    fn drain_packs_row_and_clears_buffer() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        let mut spacc = SpAcc::new();
        feed_stream(&mut spacc, &mut tcdm, &[3, 7, 12, 40], &[0.5, 1.5, 2.5, 3.5]);
        // Unaligned output base: the row starts mid-word.
        let out = IDX_OUT + 6;
        tcdm.array_mut().store_u16(IDX_OUT + 4, 0xAAAA); // must survive
        assert!(spacc.launch_drain(drain_spec(out)));
        let mut lane = Lane::new(crate::lane::LaneKind::Issr);
        run_to_idle(&mut spacc, &mut tcdm, &mut lane, &[]);
        assert_eq!(spacc.nnz(), 0, "flush on row end clears the buffer");
        for (j, &idx) in [3u16, 7, 12, 40].iter().enumerate() {
            assert_eq!(tcdm.array().load_u16(out + 2 * j as u32), idx);
        }
        for (j, &v) in [0.5, 1.5, 2.5, 3.5].iter().enumerate() {
            assert_eq!(tcdm.array().load_f64(VAL_OUT + 8 * j as u32), v);
        }
        // Strobed partial-word writes must not clobber neighbours.
        assert_eq!(tcdm.array().load_u16(IDX_OUT + 4), 0xAAAA);
        assert_eq!(spacc.stats().drains, 1);
        // 4 u16 indices from +6 span 2 words; 4 value words.
        assert_eq!(spacc.stats().out_words, 6);
    }

    #[test]
    fn drain_of_empty_row_is_a_cheap_no_op() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        let mut spacc = SpAcc::new();
        assert!(spacc.launch_drain(drain_spec(IDX_OUT)));
        let mut lane = Lane::new(crate::lane::LaneKind::Issr);
        run_to_idle(&mut spacc, &mut tcdm, &mut lane, &[]);
        assert_eq!(spacc.stats().out_words, 0);
        assert_eq!(spacc.stats().drains, 1);
    }

    /// A feed stalled on values must backpressure: the merge stops, the
    /// lane FIFO fills, and everything resumes when values arrive late.
    #[test]
    fn feed_backpressures_on_slow_values() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        let n = 40u64;
        let idcs: Vec<u16> = (0..n as u16).map(|i| i * 2).collect();
        tcdm.array_mut().store_u16_slice(IDX_IN, &idcs);
        let mut spacc = SpAcc::new();
        let mut lane = Lane::new(crate::lane::LaneKind::Issr);
        assert!(spacc.launch_feed(feed_spec(IDX_IN, n)));
        let mut port = MemPort::new();
        let mut pushed = 0u64;
        let mut cycles = 0;
        for now in 0..100_000u64 {
            // One value every 7 cycles: far slower than the merge.
            if now % 7 == 0 && pushed < n && lane.can_push() {
                lane.push((pushed as f64).to_bits());
                pushed += 1;
            }
            spacc.tick(now, &mut port, &mut lane);
            tcdm.tick(now, &mut [&mut port], &[]);
            cycles = now + 1;
            if spacc.is_idle() && pushed == n {
                break;
            }
        }
        assert!(spacc.is_idle(), "feed must complete once values arrive");
        assert_eq!(spacc.nnz(), n);
        assert_eq!(spacc.row.iter().map(|&(_, v)| v).sum::<f64>(), (0..n).sum::<u64>() as f64);
        assert!(cycles >= 7 * (n - 1), "consumption cannot outrun the value stream");
    }

    /// Back-to-back jobs queue one deep; a third launch is refused until
    /// the slot frees, and a drain queued behind a feed sees its result.
    #[test]
    fn job_queue_is_one_deep_and_ordered() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        tcdm.array_mut().store_u16_slice(IDX_IN, &[1, 2, 3]);
        let mut spacc = SpAcc::new();
        let mut lane = Lane::new(crate::lane::LaneKind::Issr);
        assert!(spacc.launch_feed(feed_spec(IDX_IN, 3)));
        assert!(spacc.launch_drain(drain_spec(IDX_OUT)));
        assert!(!spacc.launch_feed(feed_spec(IDX_IN, 3)), "queue is one deep");
        run_to_idle(&mut spacc, &mut tcdm, &mut lane, &[5.0, 6.0, 7.0]);
        assert_eq!(tcdm.array().load_u16(IDX_OUT + 2), 2);
        assert_eq!(tcdm.array().load_f64(VAL_OUT + 16), 7.0);
        assert_eq!(spacc.nnz(), 0);
    }

    #[test]
    fn zero_count_feed_retires_without_traffic() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        let mut spacc = SpAcc::new();
        feed_stream(&mut spacc, &mut tcdm, &[5], &[1.0]);
        let mut lane = Lane::new(crate::lane::LaneKind::Issr);
        assert!(spacc.launch_feed(feed_spec(IDX_IN, 0)));
        assert!(spacc.is_idle(), "zero-length feeds retire at launch");
        run_to_idle(&mut spacc, &mut tcdm, &mut lane, &[]);
        assert_eq!(spacc.row, [(5, 1.0)]);
        assert_eq!(spacc.stats().feeds, 2);
    }

    /// A decreasing index within one job latches `Unsorted` instead of
    /// panicking; the row buffer is restored to the pre-feed checkpoint.
    #[test]
    fn unsorted_feed_latches_fault_and_restores_checkpoint() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        let mut spacc = SpAcc::new();
        feed_stream(&mut spacc, &mut tcdm, &[2, 8], &[5.0, 6.0]); // checkpoint row
        tcdm.array_mut().store_u16_slice(IDX_IN + 0x100, &[9, 3]);
        let mut lane = Lane::new(crate::lane::LaneKind::Issr);
        assert!(spacc.launch_feed(feed_spec(IDX_IN + 0x100, 2)));
        run_to_idle(&mut spacc, &mut tcdm, &mut lane, &[1.0, 2.0]);
        assert_eq!(spacc.fault(), Some(StreamFaultKind::Unsorted { prev: 9, next: 3 }));
        assert!(spacc.is_idle(), "the faulted unit aborts its jobs");
        assert_eq!(spacc.row, [(2, 5.0), (8, 6.0)], "checkpoint restored");
        assert!(!spacc.launch_feed(feed_spec(IDX_IN, 1)), "frozen unit refuses launches");
    }

    fn feed_spec_cap(idx_base: u32, count: u64, cap: u32) -> AccFeedSpec {
        AccFeedSpec { cap, ..feed_spec(idx_base, count) }
    }

    /// Duplicate-index add chains right at the buffer capacity: a
    /// stream of 2x duplicates over `cap` distinct indices merges to
    /// exactly `cap` entries — full, but legal.
    #[test]
    fn duplicate_chains_at_buffer_capacity() {
        let cap = 8u32;
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        let idcs: Vec<u16> = (0..cap as u16).flat_map(|i| [i, i]).collect();
        let vals: Vec<f64> = (0..2 * cap).map(|i| f64::from(i) + 1.0).collect();
        tcdm.array_mut().store_u16_slice(IDX_IN, &idcs);
        let mut spacc = SpAcc::new();
        let mut lane = Lane::new(crate::lane::LaneKind::Issr);
        assert!(spacc.launch_feed(feed_spec_cap(IDX_IN, idcs.len() as u64, cap)));
        run_to_idle(&mut spacc, &mut tcdm, &mut lane, &vals);
        assert_eq!(spacc.nnz(), u64::from(cap));
        assert_eq!(spacc.stats().merges, u64::from(cap), "every second pair merges");
        // Each entry is the sum of its duplicate chain.
        for (j, &(idx, v)) in spacc.row.iter().enumerate() {
            assert_eq!(idx, j as u32);
            assert_eq!(v, vals[2 * j] + vals[2 * j + 1]);
        }
        assert_eq!(spacc.stats().peak_nnz, u64::from(cap));
    }

    /// One distinct index past the capacity latches `Overflow` with the
    /// row buffer restored to the pre-feed checkpoint — and replaying
    /// the *same* feed after growing the capacity completes the merge
    /// correctly: the unit-level grow-and-retry protocol.
    #[test]
    fn over_capacity_feed_faults_then_replays_after_growth() {
        let cap = 8u32;
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        let mut spacc = SpAcc::new();
        // Seed the checkpoint row with two entries.
        feed_stream(&mut spacc, &mut tcdm, &[1, 3], &[0.5, 0.25]);
        // cap + 1 distinct indices: overflows an 8-entry buffer.
        let idcs: Vec<u16> = (0..=cap as u16).map(|i| i * 2).collect();
        let vals: Vec<f64> = (0..=cap).map(f64::from).collect();
        tcdm.array_mut().store_u16_slice(IDX_IN + 0x200, &idcs);
        let mut lane = Lane::new(crate::lane::LaneKind::Issr);
        assert!(spacc.launch_feed(feed_spec_cap(IDX_IN + 0x200, idcs.len() as u64, cap)));
        run_to_idle(&mut spacc, &mut tcdm, &mut lane, &vals);
        assert_eq!(spacc.fault(), Some(StreamFaultKind::Overflow { cap }));
        assert_eq!(spacc.row, [(1, 0.5), (3, 0.25)], "pre-feed checkpoint restored");
        assert!(!spacc.launch_feed(feed_spec(IDX_IN, 1)), "frozen unit refuses launches");
        // Grow and replay the faulted feed from its checkpointed cursor
        // (fresh lane: the streamer's freeze clears the write FIFO).
        spacc.clear_fault();
        let mut lane = Lane::new(crate::lane::LaneKind::Issr);
        assert!(spacc.launch_feed(feed_spec_cap(IDX_IN + 0x200, idcs.len() as u64, 2 * cap)));
        run_to_idle(&mut spacc, &mut tcdm, &mut lane, &vals);
        assert_eq!(spacc.fault(), None);
        // The merged row: checkpoint {1, 3} unioned with {0, 2, .., 16}.
        assert_eq!(spacc.nnz(), u64::from(cap) + 3);
        assert_eq!(spacc.row[0], (0, 0.0));
        assert_eq!(spacc.row[1], (1, 0.5));
        assert_eq!(spacc.row[2], (2, 1.0));
        assert_eq!(spacc.row[3], (3, 0.25));
        assert_eq!(spacc.row.last().copied(), Some((16, 8.0)));
    }

    /// A value feed whose write stream never delivers trips the progress
    /// watchdog: the deadlock latches a `Stall` fault and the unit
    /// aborts instead of hanging its simulation.
    #[test]
    fn starved_feed_latches_stall_fault() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        tcdm.array_mut().store_u16_slice(IDX_IN, &[4, 7]);
        let mut spacc = SpAcc::new();
        spacc.set_watchdog(200);
        let mut lane = Lane::new(crate::lane::LaneKind::Issr);
        assert!(spacc.launch_feed(feed_spec(IDX_IN, 2)));
        run_to_idle(&mut spacc, &mut tcdm, &mut lane, &[]); // no values, ever
        match spacc.fault() {
            Some(StreamFaultKind::Stall { cycles }) => assert!(cycles >= 200),
            other => panic!("expected a stall fault, got {other:?}"),
        }
        assert!(spacc.is_idle());
    }

    /// Two drains packing adjacent rows that share a 64-bit index word
    /// at their boundary (the cluster's worker-boundary case): the
    /// strobed partial-word writes must compose without clobbering.
    #[test]
    fn strobed_drains_compose_at_boundary_words() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        let mut spacc = SpAcc::new();
        // Row 1: three u16 indices at the word base; row 2: two more
        // continuing mid-word — indices 3..5 of the same packed array.
        feed_stream(&mut spacc, &mut tcdm, &[10, 11, 12], &[1.0, 2.0, 3.0]);
        assert!(spacc.launch_drain(AccDrainSpec {
            idx_out: IDX_OUT,
            val_out: VAL_OUT,
            idx_size: IndexSize::U16,
        }));
        let mut lane = Lane::new(crate::lane::LaneKind::Issr);
        run_to_idle(&mut spacc, &mut tcdm, &mut lane, &[]);
        feed_stream(&mut spacc, &mut tcdm, &[20, 21], &[4.0, 5.0]);
        assert!(spacc.launch_drain(AccDrainSpec {
            idx_out: IDX_OUT + 6, // continues inside row 1's last word
            val_out: VAL_OUT + 24,
            idx_size: IndexSize::U16,
        }));
        run_to_idle(&mut spacc, &mut tcdm, &mut lane, &[]);
        for (j, want) in [10u16, 11, 12, 20, 21].iter().enumerate() {
            assert_eq!(tcdm.array().load_u16(IDX_OUT + 2 * j as u32), *want, "index {j}");
        }
        for (j, want) in [1.0f64, 2.0, 3.0, 4.0, 5.0].iter().enumerate() {
            assert_eq!(tcdm.array().load_f64(VAL_OUT + 8 * j as u32), *want, "value {j}");
        }
    }

    /// The double-buffer swap with an in-flight drain: a feed queued
    /// behind a drain starts merging into the fresh buffer while the
    /// drain is still writing its snapshot — overlap cycles accrue and
    /// neither row corrupts the other.
    #[test]
    fn double_buffer_swap_with_inflight_drain() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        let mut spacc = SpAcc::new();
        // Row 1 (large enough that its drain is still writing when the
        // next feed starts).
        let idcs1: Vec<u16> = (0..24u16).map(|i| i * 3).collect();
        let vals1: Vec<f64> = (0..24).map(|i| f64::from(i) + 0.5).collect();
        feed_stream(&mut spacc, &mut tcdm, &idcs1, &vals1);
        // Row 2's indices, placed elsewhere.
        let idcs2: Vec<u16> = (0..16u16).map(|i| i * 2 + 1).collect();
        let vals2: Vec<f64> = (0..16).map(|i| -f64::from(i)).collect();
        tcdm.array_mut().store_u16_slice(IDX_IN + 0x200, &idcs2);
        // Queue drain(row 1) then feed(row 2) back to back.
        assert!(spacc.launch_drain(drain_spec(IDX_OUT)));
        assert!(spacc.launch_feed(feed_spec(IDX_IN + 0x200, idcs2.len() as u64)));
        let mut lane = Lane::new(crate::lane::LaneKind::Issr);
        run_to_idle(&mut spacc, &mut tcdm, &mut lane, &vals2);
        // The drain snapshot holds row 1 untouched by the overlapping feed.
        for (j, &idx) in idcs1.iter().enumerate() {
            assert_eq!(tcdm.array().load_u16(IDX_OUT + 2 * j as u32), idx);
            assert_eq!(tcdm.array().load_f64(VAL_OUT + 8 * j as u32), vals1[j]);
        }
        // The live buffer holds row 2.
        assert_eq!(spacc.nnz(), idcs2.len() as u64);
        assert_eq!(spacc.row.iter().map(|&(i, _)| i as u16).collect::<Vec<_>>(), idcs2);
        assert!(spacc.stats().overlap_cycles > 0, "feed must overlap the in-flight drain");
    }

    /// Single-buffer mode (the benchmark's baseline knob) serializes the
    /// same sequence: zero overlap cycles, identical results.
    #[test]
    fn single_buffer_mode_serializes_drain_and_feed() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        let mut spacc = SpAcc::new();
        spacc.set_double_buffered(false);
        feed_stream(&mut spacc, &mut tcdm, &[1, 5, 7], &[1.0, 2.0, 3.0]);
        tcdm.array_mut().store_u16_slice(IDX_IN + 0x200, &[2, 4]);
        assert!(spacc.launch_drain(drain_spec(IDX_OUT)));
        assert!(spacc.launch_feed(feed_spec(IDX_IN + 0x200, 2)));
        let mut lane = Lane::new(crate::lane::LaneKind::Issr);
        run_to_idle(&mut spacc, &mut tcdm, &mut lane, &[9.0, 8.0]);
        assert_eq!(spacc.stats().overlap_cycles, 0);
        assert_eq!(tcdm.array().load_u16(IDX_OUT + 2), 5);
        assert_eq!(spacc.row, [(2, 9.0), (4, 8.0)]);
    }

    /// The merge sustains one incoming pair per cycle against an empty
    /// buffer (steady state of a first expansion), 16-bit indices.
    #[test]
    fn feed_sustains_near_one_pair_per_cycle() {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        let n = 256u64;
        let idcs: Vec<u16> = (0..n as u16).collect();
        tcdm.array_mut().store_u16_slice(IDX_IN, &idcs);
        let vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut spacc = SpAcc::new();
        let mut lane = Lane::new(crate::lane::LaneKind::Issr);
        assert!(spacc.launch_feed(feed_spec(IDX_IN, n)));
        let cycles = run_to_idle(&mut spacc, &mut tcdm, &mut lane, &vals);
        let rate = n as f64 / cycles as f64;
        assert!(rate > 0.9, "feed rate {rate:.3} over {cycles} cycles");
    }
}
