//! The cluster DMA engine.
//!
//! A 512-bit engine that moves blocks between main memory and the TCDM
//! (§II-C, \[7\]). It supports 1D transfers and 2D (strided) transfers used
//! to tile matrices into the TCDM. Transfers are queued and processed in
//! order; the engine moves up to eight 64-bit words per cycle and claims
//! the TCDM banks it touches (it has priority over core ports, matching
//! the Snitch cluster's interconnect).
//!
//! Programming model (Xdma instructions, see `issr-isa`):
//! `dmsrc`/`dmdst` latch addresses, `dmstr` latches 2D strides, `dmrep`
//! the repetition count, and `dmcpyi` enqueues the transfer and returns
//! its id. `dmstati 0` reads the number of completed transfers.
//!
//! Descriptors come from guest registers, so the engine checks them
//! instead of trusting them: a transfer whose size or addresses are not
//! word aligned, or that reaches a word outside the memory its direction
//! names (main → main is not a direction the engine has), moves no
//! further word; the engine drops it with the queue behind it and
//! latches the offending address for [`Dma::take_fault`].

use crate::array::MemArray;
use crate::main_mem::MainMemory;
use issr_trace::{StallCause, StatMerge};

/// Words moved per cycle (512-bit datapath).
pub const DMA_WORDS_PER_CYCLE: u32 = 8;

/// Direction of a transfer, derived from its addresses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Direction {
    /// Main memory → TCDM.
    In,
    /// TCDM → main memory.
    Out,
    /// TCDM → TCDM.
    Local,
}

/// One queued transfer descriptor.
#[derive(Clone, Copy, Debug)]
struct Transfer {
    id: u32,
    src: u32,
    dst: u32,
    /// Bytes per row (8-byte multiple).
    size: u32,
    src_stride: u32,
    dst_stride: u32,
    /// Number of rows (1 for 1D transfers).
    reps: u32,
}

/// Progress of the active transfer.
#[derive(Clone, Copy, Debug)]
struct Progress {
    row: u32,
    word: u32,
    /// Remaining main-memory access-latency cycles before the first
    /// beat moves (charged once per transfer touching main memory).
    startup_left: u64,
}

/// Statistics for energy modelling and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct DmaStats {
    /// Words copied in (main → TCDM).
    pub words_in: u64,
    /// Words copied out (TCDM → main).
    pub words_out: u64,
    /// Cycles with at least one word moved.
    pub busy_cycles: u64,
    /// Transfers completed.
    pub transfers: u64,
    /// Cycles an active transfer moved nothing because the main-memory
    /// bandwidth budget was exhausted (multi-cluster contention).
    pub stall_cycles: u64,
}

impl StatMerge for DmaStats {
    fn merge_from(&mut self, other: &Self) {
        self.words_in += other.words_in;
        self.words_out += other.words_out;
        self.busy_cycles += other.busy_cycles;
        self.transfers += other.transfers;
        self.stall_cycles += other.stall_cycles;
    }
}

/// The DMA engine front end + mover.
#[derive(Clone, Debug)]
pub struct Dma {
    // Latched configuration (next transfer).
    src: u32,
    dst: u32,
    src_stride: u32,
    dst_stride: u32,
    reps: u32,
    // Engine state.
    queue: std::collections::VecDeque<Transfer>,
    active: Option<(Transfer, Progress)>,
    next_id: u32,
    completed: u32,
    tcdm_base: u32,
    tcdm_size: u32,
    stats: DmaStats,
    /// The first address a transfer was aborted on, until taken.
    fault: Option<u32>,
    /// What the engine spent its most recent [`Dma::tick`] on — the
    /// cluster harness records it into the attribution breakdown.
    last_cause: StallCause,
}

impl Dma {
    /// Creates an idle engine; `tcdm_base`/`tcdm_size` identify which
    /// addresses live in the TCDM (everything else is main memory).
    #[must_use]
    pub fn new(tcdm_base: u32, tcdm_size: u32) -> Self {
        Self {
            src: 0,
            dst: 0,
            src_stride: 0,
            dst_stride: 0,
            reps: 1,
            queue: std::collections::VecDeque::new(),
            active: None,
            next_id: 0,
            completed: 0,
            tcdm_base,
            tcdm_size,
            stats: DmaStats::default(),
            fault: None,
            last_cause: StallCause::Idle,
        }
    }

    /// Latches the source address (`dmsrc`).
    pub fn set_src(&mut self, addr: u32) {
        self.src = addr;
    }

    /// Latches the destination address (`dmdst`).
    pub fn set_dst(&mut self, addr: u32) {
        self.dst = addr;
    }

    /// Latches 2D strides in bytes (`dmstr`).
    pub fn set_strides(&mut self, src_stride: u32, dst_stride: u32) {
        self.src_stride = src_stride;
        self.dst_stride = dst_stride;
    }

    /// Latches the 2D repetition count (`dmrep`).
    pub fn set_reps(&mut self, reps: u32) {
        self.reps = reps.max(1);
    }

    /// Enqueues a transfer of `size` bytes per row (`dmcpyi`); `twod`
    /// selects 2D mode (otherwise a single row is moved). Returns the
    /// transfer id. The descriptor is checked when the engine activates
    /// it ([`Self::tick`]).
    pub fn start(&mut self, size: u32, twod: bool) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push_back(Transfer {
            id,
            src: self.src,
            dst: self.dst,
            size,
            src_stride: if twod { self.src_stride } else { 0 },
            dst_stride: if twod { self.dst_stride } else { 0 },
            reps: if twod { self.reps } else { 1 },
        });
        id
    }

    /// Number of completed transfers (`dmstati 0`). A transfer with id `t`
    /// is done once `completed() > t`.
    #[must_use]
    pub fn completed(&self) -> u32 {
        self.completed
    }

    /// Words not yet moved: the active transfer's remaining words plus
    /// everything queued behind it (Perfetto counter-track probe).
    #[must_use]
    pub fn outstanding_words(&self) -> u64 {
        let queued: u64 =
            self.queue.iter().map(|t| u64::from(t.size / 8) * u64::from(t.reps)).sum();
        let active = self.active.as_ref().map_or(0, |(t, p)| {
            let per_row = u64::from(t.size / 8);
            let total = per_row * u64::from(t.reps);
            let done = u64::from(p.row) * per_row + u64::from(p.word);
            total.saturating_sub(done)
        });
        queued + active
    }

    /// Whether a transfer is active or queued (`dmstati 1`).
    #[must_use]
    pub fn busy(&self) -> bool {
        self.active.is_some() || !self.queue.is_empty()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> DmaStats {
        self.stats
    }

    /// The stall cause of the engine's most recent tick: moving beats
    /// ([`StallCause::Active`]), denied shared bandwidth
    /// ([`StallCause::BwDenied`]), yielding contested banks to core
    /// ports ([`StallCause::PortConflict`]), paying a transfer's
    /// main-memory startup latency ([`StallCause::DrainBusy`]), or
    /// idle.
    #[must_use]
    pub fn last_cause(&self) -> StallCause {
        self.last_cause
    }

    /// The address the engine aborted a transfer on, once: a misaligned
    /// source, destination or source end (a size that is not a multiple
    /// of 8), or the first source or destination word outside its
    /// memory. The cluster traps the DMCC on it.
    pub fn take_fault(&mut self) -> Option<u32> {
        self.fault.take()
    }

    /// Drops the active transfer and everything queued behind it.
    fn abort(&mut self, addr: u32) {
        self.active = None;
        self.queue.clear();
        self.fault.get_or_insert(addr);
    }

    fn direction(&self, t: &Transfer) -> Direction {
        let src_local = self.in_tcdm(t.src);
        let dst_local = self.in_tcdm(t.dst);
        match (src_local, dst_local) {
            (false, true) => Direction::In,
            (true, false) => Direction::Out,
            _ => Direction::Local,
        }
    }

    fn in_tcdm(&self, addr: u32) -> bool {
        addr >= self.tcdm_base && addr - self.tcdm_base < self.tcdm_size
    }

    /// Advances the engine by one cycle, copying up to
    /// [`DMA_WORDS_PER_CYCLE`] words. Returns the TCDM banks claimed this
    /// cycle in `claimed` (caller passes a `false`-initialized slice of
    /// bank-count length, a power of two, and the word-interleaving is 8
    /// bytes).
    ///
    /// `contested` marks banks with core requests pending this cycle; on
    /// alternating *yield* cycles the engine stops at the first word
    /// whose bank a core wants, modelling the cluster interconnect's
    /// fair arbitration between the wide DMA port and the core ports
    /// (the DMA does not starve cores, and vice versa).
    pub fn tick(
        &mut self,
        tcdm: &mut MemArray,
        main: &mut MainMemory,
        claimed: &mut [bool],
        contested: &[bool],
        yield_to_cores: bool,
    ) {
        if self.active.is_none() {
            if let Some(t) = self.queue.pop_front() {
                // The engine moves whole words: source, destination and
                // (through the source's end) size must be 8-byte aligned.
                let ends = [t.src, t.dst, t.src.wrapping_add(t.size)];
                if let Some(addr) = ends.into_iter().find(|addr| addr % 8 != 0) {
                    self.abort(addr);
                    self.last_cause = StallCause::Idle;
                    return;
                }
                let touches_main = t.size > 0 && self.direction(&t) != Direction::Local;
                let startup_left = if touches_main { main.dma_latency() } else { 0 };
                self.active = Some((t, Progress { row: 0, word: 0, startup_left }));
            }
        }
        let Some((t, mut p)) = self.active else {
            self.last_cause = StallCause::Idle;
            return;
        };
        if p.startup_left > 0 {
            p.startup_left -= 1;
            self.active = Some((t, p));
            self.last_cause = StallCause::DrainBusy;
            return;
        }
        let dir = self.direction(&t);
        let words_per_row = t.size / 8;
        if words_per_row == 0 {
            // A zero-byte row moves nothing; the transfer retires at once.
            p.row = t.reps;
        }
        let bank_mask = claimed.len().max(1) - 1;
        debug_assert_eq!(bank_mask & (bank_mask + 1), 0, "bank count must be a power of two");
        let bank_of = |addr: u32| (addr / 8) as usize & bank_mask;
        let mut moved = 0;
        let mut denied = false;
        let mut yielded = false;
        let mut fault = None;
        while moved < DMA_WORDS_PER_CYCLE && p.row < t.reps {
            let offset = |stride: u32| p.row.wrapping_mul(stride).wrapping_add(p.word * 8);
            let src = t.src.wrapping_add(offset(t.src_stride));
            let dst = t.dst.wrapping_add(offset(t.dst_stride));
            let (src_ok, dst_ok) = match dir {
                Direction::In => (main.array().contains(src), tcdm.contains(dst)),
                Direction::Out => (tcdm.contains(src), main.array().contains(dst)),
                Direction::Local => (tcdm.contains(src), tcdm.contains(dst)),
            };
            if !(src_ok && dst_ok) {
                fault = Some(if src_ok { dst } else { src });
                break;
            }
            if yield_to_cores {
                let local = match dir {
                    Direction::In => dst,
                    Direction::Out | Direction::Local => src,
                };
                if contested.get(bank_of(local)).copied().unwrap_or(false) {
                    yielded = true;
                    break;
                }
            }
            let data = match dir {
                Direction::In => match main.try_dma_read_word(src) {
                    Some(data) => data,
                    None => {
                        denied = true;
                        break;
                    }
                },
                Direction::Out | Direction::Local => tcdm.read_word(src),
            };
            match dir {
                Direction::In | Direction::Local => {
                    tcdm.write_word(dst, data, 0xFF);
                    claimed[bank_of(dst)] = true;
                }
                Direction::Out => {
                    if !main.try_dma_write_word(dst, data) {
                        denied = true;
                        break;
                    }
                }
            }
            if dir == Direction::Out || dir == Direction::Local {
                claimed[bank_of(src)] = true;
            }
            match dir {
                Direction::In => self.stats.words_in += 1,
                Direction::Out => self.stats.words_out += 1,
                Direction::Local => {
                    self.stats.words_in += 1;
                    self.stats.words_out += 1;
                }
            }
            moved += 1;
            p.word += 1;
            if p.word == words_per_row {
                p.word = 0;
                p.row += 1;
            }
        }
        if moved > 0 {
            self.stats.busy_cycles += 1;
        } else if denied {
            self.stats.stall_cycles += 1;
        }
        self.last_cause = if moved > 0 {
            StallCause::Active
        } else if denied {
            StallCause::BwDenied
        } else if yielded {
            StallCause::PortConflict
        } else {
            StallCause::Idle
        };
        if let Some(addr) = fault {
            self.abort(addr);
        } else if p.row >= t.reps {
            self.completed = self.completed.max(t.id + 1);
            self.stats.transfers += 1;
            self.active = None;
        } else {
            self.active = Some((t, p));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MemArray, MainMemory, Dma) {
        let tcdm = MemArray::new(0x0010_0000, 0x4_0000);
        let main = MainMemory::new(0x8000_0000, 1 << 20);
        let dma = Dma::new(0x0010_0000, 0x4_0000);
        (tcdm, main, dma)
    }

    /// Ticks `dma` to completion with a fresh bandwidth budget per
    /// cycle (what the cluster harness does), returning the cycles
    /// taken.
    fn drain(dma: &mut Dma, tcdm: &mut MemArray, main: &mut MainMemory) -> u64 {
        let mut cycles = 0;
        let mut claimed = vec![false; 32];
        while dma.busy() {
            main.begin_dma_cycle();
            claimed.fill(false);
            dma.tick(tcdm, main, &mut claimed, &[], false);
            cycles += 1;
            assert!(cycles < 10_000, "transfer did not finish");
        }
        cycles
    }

    #[test]
    fn one_dimensional_transfer_in() {
        let (mut tcdm, mut main, mut dma) = setup();
        for i in 0..32u32 {
            main.array_mut().store_u64(0x8000_0000 + i * 8, u64::from(i) + 1);
        }
        dma.set_src(0x8000_0000);
        dma.set_dst(0x0010_0000);
        let id = dma.start(32 * 8, false);
        assert_eq!(id, 0);
        let cycles = drain(&mut dma, &mut tcdm, &mut main);
        // 32 words at 8 words/cycle = 4 cycles.
        assert_eq!(cycles, 4);
        for i in 0..32u32 {
            assert_eq!(tcdm.load_u64(0x0010_0000 + i * 8), u64::from(i) + 1);
        }
        assert_eq!(dma.completed(), 1);
    }

    #[test]
    fn two_dimensional_transfer_tiles() {
        let (mut tcdm, mut main, mut dma) = setup();
        // A 4x4 f64 matrix with row stride 64 bytes in main memory;
        // gather a 4x2-word tile into contiguous TCDM rows.
        for row in 0..4u32 {
            for col in 0..8u32 {
                main.array_mut()
                    .store_u64(0x8000_0000 + row * 64 + col * 8, u64::from(row * 100 + col));
            }
        }
        dma.set_src(0x8000_0000);
        dma.set_dst(0x0010_0000);
        dma.set_strides(64, 16);
        dma.set_reps(4);
        dma.start(16, true);
        drain(&mut dma, &mut tcdm, &mut main);
        for row in 0..4u32 {
            assert_eq!(tcdm.load_u64(0x0010_0000 + row * 16), u64::from(row * 100));
            assert_eq!(tcdm.load_u64(0x0010_0000 + row * 16 + 8), u64::from(row * 100 + 1));
        }
    }

    #[test]
    fn transfer_out_writes_main_memory() {
        let (mut tcdm, mut main, mut dma) = setup();
        tcdm.store_u64(0x0010_0100, 0x77);
        dma.set_src(0x0010_0100);
        dma.set_dst(0x8000_0040);
        dma.start(8, false);
        let mut claimed = vec![false; 32];
        dma.tick(&mut tcdm, &mut main, &mut claimed, &[], false);
        assert_eq!(main.array().load_u64(0x8000_0040), 0x77);
        assert_eq!(dma.stats().words_out, 1);
        // The source bank was claimed.
        assert!(claimed[((0x0010_0100u32 / 8) as usize) % 32]);
    }

    #[test]
    fn transfers_queue_in_order() {
        let (mut tcdm, mut main, mut dma) = setup();
        main.array_mut().store_u64(0x8000_0000, 1);
        main.array_mut().store_u64(0x8000_1000, 2);
        dma.set_src(0x8000_0000);
        dma.set_dst(0x0010_0000);
        let id0 = dma.start(8, false);
        dma.set_src(0x8000_1000);
        dma.set_dst(0x0010_0008);
        let id1 = dma.start(8, false);
        assert_eq!((id0, id1), (0, 1));
        let mut claimed = vec![false; 32];
        // Two 1-word transfers need two cycles (one each).
        dma.tick(&mut tcdm, &mut main, &mut claimed, &[], false);
        assert_eq!(dma.completed(), 1);
        claimed.fill(false);
        dma.tick(&mut tcdm, &mut main, &mut claimed, &[], false);
        assert_eq!(dma.completed(), 2);
        assert_eq!(tcdm.load_u64(0x0010_0000), 1);
        assert_eq!(tcdm.load_u64(0x0010_0008), 2);
        assert!(!dma.busy());
    }

    /// A descriptor the engine cannot run — misaligned, outside either
    /// memory, main → main — moves nothing past the offending word,
    /// takes the queue behind it down and names the address once.
    #[test]
    fn bad_descriptors_fault_instead_of_panicking() {
        let (tcdm_base, main_base) = (0x0010_0000, 0x8000_0000);
        let main_top = main_base + (1 << 20);
        for (src, dst, size, addr, words) in [
            (main_base, tcdm_base, 12, main_base + 12, 0),
            (main_base + 4, tcdm_base, 8, main_base + 4, 0),
            (0, tcdm_base, 64, 0, 0),
            (main_base, main_base + 64, 64, main_base, 0),
            (tcdm_base, 0x4000_0000, 64, 0x4000_0000, 0),
            (main_top - 16, tcdm_base, 64, main_top, 2),
            (tcdm_base + 0x4_0000 - 8, tcdm_base, 16, tcdm_base + 0x4_0000, 2),
        ] {
            let (mut tcdm, mut main, mut dma) = setup();
            dma.set_src(src);
            dma.set_dst(dst);
            dma.start(size, false);
            dma.set_src(main_base);
            dma.set_dst(tcdm_base);
            dma.start(8, false);
            drain(&mut dma, &mut tcdm, &mut main);
            assert_eq!(dma.take_fault(), Some(addr), "{src:#x} -> {dst:#x}, {size} bytes");
            assert_eq!(dma.take_fault(), None);
            assert_eq!(dma.completed(), 0, "the queued transfer went down with it");
            // Words moved before the offending one (a local copy counts
            // each in both directions).
            assert_eq!(dma.stats().words_in + dma.stats().words_out, words);
        }
    }

    /// Guest strides wrap instead of overflowing the host's arithmetic.
    #[test]
    fn wrapping_strides_fault_on_the_first_word_outside() {
        let (mut tcdm, mut main, mut dma) = setup();
        dma.set_src(0x8000_0000);
        dma.set_dst(0x0010_0000);
        dma.set_strides(0xC000_0000, 8);
        dma.set_reps(3);
        dma.start(8, true);
        drain(&mut dma, &mut tcdm, &mut main);
        assert_eq!(dma.take_fault(), Some(0x4000_0000));
        assert_eq!(dma.stats().words_in, 1);
    }

    /// A zero-byte transfer retires without moving a word (and without
    /// hanging the engine on a row that can never advance).
    #[test]
    fn zero_size_transfer_completes_immediately() {
        let (mut tcdm, mut main, mut dma) = setup();
        dma.set_src(0x8000_0000);
        dma.set_dst(0x0010_0000);
        dma.start(0, false);
        let cycles = drain(&mut dma, &mut tcdm, &mut main);
        assert_eq!(cycles, 1);
        assert_eq!(dma.completed(), 1);
        let s = dma.stats();
        assert_eq!((s.words_in, s.words_out), (0, 0));
    }

    /// `dmrep 0` clamps to one repetition: the 2D transfer degenerates
    /// to a single row instead of moving nothing (or wrapping).
    #[test]
    fn zero_reps_clamp_to_one_row() {
        let (mut tcdm, mut main, mut dma) = setup();
        main.array_mut().store_u64(0x8000_0000, 0xBEEF);
        dma.set_src(0x8000_0000);
        dma.set_dst(0x0010_0000);
        dma.set_strides(64, 8);
        dma.set_reps(0);
        dma.start(8, true);
        drain(&mut dma, &mut tcdm, &mut main);
        assert_eq!(tcdm.load_u64(0x0010_0000), 0xBEEF);
        assert_eq!(dma.stats().words_in, 1);
    }

    /// Single-word rows: the strided gather advances rows after every
    /// word and lands each at its strided destination.
    #[test]
    fn two_dimensional_single_word_rows() {
        let (mut tcdm, mut main, mut dma) = setup();
        for row in 0..5u32 {
            main.array_mut().store_u64(0x8000_0000 + row * 40, u64::from(row) + 7);
        }
        dma.set_src(0x8000_0000);
        dma.set_dst(0x0010_0000);
        dma.set_strides(40, 8);
        dma.set_reps(5);
        dma.start(8, true);
        drain(&mut dma, &mut tcdm, &mut main);
        for row in 0..5u32 {
            assert_eq!(tcdm.load_u64(0x0010_0000 + row * 8), u64::from(row) + 7);
        }
        assert_eq!(dma.stats().words_in, 5);
    }

    /// TCDM → TCDM local copies never touch main memory (no wide beats,
    /// no budget draw) and count both word directions.
    #[test]
    fn local_copy_stays_inside_the_tcdm() {
        let (mut tcdm, mut main, mut dma) = setup();
        for i in 0..16u32 {
            tcdm.store_u64(0x0010_0000 + i * 8, u64::from(i) * 3);
        }
        dma.set_src(0x0010_0000);
        dma.set_dst(0x0012_0000);
        dma.start(16 * 8, false);
        drain(&mut dma, &mut tcdm, &mut main);
        for i in 0..16u32 {
            assert_eq!(tcdm.load_u64(0x0012_0000 + i * 8), u64::from(i) * 3);
        }
        assert_eq!(main.stats.wide_beats, 0, "local copies must bypass main memory");
        let s = dma.stats();
        assert_eq!((s.words_in, s.words_out), (16, 16));
    }

    /// A transfer whose last word lands exactly at the TCDM top stays
    /// classified as TCDM-bound for its entire extent.
    #[test]
    fn transfer_ending_exactly_at_tcdm_top() {
        let (mut tcdm, mut main, mut dma) = setup();
        let top = 0x0010_0000 + 0x4_0000;
        for i in 0..4u32 {
            main.array_mut().store_u64(0x8000_0100 + i * 8, u64::from(i) + 40);
        }
        dma.set_src(0x8000_0100);
        dma.set_dst(top - 32);
        dma.start(32, false);
        drain(&mut dma, &mut tcdm, &mut main);
        for i in 0..4u32 {
            assert_eq!(tcdm.load_u64(top - 32 + i * 8), u64::from(i) + 40);
        }
        assert_eq!(dma.stats().words_in, 4, "all four words are an inbound TCDM transfer");
    }

    /// The configured per-transfer access latency delays the first beat
    /// of main-memory transfers; local copies are exempt.
    #[test]
    fn dma_latency_charges_once_per_main_transfer() {
        let (mut tcdm, _, mut dma) = setup();
        let mut main = MainMemory::new(0x8000_0000, 1 << 20).with_dma_latency(3);
        dma.set_src(0x8000_0000);
        dma.set_dst(0x0010_0000);
        dma.start(8 * 8, false);
        // 3 startup cycles + 1 move cycle.
        assert_eq!(drain(&mut dma, &mut tcdm, &mut main), 4);
        tcdm.store_u64(0x0010_0000, 5);
        dma.set_src(0x0010_0000);
        dma.set_dst(0x0011_0000);
        dma.start(8, false);
        assert_eq!(drain(&mut dma, &mut tcdm, &mut main), 1, "local copies skip the latency");
    }

    /// Two engines sharing one memory each see roughly half the
    /// throughput: the bandwidth budget arbitrates, denials are counted.
    #[test]
    fn competing_streams_halve_throughput() {
        let words = 64u32;
        let solo = {
            let (mut tcdm, mut main, mut dma) = setup();
            dma.set_src(0x8000_0000);
            dma.set_dst(0x0010_0000);
            dma.start(words * 8, false);
            drain(&mut dma, &mut tcdm, &mut main)
        };
        let (mut tcdm, mut main, _) = setup();
        let mut tcdm_b = MemArray::new(0x0010_0000, 0x4_0000);
        let mut a = Dma::new(0x0010_0000, 0x4_0000);
        let mut b = Dma::new(0x0010_0000, 0x4_0000);
        a.set_src(0x8000_0000);
        a.set_dst(0x0010_0000);
        a.start(words * 8, false);
        b.set_src(0x8008_0000);
        b.set_dst(0x0010_0000);
        b.start(words * 8, false);
        let mut cycles = 0u64;
        let mut claimed = vec![false; 32];
        while a.busy() || b.busy() {
            main.begin_dma_cycle();
            claimed.fill(false);
            // Rotate the grant order (the system's round-robin).
            if cycles % 2 == 0 {
                a.tick(&mut tcdm, &mut main, &mut claimed, &[], false);
                b.tick(&mut tcdm_b, &mut main, &mut claimed, &[], false);
            } else {
                b.tick(&mut tcdm_b, &mut main, &mut claimed, &[], false);
                a.tick(&mut tcdm, &mut main, &mut claimed, &[], false);
            }
            cycles += 1;
            assert!(cycles < 10_000, "contended transfers did not finish");
        }
        assert!(
            cycles >= 2 * solo - 1,
            "two streams over one port must each see ~half throughput \
             (solo {solo}, contended {cycles})"
        );
        assert!(main.stats.dma_denied > 0, "contention must be counted");
        assert!(
            a.stats().stall_cycles + b.stats().stall_cycles > 0,
            "denied engines must record stalls"
        );
    }
}
