//! The index-stream front end: the indirection pipeline of Fig. 1.
//!
//! An index array is fetched as aligned 64-bit words through a
//! decoupling FIFO and unpacked by the 16/32-bit [`IndexSerializer`],
//! the words in flight limited to the FIFO space reserved for them. The
//! fetcher shares one memory port with whatever consumes the indices,
//! round-robin — hence the 4/5 (16-bit) and 2/3 (32-bit) peak data
//! rates. The stream units borrow this one mechanism and keep only what
//! they do with an index: [`crate::lane`] shifts it and adds a base,
//! [`crate::joiner`] compares two heads and fetches the value at the
//! stream position, [`crate::spacc`] union-merges it into the row
//! buffer. [`RoundRobin`] is the shared-port arbiter, [`Watchdog`] the
//! progress watchdog of the joiner and the SpAcc.

use crate::affine::AffineIterator;
use crate::fifo::Fifo;
use crate::lane::IDX_FIFO_DEPTH;
use crate::serializer::{IndexSerializer, IndexSize};

/// Word fetcher, decoupling FIFO, serializer, in-flight count, peeked head.
#[derive(Debug)]
pub(crate) struct IndexStream {
    word_it: AffineIterator,
    fifo: Fifo<u64>,
    serializer: IndexSerializer,
    in_flight: usize,
    per_word: u64,
    /// Filled by [`Self::refill_head`], cleared by the consumer.
    pub(crate) head: Option<u32>,
    taken: u64,
}

impl IndexStream {
    /// `count` indices from `idx_base` (element aligned, any word offset).
    pub(crate) fn new(idx_base: u32, idx_size: IndexSize, count: u64) -> Self {
        let words = IndexSerializer::words_needed(idx_size, idx_base, count);
        let mut word_it = AffineIterator::linear(idx_base & !7, words.max(1) as u32, 8);
        if words == 0 {
            // Zero-element stream: nothing to fetch.
            while word_it.next_addr().is_some() {}
        }
        Self {
            word_it,
            fifo: Fifo::new(IDX_FIFO_DEPTH),
            serializer: IndexSerializer::new(idx_size, idx_base, count),
            in_flight: 0,
            per_word: u64::from(idx_size.per_word()),
            head: None,
            taken: 0,
        }
    }

    /// Whether the fetcher requests the port: more words exist, FIFO
    /// space is reserved for every word in flight, and the indices held
    /// or paid for (head, serializer, FIFO, in flight) are down to one
    /// word's worth — the just-in-time policy behind the 4/5 and 2/3.
    pub(crate) fn wants_fetch(&self) -> bool {
        let headroom = u64::from(self.head.is_some())
            + self.serializer.buffered()
            + (self.fifo.len() + self.in_flight) as u64 * self.per_word;
        !self.word_it.is_done() && self.fifo.free() > self.in_flight && headroom <= self.per_word
    }

    /// Address of the next index word, in flight until accepted or discarded.
    pub(crate) fn fetch(&mut self) -> u32 {
        self.in_flight += 1;
        self.word_it.next_addr().expect("wants_fetch checked")
    }

    /// Buffers a returned index word.
    pub(crate) fn accept(&mut self, word: u64) {
        self.in_flight -= 1;
        self.fifo.push(word);
    }

    /// Drops a returned index word (a frozen unit only drains its port).
    pub(crate) fn discard(&mut self) {
        self.in_flight -= 1;
    }

    /// Index words requested whose responses have not returned.
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Whether [`Self::take`] would yield an index this cycle.
    pub(crate) fn can_take(&self) -> bool {
        self.serializer.index_ready() || (self.serializer.wants_word() && !self.fifo.is_empty())
    }

    /// Consumes the next index, pulling a word from the FIFO if needed.
    pub(crate) fn take(&mut self) -> u32 {
        if self.serializer.wants_word() {
            self.serializer.load_word(self.fifo.pop().expect("can_take checked"));
        }
        self.taken += 1;
        self.serializer.next_index().expect("can_take checked")
    }

    /// Peeks the next index into an empty `head`; whether it did.
    pub(crate) fn refill_head(&mut self) -> bool {
        let refill = self.head.is_none() && self.can_take();
        if refill {
            self.head = Some(self.take());
        }
        refill
    }

    /// Whether every index has been taken (a held head included).
    pub(crate) fn all_taken(&self) -> bool {
        self.serializer.is_done()
    }

    /// Whether the stream is fully consumed (no head, nothing left).
    pub(crate) fn exhausted(&self) -> bool {
        self.head.is_none() && self.all_taken()
    }

    /// Stream position of the held head.
    pub(crate) fn head_pos(&self) -> u64 {
        debug_assert!(self.head.is_some(), "no head to locate");
        self.taken - 1
    }
}

/// Two-requester round-robin arbiter for one shared port: under
/// contention the requester that was not granted last wins.
#[derive(Debug, Default)]
pub(crate) struct RoundRobin {
    first_won_last: bool,
}

impl RoundRobin {
    /// `Some(true)` grants the first requester, `Some(false)` the second.
    pub(crate) fn grant(&mut self, first: bool, second: bool) -> Option<bool> {
        let first_wins = match (first, second) {
            (false, false) => return None,
            (true, true) => !self.first_won_last,
            (first, _) => first,
        };
        self.first_won_last = first_wins;
        Some(first_wins)
    }
}

/// Progress watchdog: a live unit without progress for `limit` cycles
/// is deadlocked and latches a stall fault instead of hanging the run.
#[derive(Debug)]
pub(crate) struct Watchdog {
    limit: u64,
    stall: u64,
}

impl Watchdog {
    pub(crate) fn new() -> Self {
        Self { limit: crate::fault::STREAM_WATCHDOG_RESET, stall: 0 }
    }

    /// Sets the threshold in cycles (at least one).
    pub(crate) fn set_limit(&mut self, cycles: u64) {
        self.limit = cycles.max(1);
    }

    /// Forgets the stalled cycles counted so far.
    pub(crate) fn reset(&mut self) {
        self.stall = 0;
    }

    /// Accounts one cycle; the stalled-cycle count once it reaches the limit.
    pub(crate) fn observe(&mut self, live: bool, progressed: bool) -> Option<u64> {
        if progressed || !live {
            self.stall = 0;
            return None;
        }
        self.stall += 1;
        (self.stall >= self.limit).then_some(self.stall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The index word at aligned address `addr` of an array of `count`
    /// indices `100, 101, …` at `base`; foreign bytes read all-ones.
    fn word_at(addr: u32, base: u32, size: IndexSize, count: u64) -> u64 {
        (0..size.per_word()).fold(0, |word, slot| {
            let at = addr + slot * size.bytes();
            let pos = u64::from(at.wrapping_sub(base) / size.bytes());
            let idx = if at >= base && pos < count { 100 + pos } else { u64::MAX };
            let bits = 8 * size.bytes();
            word | (idx & ((1 << bits) - 1)) << (slot * bits)
        })
    }

    /// A stream with `words` index words fetched and buffered.
    fn primed(size: IndexSize, count: u64, words: usize) -> IndexStream {
        let mut s = IndexStream::new(0x1000, size, count);
        for _ in 0..words {
            let addr = s.fetch();
            s.accept(word_at(addr, 0x1000, size, count));
        }
        s
    }

    #[test]
    fn unaligned_base_fetches_words_needed_and_yields_count() {
        for (size, base, count) in [(IndexSize::U16, 0x1006, 9), (IndexSize::U32, 0x2004, 5)] {
            let mut s = IndexStream::new(base, size, count);
            let (mut addrs, mut idcs) = (Vec::new(), Vec::new());
            while !s.all_taken() {
                if s.wants_fetch() {
                    addrs.push(s.fetch());
                    s.accept(word_at(*addrs.last().unwrap(), base, size, count));
                } else {
                    idcs.push(s.take());
                }
            }
            let words = IndexSerializer::words_needed(size, base, count);
            assert_eq!(addrs, (0..words as u32).map(|w| (base & !7) + 8 * w).collect::<Vec<_>>());
            assert_eq!(idcs, (100..100 + count as u32).collect::<Vec<_>>());
            assert!(s.exhausted() && !s.wants_fetch() && !s.can_take());
        }
    }

    #[test]
    fn zero_count_stream_is_exhausted_at_once() {
        let mut s = IndexStream::new(0x1002, IndexSize::U16, 0);
        assert!(!s.wants_fetch() && !s.can_take() && !s.refill_head());
        assert!(s.all_taken() && s.exhausted());
    }

    /// One port action per cycle, responses a cycle later, a consumer
    /// that takes whenever the fetcher leaves it the port: after the
    /// two warm-up fetches there is one fetch per `per_word` takes —
    /// the 4/5 and 2/3 patterns — and never a fetch the FIFO has no
    /// room for.
    #[test]
    fn fetch_cadence_is_one_word_per_per_word_takes() {
        for size in [IndexSize::U16, IndexSize::U32] {
            let count = 40;
            let mut s = IndexStream::new(0x1000, size, count);
            let (mut takes, mut takes_at_fetch, mut cycles) = (0u64, Vec::new(), 0u64);
            let mut returning = None;
            while !s.all_taken() {
                if let Some(addr) = returning.take() {
                    s.accept(word_at(addr, 0x1000, size, count));
                }
                assert!(!s.wants_fetch() || s.fifo.len() + s.in_flight() < IDX_FIFO_DEPTH);
                if s.wants_fetch() {
                    returning = Some(s.fetch());
                    takes_at_fetch.push(takes);
                } else if s.can_take() {
                    s.take();
                    takes += 1;
                }
                cycles += 1;
            }
            let per_word = u64::from(size.per_word());
            assert_eq!(takes_at_fetch.len() as u64, count / per_word);
            assert_eq!(takes_at_fetch[..2], [0, 0], "warm-up runs two words ahead");
            assert!(takes_at_fetch[1..].windows(2).all(|w| w[1] - w[0] == per_word));
            // No idle cycle: per_word of every per_word + 1 carry data.
            assert_eq!(cycles, count + count / per_word);
        }
    }

    /// With two words buffered, consuming the first word's four indices
    /// brings the lane (plain `take`) down to one word's worth; the
    /// joiner and the SpAcc still hold the fourth as `head`, which
    /// counts, until they clear it.
    #[test]
    fn a_held_head_counts_toward_the_headroom() {
        let mut lane = primed(IndexSize::U16, 64, 2);
        assert!(!lane.wants_fetch());
        for _ in 0..4 {
            lane.take();
        }
        assert!(lane.wants_fetch());
        let mut joiner = primed(IndexSize::U16, 64, 2);
        for pos in 0..4 {
            joiner.head = None;
            assert!(joiner.refill_head());
            assert_eq!((joiner.head, joiner.head_pos()), (Some(100 + pos), u64::from(pos)));
            assert!(!joiner.refill_head(), "a held head is not replaced");
        }
        assert!(!joiner.wants_fetch());
        joiner.head = None;
        assert!(joiner.wants_fetch());
    }

    #[test]
    fn discard_releases_an_in_flight_word_without_buffering_it() {
        let mut s = IndexStream::new(0x1000, IndexSize::U32, 8);
        s.fetch();
        assert_eq!(s.in_flight(), 1);
        s.discard();
        assert_eq!(s.in_flight(), 0);
        assert!(!s.can_take());
    }

    #[test]
    fn round_robin_alternates_under_contention() {
        let mut rr = RoundRobin::default();
        let contended: Vec<_> = (0..4).map(|_| rr.grant(true, true)).collect();
        assert_eq!(contended, [Some(true), Some(false), Some(true), Some(false)]);
        // An empty cycle leaves the turn where it was.
        assert_eq!(rr.grant(false, false), None);
        assert_eq!(rr.grant(true, true), Some(true));
        // A lone requester is granted whatever the turn, and — as in
        // every unit before the arbiter was shared, which the committed
        // baselines pin — its grant is the last one: the other wins the
        // next contended cycle.
        assert_eq!(rr.grant(true, false), Some(true));
        assert_eq!(rr.grant(true, true), Some(false));
        assert_eq!(rr.grant(false, true), Some(false));
        assert_eq!(rr.grant(true, true), Some(true));
    }

    #[test]
    fn watchdog_fires_at_exactly_limit_stalled_live_cycles() {
        let mut dog = Watchdog::new();
        dog.set_limit(3);
        assert_eq!([dog.observe(true, false), dog.observe(true, false)], [None, None]);
        assert_eq!(dog.observe(true, false), Some(3));
        // Progress starts the count over; so does `reset`.
        assert_eq!(dog.observe(true, true), None);
        assert_eq!([dog.observe(true, false), dog.observe(true, false)], [None, None]);
        dog.reset();
        assert_eq!([dog.observe(true, false), dog.observe(true, false)], [None, None]);
        assert_eq!(dog.observe(true, false), Some(3));
        // A unit that is not live never stalls.
        dog.reset();
        assert!((0..10).all(|_| dog.observe(false, false).is_none()));
        dog.set_limit(0);
        assert_eq!(dog.observe(true, false), Some(1), "the limit is at least one cycle");
    }
}
