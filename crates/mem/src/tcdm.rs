//! The cluster-local tightly-coupled data memory (TCDM).
//!
//! The paper's cluster has 32 banks of 8 KiB (256 KiB total),
//! word-interleaved, with single-cycle access and one grant per bank per
//! cycle; contending masters are arbitrated round-robin. Indirection's
//! random access patterns make bank conflicts the dominant cluster-level
//! loss (peak FPU utilization 0.8 → 0.71 in the paper, §IV-B).
//!
//! The same type also models the *ideal two-port data memory* used for
//! the paper's single-core experiments (§IV-A) by constructing it with
//! [`Tcdm::ideal`], which serves every port independently each cycle.

use crate::array::MemArray;
use crate::port::{MemOp, MemPort, MemRsp};

/// Statistics accumulated by the TCDM.
#[derive(Clone, Copy, Debug, Default)]
pub struct TcdmStats {
    /// Requests granted (reads + writes).
    pub grants: u64,
    /// Requests deferred because their bank was taken this cycle.
    pub conflicts: u64,
    /// Requests deferred because the DMA engine claimed the bank.
    pub dma_conflicts: u64,
}

impl issr_trace::StatMerge for TcdmStats {
    fn merge_from(&mut self, other: &Self) {
        self.grants += other.grants;
        self.conflicts += other.conflicts;
        self.dma_conflicts += other.dma_conflicts;
    }
}

/// Banked, word-interleaved scratchpad memory.
#[derive(Clone, Debug)]
pub struct Tcdm {
    array: MemArray,
    /// Bank count minus one: a power-of-two bank count makes the bank
    /// of a word its low index bits.
    bank_mask: usize,
    /// `None` models an ideal multi-port memory (no arbitration).
    rr_next: Option<Vec<usize>>,
    /// Arbitration scratch: each bank's contender mask, by port
    /// position. All zero between ticks — a tick clears only the banks
    /// it set.
    bank_ports: Vec<u64>,
    stats: TcdmStats,
    /// The adversarial arbiter, built only by [`Tcdm::enable_jitter`].
    jitter: Option<Box<Jitter>>,
}

/// A test-only adversarial arbiter: a seeded xorshift that withholds
/// each pending request from a cycle's arbitration with a fixed
/// probability. A withheld request waits and counts as a conflict — the
/// same event as losing its bank to another master, only more often —
/// so a kernel whose result depends on one schedule shows it.
#[derive(Clone, Debug)]
struct Jitter {
    state: u64,
    /// A draw below this withholds the request.
    threshold: u64,
}

impl Jitter {
    fn withhold(&mut self) -> bool {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x < self.threshold
    }
}

impl Tcdm {
    /// Creates a banked TCDM with round-robin per-bank arbitration.
    ///
    /// # Panics
    /// Panics if `n_banks` is zero or not a power of two.
    #[must_use]
    pub fn banked(base: u32, size: u32, n_banks: usize) -> Self {
        assert!(n_banks.is_power_of_two() && n_banks > 0, "bank count must be a power of two"); // gate-allow: host-API construction precondition
        assert!(n_banks <= 64, "bank count must fit the arbitration mask"); // gate-allow: host-API construction precondition
        Self {
            array: MemArray::new(base, size),
            bank_mask: n_banks - 1,
            rr_next: Some(vec![0; n_banks]),
            bank_ports: vec![0; n_banks],
            stats: TcdmStats::default(),
            jitter: None,
        }
    }

    /// Creates an ideal conflict-free memory (one implicit bank per port),
    /// as used in the paper's single-CC evaluation.
    #[must_use]
    pub fn ideal(base: u32, size: u32) -> Self {
        Self {
            array: MemArray::new(base, size),
            bank_mask: 0,
            rr_next: None,
            bank_ports: Vec::new(),
            stats: TcdmStats::default(),
            jitter: None,
        }
    }

    /// Arms the adversarial arbiter (tests only): from now on each
    /// pending request of a banked TCDM sits out a cycle's arbitration
    /// with probability `p`, drawn from a xorshift seeded with `seed`,
    /// and counts as a conflict. Results that depend on the schedule
    /// then differ from the default run's; timing claims do not hold
    /// under it. A TCDM that never arms it carries no generator, and its
    /// arbitration pays one untaken branch a cycle. Ideal memory has no
    /// arbitration to perturb and ignores it.
    pub fn enable_jitter(&mut self, seed: u64, p: f64) {
        // A zero state would stay zero; the odd constant keeps it moving.
        let state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let threshold = (p.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
        self.jitter = Some(Box::new(Jitter { state, threshold }));
    }

    /// The backing storage (for workload marshalling).
    #[must_use]
    pub fn array(&self) -> &MemArray {
        &self.array
    }

    /// Mutable backing storage (for workload marshalling and the DMA).
    pub fn array_mut(&mut self) -> &mut MemArray {
        &mut self.array
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> TcdmStats {
        self.stats
    }

    /// Bank index of a byte address (word-interleaved).
    #[must_use]
    #[inline]
    pub fn bank_of(&self, addr: u32) -> usize {
        (addr / 8) as usize & self.bank_mask
    }

    /// Services the ports for one cycle.
    ///
    /// `now` is the current cycle; read responses become visible at
    /// `now + 1`. `dma_claimed` marks banks the DMA engine occupies this
    /// cycle (it has priority, as in the Snitch cluster); pass `&[]` when
    /// no DMA is present. Accepts both owned port slices
    /// (`&mut [MemPort]`) and collected references (`&mut [&mut
    /// MemPort]`); the port's *position in the slice* is its identity
    /// for round-robin arbitration.
    ///
    /// Returns the access faults of the cycle as `(port position,
    /// address)`: a granted request outside the array reads as zero or
    /// is dropped, and the harness traps the port's owner.
    pub fn tick<P: std::borrow::BorrowMut<MemPort>>(
        &mut self,
        now: u64,
        ports: &mut [P],
        dma_claimed: &[bool],
    ) -> Vec<(usize, u32)> {
        self.tick_skipping(now, ports, 0, dma_claimed)
    }

    /// [`Tcdm::tick`] over the ports whose bit in `skip` is clear (bit
    /// *i* is `ports[i]`): a skipped port — one the interconnect routed
    /// to another memory this cycle — is invisible to the arbitration,
    /// exactly as if the slice had been collected without it. A port's
    /// position, for round-robin and in the returned faults, is its
    /// rank among the ports that remain.
    pub fn tick_skipping<P: std::borrow::BorrowMut<MemPort>>(
        &mut self,
        now: u64,
        ports: &mut [P],
        skip: u64,
        dma_claimed: &[bool],
    ) -> Vec<(usize, u32)> {
        let mut faults = Vec::new();
        assert!(ports.len() <= 64, "port count must fit the arbitration mask"); // gate-allow: host-API construction precondition
        match self.rr_next.take() {
            None => {
                // Ideal memory: grant every pending request.
                let mut pi = 0;
                for (slot, port) in ports.iter_mut().enumerate() {
                    if skip >> slot & 1 != 0 {
                        continue;
                    }
                    let port = port.borrow_mut();
                    if let Some(req) = port.take_pending() {
                        if !self.serve(now, req, port) {
                            faults.push((pi, req.addr));
                        }
                    }
                    pi += 1;
                }
            }
            Some(mut rr) => {
                // Bitmask arbitration: one pass over the ports builds a
                // per-bank contender mask, then each active bank grants
                // in O(1) — the first contender at or after its
                // round-robin pointer is two shifts and a trailing-zero
                // count, with no rescan of the port list. Bank counts
                // are powers of two and ≤ 64 in every configuration
                // (the paper's cluster has 32), and a cluster exposes
                // at most 64 ports, so u64 masks always suffice.
                debug_assert!(self.bank_mask < 64, "bank mask width");
                // Slice slot of each contender, by position.
                let mut slot_of = [0u8; 64];
                let mut active: u64 = 0;
                let mut pending_mask: u64 = 0;
                let mut n = 0;
                for (slot, port) in ports.iter_mut().enumerate() {
                    if skip >> slot & 1 != 0 {
                        continue;
                    }
                    if let Some(req) = port.borrow_mut().pending() {
                        let bank = self.bank_of(req.addr);
                        active |= 1 << bank;
                        self.bank_ports[bank] |= 1 << n;
                        slot_of[n] = slot as u8;
                        pending_mask |= 1 << n;
                    }
                    n += 1;
                }
                if let Some(mut jitter) = self.jitter.take() {
                    // Withheld contenders leave their bank's mask and stay
                    // pending, so the count below charges them a conflict.
                    let mut pending = pending_mask;
                    while pending != 0 {
                        let pi = pending.trailing_zeros() as usize;
                        pending &= pending - 1;
                        if jitter.withhold() {
                            let port = ports[usize::from(slot_of[pi])].borrow_mut();
                            let bank = self.bank_of(port.pending().expect("contender").addr);
                            self.bank_ports[bank] &= !(1 << pi);
                            if self.bank_ports[bank] == 0 {
                                active &= !(1 << bank);
                            }
                        }
                    }
                    self.jitter = Some(jitter);
                }
                let mut served_mask: u64 = 0;
                // Each active bank (ascending) grants its first
                // contender at or after the round-robin pointer,
                // wrapping. A port carries at most one request, so the
                // contender is still pending when its bank is reached.
                while active != 0 {
                    let bank = active.trailing_zeros() as usize;
                    active &= active - 1;
                    // Taking the mask leaves the scratch all zero again.
                    let m = std::mem::take(&mut self.bank_ports[bank]);
                    if dma_claimed.get(bank).copied().unwrap_or(false) {
                        continue;
                    }
                    // The pointer may exceed the current port count (the
                    // count shrinks when ports route to main memory);
                    // the scan always started from `rr % n`.
                    let start = if rr[bank] < n { rr[bank] } else { rr[bank] % n };
                    let wrapped = m >> start;
                    let pi = if wrapped != 0 {
                        start + wrapped.trailing_zeros() as usize
                    } else {
                        m.trailing_zeros() as usize
                    };
                    let port = ports[usize::from(slot_of[pi])].borrow_mut();
                    let req = port.take_pending().expect("contender tracked pending");
                    if !self.serve(now, req, port) {
                        faults.push((pi, req.addr));
                    }
                    rr[bank] = if pi + 1 == n { 0 } else { pi + 1 };
                    served_mask |= 1 << pi;
                }
                // Count contention on ports still pending.
                let mut waiting = pending_mask & !served_mask;
                while waiting != 0 {
                    let pi = waiting.trailing_zeros() as usize;
                    waiting &= waiting - 1;
                    let port = ports[usize::from(slot_of[pi])].borrow_mut();
                    let bank = self.bank_of(port.pending().expect("still waiting").addr);
                    if dma_claimed.get(bank).copied().unwrap_or(false) {
                        self.stats.dma_conflicts += 1;
                    } else {
                        self.stats.conflicts += 1;
                    }
                    port.note_wait();
                }
                self.rr_next = Some(rr);
            }
        }
        faults
    }

    /// Serves one granted request; `false` if its address lies outside
    /// the array (the read returns zero, the write is dropped).
    fn serve(&mut self, now: u64, req: crate::port::MemReq, port: &mut MemPort) -> bool {
        self.stats.grants += 1;
        if !self.array.contains(req.addr) {
            if req.is_read() {
                port.push_rsp(now + 1, MemRsp { data: 0 });
            }
            return false;
        }
        match req.op {
            MemOp::Read => {
                let data = self.array.read_word(req.addr);
                port.push_rsp(now + 1, MemRsp { data });
            }
            MemOp::Write { data, strb } => {
                self.array.write_word(req.addr, data, strb);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::MemReq;

    #[test]
    fn ideal_memory_serves_all_ports_every_cycle() {
        let mut tcdm = Tcdm::ideal(0, 256);
        tcdm.array_mut().store_u64(0x10, 42);
        tcdm.array_mut().store_u64(0x18, 43);
        let mut p0 = MemPort::new();
        let mut p1 = MemPort::new();
        p0.send(MemReq::read(0x10));
        p1.send(MemReq::read(0x18));
        tcdm.tick(0, &mut [&mut p0, &mut p1], &[]);
        assert_eq!(p0.take_rsp(1).unwrap().data, 42);
        assert_eq!(p1.take_rsp(1).unwrap().data, 43);
        assert_eq!(tcdm.stats().conflicts, 0);
    }

    /// The adversarial arbiter withholds requests and charges each a
    /// conflict, but every request is served in the end: at p = 0.5 four
    /// reads of distinct banks take more than one cycle and still return
    /// their words; at p = 1 nothing is granted.
    #[test]
    fn jitter_withholds_requests_as_conflicts() {
        let mut tcdm = Tcdm::banked(0, 256, 4);
        for i in 0..4u32 {
            tcdm.array_mut().store_u64(8 * i, 10 + u64::from(i));
        }
        tcdm.enable_jitter(3, 0.5);
        let mut ports: Vec<MemPort> = (0..4).map(|_| MemPort::new()).collect();
        for (i, p) in ports.iter_mut().enumerate() {
            p.send(MemReq::read(8 * i as u32));
        }
        let mut now = 0;
        while ports.iter().any(|p| p.pending().is_some()) {
            tcdm.tick(now, &mut ports, &[]);
            now += 1;
            assert!(now < 100, "the arbiter starves a request");
        }
        assert!(now > 1 && tcdm.stats().conflicts > 0, "{now} cycles, {:?}", tcdm.stats());
        assert_eq!(tcdm.stats().grants, 4);
        for (i, p) in ports.iter_mut().enumerate() {
            let data = (0..=now).find_map(|t| p.take_rsp(t)).expect("served").data;
            assert_eq!(data, 10 + i as u64);
        }
        let mut all = Tcdm::banked(0, 256, 4);
        all.enable_jitter(3, 1.0);
        let mut p = MemPort::new();
        p.send(MemReq::read(0));
        all.tick(0, &mut [&mut p], &[]);
        assert_eq!((all.stats().grants, all.stats().conflicts), (0, 1));
    }

    #[test]
    fn responses_not_visible_same_cycle() {
        let mut tcdm = Tcdm::ideal(0, 64);
        let mut p = MemPort::new();
        p.send(MemReq::read(0x0));
        tcdm.tick(7, &mut [&mut p], &[]);
        assert_eq!(p.take_rsp(7), None);
        assert!(p.take_rsp(8).is_some());
    }

    #[test]
    fn same_bank_requests_conflict() {
        // 2 banks: addresses 0x00 and 0x10 are both bank 0.
        let mut tcdm = Tcdm::banked(0, 256, 2);
        tcdm.array_mut().store_u64(0x00, 1);
        tcdm.array_mut().store_u64(0x10, 2);
        let mut p0 = MemPort::new();
        let mut p1 = MemPort::new();
        p0.send(MemReq::read(0x00));
        p1.send(MemReq::read(0x10));
        tcdm.tick(0, &mut [&mut p0, &mut p1], &[]);
        // Exactly one granted, the other still pending.
        let served = usize::from(p0.can_send()) + usize::from(p1.can_send());
        assert_eq!(served, 1);
        assert_eq!(tcdm.stats().conflicts, 1);
        tcdm.tick(1, &mut [&mut p0, &mut p1], &[]);
        assert!(p0.can_send() && p1.can_send());
    }

    #[test]
    fn different_banks_proceed_in_parallel() {
        let mut tcdm = Tcdm::banked(0, 256, 2);
        let mut p0 = MemPort::new();
        let mut p1 = MemPort::new();
        p0.send(MemReq::read(0x00)); // bank 0
        p1.send(MemReq::read(0x08)); // bank 1
        tcdm.tick(0, &mut [&mut p0, &mut p1], &[]);
        assert!(p0.can_send() && p1.can_send());
        assert_eq!(tcdm.stats().conflicts, 0);
    }

    #[test]
    fn round_robin_rotates_grants() {
        let mut tcdm = Tcdm::banked(0, 256, 1);
        let mut p0 = MemPort::new();
        let mut p1 = MemPort::new();
        // Cycle 0: both contend for bank 0; pointer starts at port 0.
        p0.send(MemReq::read(0x00));
        p1.send(MemReq::read(0x08));
        tcdm.tick(0, &mut [&mut p0, &mut p1], &[]);
        assert!(p0.can_send());
        assert!(!p1.can_send());
        // Cycle 1: p1 is granted; re-arm p0 — pointer now favours p1.
        p0.send(MemReq::read(0x00));
        tcdm.tick(1, &mut [&mut p0, &mut p1], &[]);
        assert!(p1.can_send());
        assert!(!p0.can_send());
    }

    #[test]
    fn dma_claim_blocks_bank() {
        let mut tcdm = Tcdm::banked(0, 256, 2);
        let mut p = MemPort::new();
        p.send(MemReq::read(0x00)); // bank 0
        tcdm.tick(0, &mut [&mut p], &[true, false]);
        assert!(!p.can_send());
        assert_eq!(tcdm.stats().dma_conflicts, 1);
        tcdm.tick(1, &mut [&mut p], &[false, false]);
        assert!(p.can_send());
    }

    /// Skipping ports by mask arbitrates exactly like collecting the
    /// remaining ports into a shorter slice: same grants, same waits,
    /// same round-robin pointers, cycle after cycle — with the skipped
    /// set (and so the port count the pointers wrap at) changing.
    #[test]
    fn skip_mask_matches_a_collected_slice() {
        const N: usize = 7;
        let mut collected = Tcdm::banked(0, 1024, 4);
        let mut masked = collected.clone();
        let mut a: Vec<MemPort> = (0..N).map(|_| MemPort::new()).collect();
        let mut b = a.clone();
        let mut lcg = 12345u32;
        let mut next = move || {
            lcg = lcg.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            lcg >> 16
        };
        for now in 0..400 {
            let skip = u64::from(next()) & ((1 << N) - 1);
            let dma = [next() % 4 == 0, false, next() % 3 == 0, false];
            for (pa, pb) in a.iter_mut().zip(&mut b) {
                let _ = (pa.take_rsp(now), pb.take_rsp(now));
                if pa.can_send() && next() % 3 != 0 {
                    // Few banks, many ports: conflicts every cycle.
                    let req = MemReq::read((next() % 16) * 8);
                    pa.send(req);
                    pb.send(req);
                }
            }
            let mut refs: Vec<&mut MemPort> = a
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| skip >> i & 1 == 0)
                .map(|(_, p)| p)
                .collect();
            let fa = collected.tick(now, &mut refs, &dma);
            let fb = masked.tick_skipping(now, &mut b, skip, &dma);
            assert_eq!(fa, fb);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "cycle {now}");
            assert_eq!(format!("{collected:?}"), format!("{masked:?}"), "cycle {now}");
        }
        assert!(collected.stats().conflicts > 100 && collected.stats().dma_conflicts > 10);
    }

    #[test]
    fn writes_update_storage() {
        let mut tcdm = Tcdm::ideal(0x100, 64);
        let mut p = MemPort::new();
        p.send(MemReq::write(0x108, 0x55));
        tcdm.tick(0, &mut [&mut p], &[]);
        assert_eq!(tcdm.array().load_u64(0x108), 0x55);
    }

    /// A guest address outside the array faults instead of panicking:
    /// the read completes with zero, the write is dropped, and both
    /// are reported with their port position — ideal or banked.
    #[test]
    fn out_of_range_access_reads_zero_and_reports_the_port() {
        for mut tcdm in [Tcdm::ideal(0x100, 64), Tcdm::banked(0x100, 64, 4)] {
            let mut ok = MemPort::new();
            let mut below = MemPort::new();
            let mut above = MemPort::new();
            ok.send(MemReq::write(0x108, 7));
            below.send(MemReq::read(0x0));
            above.send(MemReq::write(0x150, 9)); // three distinct banks
            let faults = tcdm.tick(0, &mut [&mut ok, &mut below, &mut above], &[]);
            assert_eq!(faults, vec![(1, 0x0), (2, 0x150)]);
            assert_eq!(below.take_rsp(1).unwrap().data, 0);
            assert!(above.can_send(), "the dropped write still frees the port");
            assert_eq!(tcdm.array().load_u64(0x108), 7);
        }
    }

    #[test]
    fn bank_mapping_is_word_interleaved() {
        let tcdm = Tcdm::banked(0, 1 << 18, 32);
        assert_eq!(tcdm.bank_of(0x00), 0);
        assert_eq!(tcdm.bank_of(0x08), 1);
        assert_eq!(tcdm.bank_of(0xF8), 31);
        assert_eq!(tcdm.bank_of(0x100), 0);
    }
}
