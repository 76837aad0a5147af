//! Cluster-external main memory.
//!
//! The paper models main memory as an ideal 512-bit duplex interface
//! (§IV-B): the DMA engine can move one 64-byte beat per cycle in each
//! direction. Cores can also reach main memory directly over the cluster
//! crossbar with a fixed (much higher) latency; the kernels only use this
//! for rare bookkeeping, all bulk traffic goes through the DMA.
//!
//! For the multi-cluster system the interface stops being ideal: every
//! cluster's DMA engine competes for the same wide port, so the memory
//! carries a configurable per-cycle word budget in each direction
//! ([`MainMemory::with_dma_bandwidth`]) plus a per-transfer access
//! latency ([`MainMemory::with_dma_latency`]). The single-cluster
//! defaults (8 words/cycle per direction, zero latency) reproduce the
//! paper's ideal port exactly.
//!
//! One word can be designated a **hardware fetch-and-add register**
//! ([`MainMemory::set_fetch_add_word`]): narrow reads return the current
//! value and post-increment it atomically (the memory serves one narrow
//! request at a time, so read-modify-write cannot interleave). The
//! multi-cluster kernels use it as the shared work-queue ticket counter
//! from which clusters claim row-panel tiles.

use crate::array::MemArray;
use crate::port::{MemOp, MemPort, MemRsp};

/// Contention-relevant counters of the shared main-memory interface.
#[derive(Clone, Copy, Debug, Default)]
pub struct MainMemStats {
    /// Narrow requests served (core-side accesses).
    pub narrow_accesses: u64,
    /// Wide words served (DMA side), reads + writes.
    pub wide_beats: u64,
    /// DMA word requests denied because the cycle's bandwidth budget was
    /// exhausted (each denial stalls the requesting engine one cycle).
    pub dma_denied: u64,
}

/// Wide main memory with a latency for narrow (core) accesses and a
/// per-cycle bandwidth budget on the wide (DMA) side.
#[derive(Clone, Debug)]
pub struct MainMemory {
    array: MemArray,
    narrow_latency: u64,
    /// DMA words served per cycle in each direction (512-bit duplex
    /// interface = 8; the shared system port divides this between
    /// clusters).
    dma_words_per_cycle: u32,
    /// Access latency charged once per DMA transfer touching this
    /// memory (burst setup; zero = the paper's ideal port).
    dma_latency: u64,
    /// Remaining read budget this cycle.
    budget_read: u32,
    /// Remaining write budget this cycle.
    budget_write: u32,
    /// Address of the hardware fetch-and-add word, if configured.
    fetch_add_addr: Option<u32>,
    /// Interface statistics.
    pub stats: MainMemStats,
}

impl MainMemory {
    /// Default narrow-access round-trip latency in cycles.
    pub const DEFAULT_NARROW_LATENCY: u64 = 25;
    /// Default wide-side bandwidth in words per cycle per direction
    /// (the paper's 512-bit duplex port).
    pub const DEFAULT_DMA_WORDS_PER_CYCLE: u32 = 8;

    /// Creates a main memory covering `[base, base + size)`.
    #[must_use]
    pub fn new(base: u32, size: u32) -> Self {
        Self {
            array: MemArray::new(base, size),
            narrow_latency: Self::DEFAULT_NARROW_LATENCY,
            dma_words_per_cycle: Self::DEFAULT_DMA_WORDS_PER_CYCLE,
            dma_latency: 0,
            budget_read: Self::DEFAULT_DMA_WORDS_PER_CYCLE,
            budget_write: Self::DEFAULT_DMA_WORDS_PER_CYCLE,
            fetch_add_addr: None,
            stats: MainMemStats::default(),
        }
    }

    /// Overrides the narrow-access latency.
    #[must_use]
    pub fn with_narrow_latency(mut self, latency: u64) -> Self {
        self.narrow_latency = latency.max(1);
        self
    }

    /// Overrides the wide-side bandwidth (words per cycle per
    /// direction). The budget is shared by every DMA engine ticked
    /// against this memory within one cycle — the contention model of
    /// the multi-cluster system.
    #[must_use]
    pub fn with_dma_bandwidth(mut self, words_per_cycle: u32) -> Self {
        self.dma_words_per_cycle = words_per_cycle.max(1);
        self.budget_read = self.dma_words_per_cycle;
        self.budget_write = self.dma_words_per_cycle;
        self
    }

    /// Overrides the per-transfer DMA access latency.
    #[must_use]
    pub fn with_dma_latency(mut self, latency: u64) -> Self {
        self.dma_latency = latency;
        self
    }

    /// Configured per-transfer DMA access latency.
    #[must_use]
    pub fn dma_latency(&self) -> u64 {
        self.dma_latency
    }

    /// Designates `addr` as the hardware fetch-and-add word: narrow
    /// reads return the stored value and post-increment it.
    pub fn set_fetch_add_word(&mut self, addr: u32) {
        self.fetch_add_addr = Some(addr);
    }

    /// The backing storage (for workload marshalling).
    #[must_use]
    pub fn array(&self) -> &MemArray {
        &self.array
    }

    /// Mutable backing storage.
    pub fn array_mut(&mut self) -> &mut MemArray {
        &mut self.array
    }

    /// Resets the per-cycle DMA word budget. Call exactly once per
    /// simulated cycle, before any DMA engine ticks against this
    /// memory (the standalone cluster and the system harness both do).
    pub fn begin_dma_cycle(&mut self) {
        self.budget_read = self.dma_words_per_cycle;
        self.budget_write = self.dma_words_per_cycle;
    }

    /// Serves narrow (64-bit) ports; one request per port per cycle, fixed
    /// latency, no contention (the crossbar is not the bottleneck in the
    /// paper's setup).
    ///
    /// Returns the access faults of the cycle as `(port position,
    /// address)`: a request outside the array reads as zero or is
    /// dropped, and the harness traps the port's owner.
    pub fn tick(&mut self, now: u64, ports: &mut [&mut MemPort]) -> Vec<(usize, u32)> {
        let mut faults = Vec::new();
        for (pi, port) in ports.iter_mut().enumerate() {
            if let Some(addr) = self.serve(now, port) {
                faults.push((pi, addr));
            }
        }
        faults
    }

    /// Serves `port`'s pending narrow request, if it has one — one port
    /// of [`MainMemory::tick`], for an interconnect that routes ports
    /// one at a time. Returns the faulting address if the request lies
    /// outside the array.
    pub fn serve(&mut self, now: u64, port: &mut MemPort) -> Option<u32> {
        let req = port.take_pending()?;
        self.stats.narrow_accesses += 1;
        if !self.array.contains(req.addr) {
            if req.is_read() {
                port.push_rsp(now + self.narrow_latency, MemRsp { data: 0 });
            }
            return Some(req.addr);
        }
        match req.op {
            MemOp::Read => {
                let data = self.array.read_word(req.addr);
                if self.fetch_add_addr == Some(req.addr) {
                    // Hardware fetch-and-add: atomic because the
                    // memory serves one request at a time.
                    self.array.write_word(req.addr, data.wrapping_add(1), 0xFF);
                }
                port.push_rsp(now + self.narrow_latency, MemRsp { data });
            }
            MemOp::Write { data, strb } => {
                self.array.write_word(req.addr, data, strb);
            }
        }
        None
    }

    /// DMA-side word read under the cycle's bandwidth budget; `None`
    /// denies the request (budget exhausted — the engine stalls).
    #[must_use]
    pub fn try_dma_read_word(&mut self, addr: u32) -> Option<u64> {
        if self.budget_read == 0 {
            self.stats.dma_denied += 1;
            return None;
        }
        self.budget_read -= 1;
        self.stats.wide_beats += 1;
        Some(self.array.read_word(addr))
    }

    /// DMA-side word write under the cycle's bandwidth budget; `false`
    /// denies the request (budget exhausted — the engine stalls).
    #[must_use]
    pub fn try_dma_write_word(&mut self, addr: u32, data: u64) -> bool {
        if self.budget_write == 0 {
            self.stats.dma_denied += 1;
            return false;
        }
        self.budget_write -= 1;
        self.stats.wide_beats += 1;
        self.array.write_word(addr, data, 0xFF);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::MemReq;

    #[test]
    fn narrow_access_has_latency() {
        let mut mem = MainMemory::new(0x8000_0000, 4096).with_narrow_latency(10);
        mem.array_mut().store_u64(0x8000_0010, 99);
        let mut p = MemPort::new();
        p.send(MemReq::read(0x8000_0010));
        mem.tick(0, &mut [&mut p]);
        assert_eq!(p.take_rsp(9), None);
        assert_eq!(p.take_rsp(10).unwrap().data, 99);
        assert_eq!(mem.stats.narrow_accesses, 1);
    }

    #[test]
    fn narrow_writes_apply_immediately() {
        let mut mem = MainMemory::new(0, 128);
        let mut p = MemPort::new();
        p.send(MemReq::write(0x18, 0xAB));
        mem.tick(3, &mut [&mut p]);
        assert_eq!(mem.array().load_u64(0x18), 0xAB);
    }

    #[test]
    fn out_of_range_narrow_access_reads_zero_and_reports_the_port() {
        let mut mem = MainMemory::new(0x8000_0000, 128).with_narrow_latency(2);
        let mut ok = MemPort::new();
        let mut past = MemPort::new();
        ok.send(MemReq::write(0x8000_0008, 5));
        past.send(MemReq::read(0x8000_0080));
        assert_eq!(mem.tick(0, &mut [&mut ok, &mut past]), vec![(1, 0x8000_0080)]);
        assert_eq!(past.take_rsp(2).unwrap().data, 0);
        assert_eq!(mem.array().load_u64(0x8000_0008), 5);
    }

    #[test]
    fn dma_budget_denies_past_bandwidth() {
        let mut mem = MainMemory::new(0, 256).with_dma_bandwidth(2);
        mem.begin_dma_cycle();
        assert!(mem.try_dma_read_word(0).is_some());
        assert!(mem.try_dma_read_word(8).is_some());
        assert!(mem.try_dma_read_word(16).is_none(), "third read must be denied");
        // Writes draw from their own (duplex) budget.
        assert!(mem.try_dma_write_word(0x20, 1));
        assert!(mem.try_dma_write_word(0x28, 2));
        assert!(!mem.try_dma_write_word(0x30, 3));
        assert_eq!(mem.stats.dma_denied, 2);
        mem.begin_dma_cycle();
        assert!(mem.try_dma_read_word(16).is_some(), "budget refills per cycle");
    }

    #[test]
    fn fetch_add_word_increments_on_read() {
        let mut mem = MainMemory::new(0, 128).with_narrow_latency(1);
        mem.set_fetch_add_word(0x40);
        for expect in 0..3u64 {
            let mut p = MemPort::new();
            p.send(MemReq::read(0x40));
            mem.tick(0, &mut [&mut p]);
            assert_eq!(p.take_rsp(1).unwrap().data, expect);
        }
        // Ordinary reads elsewhere do not increment.
        let mut p = MemPort::new();
        p.send(MemReq::read(0x48));
        mem.tick(0, &mut [&mut p]);
        assert_eq!(p.take_rsp(1).unwrap().data, 0);
        assert_eq!(mem.array().load_u64(0x48), 0);
    }

    #[test]
    fn two_ports_claim_distinct_tickets_in_one_cycle() {
        let mut mem = MainMemory::new(0, 128).with_narrow_latency(1);
        mem.set_fetch_add_word(0x10);
        let mut a = MemPort::new();
        let mut b = MemPort::new();
        a.send(MemReq::read(0x10));
        b.send(MemReq::read(0x10));
        mem.tick(0, &mut [&mut a, &mut b]);
        let ta = a.take_rsp(1).unwrap().data;
        let tb = b.take_rsp(1).unwrap().data;
        assert_eq!((ta, tb), (0, 1), "claims must serialize");
    }
}
