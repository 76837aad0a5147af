//! Instruction cache timing models.
//!
//! Each Snitch core complex has a small L0 line buffer feeding its fetch
//! stage; four cores in a *hive* share an L1 instruction cache (§II-C).
//! Kernels run from loops, so L0 hits dominate; misses appear on first
//! entry to a loop body and as occasional stalls in the cluster run, as
//! the paper notes in §IV-B.
//!
//! Only timing is modelled — instruction *bits* come from the program
//! image — so the caches track line tags, not contents.

/// Timing parameters of the instruction path.
#[derive(Clone, Copy, Debug)]
pub struct ICacheParams {
    /// L0 lines per core (fully associative, FIFO replacement).
    pub l0_lines: usize,
    /// Line size in bytes (instructions are 4 bytes).
    pub line_bytes: u32,
    /// L1 lines (direct-mapped).
    pub l1_lines: usize,
    /// Extra cycles for an L0 miss that hits L1.
    pub l1_hit_penalty: u64,
    /// Extra cycles for an L1 miss (refill from main memory).
    pub l1_miss_penalty: u64,
}

impl Default for ICacheParams {
    fn default() -> Self {
        Self {
            l0_lines: 4,
            line_bytes: 32,
            l1_lines: 256, // 8 KiB per hive
            l1_hit_penalty: 2,
            l1_miss_penalty: 20,
        }
    }
}

/// Per-core L0 line buffer.
#[derive(Clone, Debug)]
pub struct L0Buffer {
    /// `log2(line_bytes)`: a PC's line is a shift away.
    line_shift: u32,
    tags: Vec<Option<u32>>,
    fifo: usize,
    /// The line of the previous fetch. Only a miss evicts, and a miss
    /// makes its line the previous one, so this line is always resident.
    last: Option<u32>,
    /// Fetches that hit.
    pub hits: u64,
    /// Fetches that missed to L1.
    pub misses: u64,
}

impl L0Buffer {
    /// Creates an empty buffer.
    ///
    /// # Panics
    /// Panics if `line_bytes` is not a power of two or `l0_lines` is
    /// zero — a buffer that could not hold or address a line.
    #[must_use]
    pub fn new(params: ICacheParams) -> Self {
        assert!(params.line_bytes.is_power_of_two(), "L0 line size must be a power of two"); // gate-allow: host-API construction precondition
        assert!(params.l0_lines > 0, "L0 buffer needs at least one line"); // gate-allow: host-API construction precondition
        Self {
            line_shift: params.line_bytes.trailing_zeros(),
            tags: vec![None; params.l0_lines],
            fifo: 0,
            last: None,
            hits: 0,
            misses: 0,
        }
    }

    fn line_of(&self, pc: u32) -> u32 {
        pc >> self.line_shift
    }

    /// Looks up `pc`; on a miss the line is installed (the refill timing
    /// is accounted by the caller via the shared L1). Returns `true` on
    /// hit.
    pub fn fetch(&mut self, pc: u32) -> bool {
        let line = self.line_of(pc);
        let hit = self.last == Some(line) || self.tags.contains(&Some(line));
        self.last = Some(line);
        if hit {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        self.tags[self.fifo] = Some(line);
        self.fifo += 1;
        if self.fifo == self.tags.len() {
            self.fifo = 0;
        }
        false
    }
}

/// Shared (per-hive) L1 instruction cache, direct mapped.
#[derive(Clone, Debug)]
pub struct L1ICache {
    params: ICacheParams,
    tags: Vec<Option<u32>>,
    /// L0-miss lookups that hit.
    pub hits: u64,
    /// Lookups that went to main memory.
    pub misses: u64,
}

impl L1ICache {
    /// Creates an empty cache.
    ///
    /// # Panics
    /// Panics if `line_bytes` or `l1_lines` is zero.
    #[must_use]
    pub fn new(params: ICacheParams) -> Self {
        assert!(params.line_bytes > 0 && params.l1_lines > 0, "L1 needs lines of nonzero size"); // gate-allow: host-API construction precondition
        Self { params, tags: vec![None; params.l1_lines], hits: 0, misses: 0 }
    }

    /// Looks up the line containing `pc`, installing it on a miss.
    /// Returns the refill penalty in cycles.
    pub fn refill(&mut self, pc: u32) -> u64 {
        let line = pc / self.params.line_bytes;
        let set = (line as usize) % self.tags.len();
        if self.tags[set] == Some(line) {
            self.hits += 1;
            self.params.l1_hit_penalty
        } else {
            self.misses += 1;
            self.tags[set] = Some(line);
            self.params.l1_miss_penalty
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l0_hits_within_a_loop() {
        let mut l0 = L0Buffer::new(ICacheParams::default());
        // An 8-instruction loop fits one 32-byte line.
        assert!(!l0.fetch(0x40)); // cold miss
        for _ in 0..100 {
            for pc in (0x40..0x60).step_by(4) {
                assert!(l0.fetch(pc));
            }
        }
        assert_eq!(l0.misses, 1);
    }

    #[test]
    fn l0_fifo_eviction() {
        let params = ICacheParams { l0_lines: 2, ..ICacheParams::default() };
        let mut l0 = L0Buffer::new(params);
        assert!(!l0.fetch(0x00));
        assert!(!l0.fetch(0x20));
        assert!(l0.fetch(0x04));
        assert!(!l0.fetch(0x40)); // evicts line 0
        assert!(!l0.fetch(0x00)); // line 0 gone again
    }

    /// Geometry the lookup cannot divide by is a construction error,
    /// not a division by zero on the first fetch.
    #[test]
    fn degenerate_geometry_is_rejected_at_construction() {
        let bad = [
            ICacheParams { line_bytes: 0, ..ICacheParams::default() },
            ICacheParams { line_bytes: 24, ..ICacheParams::default() },
            ICacheParams { l0_lines: 0, ..ICacheParams::default() },
        ];
        for params in bad {
            assert!(std::panic::catch_unwind(|| L0Buffer::new(params)).is_err(), "{params:?}");
        }
        let no_l1 = ICacheParams { l1_lines: 0, ..ICacheParams::default() };
        assert!(std::panic::catch_unwind(|| L1ICache::new(no_l1)).is_err());
    }

    #[test]
    fn l1_miss_then_hit_penalties() {
        let params = ICacheParams::default();
        let mut l1 = L1ICache::new(params);
        assert_eq!(l1.refill(0x100), params.l1_miss_penalty);
        assert_eq!(l1.refill(0x104), params.l1_hit_penalty);
        assert_eq!(l1.misses, 1);
        assert_eq!(l1.hits, 1);
    }

    #[test]
    fn l1_direct_mapped_conflicts() {
        let params = ICacheParams { l1_lines: 2, ..ICacheParams::default() };
        let mut l1 = L1ICache::new(params);
        let a = 0x000; // line 0, set 0
        let b = 0x080; // line 4, set 0 (with 2 sets: 4 % 2 == 0)
        assert_eq!(l1.refill(a), params.l1_miss_penalty);
        assert_eq!(l1.refill(b), params.l1_miss_penalty);
        assert_eq!(l1.refill(a), params.l1_miss_penalty); // evicted by b
    }
}
