//! Backing storage for simulated memories.
//!
//! All data ports in the system are 64 bits wide (the TCDM word size);
//! sub-word accesses are expressed with byte strobes, exactly like the
//! write lanes of an SRAM macro. The array also offers host-side typed
//! accessors used to marshal workloads in and results out.

/// A flat, word-addressed memory region.
#[derive(Clone, Debug)]
pub struct MemArray {
    base: u32,
    words: Vec<u64>,
}

impl MemArray {
    /// Creates a zero-initialized region covering `[base, base + size)`.
    ///
    /// # Panics
    /// Panics if `base` or `size` is not 8-byte aligned.
    #[must_use]
    pub fn new(base: u32, size: u32) -> Self {
        assert_eq!(base % 8, 0, "region base must be 8-byte aligned"); // gate-allow: host-API construction precondition
        assert_eq!(size % 8, 0, "region size must be 8-byte aligned"); // gate-allow: host-API construction precondition
        Self { base, words: vec![0; (size / 8) as usize] }
    }

    /// First byte address of the region.
    #[must_use]
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Region size in bytes.
    #[must_use]
    pub fn size(&self) -> u32 {
        (self.words.len() * 8) as u32
    }

    /// Whether `addr` falls inside the region.
    #[must_use]
    #[inline]
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.base && (u64::from(addr) - u64::from(self.base)) < u64::from(self.size())
    }

    fn word_index(&self, addr: u32) -> usize {
        debug_assert!(self.contains(addr), "address {addr:#010x} outside region");
        ((addr - self.base) / 8) as usize
    }

    /// Reads the aligned 64-bit word containing `addr`.
    #[must_use]
    #[inline]
    pub fn read_word(&self, addr: u32) -> u64 {
        self.words[self.word_index(addr)]
    }

    /// Writes byte lanes of the aligned word containing `addr` selected by
    /// `strb` (bit *i* enables byte *i*).
    #[inline]
    pub fn write_word(&mut self, addr: u32, data: u64, strb: u8) {
        let idx = self.word_index(addr);
        if strb == 0xFF {
            self.words[idx] = data;
            return;
        }
        let mut mask: u64 = 0;
        for byte in 0..8 {
            if strb & (1 << byte) != 0 {
                mask |= 0xFF << (byte * 8);
            }
        }
        self.words[idx] = (self.words[idx] & !mask) | (data & mask);
    }

    // ---- host-side marshalling helpers ----

    /// Writes a `u64` at an 8-byte-aligned address.
    pub fn store_u64(&mut self, addr: u32, value: u64) {
        assert_eq!(addr % 8, 0, "store_u64 requires 8-byte alignment"); // gate-allow: host-API alignment precondition
        let idx = self.word_index(addr);
        self.words[idx] = value;
    }

    /// Reads a `u64` from an 8-byte-aligned address.
    #[must_use]
    pub fn load_u64(&self, addr: u32) -> u64 {
        assert_eq!(addr % 8, 0, "load_u64 requires 8-byte alignment"); // gate-allow: host-API alignment precondition
        self.read_word(addr)
    }

    /// Writes an `f64` at an 8-byte-aligned address.
    pub fn store_f64(&mut self, addr: u32, value: f64) {
        self.store_u64(addr, value.to_bits());
    }

    /// Reads an `f64` from an 8-byte-aligned address.
    #[must_use]
    pub fn load_f64(&self, addr: u32) -> f64 {
        f64::from_bits(self.load_u64(addr))
    }

    /// Writes a `u32` at a 4-byte-aligned address.
    pub fn store_u32(&mut self, addr: u32, value: u32) {
        assert_eq!(addr % 4, 0, "store_u32 requires 4-byte alignment"); // gate-allow: host-API alignment precondition
        let shift = (addr % 8) * 8;
        let strb = 0x0F << (addr % 8);
        self.write_word(addr & !7, u64::from(value) << shift, strb as u8);
    }

    /// Reads a `u32` from a 4-byte-aligned address.
    #[must_use]
    pub fn load_u32(&self, addr: u32) -> u32 {
        assert_eq!(addr % 4, 0, "load_u32 requires 4-byte alignment"); // gate-allow: host-API alignment precondition
        let shift = (addr % 8) * 8;
        (self.read_word(addr & !7) >> shift) as u32
    }

    /// Writes a `u16` at a 2-byte-aligned address.
    pub fn store_u16(&mut self, addr: u32, value: u16) {
        assert_eq!(addr % 2, 0, "store_u16 requires 2-byte alignment"); // gate-allow: host-API alignment precondition
        let shift = (addr % 8) * 8;
        let strb = 0x03 << (addr % 8);
        self.write_word(addr & !7, u64::from(value) << shift, strb as u8);
    }

    /// Reads a `u16` from a 2-byte-aligned address.
    #[must_use]
    pub fn load_u16(&self, addr: u32) -> u16 {
        assert_eq!(addr % 2, 0, "load_u16 requires 2-byte alignment"); // gate-allow: host-API alignment precondition
        let shift = (addr % 8) * 8;
        (self.read_word(addr & !7) >> shift) as u16
    }

    /// Copies a slice of doubles into memory starting at `addr`.
    pub fn store_f64_slice(&mut self, addr: u32, values: &[f64]) {
        for (i, &v) in values.iter().enumerate() {
            self.store_f64(addr + (i as u32) * 8, v);
        }
    }

    /// Reads `len` doubles starting at `addr`.
    #[must_use]
    pub fn load_f64_slice(&self, addr: u32, len: usize) -> Vec<f64> {
        (0..len).map(|i| self.load_f64(addr + (i as u32) * 8)).collect()
    }

    /// Reads `len` `u32` values starting at `addr`.
    #[must_use]
    pub fn load_u32_slice(&self, addr: u32, len: usize) -> Vec<u32> {
        (0..len).map(|i| self.load_u32(addr + i as u32 * 4)).collect()
    }

    /// Reads `len` `u16` values starting at `addr`.
    #[must_use]
    pub fn load_u16_slice(&self, addr: u32, len: usize) -> Vec<u16> {
        (0..len).map(|i| self.load_u16(addr + i as u32 * 2)).collect()
    }

    /// Copies a slice of `u32` into memory starting at `addr`.
    pub fn store_u32_slice(&mut self, addr: u32, values: &[u32]) {
        for (i, &v) in values.iter().enumerate() {
            self.store_u32(addr + (i as u32) * 4, v);
        }
    }

    /// Copies a slice of `u16` into memory starting at `addr`.
    pub fn store_u16_slice(&mut self, addr: u32, values: &[u16]) {
        for (i, &v) in values.iter().enumerate() {
            self.store_u16(addr + (i as u32) * 2, v);
        }
    }

    /// Fills the whole region with zeros.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_word_round_trip() {
        let mut m = MemArray::new(0x1000, 64);
        m.store_u64(0x1008, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.load_u64(0x1008), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.load_u64(0x1000), 0);
    }

    #[test]
    fn strobed_write_touches_selected_lanes_only() {
        let mut m = MemArray::new(0, 8);
        m.store_u64(0, 0x1111_1111_1111_1111);
        m.write_word(0, 0xFFFF_FFFF_FFFF_FFFF, 0b0000_1100);
        assert_eq!(m.load_u64(0), 0x1111_1111_FFFF_1111);
    }

    #[test]
    fn sub_word_accessors() {
        let mut m = MemArray::new(0, 16);
        m.store_u32(4, 0xAABB_CCDD);
        assert_eq!(m.load_u32(4), 0xAABB_CCDD);
        assert_eq!(m.load_u32(0), 0);
        m.store_u16(10, 0x1234);
        assert_eq!(m.load_u16(10), 0x1234);
        assert_eq!(m.load_u64(8) >> 16 & 0xFFFF, 0x1234);
    }

    #[test]
    fn f64_slices() {
        let mut m = MemArray::new(0x100, 256);
        let vals = [1.5, -2.25, 3.0];
        m.store_f64_slice(0x110, &vals);
        assert_eq!(m.load_f64_slice(0x110, 3), vals);
    }

    #[test]
    fn contains_bounds() {
        let m = MemArray::new(0x1000, 0x100);
        assert!(m.contains(0x1000));
        assert!(m.contains(0x10FF));
        assert!(!m.contains(0x0FFF));
        assert!(!m.contains(0x1100));
    }

    #[test]
    #[should_panic(expected = "alignment")]
    fn misaligned_u32_panics() {
        let mut m = MemArray::new(0, 16);
        m.store_u32(2, 7);
    }
}
