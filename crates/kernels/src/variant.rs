//! Kernel variant taxonomy (§III-B).

use issr_core::serializer::IndexSize;
use issr_isa::asm::Assembler;
use issr_isa::reg::IntReg;
use issr_mem::array::MemArray;
use issr_sparse::index::IndexValue;

/// The three implementations the paper compares for every kernel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Variant {
    /// Stock RISC-V optimized baseline (9-instruction indirection loop).
    Base,
    /// FREP + SSR streaming the sparse values; indirection in software.
    Ssr,
    /// FREP + SSR + ISSR: indirection in hardware (the contribution).
    Issr,
}

impl Variant {
    /// All variants in presentation order.
    pub const ALL: [Variant; 3] = [Variant::Base, Variant::Ssr, Variant::Issr];

    /// Display name as used in the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Variant::Base => "BASE",
            Variant::Ssr => "SSR",
            Variant::Issr => "ISSR",
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Index widths usable by the generated kernels: ties the sparse-side
/// [`IndexValue`] to the streamer's [`IndexSize`] and to the right
/// load instruction / store routine.
pub trait KernelIndex: IndexValue {
    /// Streamer index-size configuration.
    const IDX_SIZE: IndexSize;

    /// Emits the zero-extending load of one index: `rd = [rs1 + offset]`.
    fn emit_index_load(asm: &mut Assembler, rd: IntReg, rs1: IntReg, offset: i32);

    /// Emits the store of one index: `[rs1 + offset] = rs2` (`sh`/`sw`).
    fn emit_index_store(asm: &mut Assembler, rs2: IntReg, rs1: IntReg, offset: i32);

    /// Stores an index slice into simulated memory.
    fn store_slice(mem: &mut MemArray, addr: u32, idcs: &[Self]);

    /// Reads an index slice back from simulated memory.
    fn load_slice(mem: &MemArray, addr: u32, len: usize) -> Vec<Self>;
}

impl KernelIndex for u16 {
    const IDX_SIZE: IndexSize = IndexSize::U16;

    fn emit_index_load(asm: &mut Assembler, rd: IntReg, rs1: IntReg, offset: i32) {
        asm.lhu(rd, rs1, offset);
    }

    fn emit_index_store(asm: &mut Assembler, rs2: IntReg, rs1: IntReg, offset: i32) {
        asm.sh(rs2, rs1, offset);
    }

    fn store_slice(mem: &mut MemArray, addr: u32, idcs: &[Self]) {
        mem.store_u16_slice(addr, idcs);
    }

    fn load_slice(mem: &MemArray, addr: u32, len: usize) -> Vec<Self> {
        mem.load_u16_slice(addr, len)
    }
}

impl KernelIndex for u32 {
    const IDX_SIZE: IndexSize = IndexSize::U32;

    fn emit_index_load(asm: &mut Assembler, rd: IntReg, rs1: IntReg, offset: i32) {
        asm.lw(rd, rs1, offset);
    }

    fn emit_index_store(asm: &mut Assembler, rs2: IntReg, rs1: IntReg, offset: i32) {
        asm.sw(rs2, rs1, offset);
    }

    fn store_slice(mem: &mut MemArray, addr: u32, idcs: &[Self]) {
        mem.store_u32_slice(addr, idcs);
    }

    fn load_slice(mem: &MemArray, addr: u32, len: usize) -> Vec<Self> {
        mem.load_u32_slice(addr, len)
    }
}

/// Log2 of the index width in bytes (row-pointer to byte-offset shifts
/// in the generated kernels).
#[must_use]
pub fn log_width<I: KernelIndex>() -> i32 {
    if I::BYTES == 2 {
        1
    } else {
        2
    }
}

/// Accumulator depth of the staggered ISSR FREP loop: the 16-bit kernel
/// sustains a higher issue rate and needs more accumulators to cover FMA
/// latency, which also lengthens its reduction — the source of the
/// 16/32-bit crossover around nnz ≈ 20 in Figs. 4a/4b (CsrMV rows long
/// enough to defer their reduction hide it).
#[must_use]
pub fn issr_accumulators(size: IndexSize) -> u8 {
    match size {
        IndexSize::U16 => 8,
        IndexSize::U32 => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(Variant::Base.name(), "BASE");
        assert_eq!(Variant::Ssr.to_string(), "SSR");
        assert_eq!(Variant::ALL.len(), 3);
    }

    #[test]
    fn index_bridge() {
        assert_eq!(<u16 as KernelIndex>::IDX_SIZE, IndexSize::U16);
        assert_eq!(<u32 as KernelIndex>::IDX_SIZE, IndexSize::U32);
        assert!(issr_accumulators(IndexSize::U16) > issr_accumulators(IndexSize::U32));
    }
}
