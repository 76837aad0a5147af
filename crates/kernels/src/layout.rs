//! Memory layout planning and workload marshalling.
//!
//! Kernels are generated per workload with base addresses baked in as a
//! linker would; the [`Arena`] hands out aligned regions and the
//! placement helpers copy sparse structures into simulated memory.

use crate::variant::KernelIndex;
use issr_mem::array::MemArray;
use issr_mem::map::{TCDM_BASE, TCDM_SIZE};
use issr_sparse::csr::CsrMatrix;
use issr_sparse::fiber::SparseFiber;

/// A bump allocator over a memory region.
#[derive(Clone, Debug)]
pub struct Arena {
    next: u32,
    limit: u32,
}

impl Arena {
    /// Creates an arena over `[base, base + size)`.
    #[must_use]
    pub fn new(base: u32, size: u32) -> Self {
        Self { next: base, limit: base + size }
    }

    /// Allocates `bytes` with the given power-of-two alignment.
    ///
    /// # Panics
    /// Panics if the arena is exhausted or alignment is not a power of
    /// two.
    pub fn alloc(&mut self, bytes: u32, align: u32) -> u32 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.next + align - 1) & !(align - 1);
        assert!(
            u64::from(base) + u64::from(bytes) <= u64::from(self.limit),
            "arena exhausted: need {bytes} bytes at {base:#x}, limit {:#x}",
            self.limit
        );
        self.next = base + bytes;
        base
    }

    /// Remaining capacity in bytes.
    #[must_use]
    pub fn remaining(&self) -> u32 {
        self.limit - self.next
    }
}

/// Start of the TCDM data region of the cluster and system kernels:
/// above the low flag words, so every kernel's layout stays comparable.
pub(crate) const TCDM_DATA_BASE: u32 = TCDM_BASE + 0x100;

/// An arena over the TCDM data region.
pub(crate) fn tcdm_arena() -> Arena {
    Arena::new(TCDM_DATA_BASE, TCDM_SIZE - 0x100)
}

/// Addresses of a placed sparse fiber.
#[derive(Clone, Copy, Debug)]
pub struct FiberAddrs {
    /// Value array (8-byte aligned).
    pub vals: u32,
    /// Index array (element aligned).
    pub idcs: u32,
    /// Nonzero count.
    pub nnz: u32,
}

/// Allocates storage for `n` (at least one) indices, padded to whole
/// words so DMA transfers stay word-aligned.
fn alloc_indices<I: KernelIndex>(arena: &mut Arena, n: u32) -> u32 {
    arena.alloc((n.max(1) * I::BYTES + 7) & !7, 8)
}

/// Allocates a fiber's arrays without storing data (cluster plans
/// compute addresses before the target memory exists).
pub fn fiber_addrs<I: KernelIndex>(arena: &mut Arena, nnz: u32) -> FiberAddrs {
    let vals = arena.alloc(nnz.max(1) * 8, 8);
    let idcs = alloc_indices::<I>(arena, nnz);
    FiberAddrs { vals, idcs, nnz }
}

/// Stores a fiber at previously planned addresses.
pub fn store_fiber<I: KernelIndex>(mem: &mut MemArray, addrs: FiberAddrs, fiber: &SparseFiber<I>) {
    mem.store_f64_slice(addrs.vals, fiber.vals());
    I::store_slice(mem, addrs.idcs, fiber.idcs());
}

/// Places a fiber's arrays (allocate + store).
pub fn place_fiber<I: KernelIndex>(
    arena: &mut Arena,
    mem: &mut MemArray,
    fiber: &SparseFiber<I>,
) -> FiberAddrs {
    let addrs = fiber_addrs::<I>(arena, fiber.nnz() as u32);
    store_fiber(mem, addrs, fiber);
    addrs
}

/// Addresses of a placed CSR matrix.
#[derive(Clone, Copy, Debug)]
pub struct CsrAddrs {
    /// Row pointer array (32-bit entries).
    pub ptr: u32,
    /// Column index array.
    pub idcs: u32,
    /// Value array.
    pub vals: u32,
    /// Rows.
    pub nrows: u32,
    /// Nonzero count.
    pub nnz: u32,
}

/// Allocates a CSR matrix's arrays without storing data.
pub fn csr_addrs<I: KernelIndex>(arena: &mut Arena, nrows: u32, nnz: u32) -> CsrAddrs {
    let ptr = arena.alloc(((nrows + 1) * 4 + 7) & !7, 8);
    let vals = arena.alloc(nnz.max(1) * 8, 8);
    // The ISSR row loop's read past the last row pointer lands in the
    // padding word or in `vals[0]`, the matrix's own data.
    let over_read = crate::csrmv::ptr_over_read(ptr, nrows);
    assert!(over_read + 4 <= vals + 8, "the read past ptr[{nrows}] leaves the matrix");
    let idcs = alloc_indices::<I>(arena, nnz);
    CsrAddrs { ptr, idcs, vals, nrows, nnz }
}

/// Stores a CSR matrix at previously planned addresses.
pub fn store_csr<I: KernelIndex>(mem: &mut MemArray, addrs: CsrAddrs, m: &CsrMatrix<I>) {
    mem.store_u32_slice(addrs.ptr, m.ptr());
    mem.store_f64_slice(addrs.vals, m.vals());
    I::store_slice(mem, addrs.idcs, m.idcs());
}

/// Places a CSR matrix (allocate + store).
pub fn place_csr<I: KernelIndex>(
    arena: &mut Arena,
    mem: &mut MemArray,
    m: &CsrMatrix<I>,
) -> CsrAddrs {
    let addrs = csr_addrs::<I>(arena, m.nrows() as u32, m.nnz() as u32);
    store_csr(mem, addrs, m);
    addrs
}

/// Addresses of a CSR *output* region (a sparse result a kernel builds
/// row by row — the SpGEMM product).
#[derive(Clone, Copy, Debug)]
pub struct CsrOutAddrs {
    /// Row pointer array (32-bit entries; `ptr[0]` pre-set to 0).
    pub ptr: u32,
    /// Column index array (capacity `nnz_cap` entries, tightly packed).
    pub idcs: u32,
    /// Value array (capacity `nnz_cap` doubles).
    pub vals: u32,
    /// Allocated nonzero capacity.
    pub nnz_cap: u32,
}

/// Allocates a CSR output region for `nrows` rows and up to `nnz_cap`
/// nonzeros and zeroes `ptr[0]` (the two-pass/alloc side of the sparse
/// output builder: the caller sizes `nnz_cap` from a symbolic pass or an
/// expansion upper bound, the kernel grow-and-packs rows into it).
pub fn alloc_csr_out<I: KernelIndex>(
    arena: &mut Arena,
    mem: &mut MemArray,
    nrows: u32,
    nnz_cap: u32,
) -> CsrOutAddrs {
    let ptr = arena.alloc(((nrows + 1) * 4 + 7) & !7, 8);
    mem.store_u32(ptr, 0);
    let vals = arena.alloc(nnz_cap.max(1) * 8, 8);
    let idcs = alloc_indices::<I>(arena, nnz_cap);
    CsrOutAddrs { ptr, idcs, vals, nnz_cap }
}

/// Reads a kernel-built CSR output back into a host matrix, validating
/// the format invariants on the way.
///
/// # Panics
/// Panics if the stored structure is not a valid CSR matrix or exceeds
/// the allocated capacity.
#[must_use]
pub fn read_csr_out<I: KernelIndex>(
    mem: &MemArray,
    addrs: CsrOutAddrs,
    nrows: usize,
    ncols: usize,
) -> issr_sparse::csr::CsrMatrix<I> {
    let ptr = mem.load_u32_slice(addrs.ptr, nrows + 1);
    let nnz = *ptr.last().expect("ptr has nrows + 1 entries") as usize;
    assert!(nnz <= addrs.nnz_cap as usize, "kernel overflowed the output capacity");
    let idcs = I::load_slice(mem, addrs.idcs, nnz);
    let vals = mem.load_f64_slice(addrs.vals, nnz);
    issr_sparse::csr::CsrMatrix::new(nrows, ncols, ptr, idcs, vals)
        .expect("kernel-built CSR output is well formed")
}

/// Places a dense f64 slice (8-byte aligned).
pub fn place_f64s(arena: &mut Arena, mem: &mut MemArray, data: &[f64]) -> u32 {
    let addr = arena.alloc((data.len() as u32).max(1) * 8, 8);
    mem.store_f64_slice(addr, data);
    addr
}

/// Places a bare index array, padded to whole words like a fiber's.
pub(crate) fn place_indices<I: KernelIndex>(
    arena: &mut Arena,
    mem: &mut MemArray,
    idcs: &[I],
) -> u32 {
    let addr = alloc_indices::<I>(arena, idcs.len() as u32);
    I::store_slice(mem, addr, idcs);
    addr
}

/// Allocates an uninitialized result buffer of `len` doubles.
pub fn alloc_result(arena: &mut Arena, len: u32) -> u32 {
    arena.alloc(len.max(1) * 8, 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use issr_sparse::fiber::SparseFiber;

    #[test]
    fn arena_alignment_and_exhaustion() {
        let mut a = Arena::new(0x1000, 0x100);
        assert_eq!(a.alloc(4, 8), 0x1000);
        assert_eq!(a.alloc(8, 8), 0x1008);
        let unaligned = a.alloc(2, 2);
        assert_eq!(unaligned, 0x1010);
        assert_eq!(a.alloc(8, 8), 0x1018);
        assert!(a.remaining() < 0x100);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn arena_overflow_panics() {
        let mut a = Arena::new(0, 16);
        let _ = a.alloc(32, 8);
    }

    #[test]
    fn fiber_placement_round_trips() {
        let mut arena = Arena::new(0x2000, 0x1000);
        let mut mem = MemArray::new(0x2000, 0x1000);
        let f = SparseFiber::<u16>::new(100, vec![3, 50, 99], vec![1.0, 2.0, 3.0]).unwrap();
        let addrs = place_fiber(&mut arena, &mut mem, &f);
        assert_eq!(addrs.nnz, 3);
        assert_eq!(mem.load_f64(addrs.vals + 8), 2.0);
        assert_eq!(mem.load_u16(addrs.idcs + 2), 50);
        assert_eq!(addrs.vals % 8, 0);
    }

    #[test]
    fn csr_placement_round_trips() {
        let mut arena = Arena::new(0x2000, 0x4000);
        let mut mem = MemArray::new(0x2000, 0x4000);
        let m = issr_sparse::csr::CsrMatrix::<u32>::from_triplets(
            2,
            4,
            &[(0, 1, 5.0), (1, 0, -1.0), (1, 3, 2.0)],
        );
        let addrs = place_csr(&mut arena, &mut mem, &m);
        assert_eq!(mem.load_u32(addrs.ptr), 0);
        assert_eq!(mem.load_u32(addrs.ptr + 4), 1);
        assert_eq!(mem.load_u32(addrs.ptr + 8), 3);
        assert_eq!(mem.load_f64(addrs.vals + 16), 2.0);
        assert_eq!(mem.load_u32(addrs.idcs + 8), 3);
    }
}
