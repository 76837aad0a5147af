//! The heap high-water mark of generating the suite's large operands.
//!
//! A counting `#[global_allocator]` sees every allocation of this test
//! binary, so the file holds a single test.

use issr_sparse::gen::{csr_uniform, rng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            let live = LIVE.fetch_add(new_size - layout.size(), Ordering::Relaxed) + new_size
                - layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// psmigr_1's shape (3,140², 543,160 nonzeros) with 16-bit indices peaks
/// at no more than 4× the finished matrix's `ptr + idcs + vals` bytes.
/// A triplet list plus a hash set of drawn positions needs 13×.
#[test]
fn uniform_generation_peaks_within_four_matrices() {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let m = csr_uniform::<u16>(&mut rng(1), 3140, 3140, 543_160);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let bytes = std::mem::size_of_val(m.ptr())
        + std::mem::size_of_val(m.idcs())
        + std::mem::size_of_val(m.vals());
    let ratio = peak as f64 / bytes as f64;
    assert!(ratio <= 4.0, "generation peaked at {peak} B, {ratio:.1}x the {bytes} B matrix");
}
