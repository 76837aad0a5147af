//! The tile handshake of the DMA-fed kernels ([`crate::cluster_csrmv`],
//! [`crate::system_csrmv`], [`crate::system_spgemm`]): a cluster's DMCC
//! double-buffers operand tiles (row blocks, row panels) into the TCDM
//! while its workers compute on the previous tile — the paper's §IV-B
//! choreography, in the shape of the Occamy cluster template.
//!
//! **Protocol.** Every flag is a word of the cluster's [`FlagArea`] and
//! only grows (monotonic counters: no flag is ever reset). The DMCC
//! numbers its tiles with a local sequence number `seq`; tile `seq` goes
//! to buffer `seq & 1`, and a buffer's flags are **parity slots**
//! (`slot[seq & 1]`, 8 bytes apart).
//!
//! * `meta = 1`: the resident data (vectors, row pointers, tile
//!   descriptors) has landed.
//! * `ready[seq & 1] = seq + 1` publishes tile `seq`. The system kernels
//!   claim tiles from a shared work queue and store the claimed id in
//!   `claimed[seq & 1]` first; an id `< 0` is the **sentinel** that ends
//!   the workers.
//! * `done[h] = seq + 1`: worker `h` finished tile `seq`.
//! * `drained[seq & 1] = seq + 1` (SpGEMM): tile `seq`'s output buffer
//!   is written back; a worker writes tile `seq`'s output only once
//!   `drained[seq & 1] ≥ seq − 1`.
//!
//! **Buffer-reuse guard:** tile `seq` overwrites buffer `seq & 1` only
//! once every worker finished its last tile there, `seq − 2` (every
//! `done ≥ seq − 1`).
//!
//! **Layout.** The area sits below [`TCDM_DATA_BASE`] (`+0x100`) and is
//! laid out from the worker count: `meta` at `+0x00`, `ready[2]` at
//! `+0x08`, and the trailing pair follows `done[n]`. CsrMV: `done[n]` at
//! `+0x20`, `claimed[2]` at `+0x20 + 8n` (at most 26 workers). SpGEMM:
//! `claimed[2]` at `+0x18`, `done[n]` at `+0x28`, `drained[2]` at
//! `+0x28 + 8n` (at most 25 workers). The orders stay apart because a
//! flag's TCDM bank follows from its address, and moving one moves cycles.
//!
//! **Registers.** On the DMCC `s10` holds `seq` and `s7` counts the DMA
//! transfers issued; the claim loop keeps the claimed id in `s0` and the
//! previous one in `s1`.

use crate::layout::TCDM_DATA_BASE;
use crate::variant::KernelIndex;
use issr_isa::asm::{Assembler, Label};
use issr_isa::reg::IntReg as R;
use issr_mem::array::MemArray;
use issr_mem::map::TCDM_BASE;
use std::ops::Range;

const META: u32 = TCDM_BASE;
const READY: u32 = TCDM_BASE + 0x08;

/// The flag words of one cluster's tile handshake (module docs).
#[derive(Clone, Copy, Debug)]
pub(crate) struct FlagArea {
    pub(crate) n_workers: u32,
    claimed: u32,
    done: u32,
    drained: Option<u32>,
}

impl FlagArea {
    /// The CsrMV layout: `meta | ready[2] | done[n] | claimed[2]`.
    ///
    /// # Panics
    /// Panics if the area of `n_workers` would pass the data region.
    pub(crate) fn csrmv(n_workers: u32) -> Self {
        let done = fit(n_workers, TCDM_BASE + 0x20);
        Self { n_workers, claimed: done + 8 * n_workers, done, drained: None }
    }

    /// The SpGEMM layout: `meta | ready[2] | claimed[2] | done[n] |
    /// drained[2]`.
    ///
    /// # Panics
    /// Panics if the area of `n_workers` would pass the data region.
    pub(crate) fn spgemm(n_workers: u32) -> Self {
        let done = fit(n_workers, TCDM_BASE + 0x28);
        let drained = Some(done + 8 * n_workers);
        Self { n_workers, claimed: TCDM_BASE + 0x18, done, drained }
    }

    // ---- worker side ----

    /// Spins until `meta` is raised. Clobbers `t0`, `t1`.
    pub(crate) fn emit_wait_meta(self, asm: &mut Assembler) {
        asm.li_addr(R::T0, META);
        let spin = asm.bind_label();
        asm.lw(R::T1, R::T0, 0);
        asm.beqz(R::T1, spin);
    }

    /// Emits `dst = &done[a7]` (`a7` holds the hart id). Clobbers `t0`.
    pub(crate) fn emit_done_slot(self, asm: &mut Assembler, dst: R) {
        asm.li_addr(dst, self.done);
        asm.slli(R::T0, R::A7, 3);
        asm.add(dst, dst, R::T0);
    }

    /// Emits `t0 = &done[a7]` and `t6 = done[a7]`, the number of tiles
    /// this worker finished — its next `seq`. Clobbers `t1`.
    pub(crate) fn emit_load_done(self, asm: &mut Assembler) {
        emit_slot(asm, self.done, R::A7);
        asm.lw(R::T6, R::T0, 0);
    }

    /// Spins until tile `seq` is published; with `exit`, then reads its
    /// claimed id into `t4` and branches to `exit` on the sentinel.
    /// Clobbers `t0`–`t3`.
    pub(crate) fn emit_wait_tile(self, asm: &mut Assembler, seq: R, exit: Option<Label>) {
        emit_parity_slot(asm, READY, seq);
        asm.addi(R::T3, seq, 1);
        emit_spin_below_t3(asm);
        if let Some(exit) = exit {
            emit_parity_slot(asm, self.claimed, seq);
            asm.lw(R::T4, R::T0, 0);
            asm.blt(R::T4, R::ZERO, exit);
        }
    }

    /// Spins until the output buffer of `seq` is drained (`drained[seq &
    /// 1] ≥ seq − 1`; trivially true for the first two tiles). Clobbers
    /// `t0`–`t3`.
    pub(crate) fn emit_wait_drained(self, asm: &mut Assembler, seq: R) {
        asm.addi(R::T3, seq, -1);
        let no_wait = asm.new_label();
        asm.blez(R::T3, no_wait);
        emit_parity_slot(asm, self.drained.expect("the SpGEMM layout has drained slots"), seq);
        emit_spin_below_t3(asm);
        asm.bind(no_wait);
    }

    /// Emits `done[h] = seq + 1` through the slot address in `slot`
    /// (`tmp` receives `seq + 1` and may be `seq`).
    pub(crate) fn emit_signal_done(self, asm: &mut Assembler, seq: R, tmp: R, slot: R) {
        asm.addi(tmp, seq, 1);
        asm.sw(tmp, slot, 0);
    }

    // ---- DMCC side ----

    /// Emits the one-off meta transfer — `bytes` of resident data from
    /// `src` (main memory) to `dst` (TCDM) in one DMA, polled to
    /// completion — then raises `meta` and zeroes the counters: `s7` = 1
    /// (the transfer just issued), `s10` = 0.
    pub(crate) fn emit_meta_transfer(self, asm: &mut Assembler, src: u32, dst: u32, bytes: u32) {
        asm.li_addr(R::A0, src);
        asm.li_addr(R::A1, dst);
        asm.dmsrc(R::A0, R::ZERO);
        asm.dmdst(R::A1, R::ZERO);
        asm.li(R::A2, i64::from(bytes));
        asm.dmcpyi(R::ZERO, R::A2, 0);
        let poll = asm.bind_label();
        asm.dmstati(R::T0, 0);
        asm.beqz(R::T0, poll);
        asm.li(R::T1, 1);
        asm.li_addr(R::T2, META);
        asm.sw(R::T1, R::T2, 0);
        asm.li(R::S7, 1);
        asm.li(R::S10, 0);
    }

    /// Spins until every worker's `done` reaches `need` (not `t1`/`t2`,
    /// which are clobbered).
    pub(crate) fn emit_wait_done(self, asm: &mut Assembler, need: R) {
        for h in 0..self.n_workers {
            let spin = asm.bind_label();
            asm.li_addr(R::T1, self.done + h * 8);
            asm.lw(R::T2, R::T1, 0);
            asm.blt(R::T2, need, spin);
        }
    }

    /// The buffer-reuse guard: before tile `seq` overwrites buffer `seq &
    /// 1`, waits for every worker to finish tile `seq − 2`. Clobbers
    /// `t0`–`t3`.
    pub(crate) fn emit_buffer_guard(self, asm: &mut Assembler) {
        let no_wait = asm.new_label();
        asm.addi(R::T0, R::S10, -2);
        asm.blt(R::T0, R::ZERO, no_wait);
        asm.addi(R::T3, R::S10, -1);
        self.emit_wait_done(asm, R::T3);
        asm.bind(no_wait);
    }

    /// Publishes tile `seq`: `ready[seq & 1] = seq + 1`. Clobbers `t0`–`t2`.
    pub(crate) fn emit_ready(self, asm: &mut Assembler) {
        emit_parity_slot(asm, READY, R::S10);
        asm.addi(R::T2, R::S10, 1);
        asm.sw(R::T2, R::T0, 0);
    }

    /// Publishes the claimed id `id` for tile `seq` — or, with `None`,
    /// the sentinel — then raises `ready`. Clobbers `t0`–`t2`.
    fn emit_publish(self, asm: &mut Assembler, id: Option<R>) {
        emit_parity_slot(asm, self.claimed, R::S10);
        let id = id.unwrap_or_else(|| {
            asm.li(R::T2, -1);
            R::T2
        });
        asm.sw(id, R::T0, 0);
        self.emit_ready(asm);
    }

    /// Raises `drained[(seq − 1) & 1] = seq`: the previous tile's output
    /// buffer is free. Clobbers `t0`, `t1`.
    pub(crate) fn emit_signal_drained(self, asm: &mut Assembler) {
        asm.addi(R::T0, R::S10, -1);
        emit_parity_slot(asm, self.drained.expect("the SpGEMM layout has drained slots"), R::T0);
        asm.sw(R::S10, R::T0, 0);
    }

    /// Emits the system DMCC after its meta transfer: claim tile ids from
    /// the fetch-and-add ticket word `queue` until it passes `ntiles`;
    /// for each, the buffer guard, `fetch` (tile `s0` into buffer `seq &
    /// 1`), the publish, and — while the workers compute — the retire of
    /// the previous tile (`s1`, sequence `seq − 1`): wait for every
    /// `done ≥ seq`, then `retire`. The wait reads `seq` from `need`:
    /// `s10` itself, or a register the loop first copies `s10` into.
    /// After the last claim it retires the last tile, publishes the
    /// sentinel and halts.
    pub(crate) fn emit_claim_loop(
        self,
        asm: &mut Assembler,
        queue: u32,
        ntiles: u32,
        need: R,
        fetch: impl FnOnce(&mut Assembler),
        retire: impl Fn(&mut Assembler),
    ) {
        let retire_prev = |asm: &mut Assembler| {
            let none = asm.new_label();
            asm.blt(R::S1, R::ZERO, none);
            if need != R::S10 {
                asm.mv(need, R::S10);
            }
            self.emit_wait_done(asm, need);
            retire(asm);
            asm.bind(none);
        };
        asm.li(R::S1, -1);
        let finish = asm.new_label();
        let claim = asm.bind_label();
        asm.symbol("dmcc_claim");
        asm.li_addr(R::T0, queue);
        asm.lw(R::S0, R::T0, 0); // hardware fetch-and-add
        asm.li(R::T1, i64::from(ntiles));
        asm.bge(R::S0, R::T1, finish); // queue drained
        self.emit_buffer_guard(asm);
        fetch(asm);
        self.emit_publish(asm, Some(R::S0));
        retire_prev(asm);
        asm.mv(R::S1, R::S0);
        asm.addi(R::S10, R::S10, 1);
        asm.j(claim);
        asm.bind(finish);
        asm.symbol("dmcc_finish");
        retire_prev(asm);
        self.emit_publish(asm, None);
        asm.halt();
    }
}

/// Returns `done`, the first `done` slot, after checking that
/// `n_workers` slots there plus the trailing parity pair end at or below
/// the data region.
fn fit(n_workers: u32, done: u32) -> u32 {
    let max = (TCDM_DATA_BASE - done - 16) / 8;
    assert!(
        n_workers <= max,
        "the tile handshake's flag area holds at most {max} workers below the data region \
         at +{:#x}, not {n_workers}",
        TCDM_DATA_BASE - TCDM_BASE
    );
    done
}

/// Emits `t0 = base + index * 8`. Clobbers `t1`.
fn emit_slot(asm: &mut Assembler, base: u32, index: R) {
    asm.slli(R::T0, index, 3);
    asm.li_addr(R::T1, base);
    asm.add(R::T0, R::T0, R::T1);
}

/// Emits `t0 = base + (seq & 1) * 8`, the parity slot of `seq`. Clobbers
/// `t1`.
fn emit_parity_slot(asm: &mut Assembler, base: u32, seq: R) {
    asm.andi(R::T0, seq, 1);
    emit_slot(asm, base, R::T0);
}

/// Spins until the word at `t0` reaches `t3`. Clobbers `t2`.
fn emit_spin_below_t3(asm: &mut Assembler) {
    let spin = asm.bind_label();
    asm.lw(R::T2, R::T0, 0);
    asm.blt(R::T2, R::T3, spin);
}

/// A tile of a DMA-fed sparse operand: the contiguous rows
/// `row_start .. row_start + row_count` and where their nonzeros sit in
/// main memory — the first eight words of every tile descriptor, which
/// [`emit_slice_fetch`] reads.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slice {
    pub(crate) row_start: u32,
    pub(crate) row_count: u32,
    pub(crate) nnz_start: u32,
    pub(crate) vals_src: u32,
    pub(crate) vals_len: u32,
    /// The index chunk, widened to whole words (8-aligned start, at
    /// least one word).
    pub(crate) idcs_src: u32,
    pub(crate) idcs_len: u32,
}

impl Slice {
    /// The slice of `rows` of an operand with row pointer `ptr`, values
    /// at `vals` and indices at `idcs` in main memory.
    pub(crate) fn new<I: KernelIndex>(ptr: &[u32], rows: Range<u32>, vals: u32, idcs: u32) -> Self {
        let nnz_start = ptr[rows.start as usize];
        let nnz_end = ptr[rows.end as usize];
        let idcs_src = (idcs + nnz_start * I::BYTES) & !7;
        let idcs_end = (idcs + nnz_end * I::BYTES + 7) & !7;
        Self {
            row_start: rows.start,
            row_count: rows.end - rows.start,
            nnz_start,
            vals_src: vals + nnz_start * 8,
            vals_len: ((nnz_end - nnz_start) * 8).max(8),
            idcs_src,
            idcs_len: (idcs_end - idcs_src).max(8),
        }
    }

    /// Stores the descriptor's first eight words at `addr`, with the
    /// kernel's own word 3 (`tag`) after `nnz_start`.
    pub(crate) fn store(&self, mem: &mut MemArray, addr: u32, tag: u32) {
        let s = self;
        let words = [s.row_start, s.row_count, s.nnz_start, tag];
        let sources = [s.vals_src, s.vals_len, s.idcs_src, s.idcs_len];
        mem.store_u32_slice(addr, &[words, sources].concat());
    }
}

/// Emits the DMCC's fetch of the slice whose descriptor `t4` points at:
/// reads its sources and lengths, lets `buf_base` put the destination
/// buffer in `t0` (it may clobber `t1`), issues the values transfer to
/// `t0` and the index transfer to `t0 + vals_cap`, and polls both to
/// completion. Clobbers `t0`–`t3`, `a0`–`a3`.
pub(crate) fn emit_slice_fetch(
    asm: &mut Assembler,
    vals_cap: u32,
    buf_base: impl FnOnce(&mut Assembler),
) {
    asm.lw(R::A0, R::T4, 16); // vals_src
    asm.lw(R::A1, R::T4, 20); // vals_len
    asm.lw(R::A2, R::T4, 24); // idcs_src
    asm.lw(R::A3, R::T4, 28); // idcs_len
    buf_base(asm);
    asm.dmsrc(R::A0, R::ZERO);
    asm.dmdst(R::T0, R::ZERO);
    asm.dmcpyi(R::ZERO, R::A1, 0);
    asm.li(R::T2, i64::from(vals_cap));
    asm.add(R::T2, R::T2, R::T0);
    asm.dmsrc(R::A2, R::ZERO);
    asm.dmdst(R::T2, R::ZERO);
    asm.dmcpyi(R::ZERO, R::A3, 0);
    asm.addi(R::S7, R::S7, 2);
    let poll = asm.bind_label();
    asm.dmstati(R::T3, 0);
    asm.blt(R::T3, R::S7, poll);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// At eight workers the layouts keep the addresses the kernels were
    /// measured with, so no committed baseline moves.
    #[test]
    fn eight_worker_layouts_keep_their_addresses() {
        let c = FlagArea::csrmv(8);
        assert_eq!((c.done, c.claimed, c.drained), (TCDM_BASE + 0x20, TCDM_BASE + 0x60, None));
        let s = FlagArea::spgemm(8);
        let want = (TCDM_BASE + 0x28, TCDM_BASE + 0x18, Some(TCDM_BASE + 0x68));
        assert_eq!((s.done, s.claimed, s.drained), want);
    }

    /// The trailing pair follows `done[n]` and the area ends at or below
    /// the data region at the largest accepted worker count.
    #[test]
    fn trailing_pair_follows_the_done_slots() {
        for n in [1, 16, 26] {
            let c = FlagArea::csrmv(n);
            assert_eq!(c.claimed, c.done + 8 * n);
            assert!(c.claimed + 16 <= TCDM_DATA_BASE);
        }
        for n in [1, 16, 25] {
            let s = FlagArea::spgemm(n);
            let drained = s.drained.unwrap();
            assert_eq!(drained, s.done + 8 * n);
            assert!(s.claimed + 16 <= s.done && drained + 16 <= TCDM_DATA_BASE);
        }
    }

    #[test]
    #[should_panic(expected = "flag area holds at most 26 workers")]
    fn csrmv_area_rejects_27_workers() {
        let _ = FlagArea::csrmv(27);
    }
}
