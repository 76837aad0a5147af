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
//! **DMCC order.** The guard's wait is the only thing between a buffer
//! freeing and its next DMA beat: after its last `done` load only the
//! fetch's issue (`dmsrc`/`dmdst`/`dmcpyi`) stands. Everything else a
//! tile needs is done while the workers still compute:
//!
//! 1. *prepare* tile `seq`'s fetch: descriptor loads and buffer
//!    addresses ([`emit_slice_prepare`]);
//! 2. the buffer guard (`done ≥ seq − 1`);
//! 3. *issue* the fetch ([`emit_slice_issue`]);
//! 4. (system kernels) *retire* tile `seq − 2`, which the guard just saw
//!    finish: CsrMV queues its `y` write-back behind the fetch unpolled
//!    (the engine completes in order, so the fetch's next poll or the
//!    final idle wait covers it); SpGEMM drains its output buffer, polls
//!    the drain and raises `drained`;
//! 5. poll the fetch, publish tile `seq`;
//! 6. (system kernels) claim the next ticket from main memory.
//!
//! The first ticket is claimed while the meta transfer moves. When the
//! queue runs dry after `L` claimed tiles, the DMCC runs the **finish
//! pass** twice, one loop with each step written once: wait for every
//! `done ≥ seq − 1`, then retire tile `seq − 2`. Pass 1 (`seq = L`)
//! retires tile `L − 2`, publishes the sentinel as tile `L` and loops;
//! pass 2 (`seq = L + 1`) retires tile `L − 1` and falls into the wait
//! for the DMA to go idle. So the all-worker `done` wait and the retire
//! are each emitted twice, in the claim loop and in the pass. The
//! cluster kernel walks its tiles in order without claims or retires
//! and writes `y` back once, after the last tile. Its tile 0 is known
//! when the program is built, so the DMCC queues that tile's fetch from
//! immediates behind the meta transfer and polls it after raising
//! `meta`; its tile loop starts at tile 1 (a one-tile program has none,
//! and no buffer guard).
//!
//! **Sweeps.** Every all-worker `done` wait (the buffer guard and the
//! final waits) loads the `done` base once; a slot's spin is one load at
//! its offset and one branch ([`FlagArea::emit_wait_done`]).
//!
//! **Layout.** The area sits below [`TCDM_DATA_BASE`] (`+0x100`) and is
//! laid out from the worker count: `meta` at `+0x00`, `ready[2]` at
//! `+0x08`, and the trailing pair follows `done[n]`. CsrMV: `done[n]` at
//! `+0x20`, `claimed[2]` at `+0x20 + 8n` (at most 26 workers). SpGEMM:
//! `claimed[2]` at `+0x18`, `done[n]` at `+0x28`, `drained[2]` at
//! `+0x28 + 8n` (at most 25 workers). The orders stay apart because a
//! flag's TCDM bank follows from its address, and moving one moves cycles.
//!
//! **Registers.** On the DMCC `s10` holds `seq` and `s7` the id of the
//! DMA transfer the next poll waits for (`dmcpyi` returns it). The claim
//! loop keeps the claimed id of tile `seq` in `s0`, tile `seq − 1`'s in
//! `s2` and tile `seq − 2`'s, the one the guard's wait retires, in `s1`
//! (`−1` while there is none). In the finish pass `s0` keeps the ticket
//! past the queue's end (`≥ 0`) through pass 1 and is `−1` in pass 2,
//! which is what ends the loop. A fetch's prepare step leaves its
//! sources, lengths and destinations in `a0`–`a5` for the issue step.

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

    /// Spins until `meta` is raised; leaves `t0` = `TCDM_BASE` (the
    /// address of `meta`). Clobbers `t1`.
    pub(crate) fn emit_wait_meta(self, asm: &mut Assembler) {
        asm.li_addr(R::T0, META);
        let spin = asm.bind_label();
        asm.lw(R::T1, R::T0, 0);
        asm.beqz(R::T1, spin);
    }

    /// Emits `dst = &done[a7]` (`a7` holds the hart id). Clobbers `t1`.
    pub(crate) fn emit_done_slot(self, asm: &mut Assembler, dst: R) {
        asm.li_addr(dst, self.done);
        asm.slli(R::T1, R::A7, 3);
        asm.add(dst, dst, R::T1);
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
    /// `src` (main memory) to `dst` (TCDM) in one DMA — with `in_flight`
    /// emitted between its issue and its poll, then raises `meta` and
    /// zeroes `s10`. Clobbers `t1`–`t3`, `a0`–`a2`, `s7`.
    pub(crate) fn emit_meta_transfer(
        self,
        asm: &mut Assembler,
        src: u32,
        dst: u32,
        bytes: u32,
        in_flight: impl FnOnce(&mut Assembler),
    ) {
        asm.li_addr(R::A0, src);
        asm.li_addr(R::A1, dst);
        asm.dmsrc(R::A0, R::ZERO);
        asm.dmdst(R::A1, R::ZERO);
        asm.li(R::A2, i64::from(bytes));
        asm.dmcpyi(R::S7, R::A2, 0);
        in_flight(asm);
        emit_dma_poll(asm);
        asm.li(R::T1, 1);
        asm.li_addr(R::T2, META);
        asm.sw(R::T1, R::T2, 0);
        asm.li(R::S10, 0);
    }

    /// Spins until every worker's `done` reaches `need` (not `t1`/`t2`,
    /// which are clobbered). The `done` base is loaded once into `t1`;
    /// each slot's spin is one load at its offset and one branch, so a
    /// sweep over finished workers costs two instructions a slot.
    pub(crate) fn emit_wait_done(self, asm: &mut Assembler, need: R) {
        asm.li_addr(R::T1, self.done);
        for h in 0..self.n_workers {
            let spin = asm.bind_label();
            asm.lw(R::T2, R::T1, i32::try_from(h * 8).expect("the flag area is small"));
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

    /// Raises `drained[(seq − 2) & 1] = seq − 1`: the output buffer of
    /// tile `seq − 2` is free. Clobbers `t0`–`t2`.
    pub(crate) fn emit_signal_drained(self, asm: &mut Assembler) {
        emit_parity_slot(asm, self.drained.expect("the SpGEMM layout has drained slots"), R::S10);
        asm.addi(R::T2, R::S10, -1);
        asm.sw(R::T2, R::T0, 0);
    }

    /// Emits the system DMCC: the meta transfer `meta` (`src`, `dst`,
    /// `bytes`) with the first claim from the fetch-and-add ticket word
    /// `queue` in flight behind it, then, for every claimed tile `s0`
    /// below `ntiles`: `prepare` (the prepare step of its fetch into
    /// buffer `seq & 1`, [`emit_slice_prepare`]), the buffer guard, the
    /// fetch's issue, `retire` of tile `seq − 2` (`s1`; the guard's wait
    /// is its wait), the fetch's poll, the publish and the next claim.
    /// A claim past `ntiles` ends the loop in the finish pass (module
    /// docs), which retires the last two tiles around the sentinel; then
    /// the DMCC waits for the DMA to go idle and halts. `retire` finds
    /// its tile's sequence number at `s10 − 2` and must leave `s0`, `s2`,
    /// `s10` and (unless it polls its own transfers) `s7` alone.
    pub(crate) fn emit_claim_loop(
        self,
        asm: &mut Assembler,
        meta: (u32, u32, u32),
        queue: u32,
        ntiles: u32,
        prepare: impl FnOnce(&mut Assembler),
        retire: impl Fn(&mut Assembler),
    ) {
        let claim = |asm: &mut Assembler| {
            asm.li_addr(R::T0, queue);
            asm.lw(R::S0, R::T0, 0); // hardware fetch-and-add
        };
        let retire_oldest = |asm: &mut Assembler| {
            let none = asm.new_label();
            asm.blt(R::S1, R::ZERO, none);
            retire(asm);
            asm.bind(none);
        };
        let (src, dst, bytes) = meta;
        self.emit_meta_transfer(asm, src, dst, bytes, claim);
        asm.li(R::S1, -1);
        asm.li(R::S2, -1);
        let finish = asm.new_label();
        let tile = asm.bind_label();
        asm.symbol("dmcc_tile");
        asm.li(R::T1, i64::from(ntiles));
        asm.bge(R::S0, R::T1, finish); // queue drained
        prepare(asm);
        self.emit_buffer_guard(asm);
        emit_slice_issue(asm, R::S7);
        asm.symbol("dmcc_retire");
        retire_oldest(asm);
        emit_dma_poll(asm);
        self.emit_publish(asm, Some(R::S0));
        asm.mv(R::S1, R::S2);
        asm.mv(R::S2, R::S0);
        asm.addi(R::S10, R::S10, 1);
        claim(asm);
        asm.j(tile);
        // The finish pass. Its sentinel step sits above it, so pass 2
        // (s0 = −1) falls into the idle wait without a taken branch on
        // the run's tail.
        let sentinel = asm.bind_label();
        self.emit_publish(asm, None);
        asm.addi(R::S10, R::S10, 1);
        asm.mv(R::S1, R::S2);
        asm.li(R::S0, -1);
        asm.bind(finish);
        asm.symbol("dmcc_finish");
        asm.addi(R::T3, R::S10, -1);
        self.emit_wait_done(asm, R::T3);
        retire_oldest(asm);
        asm.bge(R::S0, R::ZERO, sentinel);
        let idle = asm.bind_label();
        asm.dmstati(R::T0, 1);
        asm.bnez(R::T0, idle);
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
/// [`emit_slice_prepare`] reads.
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

/// Emits the *prepare* step of the DMCC's fetch of the slice whose
/// descriptor `t4` points at: reads its sources into `a0`/`a2` and its
/// lengths into `a1`/`a3`, lets `buf_base` put the destination buffer in
/// `a4` (it may clobber `t0`, `t1`) and sets `a5 = a4 + vals_cap`, the
/// index destination. [`emit_slice_issue`] consumes them; the buffer
/// guard between the two leaves them alone.
pub(crate) fn emit_slice_prepare(
    asm: &mut Assembler,
    vals_cap: u32,
    buf_base: impl FnOnce(&mut Assembler),
) {
    asm.lw(R::A0, R::T4, 16); // vals_src
    asm.lw(R::A1, R::T4, 20); // vals_len
    asm.lw(R::A2, R::T4, 24); // idcs_src
    asm.lw(R::A3, R::T4, 28); // idcs_len
    buf_base(asm);
    asm.li(R::A5, i64::from(vals_cap));
    asm.add(R::A5, R::A5, R::A4);
}

/// Emits the *issue* step of a slice fetch: the values transfer `a0` →
/// `a4` of `a1` bytes and the index transfer `a2` → `a5` of `a3` bytes;
/// `id` receives the index transfer's id (`s7` for [`emit_dma_poll`]).
pub(crate) fn emit_slice_issue(asm: &mut Assembler, id: R) {
    asm.dmsrc(R::A0, R::ZERO);
    asm.dmdst(R::A4, R::ZERO);
    asm.dmcpyi(R::ZERO, R::A1, 0);
    asm.dmsrc(R::A2, R::ZERO);
    asm.dmdst(R::A5, R::ZERO);
    asm.dmcpyi(id, R::A3, 0);
}

/// Spins until the DMA transfer whose id `s7` holds has completed, and
/// with it (the engine completes in order) every transfer queued before
/// it. Clobbers `t3`.
pub(crate) fn emit_dma_poll(asm: &mut Assembler) {
    let poll = asm.bind_label();
    asm.dmstati(R::T3, 0);
    asm.bge(R::S7, R::T3, poll);
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

    /// The catalog's DMA-fed programs, and the cluster CsrMV programs of
    /// a multi-block plan (the catalog's operand fits one block, so its
    /// cluster DMCC has no block loop and no buffer guard).
    fn dma_fed_programs() -> Vec<(String, issr_isa::asm::Program)> {
        use crate::cluster_csrmv::{build_cluster_csrmv, ClusterCsrmvPlan};
        use crate::variant::Variant;
        use issr_sparse::csr::CsrMatrix;
        fn multi<I: KernelIndex>(m: &CsrMatrix<I>, v: Variant) -> (String, issr_isa::asm::Program) {
            let plan = ClusterCsrmvPlan::new(m, 8);
            assert!(plan.n_blocks() > 2);
            (
                format!("cluster_csrmv/{v}/{} bytes, multi-block", I::BYTES),
                build_cluster_csrmv::<I>(v, &plan),
            )
        }
        let m =
            issr_sparse::gen::csr_uniform::<u16>(&mut issr_sparse::gen::rng(53), 400, 256, 16_000);
        let mut out: Vec<_> = crate::catalog()
            .into_iter()
            .filter(|e| e.program.symbol("dmcc").is_some())
            .map(|e| (e.name.to_string(), e.program))
            .collect();
        for v in [Variant::Base, Variant::Issr] {
            out.push(multi(&m, v));
            out.push(multi(&m.with_index_width::<u32>(), v));
        }
        out
    }

    /// In every DMA-fed program with a block loop, the buffer guard's
    /// last `done` load is followed by its spin branch and the fetch's
    /// `dmsrc`/`dmdst` only, then the `dmcpyi` that starts the beats.
    #[test]
    fn only_the_dma_issue_follows_the_guard() {
        use issr_isa::instr::Instr;
        let mut checked = 0;
        for (name, program) in dma_fed_programs() {
            let Some(top) = ["dmcc_tile", "dmcc_block"].iter().find_map(|s| program.symbol(s))
            else {
                continue;
            };
            let loop_body = &program.instrs()[top..];
            let issue = loop_body.iter().position(|i| matches!(i, Instr::DmCpyI { .. })).unwrap();
            let guard = loop_body[..issue].iter().rposition(|i| matches!(i, Instr::Load { .. }));
            let tail = &loop_body[guard.unwrap() + 1..issue];
            assert!(
                matches!(tail, [Instr::Branch { .. }, Instr::DmSrc { .. }, Instr::DmDst { .. }]),
                "{name}: between the guard's last load and the first dmcpyi: {tail:?}"
            );
            checked += 1;
        }
        assert_eq!(checked, 12, "system CsrMV and SpGEMM, 4 programs each, and 4 multi-block");
    }

    /// Each step of the protocol is emitted at most twice: the DMCC path
    /// loads each `done[h]` slot exactly twice — in the buffer guard and
    /// in the finish pass (in the cluster kernel, its final wait) — in
    /// every system program of the catalog and every multi-block cluster
    /// program, and once (the final wait) in a one-block cluster program,
    /// which has no guard. A load's address is the offset plus the base
    /// the sweep's `li_addr` left in its register.
    #[test]
    fn each_done_slot_is_loaded_twice_on_the_dmcc_path() {
        use issr_isa::instr::{AluImmOp, Instr};
        // The address `li_addr` left in `reg` before `instrs[at]`, past
        // the sweep's own loads (into other registers) and branches.
        let base = |instrs: &[Instr], at: usize, reg: R| {
            let mut end = at;
            while end > 0
                && match instrs[end - 1] {
                    Instr::Branch { .. } => true,
                    Instr::Load { rd, .. } => rd != reg,
                    _ => false,
                }
            {
                end -= 1;
            }
            match instrs[..end] {
                [.., Instr::Lui { rd, imm }, Instr::OpImm { op: AluImmOp::Addi, rd: d, rs1, imm: lo }]
                    if rd == reg && d == reg && rs1 == reg =>
                {
                    Some(imm.wrapping_add(lo as u32))
                }
                [.., Instr::OpImm { op: AluImmOp::Addi, rd, rs1, imm }]
                    if rd == reg && rs1.is_zero() =>
                {
                    Some(imm as u32)
                }
                [.., Instr::Lui { rd, imm }] if rd == reg => Some(imm),
                _ => None,
            }
        };
        let n = issr_cluster::cluster::ClusterParams::default().n_workers as u32;
        let mut checked = 0;
        for (name, program) in dma_fed_programs() {
            let flags = if name.starts_with("system_spgemm") {
                FlagArea::spgemm(n)
            } else {
                FlagArea::csrmv(n)
            };
            let instrs = &program.instrs()[program.symbol("dmcc").unwrap()..];
            let mut loads = vec![0; n as usize];
            for (at, instr) in instrs.iter().enumerate() {
                let Instr::Load { rs1, offset, .. } = *instr else { continue };
                let Some(addr) = base(instrs, at, rs1) else { continue };
                let addr = addr.wrapping_add(offset as u32);
                if (flags.done..flags.done + 8 * n).contains(&addr) {
                    loads[((addr - flags.done) / 8) as usize] += 1;
                }
            }
            let one_block = name.starts_with("cluster_csrmv") && !name.ends_with("multi-block");
            let want = if one_block { 1 } else { 2 };
            assert_eq!(loads, vec![want; n as usize], "{name}: DMCC loads of done[0..{n}]");
            checked += 1;
        }
        assert_eq!(
            checked, 16,
            "cluster CsrMV, system CsrMV and system SpGEMM, 4 programs each, and 4 multi-block"
        );
    }

    /// The cluster DMCC queues block 0's two transfers behind the meta
    /// transfer, before it polls anything: its first three `dmcpyi`
    /// precede its first `dmstati`.
    #[test]
    fn the_cluster_dmcc_issues_block_0_before_its_first_poll() {
        use issr_isa::instr::Instr;
        let mut checked = 0;
        for (name, program) in dma_fed_programs() {
            if !name.starts_with("cluster_csrmv") {
                continue;
            }
            let dmcc = &program.instrs()[program.symbol("dmcc").unwrap()..];
            let poll = dmcc.iter().position(|i| matches!(i, Instr::DmStatI { .. })).unwrap();
            let issued = dmcc[..poll].iter().filter(|i| matches!(i, Instr::DmCpyI { .. })).count();
            assert_eq!(issued, 3, "{name}: transfers issued before the first dmstati");
            checked += 1;
        }
        assert_eq!(checked, 8);
    }

    /// A CsrMV worker reads its slice from the block's slice table: no
    /// worker block body (from `worker_block` to the DMCC's entry)
    /// multiplies.
    #[test]
    fn no_csrmv_worker_block_body_multiplies() {
        use issr_isa::instr::{AluOp, Instr};
        let mut checked = 0;
        for (name, program) in dma_fed_programs() {
            let Some(body) = program.symbol("worker_block") else { continue };
            if name.starts_with("system_spgemm") {
                continue;
            }
            let end = program.symbol("dmcc").unwrap();
            let muls = program.instrs()[body..end]
                .iter()
                .filter(|i| matches!(i, Instr::Op { op: AluOp::Mul, .. }))
                .count();
            assert_eq!(muls, 0, "{name}: mul in the worker's block body");
            checked += 1;
        }
        assert_eq!(checked, 12, "cluster and system CsrMV, 4 programs each, and 4 multi-block");
    }

    #[test]
    #[should_panic(expected = "flag area holds at most 26 workers")]
    fn csrmv_area_rejects_27_workers() {
        let _ = FlagArea::csrmv(27);
    }
}
