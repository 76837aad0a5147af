//! Row-wise Gustavson SpGEMM: `C = A·B` with both operands (and the
//! output) sparse — the workload the sparse-output subsystem exists for.
//!
//! `C[i,:] = Σ_k A[i,k] · B[k,:]` accumulates a *sparse row*: scaled B
//! rows whose column sets overlap arbitrarily must union-merge into a
//! sorted, duplicate-free result of data-dependent length. Two variants:
//!
//! * **BASE** — software merge accumulation: per `(i, k)` the scaled row
//!   `A[i,k] · B[k,:]` two-way merges with the accumulator through a
//!   pair of ping-pong scratch buffers (three-way branch, index
//!   loads/stores and an `fmadd` per merge step — a dozen-odd
//!   instructions each), then the finished row is copied into the packed
//!   CSR output;
//! * **ISSR** — the same dataflow in hardware: the SSR streams `B[k,:]`
//!   values into a single `fmul.d` under FREP (static trip count
//!   `nnz(B[k,:])`, read from B's row pointers), whose write stream
//!   feeds the **SpAcc** ([`issr_core::spacc`]); the SpAcc fetches the
//!   matching column-index stream itself and union-merges into its row
//!   buffer at one step per cycle. At row end the core reads the
//!   data-dependent row length back (`ACC_NNZ`), extends the CSR row
//!   pointer, and launches a drain that packs the row straight into the
//!   output arrays (grow-and-pack) while the next row's expansion
//!   already configures.
//!
//! Output capacity comes from the host-side symbolic pass
//! ([`issr_sparse::reference::spgemm_ptr`]) or an expansion upper bound
//! — the two-pass/alloc side of the builder ([`crate::layout`]).

use crate::common::{emit_spacc_cfg, SETUP_SCRATCH};
use crate::harness::{self, Grown, OnTrap};
use crate::layout::{alloc_csr_out, place_csr, read_csr_out, Arena, CsrAddrs, CsrOutAddrs};
use crate::variant::{log_width, KernelIndex, Variant};
use issr_core::cfg::{cfg_addr, reg as sreg, SPACC_ROW_CAP_RESET};
use issr_isa::asm::{Assembler, Label, Program};
use issr_isa::instr::Stagger;
use issr_isa::reg::{FpReg, IntReg as R};
use issr_mem::array::MemArray;
use issr_snitch::cc::{RunSummary, SimTimeout, SingleCcSim};
use issr_snitch::params::CcParams;
use issr_sparse::csr::CsrMatrix;

/// Addresses the SpGEMM builders bake into the program.
#[derive(Clone, Copy, Debug)]
pub struct SpgemmAddrs {
    /// The left CSR operand.
    pub a: CsrAddrs,
    /// The right CSR operand.
    pub b: CsrAddrs,
    /// The CSR output region (`ptr[0]` pre-set to 0).
    pub c: CsrOutAddrs,
    /// BASE ping-pong merge scratch: index buffers (capacity `b.ncols`).
    pub scratch_idx: [u32; 2],
    /// BASE ping-pong merge scratch: value buffers (capacity `b.ncols`).
    pub scratch_vals: [u32; 2],
}

/// Builds the SpGEMM program for `variant` with `I`-width indices and
/// the SpAcc row buffer at its reset capacity.
///
/// # Panics
/// Panics for [`Variant::Ssr`]: with sparse output there is no
/// meaningful half-streamed variant — the taxonomy degenerates to BASE
/// vs. the full subsystem.
#[must_use]
pub fn build_spgemm<I: KernelIndex>(variant: Variant, nrows: u32, addrs: SpgemmAddrs) -> Program {
    build_spgemm_capped::<I>(variant, nrows, addrs, SPACC_ROW_CAP_RESET)
}

/// [`build_spgemm`] with an explicit SpAcc row-buffer capacity baked
/// into the program (`ACC_BUF_CAP`). An optimistic capacity arms the
/// overflow trap the grow-and-retry harness recovers from; BASE ignores
/// it (its merge scratch is sized by the output width).
///
/// # Panics
/// As [`build_spgemm`].
#[must_use]
pub fn build_spgemm_capped<I: KernelIndex>(
    variant: Variant,
    nrows: u32,
    addrs: SpgemmAddrs,
    acc_cap: u32,
) -> Program {
    let mut asm = Assembler::new();
    match variant {
        Variant::Base => emit_base_spgemm::<I>(&mut asm, nrows, addrs),
        Variant::Issr => emit_issr_spgemm::<I>(&mut asm, nrows, addrs, acc_cap),
        Variant::Ssr => panic!("SpGEMM defines BASE and ISSR variants only"),
    }
    asm.halt();
    asm.finish().expect("SpGEMM program assembles")
}

/// BASE: software union-merge accumulation through ping-pong scratch.
///
/// Register roles: `s0` `&a.ptr[i+1]`, `s1` `&c.ptr[i+1]`, `s2` rows
/// remaining, `s3` output nnz so far, `s4`/`s5` A index/value cursors,
/// `s6`/`s7` acc-in index/value base, `s8`/`s9` acc-out index/value
/// base, `s10` acc length, `s11` `b.ptr`; `t*`/`a*` per-k merge cursors.
fn emit_base_spgemm<I: KernelIndex>(asm: &mut Assembler, nrows: u32, addrs: SpgemmAddrs) {
    let log_w = log_width::<I>();
    asm.li_addr(R::S0, addrs.a.ptr + 4);
    asm.li_addr(R::S1, addrs.c.ptr + 4);
    asm.li(R::S2, i64::from(nrows));
    asm.li(R::S3, 0);
    asm.li_addr(R::S4, addrs.a.idcs);
    asm.li_addr(R::S5, addrs.a.vals);
    asm.li_addr(R::S6, addrs.scratch_idx[0]);
    asm.li_addr(R::S7, addrs.scratch_vals[0]);
    asm.li_addr(R::S8, addrs.scratch_idx[1]);
    asm.li_addr(R::S9, addrs.scratch_vals[1]);
    asm.li_addr(R::S11, addrs.b.ptr);
    asm.roi_begin();
    if nrows > 0 {
        let row = asm.bind_label();
        asm.symbol("base_row");
        let flush = asm.new_label();
        asm.li(R::S10, 0); // the row accumulator starts empty
        emit_a_row_end::<I>(asm, R::A6, Base::Addr(addrs.a.idcs));
        emit_base_k_merge::<I>(asm, addrs.b.idcs, addrs.b.vals, flush);
        // Row finished: pack the accumulator into the CSR output at the
        // running element offset, then extend the row pointer.
        asm.bind(flush);
        asm.symbol("base_flush");
        emit_indexed_addr(asm, R::T0, R::S3, log_w, Base::Addr(addrs.c.idcs)); // C index cursor
        emit_indexed_addr(asm, R::T1, R::S3, 3, Base::Addr(addrs.c.vals)); // C value cursor
        emit_base_row_copy::<I>(asm);
        asm.add(R::S3, R::S3, R::S10);
        asm.sw(R::S3, R::S1, 0);
        asm.addi(R::S1, R::S1, 4);
        asm.addi(R::S2, R::S2, -1);
        asm.bnez(R::S2, row);
    }
    asm.roi_end();
}

/// Where an array's base comes from: an address baked into the program
/// (materialised through `t6`) or a register holding it — the cluster
/// and system workers keep theirs in registers, the system kernel's
/// panel-relative virtual bases included.
#[derive(Clone, Copy)]
enum Base {
    Addr(u32),
    Reg(R),
}

/// Emits `dst = base + (idx << log_stride)`.
fn emit_indexed_addr(asm: &mut Assembler, dst: R, idx: R, log_stride: i32, base: Base) {
    asm.slli(dst, idx, log_stride);
    let base = match base {
        Base::Addr(addr) => {
            asm.li_addr(R::T6, addr);
            R::T6
        }
        Base::Reg(reg) => reg,
    };
    asm.add(dst, dst, base);
}

/// The single-core row head: reads `a.ptr[r+1]` through the `s0`
/// cursor (advancing it) and leaves the A row's end address in `end`.
/// Clobbers `t5`.
fn emit_a_row_end<I: KernelIndex>(asm: &mut Assembler, end: R, a_idcs: Base) {
    asm.lw(R::T5, R::S0, 0); // a.ptr[r+1]
    asm.addi(R::S0, R::S0, 4);
    emit_indexed_addr(asm, end, R::T5, log_width::<I>(), a_idcs);
}

// ---------------------------------------------------------------------
// The one-pass row loop of the cluster and system workers
// ---------------------------------------------------------------------

/// The offset chain's tag register of the cluster and system workers.
/// These kernels make no calls, so `gp`, `tp` and `ra` are ordinary
/// registers — and the only ones BASE's merge leaves alone besides the
/// loop's own cursors.
pub(crate) const TAG: R = R::GP;
/// Base of the C index array the rows are packed into.
pub(crate) const C_IDCS: R = R::TP;
/// Base of the C value array the rows are packed into.
pub(crate) const C_VALS: R = R::RA;

/// BASE's per-worker ping-pong merge scratch: one block of `[idx0 |
/// idx1 | val0 | val1]` per worker, each array one full output row
/// (the default is none, for plans that merge in the SpAcc).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MergeScratch {
    base: u32,
    idx_bytes: u32,
    val_bytes: u32,
}

impl MergeScratch {
    /// Allocates the blocks of `n_workers` workers for rows of `ncols`.
    pub(crate) fn alloc<I: KernelIndex>(arena: &mut Arena, ncols: u32, n_workers: u32) -> Self {
        let row_cap = ncols.max(1);
        let idx_bytes = (row_cap * I::BYTES + 7) & !7;
        let val_bytes = row_cap * 8;
        let base = arena.alloc(n_workers * 2 * (idx_bytes + val_bytes), 8);
        Self { base, idx_bytes, val_bytes }
    }
}

/// The static state of a cluster or system worker before its first
/// row: ISSR's [`emit_issr_setup`]; for BASE `s6`/`s8` index and
/// `s7`/`s9` value ping-pong buffers in hart `a7`'s block of `scratch`
/// and `s11` = `b.ptr`. Clobbers `t0`–`t2`.
pub(crate) fn emit_worker_setup<I: KernelIndex>(
    asm: &mut Assembler,
    variant: Variant,
    b: CsrAddrs,
    acc_cap: u32,
    scratch: MergeScratch,
) {
    if variant == Variant::Issr {
        emit_issr_setup::<I>(asm, b, acc_cap);
        return;
    }
    asm.li(R::T0, i64::from(2 * (scratch.idx_bytes + scratch.val_bytes)));
    asm.mul(R::T0, R::T0, R::A7);
    asm.li_addr(R::T1, scratch.base);
    asm.add(R::S6, R::T0, R::T1); // idx0
    asm.li(R::T2, i64::from(scratch.idx_bytes));
    asm.add(R::S8, R::S6, R::T2); // idx1
    asm.add(R::S7, R::S8, R::T2); // val0
    asm.li(R::T2, i64::from(scratch.val_bytes));
    asm.add(R::S9, R::S7, R::T2); // val1
    asm.li_addr(R::S11, b.ptr);
}

/// The static streamer state of every ISSR SpGEMM kernel: `s6`/`s7`/`s8`
/// = `b.{ptr,idcs,vals}`, the SSR value stride, the SpAcc index width
/// and row-buffer capacity `acc_cap` (an optimistic one arms the
/// overflow trap), SSR enabled. Clobbers `t0`.
fn emit_issr_setup<I: KernelIndex>(asm: &mut Assembler, b: CsrAddrs, acc_cap: u32) {
    asm.li_addr(R::S6, b.ptr);
    asm.li_addr(R::S7, b.idcs);
    asm.li_addr(R::S8, b.vals);
    asm.li(SETUP_SCRATCH, 8);
    asm.scfgwi(SETUP_SCRATCH, cfg_addr(sreg::STRIDES[0], 0));
    emit_spacc_cfg::<I>(asm);
    asm.li(SETUP_SCRATCH, i64::from(acc_cap));
    asm.scfgwi(SETUP_SCRATCH, cfg_addr(sreg::ACC_BUF_CAP, 0));
    asm.csrsi(issr_isa::Csr::Ssr, 1);
}

// ---------------------------------------------------------------------
// Dealing rows to the chained workers
// ---------------------------------------------------------------------

/// The cost model's fixed cost of a row: the ISSR row loop's
/// instructions outside its k loop on a nonempty row — the head (8),
/// the k loop's exit test (1), the link load (1), the feed wait and
/// length read (4), the chain step (6), the drain launch (7) and the
/// link walk (5).
const ROW_COST: u64 = 32;
/// The cost model's cost of one A nonzero besides its merge steps: the
/// ISSR k loop's 24 instructions (the column and value loads, the B row
/// bounds, the three stream launches and the FREP'd `fmul`).
const K_COST: u64 = 24;
/// The dealing's model of one chain step: the six instructions of
/// [`emit_chain`] plus the two-cycle load-use latency of its two loads.
const CHAIN_STEP: u64 = 10;
/// How far ahead of the head a free worker may reach, in rounds of n
/// rows: two rounds let a worker pass over an expensive round without
/// holding rows the chain reaches only much later.
const WINDOW_ROUNDS: usize = 2;

/// Predicted cost of rows `rows` of `A·B`, from structure only: per row
/// `ROW_COST + Σ_{k∈A[r,:]} (K_COST + |U_k|)`, where `U_k` is the union
/// of the column sets of the B rows fed so far, k included — the SpAcc
/// walks its whole row buffer on every feed, so `|U_k|` is that feed's
/// merge-step count.
pub(crate) fn row_costs<I: KernelIndex>(
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    rows: std::ops::Range<usize>,
) -> Vec<u64> {
    // `seen[j] == r + 1` marks column j as in row r's union.
    let mut seen = vec![0usize; b.ncols()];
    rows.map(|r| {
        let mut union = 0u64;
        let mut cost = ROW_COST;
        for (k, _) in a.row(r) {
            for (j, _) in b.row(k) {
                if seen[j] != r + 1 {
                    seen[j] = r + 1;
                    union += 1;
                }
            }
            cost += K_COST + union;
        }
        cost
    })
    .collect()
}

/// Deals rows of predicted `costs` to `n_workers` chained workers by
/// simulating the offset chain: rows 0..n go to workers 0..n; a worker
/// is free once its last row is published (`T_r = max(finish_r,
/// T_{r−1}) + CHAIN_STEP`), and the earliest free worker takes the head
/// if every row before it is published, else, of the next
/// `WINDOW_ROUNDS · n` unassigned rows, the one most overdue were the
/// chain to advance at its mean pace (the largest `c_r − (r − head) ·
/// c̄ / n`). Returns each worker's rows, increasing — so the real chain
/// cannot deadlock whatever the real costs — with row h first in
/// worker h's list. Equal costs deal cyclically.
pub(crate) fn deal_rows(costs: &[u64], n_workers: usize) -> Vec<Vec<u32>> {
    let nrows = costs.len();
    let mut lists: Vec<Vec<u32>> =
        (0..n_workers).map(|h| if h < nrows { vec![h as u32] } else { Vec::new() }).collect();
    let total: i128 = costs.iter().map(|&c| i128::from(c)).sum();
    // Scores scaled by n · nrows, so the mean pace stays integral.
    let scale = (n_workers * nrows) as i128;
    // `finish[r]` is set once row r is dealt; `publish[r]` (T_r) once
    // every row up to r is, i.e. for every row below the head.
    let mut finish = vec![None; nrows];
    for (r, f) in finish.iter_mut().enumerate().take(n_workers) {
        *f = Some(costs[r]);
    }
    let mut publish = vec![0u64; nrows];
    let mut head = 0;
    loop {
        while let Some(Some(done)) = finish.get(head) {
            let prev = head.checked_sub(1).map_or(0, |p| publish[p]);
            publish[head] = (*done).max(prev) + CHAIN_STEP;
            head += 1;
        }
        if head == nrows {
            return lists;
        }
        // The earliest free worker. Its last row lies below the head: a
        // pick past the head leaves the owner of row head − 1, still
        // busy, holding a row below it.
        let (free, worker) = lists
            .iter()
            .enumerate()
            .filter_map(|(h, l)| {
                l.last().map(|&r| r as usize).filter(|&r| r < head).map(|r| (publish[r], h))
            })
            .min()
            .expect("a worker below the head is free");
        let row = if publish[head - 1] <= free {
            head
        } else {
            (head..nrows)
                .filter(|&r| finish[r].is_none())
                .take(WINDOW_ROUNDS * n_workers)
                .max_by_key(|&r| {
                    let overdue = i128::from(costs[r]) * scale - (r - head) as i128 * total;
                    (overdue, std::cmp::Reverse(r))
                })
                .expect("the head is undealt")
        };
        lists[worker].push(row as u32);
        finish[row] = Some(free + costs[row]);
    }
}

/// The link table of a dealing over `nrows` rows: `link[r]` = 4 · (the
/// owner's next row − r), or 0 after the owner's last row — the byte
/// step that moves a worker's word cursors from one of its rows to the
/// next.
pub(crate) fn link_table(lists: &[Vec<u32>], nrows: usize) -> Vec<u32> {
    let mut link = vec![0u32; nrows];
    for list in lists {
        for pair in list.windows(2) {
            link[pair[0] as usize] = 4 * (pair[1] - pair[0]);
        }
    }
    link
}

/// The link table of rows `rows` of `A·B` dealt over `n_workers`
/// chained workers by their predicted costs (indexed from
/// `rows.start`).
pub(crate) fn row_links<I: KernelIndex>(
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    rows: std::ops::Range<usize>,
    n_workers: usize,
) -> Vec<u32> {
    let nrows = rows.len();
    link_table(&deal_rows(&row_costs(a, b, rows), n_workers), nrows)
}

/// The link-cursor step of [`emit_chained_rows`], loaded from the row's
/// link-table entry (`s2`): 0 after the worker's last row.
const LINK: R = R::A0;

/// The one-pass row loop of the cluster and system workers. Each worker
/// walks its own rows, increasing, through the link table
/// ([`row_links`]); per row it runs the variant's numeric body (the
/// SSR + FREP expansion into the SpAcc, or the software merge), reads
/// the row's length (`ACC_NNZ` once the feeds retired, or the merge
/// length), passes it along the offset chain ([`emit_chain`]) and
/// drains or copies the row to its packed offset. Empty rows are not
/// drained. At row end the row's link moves all four cursors to the
/// worker's next row; a zero link ends the loop.
///
/// On entry (after [`emit_worker_setup`]): `a7` the hart id, `s0` →
/// `a.ptr[r]` of the worker's first row r (which must exist), `s2` →
/// `link[r]`, `a5`/`a4` the A index and value bases `a.ptr` offsets
/// index, `s1` → `ptr[r]` and `s3` → `flag[r]` of the output row
/// pointer and its flag array, [`TAG`], [`C_IDCS`] and [`C_VALS`]. The
/// owner of row 0 starts the chain. ISSR returns with every drain
/// retired. Clobbers `a0`.
pub(crate) fn emit_chained_rows<I: KernelIndex>(
    asm: &mut Assembler,
    variant: Variant,
    b: CsrAddrs,
) {
    let log_w = log_width::<I>();
    // The owner of row 0 publishes ptr[0] = 0 and raises row 0's flag.
    let not_first = asm.new_label();
    asm.bnez(R::A7, not_first);
    asm.sw(R::ZERO, R::S1, 0);
    asm.sw(TAG, R::S3, 0);
    asm.bind(not_first);
    let row = asm.bind_label();
    let next = asm.new_label();
    let flush = asm.new_label();
    if variant == Variant::Issr {
        asm.symbol("issr_row");
        emit_row_head::<I>(asm, R::S9);
        emit_issr_k_expand::<I>(asm, flush);
        asm.bind(flush);
        asm.lw(LINK, R::S2, 0);
        emit_spacc_wait(asm, 4); // this row's feeds, not the last drain
        asm.scfgri(R::T1, cfg_addr(sreg::ACC_NNZ, 0));
        emit_chain(asm, R::T1, R::T2);
        asm.beqz(R::T1, next);
        emit_indexed_addr(asm, R::A2, R::T2, log_w, Base::Reg(C_IDCS));
        emit_indexed_addr(asm, R::A3, R::T2, 3, Base::Reg(C_VALS));
        asm.scfgwi(R::A3, cfg_addr(sreg::ACC_VAL_OUT, 0));
        asm.scfgwi(R::A2, cfg_addr(sreg::ACC_DRAIN, 0)); // launch (retries)
    } else {
        asm.symbol("base_row");
        asm.li(R::S10, 0); // the row accumulator starts empty
        emit_row_head::<I>(asm, R::A6);
        emit_base_k_merge::<I>(asm, b.idcs, b.vals, flush);
        asm.bind(flush);
        emit_chain(asm, R::S10, R::T2);
        asm.lw(LINK, R::S2, 0);
        emit_indexed_addr(asm, R::T0, R::T2, log_w, Base::Reg(C_IDCS));
        emit_indexed_addr(asm, R::T1, R::T2, 3, Base::Reg(C_VALS));
        emit_base_row_copy::<I>(asm);
    }
    asm.bind(next);
    for cursor in [R::S0, R::S1, R::S2, R::S3] {
        asm.add(cursor, cursor, LINK);
    }
    asm.bnez(LINK, row);
    if variant == Variant::Issr {
        emit_spacc_wait(asm, 1); // the last drain retires
    }
}

/// The row head of [`emit_chained_rows`]: reads `a.ptr[r]` and
/// `a.ptr[r+1]` at `s0` and leaves the A row's index and value cursors
/// in `s4`/`s5` and its index end in `end`. Clobbers `t4`, `t5`.
fn emit_row_head<I: KernelIndex>(asm: &mut Assembler, end: R) {
    let log_w = log_width::<I>();
    asm.lw(R::T4, R::S0, 0);
    asm.lw(R::T5, R::S0, 4);
    emit_indexed_addr(asm, R::S4, R::T4, log_w, Base::Reg(R::A5));
    emit_indexed_addr(asm, R::S5, R::T4, 3, Base::Reg(R::A4));
    emit_indexed_addr(asm, end, R::T5, log_w, Base::Reg(R::A5));
}

/// One link of the offset chain: waits until row r's flag (`s3`) holds
/// [`TAG`] — the owner of row r − 1 raises it once `ptr[r]` is
/// published — reads `ptr[r]` (`s1`) into `off`, publishes `ptr[r+1] =
/// off + nnz` and raises row r + 1's flag. Clobbers `t0`.
fn emit_chain(asm: &mut Assembler, nnz: R, off: R) {
    asm.symbol("chain");
    let wait = asm.bind_label();
    asm.lw(R::T0, R::S3, 0);
    asm.blt(R::T0, TAG, wait);
    asm.lw(off, R::S1, 0);
    asm.add(R::T0, off, nnz);
    asm.sw(R::T0, R::S1, 4);
    asm.sw(TAG, R::S3, 4);
    asm.symbol("chain_end");
}

/// The shared BASE per-k loop: walk the current A row (`s4`/`s5`
/// cursors, `a6` end address), and for each `A[i,k]` three-way
/// union-merge the scaled B row into the ping-pong accumulator
/// (`s6`/`s7` in, `s8`/`s9` out, `s10` length, `s11` = `b.ptr`),
/// swapping buffers per k. Branches to `flush` once the row is
/// exhausted. Register roles as documented on [`emit_base_spgemm`];
/// shared with [`emit_chained_rows`], whose only differences are the
/// cursor prologue and the output offsets.
#[allow(clippy::too_many_lines)]
fn emit_base_k_merge<I: KernelIndex>(asm: &mut Assembler, b_idcs: u32, b_vals: u32, flush: Label) {
    let log_w = log_width::<I>();
    let ib = I::BYTES as i32;
    let (va, vb) = (FpReg::FT6, FpReg::FT7);
    let scale = FpReg::FA0;
    let k_loop = asm.bind_label();
    asm.symbol("base_k");
    asm.beq(R::S4, R::A6, flush);
    I::emit_index_load(asm, R::A7, R::S4, 0); // column k
    asm.fld(scale, R::S5, 0); //                a_ik
    asm.addi(R::S4, R::S4, ib);
    asm.addi(R::S5, R::S5, 8);
    // B row k bounds and cursors.
    asm.slli(R::T5, R::A7, 2);
    asm.add(R::T5, R::T5, R::S11);
    asm.lw(R::T3, R::T5, 0); //  b.ptr[k]
    asm.lw(R::T5, R::T5, 4); //  b.ptr[k+1]
    asm.slli(R::T4, R::T3, 3);
    asm.li_addr(R::T6, b_vals);
    asm.add(R::T4, R::T4, R::T6); // B value cursor
    asm.slli(R::A0, R::T5, log_w);
    asm.slli(R::T3, R::T3, log_w);
    asm.li_addr(R::T6, b_idcs);
    asm.add(R::A0, R::A0, R::T6); // B index end
    asm.add(R::T3, R::T3, R::T6); // B index cursor
                                  // Accumulator and output cursors.
    asm.mv(R::T0, R::S6);
    asm.mv(R::T1, R::S7);
    asm.slli(R::T2, R::S10, log_w);
    asm.add(R::T2, R::T2, R::S6); // acc index end
    asm.mv(R::A1, R::S8);
    asm.mv(R::A2, R::S9);
    asm.li(R::A3, 0);
    // Three-way merge of the accumulator with the scaled B row.
    let merge = asm.bind_label();
    asm.symbol("base_merge");
    let copy_acc = asm.new_label();
    let copy_b = asm.new_label();
    let acc_done = asm.new_label();
    let b_done = asm.new_label();
    let merge_done = asm.new_label();
    asm.beq(R::T0, R::T2, acc_done);
    asm.beq(R::T3, R::A0, b_done);
    I::emit_index_load(asm, R::T5, R::T0, 0);
    I::emit_index_load(asm, R::T6, R::T3, 0);
    asm.blt(R::T5, R::T6, copy_acc);
    asm.blt(R::T6, R::T5, copy_b);
    asm.fld(va, R::T1, 0); //     match: acc + a_ik * b
    asm.fld(vb, R::T4, 0);
    asm.fmadd_d(va, vb, scale, va);
    asm.fsd(va, R::A2, 0);
    I::emit_index_store(asm, R::T5, R::A1, 0);
    asm.addi(R::T0, R::T0, ib);
    asm.addi(R::T1, R::T1, 8);
    asm.addi(R::T3, R::T3, ib);
    asm.addi(R::T4, R::T4, 8);
    asm.addi(R::A1, R::A1, ib);
    asm.addi(R::A2, R::A2, 8);
    asm.addi(R::A3, R::A3, 1);
    asm.j(merge);
    asm.bind(copy_acc);
    asm.fld(va, R::T1, 0);
    asm.fsd(va, R::A2, 0);
    I::emit_index_store(asm, R::T5, R::A1, 0);
    asm.addi(R::T0, R::T0, ib);
    asm.addi(R::T1, R::T1, 8);
    asm.addi(R::A1, R::A1, ib);
    asm.addi(R::A2, R::A2, 8);
    asm.addi(R::A3, R::A3, 1);
    asm.j(merge);
    asm.bind(copy_b);
    asm.fld(vb, R::T4, 0);
    asm.fmul_d(vb, vb, scale);
    asm.fsd(vb, R::A2, 0);
    I::emit_index_store(asm, R::T6, R::A1, 0);
    asm.addi(R::T3, R::T3, ib);
    asm.addi(R::T4, R::T4, 8);
    asm.addi(R::A1, R::A1, ib);
    asm.addi(R::A2, R::A2, 8);
    asm.addi(R::A3, R::A3, 1);
    asm.j(merge);
    // Accumulator exhausted: copy the B tail, scaled.
    asm.bind(acc_done);
    asm.symbol("base_b_tail");
    asm.beq(R::T3, R::A0, merge_done);
    I::emit_index_load(asm, R::T6, R::T3, 0);
    asm.fld(vb, R::T4, 0);
    asm.fmul_d(vb, vb, scale);
    asm.fsd(vb, R::A2, 0);
    I::emit_index_store(asm, R::T6, R::A1, 0);
    asm.addi(R::T3, R::T3, ib);
    asm.addi(R::T4, R::T4, 8);
    asm.addi(R::A1, R::A1, ib);
    asm.addi(R::A2, R::A2, 8);
    asm.addi(R::A3, R::A3, 1);
    asm.j(acc_done);
    // B exhausted: copy the accumulator tail.
    asm.bind(b_done);
    asm.symbol("base_acc_tail");
    asm.beq(R::T0, R::T2, merge_done);
    I::emit_index_load(asm, R::T5, R::T0, 0);
    asm.fld(va, R::T1, 0);
    asm.fsd(va, R::A2, 0);
    I::emit_index_store(asm, R::T5, R::A1, 0);
    asm.addi(R::T0, R::T0, ib);
    asm.addi(R::T1, R::T1, 8);
    asm.addi(R::A1, R::A1, ib);
    asm.addi(R::A2, R::A2, 8);
    asm.addi(R::A3, R::A3, 1);
    asm.j(b_done);
    asm.bind(merge_done);
    // Ping-pong swap; the merged row becomes the accumulator.
    asm.mv(R::T5, R::S6);
    asm.mv(R::S6, R::S8);
    asm.mv(R::S8, R::T5);
    asm.mv(R::T5, R::S7);
    asm.mv(R::S7, R::S9);
    asm.mv(R::S9, R::T5);
    asm.mv(R::S10, R::A3);
    asm.j(k_loop);
}

/// The shared BASE row pack-out: copies the accumulator (`s6`/`s7`,
/// `s10` elements) to the C cursors preset in `t0`/`t1`, falling
/// through with the row copied.
fn emit_base_row_copy<I: KernelIndex>(asm: &mut Assembler) {
    let ib = I::BYTES as i32;
    let va = FpReg::FT6;
    let copy = asm.new_label();
    let row_done = asm.new_label();
    asm.mv(R::T2, R::S6);
    asm.mv(R::T3, R::S7);
    asm.mv(R::T4, R::S10);
    asm.bind(copy);
    asm.beqz(R::T4, row_done);
    I::emit_index_load(asm, R::T5, R::T2, 0);
    I::emit_index_store(asm, R::T5, R::T0, 0);
    asm.fld(va, R::T3, 0);
    asm.fsd(va, R::T1, 0);
    asm.addi(R::T2, R::T2, ib);
    asm.addi(R::T3, R::T3, 8);
    asm.addi(R::T0, R::T0, ib);
    asm.addi(R::T1, R::T1, 8);
    asm.addi(R::T4, R::T4, -1);
    asm.j(copy);
    asm.bind(row_done);
}

/// ISSR: SSR + FREP expansion feeding the SpAcc; grow-and-pack drains.
///
/// Register roles: `s0` `&a.ptr[i+1]`, `s1` `&c.ptr[i+1]`, `s2` rows
/// remaining, `s3` output nnz so far, `s4`/`s5` A index/value cursors,
/// `s6` `b.ptr`, `s7` `b.idcs`, `s8` `b.vals`, `s9` A-row end, `a2`/`a3`
/// C index/value byte cursors; `t*` per-k scratch.
fn emit_issr_spgemm<I: KernelIndex>(
    asm: &mut Assembler,
    nrows: u32,
    addrs: SpgemmAddrs,
    acc_cap: u32,
) {
    let log_w = log_width::<I>();
    asm.li_addr(R::S0, addrs.a.ptr + 4);
    asm.li_addr(R::S1, addrs.c.ptr + 4);
    asm.li(R::S2, i64::from(nrows));
    asm.li(R::S3, 0);
    asm.li_addr(R::S4, addrs.a.idcs);
    asm.li_addr(R::S5, addrs.a.vals);
    asm.li_addr(R::A2, addrs.c.idcs);
    asm.li_addr(R::A3, addrs.c.vals);
    emit_issr_setup::<I>(asm, addrs.b, acc_cap);
    asm.roi_begin();
    if nrows > 0 {
        let row = asm.bind_label();
        asm.symbol("issr_row");
        let flush = asm.new_label();
        emit_a_row_end::<I>(asm, R::S9, Base::Addr(addrs.a.idcs));
        emit_issr_k_expand::<I>(asm, flush);
        // Row finished: wait for the *feeds* only (bit 2) — a previous
        // row's drain may still be writing out of the second buffer —
        // then read the data-dependent length and drain.
        asm.bind(flush);
        asm.symbol("issr_flush");
        emit_spacc_wait(asm, 4);
        asm.scfgri(R::T1, cfg_addr(sreg::ACC_NNZ, 0));
        let row_done = asm.new_label();
        asm.add(R::S3, R::S3, R::T1);
        asm.sw(R::S3, R::S1, 0); // c.ptr[i+1]
        asm.addi(R::S1, R::S1, 4);
        asm.beqz(R::T1, row_done);
        asm.scfgwi(R::A3, cfg_addr(sreg::ACC_VAL_OUT, 0));
        asm.scfgwi(R::A2, cfg_addr(sreg::ACC_DRAIN, 0)); // launch (retries)
        asm.slli(R::T2, R::T1, log_w);
        asm.add(R::A2, R::A2, R::T2);
        asm.slli(R::T2, R::T1, 3);
        asm.add(R::A3, R::A3, R::T2);
        asm.bind(row_done);
        asm.addi(R::S2, R::S2, -1);
        asm.bnez(R::S2, row);
        // Let the last drain retire inside the measured region.
        emit_spacc_wait(asm, 1);
    }
    asm.roi_end();
    asm.csrci(issr_isa::Csr::Ssr, 1);
}

/// Spins until `ACC_STATUS & mask` is set (1: the unit is idle, 4: every
/// feed has retired). Clobbers `t0`.
fn emit_spacc_wait(asm: &mut Assembler, mask: i32) {
    let spin = asm.bind_label();
    asm.scfgri(R::T0, cfg_addr(sreg::ACC_STATUS, 0));
    asm.andi(R::T0, R::T0, mask);
    asm.beqz(R::T0, spin);
}

/// The shared ISSR per-k loop: walk the current A row (`s4`/`s5`
/// cursors, `s9` end address), and for each `A[i,k]` launch the SSR
/// read over `B[k,:]` values plus the SpAcc feed over its column
/// indices (`s6`/`s7`/`s8` = `b.{ptr,idcs,vals}`), driving the whole
/// expansion through one `fmul` under FREP. Branches to `flush` once
/// the row is exhausted. Shared with [`emit_chained_rows`].
fn emit_issr_k_expand<I: KernelIndex>(asm: &mut Assembler, flush: Label) {
    let log_w = log_width::<I>();
    let ib = I::BYTES as i32;
    let k_loop = asm.bind_label();
    asm.symbol("issr_k");
    asm.beq(R::S4, R::S9, flush);
    I::emit_index_load(asm, R::T0, R::S4, 0); // column k
    asm.fld(FpReg::FA0, R::S5, 0); //            a_ik
    asm.addi(R::S4, R::S4, ib);
    asm.addi(R::S5, R::S5, 8);
    asm.slli(R::T1, R::T0, 2);
    asm.add(R::T1, R::T1, R::S6);
    asm.lw(R::T2, R::T1, 0); //  b.ptr[k]
    asm.lw(R::T3, R::T1, 4); //  b.ptr[k+1]
    asm.sub(R::T4, R::T3, R::T2); // nnz(B[k,:])
    asm.beqz(R::T4, k_loop);
    // SSR read job over B row k's values.
    asm.addi(R::T6, R::T4, -1);
    asm.scfgwi(R::T6, cfg_addr(sreg::BOUNDS[0], 0));
    asm.slli(R::T6, R::T2, 3);
    asm.add(R::T6, R::T6, R::S8);
    asm.scfgwi(R::T6, cfg_addr(sreg::RPTR[0], 0)); // launch (retries)
                                                   // SpAcc feed over B row k's column indices.
    asm.scfgwi(R::T4, cfg_addr(sreg::ACC_COUNT, 0));
    asm.slli(R::T6, R::T2, log_w);
    asm.add(R::T6, R::T6, R::S7);
    asm.scfgwi(R::T6, cfg_addr(sreg::ACC_FEED, 0)); // launch (retries)
                                                    // The whole expansion: one fmul per nonzero, streamed end to end.
    asm.addi(R::T6, R::T4, -1);
    asm.frep_outer(R::T6, 1, Stagger::NONE);
    asm.fmul_d(FpReg::FT1, FpReg::FT0, FpReg::FA0);
    asm.j(k_loop);
}

/// Result of one SpGEMM run.
#[derive(Clone, Debug)]
pub struct SpgemmRun {
    /// The computed sparse product, read back and format-validated.
    pub c: CsrMatrix<u32>,
    /// Cycle-level summary (SpAcc statistics included).
    pub summary: RunSummary,
}

/// Total Gustavson expansion volume `Σ_i Σ_{k∈A[i,:]} nnz(B[k,:])` —
/// the multiply count, and the budget/capacity driver.
pub(crate) fn expansion_volume<I: KernelIndex>(a: &CsrMatrix<I>, b: &CsrMatrix<I>) -> u64 {
    (0..a.nrows()).map(|r| a.row(r).map(|(k, _)| b.row_range(k).len() as u64).sum::<u64>()).sum()
}

/// Places both operands, the output region (`nnz_cap` nonzeros) and
/// BASE's ping-pong merge scratch.
pub(crate) fn place_spgemm<I: KernelIndex>(
    arena: &mut Arena,
    mem: &mut MemArray,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    nnz_cap: u32,
) -> SpgemmAddrs {
    let a_addrs = place_csr(arena, mem, a);
    let b_addrs = place_csr(arena, mem, b);
    let c = alloc_csr_out::<I>(arena, mem, a.nrows() as u32, nnz_cap);
    let row_cap = (b.ncols() as u32).max(1);
    let idx_bytes = (row_cap * I::BYTES + 7) & !7;
    let scratch_idx = [arena.alloc(idx_bytes, 8), arena.alloc(idx_bytes, 8)];
    let scratch_vals = [arena.alloc(row_cap * 8, 8), arena.alloc(row_cap * 8, 8)];
    SpgemmAddrs { a: a_addrs, b: b_addrs, c, scratch_idx, scratch_vals }
}

/// Marshals the operands, runs SpGEMM on the single-CC setup (SpAcc
/// streamer for the ISSR variant), and returns the product with metrics.
/// The output region is sized by the symbolic pass (two-pass alloc).
///
/// # Errors
/// Returns [`SimTimeout`] if the kernel fails to finish (a bug).
///
/// # Panics
/// Panics if the inner dimensions disagree, on [`Variant::Ssr`], or if
/// the kernel builds a malformed output (a bug the readback validates).
pub fn run_spgemm<I: KernelIndex>(
    variant: Variant,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
) -> Result<SpgemmRun, SimTimeout> {
    run_spgemm_buffered(variant, a, b, true)
}

/// [`run_spgemm`] with an explicit SpAcc row-buffer mode:
/// `double_buffer = false` reverts to the single-buffer unit (a row's
/// drain blocks the next row's first feed), which the benchmark runs to
/// report the overlap delta.
///
/// # Errors
/// Returns [`SimTimeout`] if the kernel fails to finish (a bug).
///
/// # Panics
/// As [`run_spgemm`].
pub fn run_spgemm_buffered<I: KernelIndex>(
    variant: Variant,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    double_buffer: bool,
) -> Result<SpgemmRun, SimTimeout> {
    let sim = spgemm_sim(variant, a, b, double_buffer, SPACC_ROW_CAP_RESET, OnTrap::Panic)?;
    Ok(read_product::<I>(sim, a, b))
}

/// A finished single-CC SpGEMM simulation, before the read-back.
type SpgemmSim = (SingleCcSim, SpgemmAddrs, RunSummary);

/// One marshalled simulation with an explicit SpAcc row-buffer mode and
/// capacity.
fn spgemm_sim<I: KernelIndex>(
    variant: Variant,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    double_buffer: bool,
    acc_cap: u32,
    on_trap: OnTrap,
) -> Result<SpgemmSim, SimTimeout> {
    assert_eq!(b.nrows(), a.ncols(), "inner dimensions must agree");
    let nnz_cap = issr_sparse::reference::spgemm_ptr(a, b).last().copied().unwrap_or(0);
    let volume = expansion_volume(a, b) + u64::from(nnz_cap) + a.nnz() as u64;
    harness::single_cc(
        CcParams { spacc_double_buffer: double_buffer, ..CcParams::sssr() },
        on_trap,
        |arena, mem| place_spgemm(arena, mem, a, b, nnz_cap),
        |addrs| build_spgemm_capped::<I>(variant, a.nrows() as u32, addrs, acc_cap),
        300_000 + 256 * (volume + a.nrows() as u64),
    )
}

/// Reads the product of a clean run back (a trapped run's partially
/// written output region is not a valid CSR matrix).
fn read_product<I: KernelIndex>(
    (sim, addrs, summary): SpgemmSim,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
) -> SpgemmRun {
    let c =
        read_csr_out::<I>(sim.mem.array(), addrs.c, a.nrows(), b.ncols()).with_index_width::<u32>();
    SpgemmRun { c, summary }
}

/// Result of a grow-and-retry SpGEMM run ([`run_spgemm_recover`]).
#[derive(Clone, Debug)]
pub struct SpgemmRecovery {
    /// The final, clean run (oracle-identical product).
    pub run: SpgemmRun,
    /// Overflow traps taken before the capacity sufficed.
    pub retries: u32,
    /// The capacity the clean run used.
    pub final_cap: u32,
}

/// Runs SpGEMM with an *optimistic* SpAcc row-buffer capacity and
/// trap-driven recovery: a `StreamFault::Overflow` latched mid-stream
/// restores the SpAcc's row-buffer checkpoint and parks the core; the
/// harness doubles `ACC_BUF_CAP` (clamped to the output width, where
/// overflow is impossible) and replays — SparseZipper's
/// size-optimistically-recover-on-overflow strategy, so an adversarial
/// row no longer needs a worst-case expansion bound up front.
///
/// # Errors
/// Returns [`SimTimeout`] if an attempt fails to finish (a bug).
///
/// # Panics
/// Panics on zero `initial_cap`, on a non-overflow trap (those are not
/// recoverable), or if the kernel still misbehaves at the full row
/// capacity (a model bug).
pub fn run_spgemm_recover<I: KernelIndex>(
    variant: Variant,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    initial_cap: u32,
) -> Result<SpgemmRecovery, SimTimeout> {
    let Grown { run, retries, final_cap } = harness::grow_and_retry(
        initial_cap,
        output_width(b),
        |cap| spgemm_sim(variant, a, b, true, cap, OnTrap::Report),
        |(_, _, summary)| summary.trap.as_slice(),
    )?;
    Ok(SpgemmRecovery { run: read_product::<I>(run, a, b), retries, final_cap })
}

/// The widest row a product with `b` can hold — the SpAcc capacity at
/// which overflow is impossible.
pub(crate) fn output_width<I: KernelIndex>(b: &CsrMatrix<I>) -> u32 {
    u32::try_from(b.ncols().max(1)).expect("ncols fits u32")
}

#[cfg(test)]
mod tests {
    use super::*;
    use issr_sparse::{gen, reference};

    fn check<I: KernelIndex>(
        variant: Variant,
        nrows: usize,
        inner: usize,
        ncols: usize,
        nnz_a: usize,
        nnz_b: usize,
        seed: u64,
    ) {
        let mut rng = gen::rng(seed);
        let a = gen::csr_uniform::<I>(&mut rng, nrows, inner, nnz_a);
        let b = gen::csr_uniform::<I>(&mut rng, inner, ncols, nnz_b);
        let run = run_spgemm(variant, &a, &b).expect("kernel finishes");
        let expect = reference::spgemm(&a, &b).with_index_width::<u32>();
        assert_eq!(run.c.ptr(), expect.ptr(), "{variant} {nrows}x{inner}x{ncols} row pointers");
        assert_eq!(run.c.idcs(), expect.idcs(), "{variant} column indices");
        for (got, want) in run.c.vals().iter().zip(expect.vals()) {
            assert!(
                (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                "{variant} {nrows}x{inner}x{ncols}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn base_spgemm_matches_reference() {
        check::<u16>(Variant::Base, 12, 24, 20, 60, 90, 200);
        check::<u32>(Variant::Base, 12, 24, 20, 60, 90, 201);
        check::<u16>(Variant::Base, 8, 8, 8, 0, 20, 202); // empty A
        check::<u16>(Variant::Base, 8, 8, 8, 20, 0, 203); // empty B
        check::<u16>(Variant::Base, 5, 3, 40, 10, 60, 204); // wide, dense rows
    }

    #[test]
    fn issr_spgemm_matches_reference() {
        check::<u16>(Variant::Issr, 12, 24, 20, 60, 90, 210);
        check::<u32>(Variant::Issr, 12, 24, 20, 60, 90, 211);
        check::<u16>(Variant::Issr, 8, 8, 8, 0, 20, 212); // empty A
        check::<u16>(Variant::Issr, 8, 8, 8, 20, 0, 213); // empty B
        check::<u16>(Variant::Issr, 5, 3, 40, 10, 60, 214); // wide, dense rows
        check::<u32>(Variant::Issr, 1, 64, 64, 32, 256, 215); // one heavy row
    }

    /// Unaligned packed index rows: odd row lengths force the drain's
    /// strobed partial words at every row boundary (16-bit indices).
    #[test]
    fn issr_spgemm_odd_row_boundaries() {
        let mut triplets = Vec::new();
        for r in 0..7usize {
            for j in 0..=r {
                triplets.push((r, (j * 3 + r) % 16, 1.0 + r as f64 * 0.5 + j as f64));
            }
        }
        let a = CsrMatrix::<u16>::from_triplets(7, 16, &triplets);
        let b_triplets: Vec<(usize, usize, f64)> = (0..16)
            .flat_map(|k| (0..3).map(move |j| (k, (k * 5 + j * 7) % 9, 0.25 * (k + j + 1) as f64)))
            .collect();
        let b = CsrMatrix::<u16>::from_triplets(16, 9, &b_triplets);
        let run = run_spgemm(Variant::Issr, &a, &b).unwrap();
        let expect = reference::spgemm(&a, &b).with_index_width::<u32>();
        assert_eq!(run.c.ptr(), expect.ptr());
        assert_eq!(run.c.idcs(), expect.idcs());
    }

    /// The headline: hardware expansion + SpAcc beats the software merge
    /// by a wide margin once rows carry real work.
    #[test]
    fn issr_beats_base_merge() {
        let mut rng = gen::rng(220);
        let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, 24, 64, 4);
        let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, 64, 256, 24);
        let base = run_spgemm(Variant::Base, &a, &b).unwrap().summary.metrics.roi.cycles;
        let issr = run_spgemm(Variant::Issr, &a, &b).unwrap().summary.metrics.roi.cycles;
        let speedup = issr_trace::ratio(base as f64, issr as f64);
        assert!(speedup > 3.0, "SpGEMM speedup {speedup:.2} (base {base}, issr {issr})");
    }

    /// Every dealing of random costs is a valid walk: the lists
    /// partition the rows, each list increases, worker h starts at row
    /// h, and the link table decodes to the lists, ending in 0.
    #[test]
    fn dealings_are_increasing_partitions_the_links_walk() {
        use rand::Rng;
        let mut rng = gen::rng(230);
        let mut off_cycle = 0;
        for n in [1usize, 2, 3, 4, 8] {
            for nrows in [0, 1, n.saturating_sub(1), n, n + 1, 257] {
                let costs: Vec<u64> = (0..nrows).map(|_| rng.gen_range(1..2_000)).collect();
                let lists = deal_rows(&costs, n);
                assert_eq!(lists.len(), n);
                let mut owner = vec![None; nrows];
                for (h, list) in lists.iter().enumerate() {
                    assert!(list.windows(2).all(|p| p[0] < p[1]), "n={n} rows={nrows}: {list:?}");
                    for &r in list {
                        assert_eq!(owner[r as usize].replace(h), None, "row {r} dealt twice");
                    }
                }
                assert!(owner.iter().all(Option::is_some), "n={n} rows={nrows}: a row undealt");
                off_cycle += owner.iter().enumerate().filter(|&(r, h)| *h != Some(r % n)).count();
                for (h, list) in lists.iter().enumerate().take(nrows) {
                    assert_eq!(list.first(), Some(&(h as u32)), "worker {h} starts at row {h}");
                }
                let link = link_table(&lists, nrows);
                for list in &lists {
                    let Some(&first) = list.first() else { continue };
                    let mut walk = vec![first];
                    let mut r = first as usize;
                    while link[r] != 0 {
                        r += link[r] as usize / 4;
                        walk.push(r as u32);
                    }
                    assert_eq!(&walk, list, "n={n} rows={nrows}: the links decode to the list");
                }
            }
        }
        assert!(off_cycle > 0, "uneven costs must leave the cyclic dealing");
    }

    /// Equal costs deal cyclically: worker h takes rows h, h + n, ….
    #[test]
    fn equal_costs_deal_cyclically() {
        for n in [1usize, 2, 3, 4, 8] {
            for nrows in [0, 1, n.saturating_sub(1), n, n + 1, 257] {
                let lists = deal_rows(&vec![500; nrows], n);
                for (h, list) in lists.iter().enumerate() {
                    let cyclic: Vec<u32> = (h..nrows).step_by(n).map(|r| r as u32).collect();
                    assert_eq!(list, &cyclic, "n={n} rows={nrows} worker {h}");
                }
            }
        }
    }

    /// The cost model counts each feed's merge steps over the union so
    /// far: a row feeding B rows {0, 1} then {1, 2} walks 2 then 3.
    #[test]
    fn row_cost_counts_the_union_walked_per_feed() {
        let a = CsrMatrix::<u16>::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0)]);
        let b = CsrMatrix::<u16>::from_triplets(
            2,
            3,
            &[(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0), (1, 2, 1.0)],
        );
        let feeds = 2 * K_COST + 2 + 3;
        assert_eq!(row_costs(&a, &b, 0..2), [ROW_COST + feeds, ROW_COST]);
        assert_eq!(row_costs(&a, &b, 1..2), [ROW_COST]);
    }

    /// SpAcc activity surfaces in the run summary: one feed per scalar
    /// with a nonempty B row, one drain per nonempty output row.
    #[test]
    fn spacc_stats_surface_in_summary() {
        let mut rng = gen::rng(221);
        let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, 8, 16, 3);
        let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, 16, 32, 8);
        let run = run_spgemm(Variant::Issr, &a, &b).unwrap();
        let stats = run.summary.spacc_stats;
        assert_eq!(stats.feeds, 24, "one feed per A nonzero");
        assert_eq!(stats.pairs_in, 24 * 8, "one pair per expanded product");
        assert_eq!(stats.drains, 8, "one drain per nonempty C row");
        assert!(stats.merges > 0, "duplicate columns must merge");
        // BASE runs the same workload without touching the SpAcc.
        let base = run_spgemm(Variant::Base, &a, &b).unwrap();
        assert_eq!(base.summary.spacc_stats.feeds, 0);
    }
}
