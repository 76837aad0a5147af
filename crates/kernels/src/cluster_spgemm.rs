//! Multicore cluster SpGEMM: `C = A·B` with all three matrices sparse,
//! rows dealt by predicted cost over the sparse-output streamer cluster.
//!
//! Row-wise Gustavson parallelizes embarrassingly over C rows. What does
//! *not* parallelize trivially is the packed output: row offsets depend
//! on every earlier row's data-dependent length, so rows publish in
//! order along an offset chain (below), and a worker that drew an
//! expensive row holds up every row after it.
//!
//! # Dealing rows by predicted cost
//!
//! The planner predicts each row's cost from the operands' structure —
//! a fixed row cost plus, per A nonzero, a fixed cost and the SpAcc's
//! merge steps over the union of the B rows fed so far — and deals the
//! rows by simulating the chain: worker *h* of *n* starts at row *h*;
//! the earliest free worker takes the head when every row before it is
//! published, else, among the next 2*n* rows, the one most overdue
//! were the chain to advance at its mean pace
//! ([`crate::spgemm`]'s `deal_rows`). Each worker's rows increase, so
//! the real chain cannot deadlock whatever the real costs; equal costs
//! deal cyclically (*h*, *h + n*, …). A worker walks its rows through a
//! link table, one word per row, marshalled with the flags: `link[r]`
//! is 4 × (the owner's next row − r), 0 after its last row.
//!
//! # Device-owned allocation
//!
//! The device computes every packed offset, in the same pass as the
//! values. The host only sizes the output region by an upper bound (the
//! Gustavson expansion volume), writes `ptr[0] = 0` and zeroes a flag
//! array of one word per row. Per row, a worker runs the numeric body
//! of [`crate::spgemm`] — the SSR + FREP `fmul` expansion into the SpAcc
//! for ISSR, the software union-merge through per-worker ping-pong
//! scratch for BASE — and then:
//!
//! 1. reads the row's length: `ACC_NNZ` once the row's feeds retired
//!    (`ACC_STATUS` bit 2), or the merge length;
//! 2. waits until the owner of row r − 1 has raised row r's flag, so
//!    `ptr[r]` is published;
//! 3. stores `ptr[r + 1] = ptr[r] + nnz`;
//! 4. raises row r + 1's flag to the tag (1 here; the owner of row 0
//!    raises row 0's before its first row);
//! 5. drains (ISSR) or copies (BASE) the row to `ptr[r]`; an empty row
//!    moves nothing.
//!
//! Only steps 2–4 serialize across workers; a worker's next row expands
//! while the rows between pass the chain along, and the double-buffered
//! SpAcc overlaps a row's drain with the next row's feeds. Adjacent
//! rows may share a 64-bit index word at their boundary — the SpAcc
//! drain (ISSR) and the core's halfword stores (BASE) both write with
//! byte strobes, so the races compose.
//!
//! A worker that traps — a row-buffer overflow under an optimistic
//! `ACC_BUF_CAP` — never publishes its row, and its successors would
//! spin until the cycle budget ran out. The harness therefore ends a
//! cluster run at quiescence *or at the first latched trap*, and
//! [`run_cluster_spgemm_recover`] replays with a grown capacity.

use crate::harness::{
    self, Grown,
    OnTrap::{self, Panic, Report},
};
use crate::layout::{csr_addrs, store_csr, tcdm_arena, CsrAddrs};
use crate::spgemm::{
    emit_chained_rows, emit_worker_setup, expansion_volume, output_width, row_links, MergeScratch,
    C_IDCS, C_VALS, TAG,
};
use crate::variant::{KernelIndex, Variant};
use issr_cluster::cluster::{Cluster, ClusterParams, ClusterSummary};
use issr_core::cfg::SPACC_ROW_CAP_RESET;
use issr_isa::asm::{Assembler, Program};
use issr_isa::reg::IntReg as R;
use issr_isa::Csr;
use issr_snitch::cc::SimTimeout;
use issr_snitch::params::CcParams;
use issr_sparse::csr::CsrMatrix;

/// The planned layout of one cluster SpGEMM run.
#[derive(Clone, Debug)]
pub struct ClusterSpgemmPlan {
    a: CsrAddrs,
    b: CsrAddrs,
    /// C region; `nnz` is a *capacity upper bound* (expansion volume) —
    /// the exact packed offsets are computed on-device.
    c: CsrAddrs,
    /// The offset chain's flag words, one per row pointer entry
    /// (host-zeroed).
    flags: u32,
    /// The link table's words, one per row, and their values: each
    /// worker's walk over the rows dealt to it.
    link: u32,
    link_table: Vec<u32>,
    /// BASE's per-worker merge scratch (always planned).
    scratch: MergeScratch,
    /// SpAcc row-buffer capacity each ISSR worker programs
    /// (`ACC_BUF_CAP`); the reset value by default, optimistic for the
    /// grow-and-retry flow.
    acc_cap: u32,
    nrows: u32,
    ncols: u32,
    n_workers: u32,
}

impl ClusterSpgemmPlan {
    /// Plans the TCDM-resident layout: operands, the output region
    /// (sized by the expansion-volume upper bound — no host symbolic
    /// pass), the chain's flags, the link table of the rows dealt by
    /// predicted cost and per-worker merge scratch.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree or the workload does not
    /// fit the TCDM.
    #[must_use]
    pub fn new<I: KernelIndex>(a: &CsrMatrix<I>, b: &CsrMatrix<I>, n_workers: u32) -> Self {
        assert_eq!(b.nrows(), a.ncols(), "inner dimensions must agree");
        let cap = expansion_volume(a, b).min(a.nrows() as u64 * b.ncols() as u64);
        let cap = u32::try_from(cap).expect("expansion volume fits u32");
        let nrows = a.nrows() as u32;
        let mut arena = tcdm_arena();
        let a_addrs = csr_addrs::<I>(&mut arena, nrows, a.nnz() as u32);
        let b_addrs = csr_addrs::<I>(&mut arena, b.nrows() as u32, b.nnz() as u32);
        let c_addrs = csr_addrs::<I>(&mut arena, nrows, cap);
        let flags = arena.alloc((nrows + 1) * 4, 8);
        let ncols = b.ncols() as u32;
        let scratch = MergeScratch::alloc::<I>(&mut arena, ncols, n_workers);
        Self {
            a: a_addrs,
            b: b_addrs,
            c: c_addrs,
            flags,
            link: arena.alloc(nrows.max(1) * 4, 8),
            link_table: row_links(a, b, 0..a.nrows(), n_workers as usize),
            scratch,
            acc_cap: SPACC_ROW_CAP_RESET,
            nrows,
            ncols,
            n_workers,
        }
    }

    /// Allocated output capacity (the expansion-volume upper bound).
    #[must_use]
    pub fn c_cap(&self) -> u32 {
        self.c.nnz
    }

    /// Overrides the SpAcc row-buffer capacity the ISSR workers
    /// program. An optimistic capacity arms the overflow trap the
    /// grow-and-retry harness ([`run_cluster_spgemm_recover`]) recovers
    /// from.
    #[must_use]
    pub fn with_acc_cap(mut self, acc_cap: u32) -> Self {
        self.acc_cap = acc_cap.max(1);
        self
    }

    /// Writes the operands into the TCDM, `ptr[0] = 0`, the zeroed
    /// chain flags and the link table. Nothing data-dependent about C
    /// crosses the host/device boundary.
    pub fn marshal<I: KernelIndex>(
        &self,
        cluster: &mut Cluster,
        a: &CsrMatrix<I>,
        b: &CsrMatrix<I>,
    ) {
        let mem = cluster.tcdm.array_mut();
        store_csr(mem, self.a, a);
        store_csr(mem, self.b, b);
        mem.store_u32(self.c.ptr, 0);
        mem.store_u32_slice(self.flags, &vec![0; self.nrows as usize + 1]);
        mem.store_u32_slice(self.link, &self.link_table);
    }

    /// Reads the product back from the TCDM — row pointer included, so
    /// the device-computed offsets and packed rows are all validated by
    /// the CSR readback.
    ///
    /// # Panics
    /// Panics if the stored structure is not a valid CSR matrix.
    #[must_use]
    pub fn read_c<I: KernelIndex>(&self, cluster: &Cluster) -> CsrMatrix<I> {
        crate::layout::read_csr_out::<I>(
            cluster.tcdm.array(),
            crate::layout::CsrOutAddrs {
                ptr: self.c.ptr,
                idcs: self.c.idcs,
                vals: self.c.vals,
                nnz_cap: self.c.nnz,
            },
            self.nrows as usize,
            self.ncols as usize,
        )
    }
}

/// Builds the SPMD cluster program: worker h walks the rows dealt to it,
/// from row h, through the one-pass row loop (see the module docs); the
/// DMCC, hart n, halts immediately (the workload is resident), as does
/// a worker past the last row.
///
/// # Panics
/// Panics for [`Variant::Ssr`] (see [`crate::spgemm::build_spgemm`]).
#[must_use]
pub fn build_cluster_spgemm<I: KernelIndex>(variant: Variant, plan: &ClusterSpgemmPlan) -> Program {
    assert!(
        matches!(variant, Variant::Base | Variant::Issr),
        "cluster SpGEMM defines BASE and ISSR variants only"
    );
    let mut asm = Assembler::new();
    asm.csrr(R::A7, Csr::MHartId);
    let worker = asm.new_label();
    asm.li(R::T0, i64::from(plan.n_workers.min(plan.nrows)));
    asm.blt(R::A7, R::T0, worker);
    asm.halt();
    asm.bind(worker);
    asm.symbol("worker");
    asm.slli(R::T0, R::A7, 2);
    asm.li_addr(R::S0, plan.a.ptr);
    asm.add(R::S0, R::S0, R::T0); // &a.ptr[h]
    asm.li_addr(R::S2, plan.link);
    asm.add(R::S2, R::S2, R::T0); // &link[h]
    asm.li_addr(R::S1, plan.c.ptr);
    asm.add(R::S1, R::S1, R::T0); // &c.ptr[h]
    asm.li_addr(R::S3, plan.flags);
    asm.add(R::S3, R::S3, R::T0); // &flag[h]
    asm.li_addr(R::A5, plan.a.idcs);
    asm.li_addr(R::A4, plan.a.vals);
    asm.li(TAG, 1);
    asm.li_addr(C_IDCS, plan.c.idcs);
    asm.li_addr(C_VALS, plan.c.vals);
    emit_worker_setup::<I>(&mut asm, variant, plan.b, plan.acc_cap, plan.scratch);
    asm.roi_begin();
    emit_chained_rows::<I>(&mut asm, variant, plan.b);
    asm.roi_end();
    if variant == Variant::Issr {
        asm.csrci(Csr::Ssr, 1);
    }
    asm.halt();
    asm.finish().expect("cluster SpGEMM program assembles")
}

/// Result of one cluster SpGEMM run.
#[derive(Clone, Debug)]
pub struct ClusterSpgemmRun {
    /// The computed sparse product, read back and format-validated.
    pub c: CsrMatrix<u32>,
    /// Cluster-wide summary (per-worker SpAcc statistics included).
    pub summary: ClusterSummary,
}

/// Runs cluster SpGEMM end to end on the default eight-worker,
/// double-buffered cluster (plan → marshal → simulate → read back).
/// Every packed offset is computed on-device.
///
/// # Errors
/// Returns [`SimTimeout`] if the cluster deadlocks or exceeds its cycle
/// budget (a bug).
///
/// # Panics
/// Panics if the inner dimensions disagree, on [`Variant::Ssr`], or if
/// the workers build a malformed output (the readback validates).
pub fn run_cluster_spgemm<I: KernelIndex>(
    variant: Variant,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
) -> Result<ClusterSpgemmRun, SimTimeout> {
    run_cluster_spgemm_on(variant, a, b, ClusterParams::default().n_workers, true)
}

/// [`run_cluster_spgemm`] with an explicit worker count and SpAcc
/// buffer mode (the property suite sweeps 1/2/4/8 workers; the
/// benchmark compares single- vs. double-buffered drains).
///
/// # Errors
/// Returns [`SimTimeout`] if the cluster deadlocks or exceeds its cycle
/// budget (a bug).
///
/// # Panics
/// As [`run_cluster_spgemm`].
pub fn run_cluster_spgemm_on<I: KernelIndex>(
    variant: Variant,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    n_workers: usize,
    double_buffer: bool,
) -> Result<ClusterSpgemmRun, SimTimeout> {
    let sim =
        cluster_spgemm_sim(variant, a, b, n_workers, double_buffer, SPACC_ROW_CAP_RESET, Panic)?;
    Ok(read_product::<I>(sim))
}

/// A finished cluster SpGEMM simulation, before the read-back.
type ClusterSpgemmSim = (ClusterSpgemmPlan, Cluster, ClusterSummary);

/// One marshalled cluster run with an explicit SpAcc row-buffer mode
/// and capacity.
fn cluster_spgemm_sim<I: KernelIndex>(
    variant: Variant,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    n_workers: usize,
    double_buffer: bool,
    acc_cap: u32,
    on_trap: OnTrap,
) -> Result<ClusterSpgemmSim, SimTimeout> {
    let cc = CcParams { spacc_double_buffer: double_buffer, ..CcParams::sssr() };
    let params = ClusterParams { n_workers, cc, ..ClusterParams::default() };
    let plan = ClusterSpgemmPlan::new(a, b, n_workers as u32).with_acc_cap(acc_cap);
    let volume = expansion_volume(a, b);
    let budget = 4_000_000 + 1024 * (volume + u64::from(plan.c_cap()) + a.nrows() as u64);
    let program = build_cluster_spgemm::<I>(variant, &plan);
    let (cluster, summary) =
        harness::cluster(params, on_trap, program, |cluster| plan.marshal(cluster, a, b), budget)?;
    Ok((plan, cluster, summary))
}

/// Reads the product of a clean run back (a trapped run leaves the
/// output region partially written).
fn read_product<I: KernelIndex>((plan, cluster, summary): ClusterSpgemmSim) -> ClusterSpgemmRun {
    ClusterSpgemmRun { c: plan.read_c::<I>(&cluster).with_index_width::<u32>(), summary }
}

/// Result of a grow-and-retry cluster SpGEMM run
/// ([`run_cluster_spgemm_recover`]).
#[derive(Clone, Debug)]
pub struct ClusterSpgemmRecovery {
    /// The final, clean run (oracle-identical product).
    pub run: ClusterSpgemmRun,
    /// Attempts that trapped on SpAcc overflow before the capacity
    /// sufficed (any worker trapping counts once).
    pub retries: u32,
    /// The capacity the clean run used.
    pub final_cap: u32,
}

/// Cluster SpGEMM with an optimistic per-worker SpAcc capacity and
/// trap-driven grow-and-retry: a worker whose row overflows latches the
/// overflow and parks, the attempt ends at that first trap (its
/// successors in the offset chain would wait for it forever), and the
/// harness doubles `ACC_BUF_CAP` (clamped to the output width) and
/// replays.
///
/// # Errors
/// Returns [`SimTimeout`] if an attempt deadlocks (a bug).
///
/// # Panics
/// Panics on zero `initial_cap`, on any non-overflow trap, or if
/// overflow persists at the full row capacity (a model bug).
pub fn run_cluster_spgemm_recover<I: KernelIndex>(
    variant: Variant,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    n_workers: usize,
    initial_cap: u32,
) -> Result<ClusterSpgemmRecovery, SimTimeout> {
    let Grown { run, retries, final_cap } = harness::grow_and_retry(
        initial_cap,
        output_width(b),
        |cap| cluster_spgemm_sim(variant, a, b, n_workers, true, cap, Report),
        |(_, _, summary)| &summary.traps,
    )?;
    Ok(ClusterSpgemmRecovery { run: read_product::<I>(run), retries, final_cap })
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
        let run = run_cluster_spgemm(variant, &a, &b).expect("cluster run finishes");
        assert!(run.summary.traps.is_empty(), "unexpected traps: {:?}", run.summary.traps);
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
    fn base_cluster_spgemm_matches_reference() {
        check::<u16>(Variant::Base, 24, 32, 48, 120, 160, 400);
        check::<u32>(Variant::Base, 24, 32, 48, 120, 160, 401);
        check::<u16>(Variant::Base, 5, 16, 16, 20, 40, 402); // fewer rows than workers
    }

    #[test]
    fn issr_cluster_spgemm_matches_reference() {
        check::<u16>(Variant::Issr, 24, 32, 48, 120, 160, 410);
        check::<u32>(Variant::Issr, 24, 32, 48, 120, 160, 411);
        check::<u16>(Variant::Issr, 5, 16, 16, 20, 40, 412); // fewer rows than workers
        check::<u16>(Variant::Issr, 16, 16, 16, 0, 40, 413); // empty A
        check::<u32>(Variant::Issr, 16, 16, 16, 40, 0, 414); // empty B
    }

    /// Odd row lengths at worker stripe boundaries exercise the strobed
    /// shared-word writes between adjacent workers (16-bit indices).
    #[test]
    fn issr_cluster_spgemm_odd_worker_boundaries() {
        let mut triplets = Vec::new();
        for r in 0..17usize {
            for j in 0..=(r % 3) {
                triplets.push((r, (j * 5 + r) % 24, 1.0 + (r + j) as f64 * 0.25));
            }
        }
        let a = CsrMatrix::<u16>::from_triplets(17, 24, &triplets);
        let b_triplets: Vec<(usize, usize, f64)> = (0..24)
            .flat_map(|k| (0..5).map(move |j| (k, (k * 3 + j * 7) % 13, 0.5 * (k + j + 1) as f64)))
            .collect();
        let b = CsrMatrix::<u16>::from_triplets(24, 13, &b_triplets);
        let run = run_cluster_spgemm(Variant::Issr, &a, &b).unwrap();
        let expect = reference::spgemm(&a, &b).with_index_width::<u32>();
        assert_eq!(run.c.ptr(), expect.ptr());
        assert_eq!(run.c.idcs(), expect.idcs());
        // Every worker with rows must have drained through its SpAcc.
        let active = run.summary.spacc_stats.iter().filter(|s| s.drains > 0).count();
        assert!(active >= 2, "row striping must engage multiple SpAcc units");
    }

    /// Every offset is chained on the workers in the one pass that
    /// computes the values: one feed per A nonzero whose B row is
    /// nonempty, one drain per nonempty C row,
    /// and a row pointer the device wrote — the host writes only
    /// `ptr[0]` and the zeroed flags, over a poisoned row pointer.
    #[test]
    fn offsets_are_chained_on_device() {
        let mut rng = gen::rng(430);
        let a = gen::csr_uniform::<u16>(&mut rng, 20, 24, 36);
        let b = gen::csr_uniform::<u16>(&mut rng, 24, 40, 30);
        let expect = reference::spgemm(&a, &b).with_index_width::<u32>();
        let plan = ClusterSpgemmPlan::new(&a, &b, 8);
        let params = ClusterParams { cc: CcParams::sssr(), ..ClusterParams::default() };
        let mut cluster = Cluster::new(build_cluster_spgemm::<u16>(Variant::Issr, &plan), params);
        cluster.tcdm.array_mut().store_u32_slice(plan.c.ptr, &[u32::MAX; 21]);
        plan.marshal(&mut cluster, &a, &b);
        let summary = cluster.run(1_000_000).unwrap();
        assert!(summary.traps.is_empty(), "{:?}", summary.traps);
        let c = plan.read_c::<u16>(&cluster).with_index_width::<u32>();
        assert_eq!(c.ptr(), expect.ptr(), "device-written row pointer");
        assert_eq!(c.idcs(), expect.idcs());
        let sum = |f: fn(&issr_core::spacc::SpAccStats) -> u64| -> u64 {
            summary.spacc_stats.iter().map(f).sum()
        };
        let live_feeds = (0..a.nrows())
            .flat_map(|r| a.row(r).map(|(k, _)| k))
            .filter(|&k| !b.row_range(k).is_empty())
            .count() as u64;
        let nonempty_rows = expect.ptr().windows(2).filter(|w| w[1] > w[0]).count() as u64;
        assert!(live_feeds < a.nnz() as u64, "some B rows must be empty");
        assert!(nonempty_rows < 20, "some C rows must be empty");
        assert_eq!(sum(|s| s.feeds), live_feeds, "one feed per live A nonzero");
        assert_eq!(sum(|s| s.drains), nonempty_rows, "one drain per nonempty C row");
    }

    /// The hardware cluster beats the software-merge cluster, both
    /// chaining their offsets on-device.
    #[test]
    fn cluster_spgemm_issr_beats_base() {
        let mut rng = gen::rng(420);
        let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, 32, 48, 4);
        let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, 48, 160, 20);
        let base = run_cluster_spgemm(Variant::Base, &a, &b).unwrap();
        let issr = run_cluster_spgemm(Variant::Issr, &a, &b).unwrap();
        let speedup = issr_trace::ratio(base.summary.cycles as f64, issr.summary.cycles as f64);
        assert!(speedup > 2.0, "cluster SpGEMM speedup {speedup:.2}");
    }

    /// Rows of uneven cost dealt by predicted cost: the chain no longer
    /// waits for each round's most expensive row (14,356 cycles dealt
    /// cyclically).
    #[test]
    fn cost_dealing_shortens_uneven_rows() {
        // B is the system smoke's (`--bin system --smoke`).
        let mut rng = gen::rng(8_801);
        let _ = gen::csr_uniform::<u16>(&mut rng, 256, 128, 2_000);
        let b = gen::csr_uniform::<u16>(&mut rng, 128, 160, 1_200);
        let a = gen::csr_uniform::<u16>(&mut gen::rng(77), 192, 128, 1_500);
        let run = run_cluster_spgemm(Variant::Issr, &a, &b).unwrap();
        assert_eq!(run.c.ptr(), reference::spgemm_ptr(&a, &b).as_slice());
        assert!(run.summary.cycles <= 12_500, "{} cycles", run.summary.cycles);
    }

    /// Double-buffered SpAcc drains overlap the next row's feeds: the
    /// overlap counter moves and the cluster does not get slower.
    #[test]
    fn double_buffering_overlaps_drains() {
        let mut rng = gen::rng(421);
        let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, 16, 32, 4);
        let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, 32, 96, 16);
        let double = run_cluster_spgemm_on(Variant::Issr, &a, &b, 8, true).unwrap();
        let single = run_cluster_spgemm_on(Variant::Issr, &a, &b, 8, false).unwrap();
        assert_eq!(double.c.ptr(), single.c.ptr(), "buffer mode cannot change the result");
        assert_eq!(double.c.idcs(), single.c.idcs());
        let overlap: u64 = double.summary.spacc_stats.iter().map(|s| s.overlap_cycles).sum();
        assert!(overlap > 0, "double buffering must win overlap cycles");
        let single_overlap: u64 = single.summary.spacc_stats.iter().map(|s| s.overlap_cycles).sum();
        assert_eq!(single_overlap, 0, "single-buffer mode serializes drain and feed");
        assert!(
            double.summary.cycles <= single.summary.cycles,
            "double buffering must not slow the cluster ({} vs {})",
            double.summary.cycles,
            single.summary.cycles
        );
    }
}
