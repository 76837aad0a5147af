//! Multi-cluster CsrMV: the cluster DMA experiment (§IV-B) scaled out
//! to N clusters behind one bandwidth-arbitrated main memory.
//!
//! The row-block partition is [`crate::cluster_csrmv`]'s, but blocks
//! are no longer walked in sequence by one DMCC: every cluster's DMCC
//! **claims** blocks dynamically from a shared work queue — a hardware
//! fetch-and-add ticket word in main memory
//! ([`issr_system::system::System::set_work_queue`]) — so load balance
//! falls out of the claim order instead of a static split. Within a
//! cluster the choreography is the single-cluster kernel's: the DMCC
//! double-buffers each claimed block's values + indices into the TCDM
//! while the workers process the previous block, rows statically
//! striped among them. Two deltas:
//!
//! * the ready handshake carries the **claimed block id** next to the
//!   monotonic sequence flag (`BLK_ID[seq & 1]`), since block ids no
//!   longer equal sequence numbers; a negative id is the termination
//!   sentinel;
//! * the result is written back **per block**: after the workers finish
//!   a block, the DMCC DMAs that block's contiguous `y` rows to main
//!   memory (rows are disjoint across blocks, so clusters never write
//!   the same words), overlapping the write-back with the next block's
//!   compute.
//!
//! Per row the arithmetic is the single-cluster kernel's, in the same
//! order — the result is bit-identical to [`crate::cluster_csrmv`]
//! whatever the cluster count or claim interleaving.

use crate::cluster_csrmv::{
    emit_block_fetch, emit_worker_block_body, emit_worker_issr_cfg, ClusterCsrmvPlan, FLAG_DONE,
    FLAG_META, FLAG_READY,
};
use crate::common::{emit_meta_transfer, emit_parity_slot, emit_wait_all_done};
use crate::harness;
use crate::variant::{KernelIndex, Variant};
use issr_isa::asm::{Assembler, Program};
use issr_isa::reg::IntReg as R;
use issr_isa::Csr;
use issr_mem::map::TCDM_BASE;
use issr_snitch::cc::SimTimeout;
use issr_sparse::csr::CsrMatrix;
use issr_system::system::{SystemParams, SystemSummary};

/// Claimed-block-id slots of the ready handshake (one per buffer), in
/// the flag area below the data region. A negative id terminates the
/// workers.
const BLK_ID: u32 = TCDM_BASE + 0x60;

/// Builds the SPMD system program (identical on every cluster; harts
/// dispatch on `mhartid`, clusters on the work-queue tickets).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn build_system_csrmv<I: KernelIndex>(variant: Variant, plan: &ClusterCsrmvPlan) -> Program {
    assert!(plan.n_workers.is_power_of_two(), "the static row split shifts by log2(workers)");
    assert!(
        matches!(variant, Variant::Base | Variant::Issr),
        "system CsrMV is evaluated for BASE and ISSR"
    );
    let nblocks = plan.blocks.len() as u32;
    let mut asm = Assembler::new();
    asm.csrr(R::A7, Csr::MHartId);
    let dmcc_entry = asm.new_label();
    asm.li(R::T0, i64::from(plan.n_workers));
    asm.beq(R::A7, R::T0, dmcc_entry);

    // ---------------- worker ----------------
    asm.symbol("worker");
    // Wait for resident data (x, ptr, descriptors).
    asm.li_addr(R::T0, FLAG_META);
    let spin_meta = asm.bind_label();
    asm.lw(R::T1, R::T0, 0);
    asm.beqz(R::T1, spin_meta);
    // Static state: descriptor base, sequence counter, y stride (the
    // row loops advance `s1` by `s8`), done-flag slot.
    asm.li_addr(R::S9, plan.tcdm_desc);
    asm.li(R::S10, 0);
    asm.li(R::S8, 8);
    asm.li_addr(R::A6, FLAG_DONE);
    asm.slli(R::T0, R::A7, 3);
    asm.add(R::A6, R::A6, R::T0);
    if variant == Variant::Issr {
        emit_worker_issr_cfg::<I>(&mut asm, plan.tcdm_x);
    }
    asm.roi_begin();
    let worker_end = asm.new_label();
    let block_loop = asm.bind_label();
    asm.symbol("worker_block");
    // Wait ready[seq & 1] >= seq + 1, then read the claimed block id.
    emit_parity_slot(&mut asm, FLAG_READY, R::S10);
    asm.addi(R::T3, R::S10, 1);
    let spin_ready = asm.bind_label();
    asm.lw(R::T2, R::T0, 0);
    asm.blt(R::T2, R::T3, spin_ready);
    emit_parity_slot(&mut asm, BLK_ID, R::S10);
    asm.lw(R::T4, R::T0, 0);
    asm.blt(R::T4, R::ZERO, worker_end); // sentinel: no more blocks
    let signal_done = asm.new_label();
    emit_worker_block_body::<I>(&mut asm, variant, plan, R::T4, signal_done);
    asm.bind(signal_done);
    asm.addi(R::T0, R::S10, 1);
    asm.sw(R::T0, R::A6, 0);
    asm.addi(R::S10, R::S10, 1);
    asm.j(block_loop);
    asm.bind(worker_end);
    asm.roi_end();
    if variant == Variant::Issr {
        asm.csrci(Csr::Ssr, 1);
    }
    asm.halt();

    // ---------------- DMCC ----------------
    asm.bind(dmcc_entry);
    asm.symbol("dmcc");
    // Meta transfer: x | ptr | descriptors in one DMA.
    emit_meta_transfer(&mut asm, plan.main_meta, plan.tcdm_x, plan.meta_bytes, FLAG_META);
    asm.li(R::S1, -1); // previously claimed block id (none yet)
    let dmcc_finish = asm.new_label();
    let claim_loop = asm.bind_label();
    asm.symbol("dmcc_claim");
    // Claim the next block from the shared ticket counter.
    asm.li_addr(R::T0, plan.queue_addr());
    asm.lw(R::S0, R::T0, 0); // hardware fetch-and-add
    asm.li(R::T1, i64::from(nblocks));
    asm.bge(R::S0, R::T1, dmcc_finish); // queue drained
                                        // Before overwriting buffer seq & 1, wait for every worker to be
                                        // done with local block seq - 2 (monotonic: done >= seq - 1).
    let no_wait = asm.new_label();
    asm.addi(R::T0, R::S10, -2);
    asm.blt(R::T0, R::ZERO, no_wait);
    asm.addi(R::T3, R::S10, -1);
    emit_wait_all_done(&mut asm, FLAG_DONE, plan.n_workers, R::T3);
    asm.bind(no_wait);
    emit_block_fetch(&mut asm, plan, R::S0);
    // Publish: the claimed id first, then the monotonic ready flag.
    emit_parity_slot(&mut asm, BLK_ID, R::S10);
    asm.sw(R::S0, R::T0, 0);
    emit_parity_slot(&mut asm, FLAG_READY, R::S10);
    asm.addi(R::T2, R::S10, 1);
    asm.sw(R::T2, R::T0, 0);
    // Write back the previous block's y panel while the workers chew on
    // the block just published (they already have its ready flag).
    let no_prev = asm.new_label();
    asm.blt(R::S1, R::ZERO, no_prev);
    emit_wait_all_done(&mut asm, FLAG_DONE, plan.n_workers, R::S10); // prev block finished
    emit_y_writeback(&mut asm, plan);
    asm.bind(no_prev);
    asm.mv(R::S1, R::S0);
    asm.addi(R::S10, R::S10, 1);
    asm.j(claim_loop);
    asm.bind(dmcc_finish);
    asm.symbol("dmcc_finish");
    // Drain: write back the last claimed block, then terminate workers.
    let no_last = asm.new_label();
    asm.blt(R::S1, R::ZERO, no_last);
    emit_wait_all_done(&mut asm, FLAG_DONE, plan.n_workers, R::S10);
    emit_y_writeback(&mut asm, plan);
    asm.bind(no_last);
    emit_parity_slot(&mut asm, BLK_ID, R::S10);
    asm.li(R::T2, -1);
    asm.sw(R::T2, R::T0, 0);
    emit_parity_slot(&mut asm, FLAG_READY, R::S10);
    asm.addi(R::T2, R::S10, 1);
    asm.sw(R::T2, R::T0, 0);
    asm.halt();
    asm.finish().expect("system CsrMV program assembles")
}

/// Emits the y-panel write-back of the block whose id sits in `s1`:
/// reads its `row_start`/`row_count` from the resident descriptor and
/// DMAs the contiguous y rows to main memory, polling to completion
/// (`s7` tracks issued transfers). Clobbers `t0`–`t5`, `a0`, `a1`.
fn emit_y_writeback(asm: &mut Assembler, plan: &ClusterCsrmvPlan) {
    asm.slli(R::T4, R::S1, 5);
    asm.li_addr(R::T5, plan.tcdm_desc);
    asm.add(R::T4, R::T4, R::T5);
    asm.lw(R::A0, R::T4, 0); // row_start
    asm.lw(R::A1, R::T4, 4); // row_count
    asm.slli(R::T0, R::A0, 3);
    asm.li_addr(R::T1, plan.tcdm_y);
    asm.add(R::T0, R::T0, R::T1); // TCDM source
    asm.slli(R::T2, R::A0, 3);
    asm.li_addr(R::T3, plan.main_y);
    asm.add(R::T2, R::T2, R::T3); // main destination
    asm.dmsrc(R::T0, R::ZERO);
    asm.dmdst(R::T2, R::ZERO);
    asm.slli(R::A1, R::A1, 3);
    asm.dmcpyi(R::ZERO, R::A1, 0);
    asm.addi(R::S7, R::S7, 1);
    let poll = asm.bind_label();
    asm.dmstati(R::T3, 0);
    asm.blt(R::T3, R::S7, poll);
}

/// Result of one system CsrMV run.
#[derive(Clone, Debug)]
pub struct SystemCsrmvRun {
    /// The result vector, read back from the shared main memory.
    pub y: Vec<f64>,
    /// System-wide summary (per-cluster summaries + contention stats).
    pub summary: SystemSummary,
}

/// Runs system CsrMV end to end on `n_clusters` default clusters
/// (plan → marshal → simulate → read back).
///
/// # Errors
/// Returns [`SimTimeout`] if the system deadlocks or exceeds its cycle
/// budget (a bug).
///
/// # Panics
/// Panics if any core traps (the workload is trap-free by
/// construction).
pub fn run_system_csrmv<I: KernelIndex>(
    variant: Variant,
    m: &CsrMatrix<I>,
    x: &[f64],
    n_clusters: usize,
) -> Result<SystemCsrmvRun, SimTimeout> {
    run_system_csrmv_with(variant, m, x, SystemParams { n_clusters, ..SystemParams::default() })
}

/// [`run_system_csrmv`] with explicit system parameters (bandwidth and
/// latency sweeps, cluster scaling studies).
///
/// # Errors
/// Returns [`SimTimeout`] if the system deadlocks or exceeds its cycle
/// budget (a bug).
///
/// # Panics
/// As [`run_system_csrmv`].
pub fn run_system_csrmv_with<I: KernelIndex>(
    variant: Variant,
    m: &CsrMatrix<I>,
    x: &[f64],
    params: SystemParams,
) -> Result<SystemCsrmvRun, SimTimeout> {
    Ok(run_system_csrmv_on(variant, m, x, params, None)?.0)
}

/// [`run_system_csrmv_with`] with tracing enabled (every cluster's
/// timeline keeps its most recent `trace_cap` transitions): returns the
/// run plus the Chrome trace-event export — one track per hart, stream
/// lane and DMA engine of every cluster, loadable at
/// `ui.perfetto.dev`. Tracing only reads state the simulation latches
/// anyway, so the run is cycle-identical to the untraced one.
///
/// # Errors
/// As [`run_system_csrmv_with`].
///
/// # Panics
/// As [`run_system_csrmv`].
pub fn run_system_csrmv_traced<I: KernelIndex>(
    variant: Variant,
    m: &CsrMatrix<I>,
    x: &[f64],
    params: SystemParams,
    trace_cap: usize,
) -> Result<(SystemCsrmvRun, issr_trace::Json), SimTimeout> {
    let (run, trace) = run_system_csrmv_on(variant, m, x, params, Some(trace_cap))?;
    Ok((run, trace.expect("tracing was enabled")))
}

fn run_system_csrmv_on<I: KernelIndex>(
    variant: Variant,
    m: &CsrMatrix<I>,
    x: &[f64],
    params: SystemParams,
    trace_cap: Option<usize>,
) -> Result<(SystemCsrmvRun, Option<issr_trace::Json>), SimTimeout> {
    let plan = ClusterCsrmvPlan::new(m, params.cluster.n_workers as u32);
    let (system, summary, trace) = harness::system(
        params,
        trace_cap,
        build_system_csrmv::<I>(variant, &plan),
        plan.queue_addr(),
        |main| plan.marshal_into(main, m, x),
        1_000_000 + 64 * m.nnz() as u64 + 1024 * m.nrows() as u64,
    )?;
    Ok((SystemCsrmvRun { y: plan.read_y_from(system.main.array()), summary }, trace))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cluster_csrmv::run_cluster_csrmv;
    use issr_sparse::dense::allclose;
    use issr_sparse::{gen, reference};

    fn bits(y: &[f64]) -> Vec<u64> {
        y.iter().map(|v| v.to_bits()).collect()
    }

    fn check_identity<I: KernelIndex>(
        variant: Variant,
        nrows: usize,
        ncols: usize,
        nnz: usize,
        seed: u64,
    ) {
        let mut rng = gen::rng(seed);
        let m = gen::csr_uniform::<I>(&mut rng, nrows, ncols, nnz);
        let x = gen::dense_vector(&mut rng, ncols);
        check_identity_on(variant, &m, &x);
    }

    pub(crate) fn check_identity_on<I: KernelIndex>(variant: Variant, m: &CsrMatrix<I>, x: &[f64]) {
        let single = run_cluster_csrmv(variant, m, x).expect("cluster run finishes");
        for n_clusters in [1usize, 2, 4] {
            let sys = run_system_csrmv(variant, m, x, n_clusters).expect("system run finishes");
            assert_eq!(
                bits(&sys.y),
                bits(&single.y),
                "{variant} {n_clusters} clusters must be bit-identical to the cluster kernel"
            );
        }
        assert!(allclose(&single.y, &reference::csrmv(m, x), 1e-12, 1e-12));
    }

    #[test]
    fn issr_system_bit_identical_to_cluster() {
        check_identity::<u16>(Variant::Issr, 96, 128, 900, 70);
        check_identity::<u32>(Variant::Issr, 96, 128, 900, 71);
    }

    #[test]
    fn base_system_bit_identical_to_cluster() {
        check_identity::<u16>(Variant::Base, 96, 128, 900, 72);
    }

    /// Multi-block workloads force both buffers and the dynamic claim
    /// path on every cluster.
    #[test]
    fn multi_block_claims_stay_bit_identical() {
        check_identity::<u16>(Variant::Issr, 400, 256, 16_000, 73);
    }

    /// Runs of long rows, each worker's cut short by every block
    /// boundary, so every block ends with a row whose reduction would
    /// otherwise be deferred: reference-exact on one cluster and
    /// bit-identical on two and four, in both widths.
    #[test]
    fn block_boundaries_split_runs_of_long_rows() {
        let mut rng = gen::rng(75);
        let m = gen::csr_fixed_row_nnz::<u32>(&mut rng, 300, 256, 40);
        let x = gen::dense_vector(&mut rng, 256);
        assert!(ClusterCsrmvPlan::new(&m, 8).n_blocks() > 2);
        check_identity_on(Variant::Issr, &m, &x);
        check_identity_on(Variant::Issr, &m.with_index_width::<u16>(), &x);
    }

    /// Degenerate shapes: empty matrix, fewer rows than workers.
    #[test]
    fn degenerate_shapes() {
        let m = CsrMatrix::<u16>::from_triplets(6, 64, &[(0, 3, 2.0), (5, 60, -1.0)]);
        let x: Vec<f64> = (0..64).map(|i| f64::from(i as u32) * 0.5).collect();
        let single = run_cluster_csrmv(Variant::Issr, &m, &x).unwrap();
        let sys = run_system_csrmv(Variant::Issr, &m, &x, 2).unwrap();
        assert_eq!(bits(&sys.y), bits(&single.y));
    }

    /// With several clusters and plenty of blocks, more than one cluster
    /// must actually claim work (the queue balances, not starves).
    #[test]
    fn work_spreads_across_clusters() {
        let mut rng = gen::rng(74);
        let m = gen::csr_uniform::<u16>(&mut rng, 400, 256, 16_000);
        let x = gen::dense_vector(&mut rng, 256);
        let sys = run_system_csrmv(Variant::Issr, &m, &x, 2).unwrap();
        let active = sys
            .summary
            .clusters
            .iter()
            .filter(|c| c.dma_stats.words_in > c.dma_stats.words_out)
            .count();
        assert_eq!(active, 2, "both clusters must pull matrix blocks");
        assert!(sys.summary.overlap_cycles > 0, "DMA must overlap compute");
    }
}
