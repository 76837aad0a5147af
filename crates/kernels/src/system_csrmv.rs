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
//! double-buffers each claimed block's values, slice table and indices
//! into the TCDM while the workers process the previous block, rows
//! statically striped among them; a worker reads its rows, cursors and
//! stream starts from the slice table in the block's own buffer, so the
//! claimed id only tells it whether the sentinel ended the run. Three
//! deltas, all in the tile handshake of the crate-private `handshake`
//! module:
//!
//! * the DMCC publishes the **claimed block id** with each block, since
//!   block ids no longer equal sequence numbers, and ends the workers
//!   with the sentinel;
//! * the result is written back **per block**: once the buffer guard
//!   sees the workers finish block `seq − 2`, the DMCC queues the DMA of
//!   that block's contiguous `y` rows to main memory behind the fetch of
//!   block `seq`, without polling it (rows are disjoint across blocks,
//!   so clusters never write the same words); the engine completes in
//!   order, so the fetch's next poll, or the idle wait before the DMCC
//!   halts, covers it;
//! * no block is known when the program is built, so the first fetch
//!   waits for the first claim, which moves behind the meta transfer
//!   (the cluster kernel queues its block 0 there instead).
//!
//! Per row the arithmetic is the single-cluster kernel's, in the same
//! order — the result is bit-identical to [`crate::cluster_csrmv`]
//! whatever the cluster count or claim interleaving.

use crate::cluster_csrmv::{
    emit_block_prepare, emit_desc_addr, emit_worker, ClusterCsrmvPlan, TileOrder,
};
use crate::harness;
use crate::variant::{KernelIndex, Variant};
use issr_isa::asm::{Assembler, Program};
use issr_isa::reg::IntReg as R;
use issr_snitch::cc::SimTimeout;
use issr_sparse::csr::CsrMatrix;
use issr_system::system::{SystemParams, SystemSummary};

/// Builds the SPMD system program (identical on every cluster; harts
/// dispatch on `mhartid`, clusters on the work-queue tickets).
#[must_use]
pub fn build_system_csrmv<I: KernelIndex>(variant: Variant, plan: &ClusterCsrmvPlan) -> Program {
    let mut asm = Assembler::new();
    let dmcc_entry = emit_worker::<I>(&mut asm, variant, plan, TileOrder::Claimed);
    asm.bind(dmcc_entry);
    asm.symbol("dmcc");
    // Meta transfer: x | ptr | descriptors in one DMA.
    plan.flags.emit_claim_loop(
        &mut asm,
        (plan.main_meta, plan.tcdm_x, plan.meta_bytes),
        plan.queue_addr(),
        plan.blocks.len() as u32,
        |asm| emit_block_prepare(asm, plan, R::S0),
        |asm| emit_y_writeback(asm, plan),
    );
    asm.finish().expect("system CsrMV program assembles")
}

/// Emits the y-panel write-back of the block whose id sits in `s1`:
/// reads its `row_start`/`row_count` from the resident descriptor and
/// queues the DMA of the contiguous y rows to main memory without
/// polling it (the engine completes in order: the next fetch's poll or
/// the claim loop's final idle wait covers it). Clobbers `t0`–`t5`,
/// `a0`, `a1`.
fn emit_y_writeback(asm: &mut Assembler, plan: &ClusterCsrmvPlan) {
    emit_desc_addr(asm, plan, R::S1);
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
    use crate::cluster_csrmv::run_cluster_csrmv_with;
    use issr_cluster::cluster::ClusterParams;
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
        n_workers: usize,
    ) {
        let mut rng = gen::rng(seed);
        let m = gen::csr_uniform::<I>(&mut rng, nrows, ncols, nnz);
        let x = gen::dense_vector(&mut rng, ncols);
        check_identity_on(variant, &m, &x, n_workers);
    }

    /// The system kernel on 1, 2 and 4 clusters of `n_workers` workers
    /// is bit-identical to the cluster kernel, which matches the
    /// reference.
    pub(crate) fn check_identity_on<I: KernelIndex>(
        variant: Variant,
        m: &CsrMatrix<I>,
        x: &[f64],
        n_workers: usize,
    ) {
        let cluster = ClusterParams { n_workers, ..ClusterParams::default() };
        let single = run_cluster_csrmv_with(variant, m, x, cluster).expect("cluster run finishes");
        for n_clusters in [1usize, 2, 4] {
            let params = SystemParams { n_clusters, cluster, ..SystemParams::default() };
            let sys = run_system_csrmv_with(variant, m, x, params).expect("system run finishes");
            assert_eq!(
                bits(&sys.y),
                bits(&single.y),
                "{variant} {n_clusters} clusters of {n_workers} workers must be bit-identical \
                 to the cluster kernel"
            );
        }
        assert!(allclose(&single.y, &reference::csrmv(m, x), 1e-12, 1e-12));
    }

    #[test]
    fn issr_system_bit_identical_to_cluster() {
        check_identity::<u16>(Variant::Issr, 96, 128, 900, 70, 8);
        check_identity::<u32>(Variant::Issr, 96, 128, 900, 71, 8);
    }

    #[test]
    fn base_system_bit_identical_to_cluster() {
        check_identity::<u16>(Variant::Base, 96, 128, 900, 72, 8);
    }

    /// Multi-block workloads force both buffers and the dynamic claim
    /// path on every cluster. At 16 workers the flag area's `claimed`
    /// slots follow `done[16]`; an area laid out for eight workers put
    /// them on `done[8]` and `done[9]`, and the claimed ids of this
    /// matrix came out wrong at 2 and 4 clusters. The planner derives
    /// each worker's rows, so a worker count that is no power of two
    /// (six) splits the blocks as well.
    #[test]
    fn multi_block_claims_stay_bit_identical() {
        check_identity::<u16>(Variant::Issr, 400, 256, 16_000, 73, 8);
        check_identity::<u16>(Variant::Issr, 6000, 512, 30_000, 13, 16);
        check_identity::<u16>(Variant::Base, 400, 256, 16_000, 73, 6);
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
        check_identity_on(Variant::Issr, &m, &x, 8);
        check_identity_on(Variant::Issr, &m.with_index_width::<u16>(), &x, 8);
    }

    /// Two and three blocks on 1, 2 and 4 clusters of 8 and of 16
    /// workers: the claim loop's finish pass retires both tiles it can
    /// still hold (`L − 2` and `L − 1`) on a cluster that claimed two or
    /// more, one on a cluster that claimed one, and none on a cluster
    /// that claimed nothing. At 16 workers the unrolled all-worker `done`
    /// wait runs 16 slots inside the pass loop.
    #[test]
    fn finish_path_retires_the_last_two_blocks() {
        for n_workers in [8, 16] {
            for (nrows, nblocks) in [(64, 2), (96, 3)] {
                let mut rng = gen::rng(77);
                let m = gen::csr_fixed_row_nnz::<u16>(&mut rng, nrows, 1024, 173);
                let x = gen::dense_vector(&mut rng, 1024);
                assert_eq!(ClusterCsrmvPlan::new(&m, n_workers as u32).n_blocks(), nblocks);
                check_identity_on(Variant::Issr, &m, &x, n_workers);
            }
        }
    }

    /// On one cluster the DMCC's per-block work hides behind the
    /// workers, so system CsrMV stays within 4.5 % of the cluster
    /// kernel on nine full blocks of 173 nnz/row, bit-identically. With
    /// the ticket claim, a second scan of the `done` flags, the
    /// descriptor loads and a polled `y` write-back between a buffer
    /// freeing and its next DMA, the gap was 5.69 %.
    #[test]
    fn one_cluster_hides_the_dmcc_behind_compute() {
        let mut rng = gen::rng(76);
        let m = gen::csr_fixed_row_nnz::<u16>(&mut rng, 288, 1024, 173);
        let x = gen::dense_vector(&mut rng, 1024);
        let cluster = run_cluster_csrmv_with(Variant::Issr, &m, &x, ClusterParams::default())
            .expect("cluster run finishes");
        let system = run_system_csrmv(Variant::Issr, &m, &x, 1).expect("system run finishes");
        assert_eq!(bits(&system.y), bits(&cluster.y), "one cluster must be bit-identical");
        let (sys, single) = (system.summary.cycles, cluster.summary.cycles);
        let gap = sys as f64 / single as f64 - 1.0;
        assert!(
            gap <= 0.045,
            "system {sys} cycles against cluster {single}: +{:.2} %",
            gap * 100.0
        );
    }

    /// Degenerate shapes on 1, 2 and 4 clusters: a matrix without rows
    /// (no block: every DMCC publishes the sentinel before any claim),
    /// and single-block matrices of 6 rows (two nonzeros) and 3 rows,
    /// fewer rows than workers, so at 4 clusters three DMCCs claim
    /// nothing.
    #[test]
    fn degenerate_shapes() {
        let x: Vec<f64> = (0..64).map(|i| f64::from(i as u32) * 0.5).collect();
        let shapes = [
            CsrMatrix::<u16>::from_triplets(0, 64, &[]),
            CsrMatrix::<u16>::from_triplets(6, 64, &[(0, 3, 2.0), (5, 60, -1.0)]),
            CsrMatrix::<u16>::from_triplets(3, 64, &[(0, 1, 1.5), (1, 7, 3.0), (2, 63, -2.0)]),
        ];
        for m in &shapes {
            assert!(ClusterCsrmvPlan::new(m, 8).n_blocks() <= 1);
            check_identity_on(Variant::Issr, m, &x, 8);
        }
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
