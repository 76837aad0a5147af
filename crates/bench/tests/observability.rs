//! Property tests for the observability layer (`issr-trace`):
//!
//! * **Exactness** — every unit's stall-cause breakdown sums exactly to
//!   the elapsed cycles it covers (ROI cycles for core-complex units,
//!   cluster cycles for the DMA engine), across randomized SpMSpV,
//!   SpGEMM and multi-cluster system runs. Attribution is recorded at
//!   the single place each cycle counter advances, so any drift is a
//!   bookkeeping bug.
//! * **Neutrality** — arming a timeline changes neither a cycle count
//!   nor an output bit, whether `enable_tracing` arms the large one or
//!   `run` the default: recording only reads state the simulation
//!   latches anyway.
//! * **Edge soundness** — every blocked cycle of every unit maps to
//!   exactly one outgoing wait edge ([`issr_trace::edge_for`]), so
//!   per-unit edge sums equal the breakdowns' blocked counts, and the
//!   critical path partitions exactly within the ROI.

use issr_kernels::cluster_csrmv::ClusterCsrmvPlan;
use issr_kernels::spgemm::run_spgemm;
use issr_kernels::spmspv::run_spmspv;
use issr_kernels::system_csrmv::{build_system_csrmv, run_system_csrmv, run_system_csrmv_traced};
use issr_kernels::variant::Variant;
use issr_snitch::attr::CcAttribution;
use issr_sparse::gen;
use issr_system::system::{System, SystemParams};
use issr_trace::{edge_for, is_blocked, CycleBreakdown, UnitClass};
use proptest::prelude::*;

/// The blocked cycles of one breakdown (everything that is not Active,
/// Idle or Parked).
fn blocked_cycles(b: &CycleBreakdown) -> u64 {
    b.iter().filter(|&(c, _)| is_blocked(c)).map(|(_, n)| n).sum()
}

/// The cycles of one breakdown that [`edge_for`] maps to a wait edge.
fn edge_cycles(unit: UnitClass, b: &CycleBreakdown) -> u64 {
    b.iter().filter(|&(c, _)| edge_for(unit, c).is_some()).map(|(_, n)| n).sum()
}

/// Asserts one unit's edge-mapped cycles equal its blocked cycles —
/// "every blocked cycle has exactly one outgoing edge" over a real run.
fn assert_unit_edges(unit: UnitClass, b: &CycleBreakdown, what: &str) {
    assert_eq!(edge_cycles(unit, b), blocked_cycles(b), "{what}: edge cycles vs blocked cycles");
}

/// Asserts every table of one core complex's attribution totals `roi`.
fn assert_cc_sums(attr: &CcAttribution, roi: u64, what: &str) {
    assert_eq!(attr.hart.total(), roi, "{what}: hart table vs ROI cycles");
    for (i, lane) in attr.lanes.iter().enumerate() {
        assert_eq!(lane.total(), roi, "{what}: lane ft{i} table vs ROI cycles");
    }
    assert_eq!(attr.joiner.total(), roi, "{what}: joiner table vs ROI cycles");
    assert_eq!(attr.spacc.total(), roi, "{what}: spacc table vs ROI cycles");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Joiner-backed SpMSpV: attributed cycles sum exactly to the ROI
    /// cycle count for every unit of the core complex.
    #[test]
    fn spmspv_attribution_sums_to_roi_cycles(
        nrows in 1usize..24,
        ncols in 32usize..512,
        row_nnz in 1usize..24,
        x_nnz in 1usize..64,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = gen::rng(seed);
        let row_nnz = row_nnz.min(ncols);
        let m = gen::csr_fixed_row_nnz::<u16>(&mut rng, nrows, ncols, row_nnz);
        let x = gen::sparse_vector::<u16>(&mut rng, ncols, x_nnz.min(ncols));
        let run = run_spmspv(Variant::Issr, &m, &x).expect("spmspv run");
        let roi = run.summary.metrics.roi.cycles;
        prop_assert!(roi > 0, "the kernel must open a ROI");
        assert_cc_sums(&run.summary.attr, roi, "SpMSpV");
    }

    /// SpAcc-backed SpGEMM: same exactness invariant, now with the
    /// accumulator in the unit mix.
    #[test]
    fn spgemm_attribution_sums_to_roi_cycles(
        nrows in 1usize..10,
        inner in 1usize..24,
        ncols in 1usize..48,
        fill_a in 1usize..4,
        fill_b in 1usize..8,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = gen::rng(seed);
        let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, nrows, inner, fill_a.min(inner));
        let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, inner, ncols, fill_b.min(ncols));
        let run = run_spgemm(Variant::Issr, &a, &b).expect("spgemm run");
        let roi = run.summary.metrics.roi.cycles;
        assert_cc_sums(&run.summary.attr, roi, "SpGEMM");
    }

    /// Edge soundness over joiner-backed SpMSpV runs: every unit
    /// contributes exactly its blocked cycles (one edge per blocked
    /// cycle, none for active/idle/parked), and the critical path is an
    /// exact partition bounded by the ROI.
    #[test]
    fn edges_and_critical_path_are_sound(
        nrows in 1usize..24,
        ncols in 32usize..512,
        row_nnz in 1usize..24,
        x_nnz in 1usize..64,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = gen::rng(seed);
        let row_nnz = row_nnz.min(ncols);
        let m = gen::csr_fixed_row_nnz::<u16>(&mut rng, nrows, ncols, row_nnz);
        let x = gen::sparse_vector::<u16>(&mut rng, ncols, x_nnz.min(ncols));
        let run = run_spmspv(Variant::Issr, &m, &x).expect("spmspv run");
        let attr = &run.summary.attr;
        // Per-unit edge sums equal the breakdowns' blocked counts.
        assert_unit_edges(UnitClass::Hart, &attr.hart, "hart");
        for (i, lane) in attr.lanes.iter().enumerate() {
            assert_unit_edges(UnitClass::Lane, lane, &format!("ft{i}"));
        }
        assert_unit_edges(UnitClass::Joiner, &attr.joiner, "joiner");
        assert_unit_edges(UnitClass::SpAcc, &attr.spacc, "spacc");
        // The critical path partitions exactly and fits inside the ROI.
        let path = attr.critical_path();
        prop_assert_eq!(path.length, attr.roi_cycles());
        prop_assert_eq!(path.compute + path.blocked(), path.length, "exact partition");
        prop_assert!(path.length <= run.summary.cycles, "ROI path fits in the elapsed run");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Multi-cluster system CsrMV: every worker's and the DMCC's tables
    /// sum to their own ROI cycles, and the DMA engine's table sums to
    /// the cluster's elapsed cycles.
    #[test]
    fn system_attribution_sums_per_cluster(
        nrows in 32usize..160,
        ncols in 32usize..160,
        density in 1usize..8,
        n_clusters in prop_oneof![Just(1usize), Just(2)],
        seed in 0u64..1_000_000,
    ) {
        let mut rng = gen::rng(seed);
        let nnz = (nrows * density).min(nrows * ncols);
        let m = gen::csr_uniform::<u16>(&mut rng, nrows, ncols, nnz);
        let x = gen::dense_vector(&mut rng, ncols);
        let run = run_system_csrmv(Variant::Issr, &m, &x, n_clusters).expect("system run");
        for (ci, c) in run.summary.clusters.iter().enumerate() {
            for (wi, (w, metrics)) in
                c.attr.workers.iter().zip(c.worker_metrics.iter()).enumerate()
            {
                assert_cc_sums(w, metrics.roi.cycles, &format!("c{ci}/hart{wi}"));
            }
            assert_cc_sums(&c.attr.dmcc, c.dmcc_metrics.roi.cycles, &format!("c{ci}/dmcc"));
            prop_assert_eq!(
                c.attr.dma.total(),
                c.cycles,
                "c{}: DMA table must sum to the cluster cycles", ci
            );
        }
    }

    /// Tracing neutrality: the instrumented run finishes in the same
    /// number of cycles and produces bit-identical output, and its
    /// Chrome export carries the expected metadata tracks.
    #[test]
    fn tracing_changes_no_bit_and_no_cycle(
        nrows in 32usize..128,
        ncols in 32usize..128,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = gen::rng(seed);
        let nnz = (nrows * 4).min(nrows * ncols);
        let m = gen::csr_uniform::<u16>(&mut rng, nrows, ncols, nnz);
        let x = gen::dense_vector(&mut rng, ncols);
        let params = SystemParams { n_clusters: 2, ..SystemParams::default() };
        let plain =
            run_system_csrmv(Variant::Issr, &m, &x, params.n_clusters).expect("plain run");
        let (traced, trace) =
            run_system_csrmv_traced(Variant::Issr, &m, &x, params, 4_096).expect("traced run");
        prop_assert_eq!(plain.summary.cycles, traced.summary.cycles, "cycle counts must match");
        let plain_bits: Vec<u64> = plain.y.iter().map(|v| v.to_bits()).collect();
        let traced_bits: Vec<u64> = traced.y.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(plain_bits, traced_bits, "output bits must match");
        // The export names one track per hart (workers + DMCC), per
        // stream lane and per DMA engine of each cluster.
        let events = trace.get("traceEvents").and_then(issr_trace::Json::as_arr)
            .expect("traceEvents array");
        let meta = events.iter()
            .filter(|e| e.get("ph").and_then(issr_trace::Json::as_str) == Some("M"))
            .count();
        let n_workers = params.cluster.n_workers;
        let lanes_per_worker = 2;
        let expect = params.n_clusters
            * (n_workers + n_workers * lanes_per_worker + 1 + 1);
        prop_assert_eq!(meta, expect, "one metadata record per registered track");
    }

    /// Default-recorder neutrality: `run` (which arms every cluster's
    /// default timeline) and a bare tick loop that arms nothing agree
    /// on every cycle and output bit, and a contended run's DMA tables
    /// carry wait edges.
    #[test]
    fn recorders_change_no_bit_and_no_cycle(
        nrows in 32usize..128,
        ncols in 32usize..128,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = gen::rng(seed);
        let nnz = (nrows * 4).min(nrows * ncols);
        let m = gen::csr_uniform::<u16>(&mut rng, nrows, ncols, nnz);
        let x = gen::dense_vector(&mut rng, ncols);
        let params = SystemParams { n_clusters: 2, ..SystemParams::default() };
        let plan = ClusterCsrmvPlan::new(&m, params.cluster.n_workers as u32);
        let fresh = || {
            let mut system = System::new(build_system_csrmv::<u16>(Variant::Issr, &plan), params);
            plan.marshal_into(system.main.array_mut(), &m, &x);
            system.set_work_queue(plan.queue_addr());
            system
        };
        let mut bare = fresh();
        let mut bare_cycles = 0u64;
        while !bare.quiescent() {
            prop_assert!(bare_cycles < 10_000_000, "bare loop exceeded its budget");
            bare.tick();
            bare_cycles += 1;
        }
        prop_assert!(bare.trace_json().is_none(), "a bare tick loop arms nothing");
        let mut system = fresh();
        let recorded = system.run(10_000_000).expect("recorded run");
        prop_assert!(recorded.traps().is_empty(), "recorded run trapped");
        prop_assert!(system.trace_json().is_some(), "run arms the default timelines");
        prop_assert_eq!(bare_cycles, recorded.cycles, "cycles must match");
        let bits = |system: &System| -> Vec<u64> {
            plan.read_y_from(system.main.array()).iter().map(|v| v.to_bits()).collect()
        };
        prop_assert_eq!(bits(&bare), bits(&system), "output bits must match");
        let dma_waits: u64 =
            recorded.clusters.iter().map(|c| edge_cycles(UnitClass::Dma, &c.attr.dma)).sum();
        prop_assert!(dma_waits > 0, "a contended system run's DMA engines wait on main memory");
    }
}
