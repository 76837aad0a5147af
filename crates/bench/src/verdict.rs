//! Bound verdicts for the three run-summary shapes.
//!
//! Thin adapters from the simulator's summaries to
//! [`issr_trace::analyze::classify`]: each one reduces a run to the
//! roofline inputs (words moved through the bounding interconnect,
//! flops against peak FPU throughput) and its critical path, so every
//! bench binary can print the one-line verdict and push the one JSON
//! section that explains the run.

use issr_cluster::cluster::ClusterSummary;
use issr_mem::dma::DMA_WORDS_PER_CYCLE;
use issr_snitch::cc::RunSummary;
use issr_system::system::SystemSummary;
use issr_trace::analyze::{classify, RooflineInput, Verdict};

/// Classifies a single-CC run. The bounding interconnect is the data
/// memory's port set (one port per stream lane plus the hart's LSU);
/// words are everything the lanes, the joiner and the SpAcc moved plus
/// explicit LSU accesses — joiner-fed lanes and SpAcc drains fetch and
/// write behind the lane counters, so their traffic counts too. FP work
/// likewise includes the SpAcc's merge-adds: on the SpGEMM path the
/// accumulator, not the hart FPU, performs the reductions.
#[must_use]
pub fn cc_verdict(summary: &RunSummary) -> Verdict {
    let roi = summary.metrics.roi;
    let elapsed = if roi.cycles > 0 { roi.cycles } else { summary.cycles };
    let lane_words: u64 =
        summary.lane_stats.iter().map(|l| l.data_reads + l.data_writes + l.idx_words).sum();
    let joiner_words = summary.joiner_stats.idx_words + summary.joiner_stats.val_reads;
    let spacc_words = summary.spacc_stats.idx_words + summary.spacc_stats.out_words;
    classify(&RooflineInput {
        elapsed,
        flops: roi.fmadds + roi.fadds + summary.spacc_stats.merges,
        peak_flops_per_cycle: 1.0,
        words_moved: lane_words + joiner_words + spacc_words + roi.lsu_accesses,
        words_per_cycle: (summary.lane_stats.len() + 1) as f64,
        path: summary.attr.critical_path(),
    })
}

/// Classifies a standalone-cluster run. The bounding interconnect is
/// the wide DMA port into main memory.
#[must_use]
pub fn cluster_verdict(summary: &ClusterSummary) -> Verdict {
    let fadds: u64 = summary.worker_metrics.iter().map(|m| m.roi.fadds).sum();
    classify(&RooflineInput {
        elapsed: summary.cycles,
        flops: summary.total_fmadds() + fadds,
        peak_flops_per_cycle: summary.worker_metrics.len().max(1) as f64,
        words_moved: summary.dma_stats.words_in + summary.dma_stats.words_out,
        words_per_cycle: f64::from(DMA_WORDS_PER_CYCLE),
        path: summary.attr.critical_path(),
    })
}

/// Classifies a multi-cluster system run against the shared memory's
/// aggregate word budget per cycle (`SystemParams::dma_words_per_cycle`).
#[must_use]
pub fn system_verdict(summary: &SystemSummary, words_per_cycle: u32) -> Verdict {
    let flops: u64 = summary
        .clusters
        .iter()
        .flat_map(|c| c.worker_metrics.iter())
        .map(|m| m.roi.fmadds + m.roi.fadds)
        .sum();
    let n_workers: usize = summary.clusters.iter().map(|c| c.worker_metrics.len()).sum();
    classify(&RooflineInput {
        elapsed: summary.cycles,
        flops,
        peak_flops_per_cycle: n_workers.max(1) as f64,
        words_moved: summary.total_dma_words(),
        words_per_cycle: f64::from(words_per_cycle),
        path: summary.critical_path(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use issr_kernels::cluster_csrmv::run_cluster_csrmv;
    use issr_kernels::variant::Variant;
    use issr_sparse::gen;
    use issr_trace::Json;

    /// A real cluster run classifies to finite roofline fractions and a
    /// printable verdict line.
    #[test]
    fn cluster_csrmv_classifies_without_nans() {
        let mut rng = gen::rng(0x000F_1700);
        let m = gen::csr_fixed_row_nnz::<u16>(&mut rng, 64, 64, 12);
        let x = gen::dense_vector(&mut rng, 64);
        let run = run_cluster_csrmv(Variant::Issr, &m, &x).expect("run");
        let v = cluster_verdict(&run.summary);
        assert!(v.bw_fraction.is_finite() && v.bw_fraction >= 0.0);
        assert!(v.fp_fraction.is_finite() && v.fp_fraction >= 0.0);
        let line = v.line("cluster_csrmv");
        assert!(line.contains("-bound"), "{line}");
        assert!(v.to_json().get("bound").and_then(Json::as_str).is_some());
    }

    /// A real cluster run's verdict carries an exactly partitioned path
    /// that fits the run, nested in its JSON section.
    #[test]
    fn cluster_critical_path_partitions_exactly() {
        let mut rng = gen::rng(0x000F_1701);
        let m = gen::csr_fixed_row_nnz::<u16>(&mut rng, 64, 64, 12);
        let x = gen::dense_vector(&mut rng, 64);
        let run = run_cluster_csrmv(Variant::Issr, &m, &x).expect("run");
        let verdict = cluster_verdict(&run.summary);
        let path = verdict.path;
        assert_eq!(path, run.summary.attr.critical_path());
        assert!(path.length > 0 && path.length <= verdict.elapsed);
        assert_eq!(path.compute + path.idle + path.blocked(), path.length, "exact partition");
        let section = verdict.to_json();
        let nested = section.get("critical_path").expect("path nested in the verdict");
        assert_eq!(nested.get("length").and_then(Json::as_int), Some(path.length as i64));
        let Some(Json::Obj(pairs)) = nested.get("edges") else { panic!("edges object") };
        let sum: i64 = pairs.iter().filter_map(|(_, v)| v.as_int()).sum();
        assert_eq!(sum as u64, path.blocked(), "edge attribution sums to the blocked share");
    }
}
