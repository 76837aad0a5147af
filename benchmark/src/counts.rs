//! Deterministic counters (`[count]` metrics), read from the run
//! summaries through their public fields and accessors only.
//!
//! Every field is an integer (or a maximum of exact ratios), so two
//! passes over the same inputs must produce `==` counters; the runner
//! fails a case whose counters differ from its first observation.

use issr_cluster::cluster::ClusterSummary;
use issr_core::lane::LaneStats;
use issr_core::spacc::SpAccStats;
use issr_snitch::attr::CcAttribution;
use issr_snitch::cc::RunSummary;
use issr_snitch::metrics::Metrics;
use issr_system::system::SystemSummary;
use issr_trace::StallCause;

/// Which harness a case runs on; host time is accounted per layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `SingleCcSim`: one core complex on ideal memory.
    SingleCc,
    /// `Cluster`: eight workers + DMCC, banked TCDM, DMA.
    Cluster,
    /// `System` with this many clusters behind one main memory.
    System(usize),
}

/// Counters summed over cases (maxima where noted).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    // snitch: integer pipeline and FPU sequencer.
    pub instret: u64,
    pub fpu_ops: u64,
    pub fmadds: u64,
    pub stall_raw: u64,
    pub stall_structural: u64,
    pub fpu_stall: u64,
    pub hart_cycles: u64,
    pub hart_active: u64,
    pub hart_fifo_empty: u64,
    pub hart_port_conflict: u64,
    pub hart_barrier_wait: u64,
    // core: stream lanes, joiner, SpAcc.
    pub lane_data_words: u64,
    pub lane_idx_words: u64,
    pub lane_write_words: u64,
    pub lane_cycles: u64,
    pub lane_active: u64,
    pub lane_fifo_full: u64,
    pub lane_port_conflict: u64,
    pub joiner_emissions: u64,
    pub joiner_cycles: u64,
    pub joiner_active: u64,
    pub spacc_pairs_in: u64,
    pub spacc_overlap_cycles: u64,
    /// Maximum over cases.
    pub spacc_peak_nnz: u64,
    pub overflow_retries: u64,
    pub stream_faults: u64,
    // mem: TCDM, DMA, main memory.
    pub tcdm_grants: u64,
    pub tcdm_conflicts: u64,
    pub tcdm_dma_conflicts: u64,
    pub dma_words: u64,
    pub dma_transfers: u64,
    pub dma_busy_cycles: u64,
    pub dma_stall_cycles: u64,
    /// Cluster cycles summed per DMA engine (denominator of the busy share).
    pub dma_cycles: u64,
    pub main_wide_beats: u64,
    pub main_narrow_accesses: u64,
    pub main_dma_denied: u64,
    // cluster.
    pub cluster_cycles: u64,
    pub cluster_fmadds: u64,
    /// Cluster cycles times workers (denominator of `cluster.util`).
    pub cluster_worker_cycles: u64,
    /// Core-complex ticks: cluster cycles times (workers + DMCC).
    pub unit_ticks: u64,
    /// Maximum over cases.
    pub peak_worker_util: f64,
    // system: cycles by cluster count (1, 2, 4), contention at 4.
    pub system_cycles: [u64; 3],
    pub system_denied_x4: u64,
    pub system_served_x4: u64,
    pub system_overlap_cycles: u64,
    pub system_dma_stall_cycles: u64,
}

impl Counts {
    /// Folds `other` in: sums, and maxima for the two peak fields.
    pub fn merge(&mut self, o: &Counts) {
        macro_rules! sum {
            ($($f:ident),*) => { $( self.$f += o.$f; )* };
        }
        #[rustfmt::skip]
        sum!(
            instret, fpu_ops, fmadds, stall_raw, stall_structural, fpu_stall, hart_cycles,
            hart_active, hart_fifo_empty, hart_port_conflict, hart_barrier_wait, lane_data_words,
            lane_idx_words, lane_write_words, lane_cycles, lane_active, lane_fifo_full,
            lane_port_conflict, joiner_emissions, joiner_cycles, joiner_active, spacc_pairs_in,
            spacc_overlap_cycles, overflow_retries, stream_faults, tcdm_grants, tcdm_conflicts,
            tcdm_dma_conflicts, dma_words, dma_transfers, dma_busy_cycles, dma_stall_cycles,
            dma_cycles, main_wide_beats, main_narrow_accesses, main_dma_denied, cluster_cycles,
            cluster_fmadds, cluster_worker_cycles, unit_ticks, system_denied_x4, system_served_x4,
            system_overlap_cycles, system_dma_stall_cycles
        );
        for (mine, theirs) in self.system_cycles.iter_mut().zip(o.system_cycles) {
            *mine += theirs;
        }
        self.spacc_peak_nnz = self.spacc_peak_nnz.max(o.spacc_peak_nnz);
        self.peak_worker_util = self.peak_worker_util.max(o.peak_worker_util);
    }

    fn add_hart(&mut self, m: &Metrics, attr: &CcAttribution) {
        self.instret += m.instret;
        self.fpu_ops += m.roi.fpu_ops;
        self.fmadds += m.roi.fmadds;
        self.stall_raw += m.roi.core_stall_raw;
        self.stall_structural += m.roi.core_stall_structural;
        self.fpu_stall += m.roi.fpu_stall;
        self.hart_cycles += attr.hart.total();
        self.hart_active += attr.hart.get(StallCause::Active);
        self.hart_fifo_empty += attr.hart.get(StallCause::FifoEmpty);
        self.hart_port_conflict += attr.hart.get(StallCause::PortConflict);
        self.hart_barrier_wait += attr.hart.get(StallCause::BarrierWait);
        for lane in &attr.lanes {
            self.lane_cycles += lane.total();
            self.lane_active += lane.get(StallCause::Active);
            self.lane_fifo_full += lane.get(StallCause::FifoFull);
            self.lane_port_conflict += lane.get(StallCause::PortConflict);
        }
        self.joiner_cycles += attr.joiner.total();
        self.joiner_active += attr.joiner.get(StallCause::Active);
    }

    fn add_lanes(&mut self, lanes: &[LaneStats]) {
        for l in lanes {
            self.lane_data_words += l.data_reads;
            self.lane_idx_words += l.idx_words;
            self.lane_write_words += l.data_writes;
        }
    }

    fn add_spacc(&mut self, s: &SpAccStats) {
        self.spacc_pairs_in += s.pairs_in;
        self.spacc_overlap_cycles += s.overlap_cycles;
        self.spacc_peak_nnz = self.spacc_peak_nnz.max(s.peak_nnz);
    }

    /// Counters of one single-CC run.
    #[must_use]
    pub fn of_run(s: &RunSummary) -> Self {
        let mut c = Self::default();
        c.add_hart(&s.metrics, &s.attr);
        c.add_lanes(&s.lane_stats);
        c.add_spacc(&s.spacc_stats);
        c.joiner_emissions = s.joiner_stats.emissions;
        c.tcdm_grants = s.tcdm_stats.grants;
        c.tcdm_conflicts = s.tcdm_stats.conflicts;
        c.tcdm_dma_conflicts = s.tcdm_stats.dma_conflicts;
        c
    }

    /// Counters of one cluster run (standalone, or one cluster of a system).
    #[must_use]
    pub fn of_cluster(s: &ClusterSummary) -> Self {
        let mut c = Self::default();
        for (m, attr) in s.worker_metrics.iter().zip(&s.attr.workers) {
            c.add_hart(m, attr);
        }
        c.add_hart(&s.dmcc_metrics, &s.attr.dmcc);
        for lanes in &s.lane_stats {
            c.add_lanes(lanes);
        }
        for spacc in &s.spacc_stats {
            c.add_spacc(spacc);
        }
        c.tcdm_grants = s.tcdm_stats.grants;
        c.tcdm_conflicts = s.tcdm_stats.conflicts;
        c.tcdm_dma_conflicts = s.tcdm_stats.dma_conflicts;
        c.dma_words = s.dma_stats.words_in + s.dma_stats.words_out;
        c.dma_transfers = s.dma_stats.transfers;
        c.dma_busy_cycles = s.dma_stats.busy_cycles;
        c.dma_stall_cycles = s.dma_stats.stall_cycles;
        c.dma_cycles = s.cycles;
        let workers = s.worker_metrics.len() as u64;
        c.cluster_cycles = s.cycles;
        c.cluster_fmadds = s.total_fmadds();
        c.cluster_worker_cycles = s.cycles * workers;
        c.unit_ticks = s.cycles * (workers + 1);
        c.peak_worker_util = s.peak_worker_utilization();
        c.stream_faults = s.traps.len() as u64;
        c
    }

    /// Counters of one system run: its clusters, plus the shared main
    /// memory and the cycles by cluster count.
    #[must_use]
    pub fn of_system(s: &SystemSummary) -> Self {
        let mut c = Self::default();
        for cluster in &s.clusters {
            c.merge(&Self::of_cluster(cluster));
        }
        c.main_wide_beats = s.main.wide_beats;
        c.main_narrow_accesses = s.main.narrow_accesses;
        c.main_dma_denied = s.main.dma_denied;
        c.system_overlap_cycles = s.overlap_cycles;
        c.system_dma_stall_cycles = s.total_dma_stalls();
        match s.clusters.len() {
            1 => c.system_cycles[0] = s.cycles,
            2 => c.system_cycles[1] = s.cycles,
            4 => {
                c.system_cycles[2] = s.cycles;
                c.system_denied_x4 = s.main.dma_denied;
                c.system_served_x4 = s.main.wide_beats;
            }
            _ => {}
        }
        c
    }
}
