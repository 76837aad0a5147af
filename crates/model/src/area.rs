//! Area model (kGE) from §IV-C and Fig. 2.
//!
//! The paper publishes three anchors — the ISSR's absolute and
//! relative growth over the equivalent SSR, and the cluster-area cost
//! of equipping all eight worker cores with ISSRs — listed as the
//! `area.*` entries of `issr_bench::paper::ANCHORS`. The block sizes
//! below are derived from the constants those anchors fix plus the
//! Snitch papers' core (≈10 kGE) and FP64 FPU (≈100 kGE) figures.

/// One named block with its complexity in kilo-gate-equivalents.
#[derive(Clone, Copy, Debug)]
pub struct AreaBlock {
    /// Block name.
    pub name: &'static str,
    /// Complexity in kGE.
    pub kge: f64,
}

/// The indirection extension's incremental cost over an SSR lane.
pub const ISSR_DELTA_KGE: f64 = 4.4;
/// SSR lane complexity, derived from the ISSR being 43 % larger.
pub const SSR_KGE: f64 = ISSR_DELTA_KGE / 0.43;
/// ISSR lane complexity.
pub const ISSR_KGE: f64 = SSR_KGE + ISSR_DELTA_KGE;
/// Register-file switch of the streamer (Fig. 2 D).
pub const SWITCH_KGE: f64 = 1.5;
/// Snitch integer core (≈10 kGE, [6]).
pub const SNITCH_CORE_KGE: f64 = 10.0;
/// Double-precision FPU (≈100 kGE, [6]).
pub const FPU_KGE: f64 = 100.0;

/// Hierarchical area of the ISSR streamer (Fig. 2 annotations).
#[derive(Clone, Debug)]
pub struct StreamerArea {
    /// Blocks in display order.
    pub blocks: Vec<AreaBlock>,
}

impl StreamerArea {
    /// The paper's streamer: one SSR + one ISSR + switch.
    #[must_use]
    pub fn paper_config() -> Self {
        Self {
            blocks: vec![
                AreaBlock { name: "switch", kge: SWITCH_KGE },
                AreaBlock { name: "ssr lane", kge: SSR_KGE },
                AreaBlock { name: "issr lane", kge: ISSR_KGE },
                // ISSR sub-blocks (sum to the ISSR lane):
                AreaBlock { name: "  issr: affine addrgen + cfg", kge: SSR_KGE - 6.0 },
                AreaBlock { name: "  issr: indirection unit", kge: ISSR_DELTA_KGE },
                AreaBlock { name: "  issr: fifos + data mover", kge: 6.0 },
            ],
        }
    }

    /// Total streamer area (top-level blocks only).
    #[must_use]
    pub fn total_kge(&self) -> f64 {
        self.blocks.iter().filter(|b| !b.name.starts_with(' ')).map(|b| b.kge).sum()
    }

    /// ISSR-over-SSR relative growth.
    #[must_use]
    pub fn issr_over_ssr(&self) -> f64 {
        (ISSR_KGE - SSR_KGE) / SSR_KGE
    }
}

/// Cluster-level area accounting.
#[derive(Clone, Copy, Debug)]
pub struct ClusterArea {
    /// Worker cores.
    pub n_workers: f64,
    /// Everything except the per-core ISSR deltas (derived from the
    /// 0.8 % anchor: 8 × 4.4 kGE ≈ 0.8 % of the SSR-only cluster).
    pub ssr_cluster_kge: f64,
}

impl ClusterArea {
    /// The paper's eight-worker cluster.
    #[must_use]
    pub fn paper_config() -> Self {
        // 8 × 4.4 kGE = 0.8 % of the SSR-only cluster ⇒ ≈ 4.4 MGE.
        let ssr_cluster_kge = 8.0 * ISSR_DELTA_KGE / 0.008;
        Self { n_workers: 8.0, ssr_cluster_kge }
    }

    /// Absolute area added by upgrading every worker's SSR to an ISSR.
    #[must_use]
    pub fn issr_upgrade_kge(&self) -> f64 {
        self.n_workers * ISSR_DELTA_KGE
    }

    /// Relative cluster overhead of the upgrade.
    #[must_use]
    pub fn issr_overhead(&self) -> f64 {
        self.issr_upgrade_kge() / self.ssr_cluster_kge
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issr_delta_matches_paper() {
        let s = StreamerArea::paper_config();
        assert!((s.issr_over_ssr() - 0.43).abs() < 1e-9);
        assert!((ISSR_KGE - SSR_KGE - 4.4).abs() < 1e-12);
    }

    #[test]
    fn issr_subblocks_sum_to_lane() {
        let s = StreamerArea::paper_config();
        let sub: f64 = s.blocks.iter().filter(|b| b.name.starts_with(' ')).map(|b| b.kge).sum();
        assert!((sub - ISSR_KGE).abs() < 1e-9);
    }

    #[test]
    fn cluster_overhead_matches_paper() {
        let c = ClusterArea::paper_config();
        assert!((c.issr_overhead() - 0.008).abs() < 1e-12);
        assert!((c.issr_upgrade_kge() - 35.2).abs() < 1e-9);
        // The implied cluster is in the multi-MGE range, as expected for
        // 8 CCs with 100 kGE FPUs plus 256 KiB of SRAM.
        assert!(c.ssr_cluster_kge > 3000.0);
    }

    #[test]
    fn streamer_total_is_switch_plus_lanes() {
        let s = StreamerArea::paper_config();
        assert!((s.total_kge() - (SWITCH_KGE + SSR_KGE + ISSR_KGE)).abs() < 1e-9);
    }
}
