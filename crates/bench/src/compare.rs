//! The related-work comparison of §V: published utilization figures for
//! CPUs and GPUs on CSR SpMV, and the ratios the paper derives against
//! the measured Snitch-with-ISSR cluster.
//!
//! The external numbers are *quoted constants* (the paper profiled
//! cuSPARSE with nvprof and cites CVR \[4\] for the Xeon Phi); only the
//! Snitch side is measured, by the `issr-cluster` simulator. The ratios
//! the paper itself reports are the `compare.*` and
//! `fig4c.base_core_equivalents` entries of [`crate::paper::ANCHORS`].

/// One related system with its published SpMV efficiency.
#[derive(Clone, Copy, Debug)]
pub struct RelatedSystem {
    /// System name.
    pub name: &'static str,
    /// Arithmetic class compared.
    pub precision: &'static str,
    /// Peak streaming-multiprocessor / core occupancy, if reported.
    pub occupancy: Option<f64>,
    /// Peak floating-point utilization achieved on CSR SpMV.
    pub fp_utilization: f64,
    /// Source note.
    pub source: &'static str,
}

/// The systems quoted in §V.
#[must_use]
pub fn related_systems() -> Vec<RelatedSystem> {
    vec![
        RelatedSystem {
            name: "Intel Xeon Phi 7250 (CVR)",
            precision: "FP64",
            occupancy: None,
            fp_utilization: 0.007,
            source: "Xie et al. [4]: 21 Gflop/s of ~3 Tflop/s peak",
        },
        RelatedSystem {
            name: "GTX 1080 Ti, cuSPARSE CsrMV",
            precision: "FP32",
            occupancy: Some(0.87),
            fp_utilization: 0.0075,
            source: "paper §V, nvprof over 100 runs",
        },
        RelatedSystem {
            name: "Jetson AGX Xavier, cuSPARSE CsrMV",
            precision: "FP32",
            occupancy: Some(0.96),
            fp_utilization: 0.021,
            source: "paper §V, nvprof over 100 runs",
        },
        RelatedSystem {
            name: "GTX 1080 Ti, cuSPARSE CsrMV",
            precision: "FP64",
            occupancy: Some(0.87),
            fp_utilization: 0.17,
            source: "paper §V; 32x fewer FP64 cores per SM raise utilization",
        },
    ]
}

/// The paper's comparison outcomes given the measured cluster
/// utilization.
#[derive(Clone, Copy, Debug)]
pub struct Comparison {
    /// Measured Snitch + ISSR cluster FP64 utilization.
    pub cluster_utilization: f64,
    /// Ratio over the best GPU FP64 utilization.
    pub vs_gpu_fp64: f64,
    /// Ratio over the Xeon Phi.
    pub vs_cpu: f64,
}

/// Builds the §V comparison from a measured cluster utilization.
#[must_use]
pub fn compare(cluster_utilization: f64) -> Comparison {
    let gpu = related_systems()
        .iter()
        .filter(|s| s.precision == "FP64" && s.name.contains("GTX"))
        .map(|s| s.fp_utilization)
        .fold(f64::EPSILON, f64::max);
    let cpu = related_systems()[0].fp_utilization;
    Comparison {
        cluster_utilization,
        vs_gpu_fp64: cluster_utilization / gpu,
        vs_cpu: cluster_utilization / cpu,
    }
}

/// §IV-B's equivalence: how many BASE cores one ISSR cluster replaces
/// (workers × cluster speedup).
#[must_use]
pub fn base_core_equivalent(n_workers: f64, cluster_speedup: f64) -> f64 {
    n_workers * cluster_speedup
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoted_constants_present() {
        let systems = related_systems();
        assert_eq!(systems.len(), 4);
        assert!(systems.iter().any(|s| s.fp_utilization == 0.17));
        assert!(systems.iter().any(|s| s.occupancy == Some(0.96)));
    }

    #[test]
    fn paper_ratios_from_paper_utilization() {
        // With the paper's measured cluster utilization (~0.48), the
        // published ratios come out.
        let c = compare(0.48);
        assert!((c.vs_gpu_fp64 - 2.8).abs() < 0.05, "GPU ratio {}", c.vs_gpu_fp64);
        assert!((c.vs_cpu - 68.6).abs() < 2.0, "CPU ratio {}", c.vs_cpu);
    }

    #[test]
    fn base_core_equivalence() {
        assert!((base_core_equivalent(8.0, 5.8) - 46.4).abs() < 0.1);
    }
}
