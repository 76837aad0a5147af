//! Run-to-run determinism of the system and cluster harnesses.
//!
//! Two fresh runs of the same workload must agree on every observable:
//! kernel outputs, cycle counts, stall-cause attribution tables, and
//! the Perfetto trace export. These tests pin that guarantee on
//! randomized CsrMV / SpGEMM / SpMSpV workloads.

use issr_kernels::cluster_spmspv::run_cluster_spmspv;
use issr_kernels::system_csrmv::run_system_csrmv_traced;
use issr_kernels::system_spgemm::{run_system_spgemm_planned, SystemSpgemmPlan};
use issr_kernels::variant::Variant;
use issr_sparse::gen;
use issr_system::system::SystemParams;

fn params(n_clusters: usize) -> SystemParams {
    SystemParams { n_clusters, ..SystemParams::default() }
}

/// One run's complete observable footprint, bitwise.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    out_bits: Vec<u64>,
    cycles: u64,
    attr: String,
    trace: String,
}

#[test]
fn system_csrmv_is_run_to_run_deterministic() {
    let mut rng = gen::rng(0x5eed_c5e1);
    let m = gen::csr_uniform::<u32>(&mut rng, 48, 64, 420);
    let x = gen::dense_vector(&mut rng, 64);
    let fingerprint = || {
        let (run, trace) = run_system_csrmv_traced::<u32>(Variant::Issr, &m, &x, params(4), 4096)
            .expect("system CsrMV completes");
        Fingerprint {
            out_bits: run.y.iter().map(|v| v.to_bits()).collect(),
            cycles: run.summary.cycles,
            attr: format!("{:?}", run.summary.clusters.iter().map(|c| &c.attr).collect::<Vec<_>>()),
            trace: trace.to_string(),
        }
    };
    assert_eq!(fingerprint(), fingerprint());
}

#[test]
fn system_spgemm_is_run_to_run_deterministic() {
    let mut rng = gen::rng(0x5eed_59e3);
    let a = gen::csr_fixed_row_nnz::<u32>(&mut rng, 24, 32, 6);
    let b = gen::csr_fixed_row_nnz::<u32>(&mut rng, 32, 28, 5);
    let n_workers = SystemParams::default().cluster.n_workers as u32;
    let fingerprint = || {
        let plan = SystemSpgemmPlan::new(Variant::Issr, &a, &b, n_workers);
        let run = run_system_spgemm_planned::<u32>(Variant::Issr, &a, &b, plan, params(4))
            .expect("system SpGEMM completes");
        Fingerprint {
            out_bits: run.c.vals().iter().map(|v| v.to_bits()).collect(),
            cycles: run.summary.cycles,
            attr: format!("{:?}", run.summary.clusters.iter().map(|c| &c.attr).collect::<Vec<_>>()),
            trace: format!("{:?}/{:?}", run.c.ptr(), run.c.idcs()),
        }
    };
    assert_eq!(fingerprint(), fingerprint());
}

/// The cluster harness runs the same dirty-set skipping: randomized
/// SpMSpV must stay bit-identical run to run.
#[test]
fn cluster_spmspv_is_run_to_run_deterministic() {
    let mut rng = gen::rng(0x5eed_535d);
    let m = gen::csr_uniform::<u32>(&mut rng, 40, 48, 300);
    let x = gen::sparse_vector::<u32>(&mut rng, 48, 12);
    let one = run_cluster_spmspv::<u32>(Variant::Issr, &m, &x).expect("SpMSpV completes");
    let two = run_cluster_spmspv::<u32>(Variant::Issr, &m, &x).expect("SpMSpV completes");
    let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&one.y), bits(&two.y));
    assert_eq!(one.summary.cycles, two.summary.cycles);
    assert_eq!(format!("{:?}", one.summary.attr), format!("{:?}", two.summary.attr));
}
