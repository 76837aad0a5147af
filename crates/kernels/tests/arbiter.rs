//! Results that do not depend on the schedule: cluster and system CsrMV
//! under the TCDM's adversarial arbiter (`Tcdm::enable_jitter`). Every
//! pending core and lane request sits out a cycle's arbitration with
//! probability p, so flags, `y` stores and stream fetches land in orders
//! the default timing never produces. Each run's `y` must match the host
//! oracle and be bit-identical to the run at default timing; nothing
//! here claims a cycle count.
//!
//! The tier-1 suite runs one seed at 1 and 8 workers and on 1 and 2
//! clusters. The long sweep adds seeds, 16 workers, 4 clusters and
//! 32-bit indices:
//!
//! ```sh
//! cargo test -q --release -p issr-kernels --test arbiter -- --ignored
//! ```

use issr_cluster::cluster::{Cluster, ClusterParams};
use issr_kernels::cluster_csrmv::{build_cluster_csrmv, ClusterCsrmvPlan};
use issr_kernels::system_csrmv::build_system_csrmv;
use issr_kernels::variant::{KernelIndex, Variant};
use issr_sparse::csr::CsrMatrix;
use issr_sparse::dense::allclose;
use issr_sparse::{gen, reference};
use issr_system::system::{System, SystemParams};

/// The withholding probabilities of every sweep.
const PS: [f64; 3] = [0.2, 0.5, 0.9];

/// An arbiter arm: `(seed, p)`, or `None` for default timing.
type Arm = Option<(u64, f64)>;

/// A budget that a run at p = 0.9 stays far inside: each request waits
/// ten cycles on average there.
fn budget<I: KernelIndex>(m: &CsrMatrix<I>) -> u64 {
    20 * (1_000_000 + 64 * m.nnz() as u64 + 1024 * m.nrows() as u64)
}

fn cluster_y<I: KernelIndex>(
    variant: Variant,
    m: &CsrMatrix<I>,
    x: &[f64],
    n_workers: usize,
    arm: Arm,
) -> Vec<f64> {
    let params = ClusterParams { n_workers, ..ClusterParams::default() };
    let plan = ClusterCsrmvPlan::new(m, n_workers as u32);
    let mut cluster = Cluster::new(build_cluster_csrmv::<I>(variant, &plan), params);
    if let Some((seed, p)) = arm {
        cluster.tcdm.enable_jitter(seed, p);
    }
    plan.marshal(&mut cluster, m, x);
    let summary = cluster.run(budget(m)).expect("the cluster run finishes");
    assert!(summary.traps.is_empty(), "cluster traps: {:?}", summary.traps);
    plan.read_y(&cluster)
}

fn system_y<I: KernelIndex>(
    variant: Variant,
    m: &CsrMatrix<I>,
    x: &[f64],
    n_clusters: usize,
    arm: Arm,
) -> Vec<f64> {
    let params = SystemParams { n_clusters, ..SystemParams::default() };
    let plan = ClusterCsrmvPlan::new(m, params.cluster.n_workers as u32);
    let mut system = System::new(build_system_csrmv::<I>(variant, &plan), params);
    if let Some((seed, p)) = arm {
        for (c, cluster) in system.clusters.iter_mut().enumerate() {
            cluster.tcdm.enable_jitter(seed.wrapping_add(1_000 * c as u64), p);
        }
    }
    plan.marshal_into(system.main.array_mut(), m, x);
    system.set_work_queue(plan.queue_addr());
    let summary = system.run(budget(m)).expect("the system run finishes");
    assert!(summary.traps().is_empty(), "system traps: {:?}", summary.traps());
    plan.read_y_from(system.main.array())
}

fn bits(y: &[f64]) -> Vec<u64> {
    y.iter().map(|v| v.to_bits()).collect()
}

/// Where a shape runs: worker counts of the cluster kernel, cluster
/// counts of the system kernel, and the arbiter seeds.
struct Sweep<'a> {
    workers: &'a [usize],
    clusters: &'a [usize],
    seeds: &'a [u64],
}

const SHORT: Sweep<'static> = Sweep { workers: &[1, 8], clusters: &[1, 2], seeds: &[1] };
const LONG: Sweep<'static> =
    Sweep { workers: &[1, 8, 16], clusters: &[1, 2, 4], seeds: &[2, 3, 4, 5] };

/// Runs `m` in both variants through `sweep`: every run under the
/// arbiter matches the oracle and the default-timing run bit for bit.
fn check<I: KernelIndex>(shape: &str, m: &CsrMatrix<I>, x: &[f64], sweep: &Sweep) {
    let want = reference::csrmv(m, x);
    type Run<'r, I> = &'r dyn Fn(Variant, &CsrMatrix<I>, &[f64], usize, Arm) -> Vec<f64>;
    let levels: [(&str, &[usize], Run<I>); 2] =
        [("workers", sweep.workers, &cluster_y::<I>), ("clusters", sweep.clusters, &system_y::<I>)];
    for variant in [Variant::Base, Variant::Issr] {
        for (level, counts, run) in levels {
            for &n in counts {
                let at = format!("{shape}, {} bytes, {variant}, {n} {level}", I::BYTES);
                let default = run(variant, m, x, n, None);
                assert!(allclose(&default, &want, 1e-12, 1e-12), "{at}: default timing");
                for &seed in sweep.seeds {
                    for p in PS {
                        let y = run(variant, m, x, n, Some((seed, p)));
                        assert!(allclose(&y, &want, 1e-12, 1e-12), "{at}, seed {seed}, p {p}");
                        assert_eq!(
                            bits(&y),
                            bits(&default),
                            "{at}, seed {seed}, p {p}: not bit-identical"
                        );
                    }
                }
            }
        }
    }
}

/// Rows 0 and 5 dense, the rest empty: fewer rows than workers, so most
/// workers have none, and the last `y` store of a worker is the one its
/// `done` flag must not overtake.
fn unbalanced() -> (CsrMatrix<u16>, Vec<f64>) {
    let mut triplets = Vec::new();
    for j in 0..40 {
        triplets.push((0, j, j as f64 + 1.0));
        triplets.push((5, (j * 3) % 64, 0.5 * j as f64));
    }
    let x = (0..64).map(|i| f64::from(i as u32) * 0.25).collect();
    (CsrMatrix::from_triplets(6, 64, &triplets), x)
}

/// Runs of 40-element rows over several blocks: every block boundary
/// cuts each worker's run, and both buffers are reused.
fn multi_block() -> (CsrMatrix<u16>, Vec<f64>) {
    let mut rng = gen::rng(75);
    let m = gen::csr_fixed_row_nnz::<u16>(&mut rng, 300, 256, 40);
    (m, gen::dense_vector(&mut rng, 256))
}

/// Fig. 4c's sparse end: short rows that stay in the compact block.
fn short_rows() -> (CsrMatrix<u16>, Vec<f64>) {
    let mut rng = gen::rng(0x000F_164C);
    let m = gen::csr_clustered::<u16>(&mut rng, 256, 512, 2, 16);
    (m, gen::dense_vector(&mut rng, 512))
}

#[test]
fn unbalanced_rows_under_the_arbiter() {
    let (m, x) = unbalanced();
    check("unbalanced", &m, &x, &SHORT);
}

#[test]
fn multi_block_runs_under_the_arbiter() {
    let (m, x) = multi_block();
    assert!(ClusterCsrmvPlan::new(&m, 8).n_blocks() > 1);
    check("multi-block", &m, &x, &SHORT);
}

#[test]
fn short_rows_under_the_arbiter() {
    let (m, x) = short_rows();
    check("short rows", &m, &x, &SHORT);
}

#[test]
#[ignore = "long sweep: run with --ignored (release)"]
fn long_sweep_under_the_arbiter() {
    for (shape, (m, x)) in
        [("unbalanced", unbalanced()), ("multi-block", multi_block()), ("short rows", short_rows())]
    {
        check(shape, &m, &x, &LONG);
        check(shape, &m.with_index_width::<u32>(), &x, &LONG);
    }
}
