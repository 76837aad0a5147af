//! Results that do not depend on the schedule: the cluster and system
//! kernels under the TCDM's adversarial arbiter (`Tcdm::enable_jitter`).
//! Every pending core and lane request sits out a cycle's arbitration
//! with probability p, so flags, result stores, chain offsets and stream
//! fetches land in orders the default timing never produces. Each run's
//! result must match the host oracle (a sparse product's structure
//! exactly) and be bit-identical to the run at default timing; nothing
//! here claims a cycle count.
//!
//! The tier-1 suite runs one seed: CsrMV and SpGEMM at 1 and 8 workers
//! and on 1 and 2 clusters (system SpGEMM forced to several panels), and
//! SpMSpV at 8 workers. The long sweep adds seeds, 16 workers, 4
//! clusters and 32-bit indices:
//!
//! ```sh
//! cargo test -q --release -p issr-kernels --test arbiter -- --ignored
//! ```

use issr_cluster::cluster::{Cluster, ClusterParams};
use issr_kernels::cluster_csrmv::{build_cluster_csrmv, ClusterCsrmvPlan};
use issr_kernels::cluster_spgemm::{build_cluster_spgemm, ClusterSpgemmPlan};
use issr_kernels::cluster_spmspv::{build_cluster_spmspv, ClusterSpmspvPlan};
use issr_kernels::system_csrmv::build_system_csrmv;
use issr_kernels::system_spgemm::{build_system_spgemm, SystemSpgemmPlan};
use issr_kernels::variant::{KernelIndex, Variant};
use issr_snitch::params::CcParams;
use issr_sparse::csr::CsrMatrix;
use issr_sparse::dense::allclose;
use issr_sparse::fiber::SparseFiber;
use issr_sparse::{gen, reference};
use issr_system::system::{System, SystemParams};

/// The withholding probabilities of every sweep.
const PS: [f64; 3] = [0.2, 0.5, 0.9];

/// An arbiter arm: `(seed, p)`, or `None` for default timing.
type Arm = Option<(u64, f64)>;

/// A budget that a run at p = 0.9 stays far inside: each request waits
/// ten cycles on average there. `work` counts the elements the kernel
/// touches.
fn budget(work: usize, nrows: usize) -> u64 {
    20 * (1_000_000 + 64 * work as u64 + 1024 * nrows as u64)
}

/// Arms every cluster's TCDM of a system, each with its own seed.
fn arm_system(system: &mut System, arm: Arm) {
    if let Some((seed, p)) = arm {
        for (c, cluster) in system.clusters.iter_mut().enumerate() {
            cluster.tcdm.enable_jitter(seed.wrapping_add(1_000 * c as u64), p);
        }
    }
}

/// Runs `cluster` to quiescence under `arm`, with no trap.
fn run_cluster(cluster: &mut Cluster, arm: Arm, budget: u64) {
    if let Some((seed, p)) = arm {
        cluster.tcdm.enable_jitter(seed, p);
    }
    let summary = cluster.run(budget).expect("the cluster run finishes");
    assert!(summary.traps.is_empty(), "cluster traps: {:?}", summary.traps);
}

/// Runs `system` to quiescence under `arm`, with no trap.
fn run_system(system: &mut System, arm: Arm, budget: u64) {
    arm_system(system, arm);
    let summary = system.run(budget).expect("the system run finishes");
    assert!(summary.traps().is_empty(), "system traps: {:?}", summary.traps());
}

/// What a run reads back: a structure (empty for a dense vector) that
/// must equal the oracle's exactly, and values that must be close to
/// the oracle's and bit-identical to the default-timing run's.
struct Out {
    structure: Vec<u32>,
    vals: Vec<f64>,
}

impl Out {
    fn dense(y: Vec<f64>) -> Self {
        Self { structure: Vec::new(), vals: y }
    }

    fn csr(c: &CsrMatrix<u32>) -> Self {
        Self { structure: [c.ptr(), c.idcs()].concat(), vals: c.vals().to_vec() }
    }

    fn bits(&self) -> Vec<u64> {
        self.vals.iter().map(|v| v.to_bits()).collect()
    }

    fn assert_matches(&self, want: &Out, at: &str) {
        assert_eq!(self.structure, want.structure, "{at}: structure");
        assert!(allclose(&self.vals, &want.vals, 1e-12, 1e-12), "{at}: values");
    }
}

/// Runs `run` at default timing and under every arm of `seeds` × [`PS`]:
/// each result matches `want`, and every armed run the default one bit
/// for bit.
fn sweep_arms(at: &str, want: &Out, seeds: &[u64], run: impl Fn(Arm) -> Out) {
    let default = run(None);
    default.assert_matches(want, &format!("{at}: default timing"));
    for &seed in seeds {
        for p in PS {
            let at = format!("{at}, seed {seed}, p {p}");
            let out = run(Some((seed, p)));
            out.assert_matches(want, &at);
            assert_eq!(out.bits(), default.bits(), "{at}: not bit-identical");
        }
    }
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

// ---- CsrMV ----

fn cluster_csrmv<I: KernelIndex>(
    variant: Variant,
    m: &CsrMatrix<I>,
    x: &[f64],
    n_workers: usize,
    arm: Arm,
) -> Out {
    let params = ClusterParams { n_workers, ..ClusterParams::default() };
    let plan = ClusterCsrmvPlan::new(m, n_workers as u32);
    let mut cluster = Cluster::new(build_cluster_csrmv::<I>(variant, &plan), params);
    plan.marshal(&mut cluster, m, x);
    run_cluster(&mut cluster, arm, budget(m.nnz(), m.nrows()));
    Out::dense(plan.read_y(&cluster))
}

fn system_csrmv<I: KernelIndex>(
    variant: Variant,
    m: &CsrMatrix<I>,
    x: &[f64],
    n_clusters: usize,
    arm: Arm,
) -> Out {
    let params = SystemParams { n_clusters, ..SystemParams::default() };
    let plan = ClusterCsrmvPlan::new(m, params.cluster.n_workers as u32);
    let mut system = System::new(build_system_csrmv::<I>(variant, &plan), params);
    plan.marshal_into(system.main.array_mut(), m, x);
    system.set_work_queue(plan.queue_addr());
    run_system(&mut system, arm, budget(m.nnz(), m.nrows()));
    Out::dense(plan.read_y_from(system.main.array()))
}

/// Runs CsrMV on `m` in both variants through `sweep`.
fn check_csrmv<I: KernelIndex>(shape: &str, m: &CsrMatrix<I>, x: &[f64], sweep: &Sweep) {
    let want = Out::dense(reference::csrmv(m, x));
    for variant in [Variant::Base, Variant::Issr] {
        let at = |n, level| format!("CsrMV {shape}, {} bytes, {variant}, {n} {level}", I::BYTES);
        for &n in sweep.workers {
            sweep_arms(&at(n, "workers"), &want, sweep.seeds, |arm| {
                cluster_csrmv(variant, m, x, n, arm)
            });
        }
        for &n in sweep.clusters {
            sweep_arms(&at(n, "clusters"), &want, sweep.seeds, |arm| {
                system_csrmv(variant, m, x, n, arm)
            });
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
    check_csrmv("unbalanced", &m, &x, &SHORT);
}

#[test]
fn multi_block_runs_under_the_arbiter() {
    let (m, x) = multi_block();
    assert!(ClusterCsrmvPlan::new(&m, 8).n_blocks() > 1);
    check_csrmv("multi-block", &m, &x, &SHORT);
}

#[test]
fn short_rows_under_the_arbiter() {
    let (m, x) = short_rows();
    check_csrmv("short rows", &m, &x, &SHORT);
}

// ---- SpGEMM ----

/// Panel capacities that cut [`spgemm_operands`] into several panels.
const PANEL_CAPS: (u32, u32) = (40, 120);

fn cluster_spgemm<I: KernelIndex>(
    variant: Variant,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    n_workers: usize,
    arm: Arm,
) -> Out {
    let params = ClusterParams { n_workers, cc: CcParams::sssr(), ..ClusterParams::default() };
    let plan = ClusterSpgemmPlan::new(a, b, n_workers as u32);
    let mut cluster = Cluster::new(build_cluster_spgemm::<I>(variant, &plan), params);
    plan.marshal(&mut cluster, a, b);
    run_cluster(&mut cluster, arm, budget(plan.c_cap() as usize + a.nnz(), a.nrows()));
    Out::csr(&plan.read_c::<I>(&cluster).with_index_width::<u32>())
}

fn system_spgemm<I: KernelIndex>(
    variant: Variant,
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    n_clusters: usize,
    arm: Arm,
) -> Out {
    let mut params = SystemParams { n_clusters, ..SystemParams::default() };
    params.cluster.cc = CcParams::sssr();
    let n_workers = params.cluster.n_workers as u32;
    let (a_cap, c_cap) = PANEL_CAPS;
    let plan = SystemSpgemmPlan::with_panel_caps(variant, a, b, n_workers, a_cap, c_cap);
    assert!(plan.n_panels() > 2, "the caps force several panels");
    let mut system = System::new(build_system_spgemm::<I>(variant, &plan), params);
    plan.marshal(system.main.array_mut(), a, b);
    system.set_work_queue(plan.queue_addr());
    run_system(&mut system, arm, budget(4 * a.nnz() + 4 * b.nnz(), a.nrows()));
    Out::csr(&plan.stitch::<I>(system.main.array()))
}

/// Runs SpGEMM on `a × b` in both variants through `sweep`.
fn check_spgemm<I: KernelIndex>(a: &CsrMatrix<I>, b: &CsrMatrix<I>, sweep: &Sweep) {
    let want = Out::csr(&reference::spgemm(a, b).with_index_width::<u32>());
    for variant in [Variant::Base, Variant::Issr] {
        let at = |n, level| format!("SpGEMM, {} bytes, {variant}, {n} {level}", I::BYTES);
        for &n in sweep.workers {
            sweep_arms(&at(n, "workers"), &want, sweep.seeds, |arm| {
                cluster_spgemm(variant, a, b, n, arm)
            });
        }
        for &n in sweep.clusters {
            sweep_arms(&at(n, "clusters"), &want, sweep.seeds, |arm| {
                system_spgemm(variant, a, b, n, arm)
            });
        }
    }
}

/// Operands with empty rows on both sides, so the offset chain passes
/// rows of length zero and some products of live rows are empty.
fn spgemm_operands() -> (CsrMatrix<u16>, CsrMatrix<u16>) {
    let mut rng = gen::rng(0x5A6E);
    let a = gen::csr_uniform::<u16>(&mut rng, 40, 32, 100);
    let b = gen::csr_uniform::<u16>(&mut rng, 32, 48, 70);
    (a, b)
}

#[test]
fn spgemm_under_the_arbiter() {
    let (a, b) = spgemm_operands();
    assert!((0..a.nrows()).any(|r| a.row_range(r).is_empty()), "A has an empty row");
    assert!((0..b.nrows()).any(|r| b.row_range(r).is_empty()), "B has an empty row");
    check_spgemm(&a, &b, &SHORT);
}

// ---- SpMSpV ----

fn cluster_spmspv<I: KernelIndex>(
    variant: Variant,
    m: &CsrMatrix<I>,
    x: &SparseFiber<I>,
    n_workers: usize,
    arm: Arm,
) -> Out {
    let params = ClusterParams { n_workers, cc: CcParams::sssr(), ..ClusterParams::default() };
    let plan = ClusterSpmspvPlan::new(m, x, n_workers as u32);
    let mut cluster = Cluster::new(build_cluster_spmspv::<I>(variant, &plan), params);
    plan.marshal(&mut cluster, m, x);
    run_cluster(&mut cluster, arm, budget(m.nnz() + m.nrows() * x.nnz(), m.nrows()));
    Out::dense(plan.read_y(&cluster))
}

/// Runs SpMSpV on `m × x` in both variants at each of `workers`.
fn check_spmspv<I: KernelIndex>(
    m: &CsrMatrix<I>,
    x: &SparseFiber<I>,
    workers: &[usize],
    seeds: &[u64],
) {
    let want = Out::dense(reference::spmspv(m, x));
    for variant in [Variant::Base, Variant::Issr] {
        for &n in workers {
            let at = format!("SpMSpV, {} bytes, {variant}, {n} workers", I::BYTES);
            sweep_arms(&at, &want, seeds, |arm| cluster_spmspv(variant, m, x, n, arm));
        }
    }
}

/// Rows from empty to long against a sparse `x`; the row count is no
/// multiple of the worker count, so the last stripe is short.
fn spmspv_operands() -> (CsrMatrix<u16>, SparseFiber<u16>) {
    let mut rng = gen::rng(0x5B3C);
    let m = gen::csr_uniform::<u16>(&mut rng, 45, 128, 300);
    let x = gen::sparse_vector::<u16>(&mut rng, 128, 40);
    (m, x)
}

#[test]
fn spmspv_under_the_arbiter() {
    let (m, x) = spmspv_operands();
    check_spmspv(&m, &x, &[8], SHORT.seeds);
}

#[test]
#[ignore = "long sweep: run with --ignored (release)"]
fn long_sweep_under_the_arbiter() {
    for (shape, (m, x)) in
        [("unbalanced", unbalanced()), ("multi-block", multi_block()), ("short rows", short_rows())]
    {
        check_csrmv(shape, &m, &x, &LONG);
        check_csrmv(shape, &m.with_index_width::<u32>(), &x, &LONG);
    }
    let (a, b) = spgemm_operands();
    check_spgemm(&a, &b, &LONG);
    check_spgemm(&a.with_index_width::<u32>(), &b.with_index_width::<u32>(), &LONG);
    let (m, x) = spmspv_operands();
    check_spmspv(&m, &x, &[8, 16], LONG.seeds);
    check_spmspv(&m.with_index_width::<u32>(), &x.with_index_width::<u32>(), &[8, 16], LONG.seeds);
}
