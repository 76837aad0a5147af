//! One case = one `run_*` call of `issr-kernels` on fixed operands, with
//! the host oracle its output is checked against.
//!
//! This is the pinned end-to-end surface: the `run_*` entry points, the
//! summary accessors (through [`crate::counts`]), `issr_sparse::reference`
//! and `PowerModel`. Nothing here constructs a simulator piece by piece;
//! the staged copies that do live in [`crate::traced`].

use crate::counts::{Counts, Layer};
use crate::traced::Probe;
use issr_cluster::cluster::ClusterSummary;
use issr_kernels::variant::{KernelIndex, Variant};
use issr_kernels::{
    run_cluster_csrmv, run_cluster_spgemm, run_codebook_spvv, run_csf_ttv, run_csrmm, run_csrmv,
    run_gather, run_scatter, run_spgemm, run_spgemm_recover, run_spmspv, run_spvv, run_spvv_ss,
    run_stencil, run_system_csrmv, run_system_spgemm, SparseStencil,
};
use issr_model::power::PowerModel;
use issr_snitch::cc::{RunSummary, SimTimeout};
use issr_sparse::csf::CsfTensor;
use issr_sparse::csr::CsrMatrix;
use issr_sparse::dense::{allclose, DenseMatrix};
use issr_sparse::fiber::SparseFiber;
use issr_system::system::SystemSummary;
use std::rc::Rc;
use std::time::Instant;

/// Relative and absolute tolerance against the host oracles: the
/// kernels sum in a different association order than the references.
const TOL: f64 = 1e-9;

/// What a case's output must equal.
#[derive(Clone, Debug)]
pub enum Expect {
    /// One value, within [`TOL`].
    Scalar(f64),
    /// A vector, element-wise within [`TOL`].
    Vector(Rc<Vec<f64>>),
    /// A vector that must match bit for bit (pure data movement).
    Exact(Rc<Vec<f64>>),
    /// A sparse product: identical structure, values within [`TOL`].
    Csr(Rc<CsrMatrix<u32>>),
    /// A dense matrix, within [`TOL`].
    Dense(Rc<DenseMatrix>),
    /// One vector per tensor slice, within [`TOL`].
    Nested(Rc<Vec<Vec<f64>>>),
}

impl Expect {
    /// Makes the oracle wrong on purpose (the harness self-test: a wrong
    /// oracle must surface as a failed case, not as a panic).
    pub fn corrupt(&mut self) {
        fn bump(v: &[f64]) -> Rc<Vec<f64>> {
            let mut v = v.to_vec();
            match v.first_mut() {
                Some(first) => *first += 1.0,
                None => v.push(1.0),
            }
            Rc::new(v)
        }
        match self {
            Expect::Scalar(v) => *v += 1.0,
            Expect::Vector(v) | Expect::Exact(v) => *v = bump(v),
            Expect::Csr(m) => {
                let wrong = CsrMatrix::new(
                    m.nrows(),
                    m.ncols(),
                    m.ptr().to_vec(),
                    m.idcs().to_vec(),
                    bump(m.vals()).to_vec(),
                );
                // An empty product has no value to bump; leave it.
                if let Ok(wrong) = wrong {
                    *m = Rc::new(wrong);
                }
            }
            Expect::Dense(m) => {
                let mut wrong = (**m).clone();
                wrong.set(0, 0, wrong.get(0, 0) + 1.0);
                *m = Rc::new(wrong);
            }
            Expect::Nested(rows) => {
                let mut wrong = (**rows).clone();
                match wrong.iter_mut().find_map(|r| r.first_mut()) {
                    Some(first) => *first += 1.0,
                    None => wrong.push(vec![1.0]),
                }
                *rows = Rc::new(wrong);
            }
        }
    }
}

/// What a case produced.
#[derive(Clone, Debug)]
pub enum Output {
    /// One value.
    Scalar(f64),
    /// A dense vector.
    Vector(Vec<f64>),
    /// A sparse product.
    Csr(CsrMatrix<u32>),
    /// A dense matrix.
    Dense(DenseMatrix),
    /// One vector per tensor slice.
    Nested(Vec<Vec<f64>>),
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= TOL * want.abs().max(1.0)
}

impl Output {
    /// Whether this output satisfies `expect`.
    #[must_use]
    pub fn matches(&self, expect: &Expect) -> bool {
        match (self, expect) {
            (Output::Scalar(g), Expect::Scalar(w)) => close(*g, *w),
            (Output::Vector(g), Expect::Vector(w)) => allclose(g, w, TOL, TOL),
            (Output::Vector(g), Expect::Exact(w)) => {
                g.len() == w.len()
                    && g.iter().zip(w.iter()).all(|(a, b)| a.to_bits() == b.to_bits())
            }
            (Output::Csr(g), Expect::Csr(w)) => {
                g.ptr() == w.ptr() && g.idcs() == w.idcs() && allclose(g.vals(), w.vals(), TOL, TOL)
            }
            (Output::Dense(g), Expect::Dense(w)) => {
                g.rows() == w.rows() && g.cols() == w.cols() && g.max_abs_diff(w) <= TOL
            }
            (Output::Nested(g), Expect::Nested(w)) => {
                g.len() == w.len() && g.iter().zip(w.iter()).all(|(a, b)| allclose(a, b, TOL, TOL))
            }
            _ => false,
        }
    }

    /// FNV-1a over the output's value bits: the identity two runs of one
    /// case, or runs at different cluster and thread counts, must share.
    #[must_use]
    pub fn hash(&self) -> u64 {
        fn fold(h: u64, vals: &[f64]) -> u64 {
            vals.iter().fold(h, |h, v| (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01B3))
        }
        let seed = 0xCBF2_9CE4_8422_2325;
        match self {
            Output::Scalar(v) => fold(seed, &[*v]),
            Output::Vector(v) => fold(seed, v),
            Output::Csr(m) => fold(seed, m.vals()),
            Output::Dense(m) => fold(seed, m.data()),
            Output::Nested(rows) => rows.iter().fold(seed, |h, r| fold(h, r)),
        }
    }
}

/// The deterministic observation of one case execution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Observed {
    /// Simulated cycles to completion.
    pub cycles: u64,
    /// Cycles inside the region of interest (single-CC cases; 0 elsewhere).
    pub roi_cycles: u64,
    /// FPU utilisation: of the one hart (single CC), of the best worker
    /// (cluster), mean over clusters of the cluster utilisation (system).
    pub util: f64,
    /// Average power from `PowerModel::evaluate` (cluster cases; else 0).
    pub power_mw: f64,
    /// Energy per multiply-accumulate from `PowerModel::evaluate` (else 0).
    pub pj_per_fmadd: f64,
    /// [`Output::hash`] of the result.
    pub out_hash: u64,
    /// Layer counters.
    pub counts: Counts,
}

/// What `exec` hands back: the output, its observation (hash still 0),
/// and the host time spent inside the `run_*` call and the power model.
pub struct Raw {
    pub output: Output,
    pub obs: Observed,
    pub run_ns: u64,
    pub model_ns: u64,
}

type Exec = Box<dyn Fn(&mut Probe<'_>) -> Result<Raw, String>>;

/// One benchmark case.
pub struct Case {
    /// Unique name inside its workload.
    pub name: String,
    /// Harness the case runs on.
    pub layer: Layer,
    /// Kernel variant (ISSR-variant cases make up `issr_cycles`).
    pub variant: Variant,
    /// The traced run repeats this case with `ISSR_THREADS=2` to price
    /// the thread pool against the serial tick loop.
    pub pool_probe: bool,
    /// The host oracle.
    pub expect: Expect,
    /// [`Output::hash`] of the same problem run through the
    /// single-cluster kernel, which a system case must reproduce bit
    /// for bit at every cluster and thread count.
    pub twin: Option<u64>,
    exec: Exec,
}

impl Case {
    fn new(name: &str, layer: Layer, variant: Variant, expect: Expect, exec: Exec) -> Self {
        Self { name: name.to_owned(), layer, variant, pool_probe: false, expect, twin: None, exec }
    }

    /// Runs the case once. `Err` is a simulator timeout; panics are the
    /// caller's to catch.
    pub fn exec(&self, probe: &mut Probe<'_>) -> Result<Raw, String> {
        (self.exec)(probe)
    }

    /// Sets the output hash of the single-cluster twin run.
    #[must_use]
    pub fn with_twin(mut self, out_hash: u64) -> Self {
        self.twin = Some(out_hash);
        self
    }

    /// Marks the case as the one the traced run also runs pooled.
    #[must_use]
    pub fn as_pool_probe(mut self) -> Self {
        self.pool_probe = true;
        self
    }
}

fn timeout(e: SimTimeout) -> String {
    format!("simulator timeout after {} cycles", e.max_cycles)
}

fn single_cc(output: Output, summary: &RunSummary, run_ns: u64) -> Raw {
    let obs = Observed {
        cycles: summary.cycles,
        roi_cycles: summary.metrics.roi.cycles,
        util: summary.metrics.fpu_utilization(),
        counts: Counts::of_run(summary),
        ..Observed::default()
    };
    Raw { output, obs, run_ns, model_ns: 0 }
}

/// A case on one core complex: `run` is the `run_*` call, handing back
/// its output and its summary.
fn on_single_cc(
    name: &str,
    variant: Variant,
    expect: Expect,
    run: impl Fn() -> Result<(Output, RunSummary), SimTimeout> + 'static,
) -> Case {
    Case::new(
        name,
        Layer::SingleCc,
        variant,
        expect,
        Box::new(move |p| {
            let (r, run_ns) = p.run(&run);
            let (output, summary) = r.map_err(timeout)?;
            Ok(single_cc(output, &summary, run_ns))
        }),
    )
}

/// SpVV on one core complex.
pub fn spvv<I: KernelIndex>(
    name: &str,
    variant: Variant,
    a: &Rc<SparseFiber<I>>,
    b: &Rc<Vec<f64>>,
    expect: f64,
) -> Case {
    let (a, b) = (Rc::clone(a), Rc::clone(b));
    on_single_cc(name, variant, Expect::Scalar(expect), move || {
        run_spvv(variant, &a, &b).map(|r| (Output::Scalar(r.result), r.summary))
    })
}

/// CsrMV on one core complex.
pub fn csrmv<I: KernelIndex>(
    name: &str,
    variant: Variant,
    m: &Rc<CsrMatrix<I>>,
    x: &Rc<Vec<f64>>,
    expect: &Rc<Vec<f64>>,
) -> Case {
    let (m, x) = (Rc::clone(m), Rc::clone(x));
    on_single_cc(name, variant, Expect::Vector(Rc::clone(expect)), move || {
        run_csrmv(variant, &m, &x).map(|r| (Output::Vector(r.y), r.summary))
    })
}

/// CsrMM on one core complex.
pub fn csrmm(
    name: &str,
    variant: Variant,
    m: &Rc<CsrMatrix<u16>>,
    b: &Rc<DenseMatrix>,
    expect: DenseMatrix,
) -> Case {
    let (m, b) = (Rc::clone(m), Rc::clone(b));
    on_single_cc(name, variant, Expect::Dense(Rc::new(expect)), move || {
        run_csrmm(variant, &m, &b).map(|r| (Output::Dense(r.y), r.summary))
    })
}

/// ISSR gather stream.
pub fn gather(name: &str, data: &Rc<Vec<f64>>, idcs: &Rc<Vec<u16>>, expect: Vec<f64>) -> Case {
    let (data, idcs) = (Rc::clone(data), Rc::clone(idcs));
    on_single_cc(name, Variant::Issr, Expect::Exact(Rc::new(expect)), move || {
        run_gather(&data, &idcs).map(|r| (Output::Vector(r.out), r.summary))
    })
}

/// ISSR scatter stream (the write side of the indirection lane).
pub fn scatter(
    name: &str,
    dim: usize,
    idcs: &Rc<Vec<u16>>,
    vals: &Rc<Vec<f64>>,
    expect: Vec<f64>,
) -> Case {
    let (idcs, vals) = (Rc::clone(idcs), Rc::clone(vals));
    on_single_cc(name, Variant::Issr, Expect::Exact(Rc::new(expect)), move || {
        run_scatter(dim, &idcs, &vals).map(|r| (Output::Vector(r.out), r.summary))
    })
}

/// Codebook-compressed SpVV on the two-ISSR streamer.
pub fn codebook_spvv(
    name: &str,
    codebook: Vec<f64>,
    codes: Vec<u16>,
    idcs: Vec<u16>,
    dense: Vec<f64>,
    expect: f64,
) -> Case {
    on_single_cc(name, Variant::Issr, Expect::Scalar(expect), move || {
        run_codebook_spvv(&codebook, &codes, &idcs, &dense)
            .map(|(result, summary)| (Output::Scalar(result), summary))
    })
}

/// Sparse-sparse dot product on the index joiner.
pub fn spvv_ss(
    name: &str,
    variant: Variant,
    a: &Rc<SparseFiber<u16>>,
    b: &Rc<SparseFiber<u16>>,
    expect: f64,
) -> Case {
    let (a, b) = (Rc::clone(a), Rc::clone(b));
    on_single_cc(name, variant, Expect::Scalar(expect), move || {
        run_spvv_ss(variant, &a, &b).map(|r| (Output::Scalar(r.result), r.summary))
    })
}

/// Sparse-matrix times sparse-vector on the index joiner.
pub fn spmspv(
    name: &str,
    variant: Variant,
    m: &Rc<CsrMatrix<u16>>,
    x: &Rc<SparseFiber<u16>>,
    expect: &Rc<Vec<f64>>,
) -> Case {
    let (m, x) = (Rc::clone(m), Rc::clone(x));
    on_single_cc(name, variant, Expect::Vector(Rc::clone(expect)), move || {
        run_spmspv(variant, &m, &x).map(|r| (Output::Vector(r.y), r.summary))
    })
}

/// Row-wise SpGEMM on the sparse accumulator.
pub fn spgemm(
    name: &str,
    variant: Variant,
    a: &Rc<CsrMatrix<u16>>,
    b: &Rc<CsrMatrix<u16>>,
    expect: &Rc<CsrMatrix<u32>>,
) -> Case {
    let (a, b) = (Rc::clone(a), Rc::clone(b));
    on_single_cc(name, variant, Expect::Csr(Rc::clone(expect)), move || {
        run_spgemm(variant, &a, &b).map(|r| (Output::Csr(r.c), r.summary))
    })
}

/// SpGEMM from an optimistic SpAcc capacity: traps and grows by design.
pub fn spgemm_recover(
    name: &str,
    a: &Rc<CsrMatrix<u16>>,
    b: &Rc<CsrMatrix<u16>>,
    initial_cap: u32,
    expect: &Rc<CsrMatrix<u32>>,
) -> Case {
    let (a, b) = (Rc::clone(a), Rc::clone(b));
    Case::new(
        name,
        Layer::SingleCc,
        Variant::Issr,
        Expect::Csr(Rc::clone(expect)),
        Box::new(move |p| {
            let (r, ns) = p.run(|| run_spgemm_recover(Variant::Issr, &a, &b, initial_cap));
            let r = r.map_err(timeout)?;
            let mut raw = single_cc(Output::Csr(r.run.c), &r.run.summary, ns);
            // Each retry is one latched overflow fault that trapped the core.
            raw.obs.counts.overflow_retries = u64::from(r.retries);
            raw.obs.counts.stream_faults = u64::from(r.retries);
            Ok(raw)
        }),
    )
}

/// Sparse-stencil convolution.
pub fn stencil(name: &str, stencil: SparseStencil, x: Vec<f64>) -> Case {
    let expect = Expect::Vector(Rc::new(stencil.reference(&x)));
    on_single_cc(name, Variant::Issr, expect, move || {
        run_stencil::<u16>(&stencil, &x).map(|r| (Output::Vector(r.out), r.summary))
    })
}

/// CSF tensor-times-vector (a CsrMV pass and a scatter pass; the run
/// returns their cycle counts but no summary).
pub fn csf_ttv(name: &str, variant: Variant, t: CsfTensor<u16>, x: Vec<f64>) -> Case {
    let expect = t.ttv(&x);
    Case::new(
        name,
        Layer::SingleCc,
        variant,
        Expect::Nested(Rc::new(expect)),
        Box::new(move |p| {
            let (r, ns) = p.run(|| run_csf_ttv(variant, &t, &x));
            let r = r.map_err(timeout)?;
            let cycles = r.mv_cycles + r.scatter_cycles;
            let obs = Observed { cycles, ..Observed::default() };
            Ok(Raw { output: Output::Nested(r.y), obs, run_ns: ns, model_ns: 0 })
        }),
    )
}

fn cluster_obs(s: &ClusterSummary) -> Observed {
    Observed {
        cycles: s.cycles,
        util: s.peak_worker_utilization(),
        counts: Counts::of_cluster(s),
        ..Observed::default()
    }
}

/// Cluster CsrMV (8 workers + DMCC, DMA double-buffering), evaluated by
/// the power model.
pub fn cluster_csrmv(
    name: &str,
    variant: Variant,
    m: &Rc<CsrMatrix<u16>>,
    x: &Rc<Vec<f64>>,
    expect: &Rc<Vec<f64>>,
) -> Case {
    let (m, x) = (Rc::clone(m), Rc::clone(x));
    Case::new(
        name,
        Layer::Cluster,
        variant,
        Expect::Vector(Rc::clone(expect)),
        Box::new(move |p| {
            let (r, run_ns) = p.run(|| run_cluster_csrmv(variant, &m, &x));
            let r = r.map_err(timeout)?;
            let t = Instant::now();
            let energy = p.stage("model", || PowerModel::default().evaluate(&r.summary));
            let model_ns = t.elapsed().as_nanos() as u64;
            let obs = Observed {
                power_mw: energy.avg_power_mw,
                pj_per_fmadd: energy.pj_per_fmadd,
                ..cluster_obs(&r.summary)
            };
            Ok(Raw { output: Output::Vector(r.y), obs, run_ns, model_ns })
        }),
    )
}

/// Cluster SpGEMM on TCDM-resident operands (SpAcc, barrier, prefix scan).
pub fn cluster_spgemm(
    name: &str,
    variant: Variant,
    a: &Rc<CsrMatrix<u16>>,
    b: &Rc<CsrMatrix<u16>>,
    expect: &Rc<CsrMatrix<u32>>,
) -> Case {
    let (a, b) = (Rc::clone(a), Rc::clone(b));
    Case::new(
        name,
        Layer::Cluster,
        variant,
        Expect::Csr(Rc::clone(expect)),
        Box::new(move |p| {
            let (r, run_ns) = p.run(|| run_cluster_spgemm(variant, &a, &b));
            let r = r.map_err(timeout)?;
            let obs = cluster_obs(&r.summary);
            Ok(Raw { output: Output::Csr(r.c), obs, run_ns, model_ns: 0 })
        }),
    )
}

/// A case on `n_clusters` clusters: `run` is the `run_system_*` call,
/// handing back its output and its summary.
fn on_system(
    name: &str,
    variant: Variant,
    n_clusters: usize,
    expect: Expect,
    run: impl Fn() -> Result<(Output, SystemSummary), SimTimeout> + 'static,
) -> Case {
    Case::new(
        name,
        Layer::System(n_clusters),
        variant,
        expect,
        Box::new(move |p| {
            let (r, run_ns) = p.run(&run);
            let (output, s) = r.map_err(timeout)?;
            let utils: f64 = s.clusters.iter().map(ClusterSummary::cluster_utilization).sum();
            let obs = Observed {
                cycles: s.cycles,
                util: issr_trace::ratio(utils, s.clusters.len() as f64),
                counts: Counts::of_system(&s),
                ..Observed::default()
            };
            Ok(Raw { output, obs, run_ns, model_ns: 0 })
        }),
    )
}

/// Multi-cluster CsrMV on `n_clusters` clusters.
pub fn system_csrmv(
    name: &str,
    variant: Variant,
    m: &Rc<CsrMatrix<u16>>,
    x: &Rc<Vec<f64>>,
    n_clusters: usize,
    expect: &Rc<Vec<f64>>,
) -> Case {
    let (m, x) = (Rc::clone(m), Rc::clone(x));
    on_system(name, variant, n_clusters, Expect::Vector(Rc::clone(expect)), move || {
        run_system_csrmv(variant, &m, &x, n_clusters).map(|r| (Output::Vector(r.y), r.summary))
    })
}

/// Multi-cluster, multi-panel SpGEMM on `n_clusters` clusters.
pub fn system_spgemm(
    name: &str,
    a: &Rc<CsrMatrix<u16>>,
    b: &Rc<CsrMatrix<u16>>,
    n_clusters: usize,
    expect: &Rc<CsrMatrix<u32>>,
) -> Case {
    let (a, b) = (Rc::clone(a), Rc::clone(b));
    on_system(name, Variant::Issr, n_clusters, Expect::Csr(Rc::clone(expect)), move || {
        run_system_spgemm(Variant::Issr, &a, &b, n_clusters).map(|r| (Output::Csr(r.c), r.summary))
    })
}
