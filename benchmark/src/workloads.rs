//! The five workloads: each a fixed list of `run_*` cases, the paper
//! anchors it reproduces, and the cross-case identities it must keep.
//!
//! Why each exists, and which layer it isolates, is in `README.md` and
//! in the `why` lines of `BENCHMARK.json`; the comments here record the
//! sizing decisions.

use crate::case::{self, Case, Observed};
use crate::counts::Layer;
use crate::inputs::Values;
use crate::traced::Staged;
use issr_kernels::variant::Variant::{self, Base, Issr, Ssr};
use issr_kernels::{run_cluster_csrmv, SparseStencil};
use issr_sparse::csf::CsfTensor;
use issr_sparse::csr::CsrMatrix;
use issr_sparse::dense::DenseMatrix;
use issr_sparse::fiber::SparseFiber;
use issr_sparse::{gen, reference, suite};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

/// The workload names, in `--all` order.
pub const NAMES: [&str; 5] =
    ["cc_stream", "cluster_csrmv", "system_scaleout", "sparse_out", "tiny_runs"];

/// One reproduced paper anchor.
#[derive(Clone, Debug)]
pub struct Anchor {
    /// What the number is.
    pub name: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// This model's value.
    pub reproduced: f64,
}

/// The modelled-machine metrics a workload derives from its cases.
#[derive(Clone, Debug, Default)]
pub struct Derived {
    /// BASE ÷ ISSR cycles on the workload's anchor.
    pub speedup_vs_base: f64,
    /// FPU utilisation on the workload's anchor.
    pub fpu_util: f64,
    /// Largest BASE ÷ ISSR energy per fmadd (`cluster_csrmv` only, else 0).
    pub energy_gain: f64,
    /// psmigr_1 cycles at 1 cluster ÷ at 4 (`system_scaleout` only, else 0).
    pub scaling_x4: f64,
    /// `PowerModel` on the g7 anchor: BASE and ISSR power and energy.
    pub base_mw: f64,
    pub issr_mw: f64,
    pub base_pj_per_fmadd: f64,
    pub issr_pj_per_fmadd: f64,
    /// Paper anchors (empty: the workload is unvalidated).
    pub anchors: Vec<Anchor>,
    /// Cross-case identities that did not hold; each counts as a failed case.
    pub violations: Vec<String>,
}

impl Derived {
    /// Mean of |reproduced − paper| ÷ paper over the anchors (0 if none).
    #[must_use]
    pub fn paper_rel_err(&self) -> f64 {
        let sum: f64 =
            self.anchors.iter().map(|a| ((a.reproduced - a.paper) / a.paper).abs()).sum();
        issr_trace::ratio(sum, self.anchors.len() as f64)
    }
}

/// The first-pass observation of every case, by name.
pub struct Lookup<'a> {
    index: &'a HashMap<String, usize>,
    obs: &'a [Option<Observed>],
}

impl<'a> Lookup<'a> {
    /// A lookup over `obs`, indexed like the case list.
    #[must_use]
    pub fn new(index: &'a HashMap<String, usize>, obs: &'a [Option<Observed>]) -> Self {
        Self { index, obs }
    }

    fn get(&self, name: &str, violations: &mut Vec<String>) -> Observed {
        match self.index.get(name).and_then(|&i| self.obs[i]) {
            Some(o) => o,
            None => {
                violations.push(format!("anchor case `{name}` did not complete"));
                Observed::default()
            }
        }
    }
}

fn speedup(base: u64, issr: u64) -> f64 {
    issr_trace::ratio(base as f64, issr as f64)
}

/// A built workload.
pub struct Workload {
    /// One of [`NAMES`].
    pub name: &'static str,
    /// The case list one pass walks.
    pub cases: Vec<Case>,
    /// CsrMV cases the traced pass also runs stage by stage.
    pub staged: Vec<Staged>,
    /// Derives the modelled-machine metrics from a pass.
    pub derive: fn(&Lookup<'_>) -> Derived,
    /// Host time spent generating operands.
    pub gen_ns: u64,
    /// Host time spent in `issr_sparse::reference` and the twin runs.
    pub reference_ns: u64,
}

/// Builds workload `name` with its values drawn from `seed`; `quick`
/// scales every shape down for the package's own tests.
#[must_use]
pub fn build(name: &str, seed: u64, quick: bool) -> Option<Workload> {
    let mut b = Builder::new(seed, quick);
    let (name, derive): (&'static str, fn(&Lookup<'_>) -> Derived) = match name {
        "cc_stream" => ("cc_stream", cc_stream(&mut b)),
        "cluster_csrmv" => ("cluster_csrmv", cluster_csrmv(&mut b)),
        "system_scaleout" => ("system_scaleout", system_scaleout(&mut b)),
        "sparse_out" => ("sparse_out", sparse_out(&mut b)),
        "tiny_runs" => ("tiny_runs", tiny_runs(&mut b)),
        _ => return None,
    };
    Some(Workload {
        name,
        cases: b.cases,
        staged: b.staged,
        derive,
        gen_ns: b.gen_ns,
        reference_ns: b.reference_ns,
    })
}

struct Builder {
    values: Values,
    quick: bool,
    cases: Vec<Case>,
    staged: Vec<Staged>,
    gen_ns: u64,
    reference_ns: u64,
}

/// Structure seeds: constants, one per operand, so a shape is the same
/// in every run. Offsets keep operands of one workload distinct.
const S: u64 = 0x1553_0000;

impl Builder {
    fn new(seed: u64, quick: bool) -> Self {
        Self {
            values: Values::new(seed),
            quick,
            cases: Vec::new(),
            staged: Vec::new(),
            gen_ns: 0,
            reference_ns: 0,
        }
    }

    /// Generates an operand, on the `sparse.gen_s` clock.
    fn gen<T>(&mut self, f: impl FnOnce(&mut Values) -> T) -> Rc<T> {
        let t = Instant::now();
        let v = f(&mut self.values);
        self.gen_ns += t.elapsed().as_nanos() as u64;
        Rc::new(v)
    }

    /// Computes a host oracle, on the `sparse.reference_s` clock.
    fn oracle<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let v = f();
        self.reference_ns += t.elapsed().as_nanos() as u64;
        v
    }

    fn push(&mut self, case: Case) {
        self.cases.push(case);
    }

    /// `full`, or `quick` under `--quick`.
    fn size(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// A matrix with the published shape of suite entry `name` (under
    /// `--quick`: an eighth of the rows and columns, a 64th of the
    /// nonzeros), its dense operand and its CsrMV oracle.
    fn suite_csrmv(&mut self, name: &str, structure: u64) -> Operands {
        let e = suite::by_name(name).expect("suite entry exists");
        let (nrows, ncols, nnz) = if self.quick {
            ((e.nrows / 8).max(8), (e.ncols / 8).max(8), (e.nnz / 64).max(16))
        } else {
            (e.nrows, e.ncols, e.nnz)
        };
        let m = self.gen(|v| v.uniform(structure, nrows, ncols, nnz));
        self.csrmv_operands(m)
    }

    fn csrmv_operands(&mut self, m: Rc<CsrMatrix<u16>>) -> Operands {
        let x = self.gen(|v| v.dense(m.ncols()));
        let y = Rc::new(self.oracle(|| reference::csrmv(&m, &x)));
        Operands { m, x, y }
    }

    fn stage(&mut self, layer: Layer, o: &Operands) {
        self.staged.push(Staged { layer, m: Rc::clone(&o.m), x: Rc::clone(&o.x) });
    }
}

/// A CsrMV problem: matrix, dense vector, host result.
struct Operands {
    m: Rc<CsrMatrix<u16>>,
    x: Rc<Vec<f64>>,
    y: Rc<Vec<f64>>,
}

/// The four columns of Fig. 4a/4b: BASE, SSR and ISSR with 16-bit
/// indices, ISSR with 32-bit indices.
const FIG4_VARIANTS: [(Variant, bool, &str); 4] =
    [(Base, false, "base"), (Ssr, false, "ssr"), (Issr, false, "issr16"), (Issr, true, "issr32")];

fn csrmv_variants(b: &mut Builder, tag: &str, o: &Operands, which: &[&str]) {
    let m32 = Rc::new(o.m.with_index_width::<u32>());
    for (variant, wide, label) in FIG4_VARIANTS {
        if !which.contains(&label) {
            continue;
        }
        let name = format!("csrmv {tag} {label}");
        b.push(if wide {
            case::csrmv(&name, variant, &m32, &o.x, &o.y)
        } else {
            case::csrmv(&name, variant, &o.m, &o.x, &o.y)
        });
    }
}

fn spvv_variants(b: &mut Builder, tag: &str, a: &Rc<SparseFiber<u16>>, dense: &Rc<Vec<f64>>) {
    let a32 = Rc::new(a.with_index_width::<u32>());
    let expect = b.oracle(|| reference::spvv(a, dense));
    for (variant, wide, label) in FIG4_VARIANTS {
        let name = format!("spvv {tag} {label}");
        b.push(if wide {
            case::spvv(&name, variant, &a32, dense, expect)
        } else {
            case::spvv(&name, variant, a, dense, expect)
        });
    }
}

const ALL4: [&str; 4] = ["base", "ssr", "issr16", "issr32"];
const ISSR_ONLY: [&str; 2] = ["issr16", "issr32"];

/// Single core complex on ideal memory (§IV-A, Fig. 4a/4b).
///
/// Sizing: BASE and SSR cost 9 and 7 cycles per nonzero against ISSR's
/// ~1.3, so running them on every shape would leave the ISSR variants a
/// third of the host time; SSR is skipped on psmigr_1 and both are
/// skipped on dense212, which puts ISSR-variant runs at about half.
fn cc_stream(b: &mut Builder) -> fn(&Lookup<'_>) -> Derived {
    let g7 = b.suite_csrmv("g7", S + 1);
    csrmv_variants(b, "g7", &g7, &ALL4);
    b.stage(Layer::SingleCc, &g7);
    let orani = b.suite_csrmv("orani678", S + 2);
    csrmv_variants(b, "orani678", &orani, &ALL4);
    let psmigr = b.suite_csrmv("psmigr_1", S + 3);
    csrmv_variants(b, "psmigr_1", &psmigr, &["base", "issr16", "issr32"]);
    let dense212 = b.suite_csrmv("dense212", S + 4);
    csrmv_variants(b, "dense212", &dense212, &ISSR_ONLY);

    // Fig. 4a's right edge and Fig. 4b's 256 nnz/row point: the anchors.
    let (dim, nnz) = (b.size(2048, 256), b.size(1024, 128));
    let a = b.gen(|v| v.sparse_vector(S + 5, dim, nnz));
    let dense = b.gen(|v| v.dense(dim));
    spvv_variants(b, "nnz1024", &a, &dense);
    let (rows, cols, row_nnz) = (b.size(64, 8), b.size(2048, 256), b.size(256, 32));
    let m = b.gen(|v| v.fixed_row_nnz(S + 6, rows, cols, row_nnz));
    let dense_rows = b.csrmv_operands(m);
    csrmv_variants(b, "row256", &dense_rows, &ALL4);

    let ragusa = b.suite_csrmv("ragusa18", S + 7);
    for (tag, o, cols) in [("g7", &g7, 4), ("ragusa18", &ragusa, 2)] {
        let mut dense = DenseMatrix::with_pow2_stride(o.m.ncols(), cols);
        let vals = b.gen(|v| v.dense(o.m.ncols() * cols));
        for (i, v) in vals.iter().enumerate() {
            dense.set(i / cols, i % cols, *v);
        }
        let dense = Rc::new(dense);
        let expect = b.oracle(|| reference::csrmm(&o.m, &dense));
        b.push(case::csrmm(&format!("csrmm {tag} x{cols}"), Issr, &o.m, &dense, expect));
    }

    let (dim, n) = (b.size(8192, 512), b.size(4096, 128));
    let data = b.gen(|v| v.dense(dim));
    let idcs = Rc::new(gen::sparse_vector::<u16>(&mut gen::rng(S + 8), dim, n).idcs().to_vec());
    let expect = b.oracle(|| reference::gather(&data, &idcs));
    b.push(case::gather("gather", &data, &idcs, expect));
    let (_, codes) = gen::codebook_vector::<u16>(&mut gen::rng(S + 9), n, 64);
    let codebook = b.gen(|v| v.dense(64));
    let expect = b.oracle(|| reference::codebook_spvv(&codebook, &codes, &idcs, &data));
    b.push(case::codebook_spvv(
        "codebook_spvv",
        codebook.to_vec(),
        codes,
        idcs.to_vec(),
        data.to_vec(),
        expect,
    ));

    |l| {
        let mut d = Derived::default();
        let v = &mut d.violations;
        let spvv = |label: &str, v: &mut Vec<String>| l.get(&format!("spvv nnz1024 {label}"), v);
        let row = |label: &str, v: &mut Vec<String>| l.get(&format!("csrmv row256 {label}"), v);
        let base = row("base", v).roi_cycles;
        let s16 = speedup(base, row("issr16", v).roi_cycles);
        let s32 = speedup(base, row("issr32", v).roi_cycles);
        let u16 = spvv("issr16", v).util;
        d.anchors = vec![
            Anchor { name: "SpVV ISSR-16 utilisation", paper: 0.80, reproduced: u16 },
            Anchor {
                name: "SpVV ISSR-32 utilisation",
                paper: 0.67,
                reproduced: spvv("issr32", v).util,
            },
            Anchor {
                name: "SpVV BASE utilisation",
                paper: 1.0 / 9.0,
                reproduced: spvv("base", v).util,
            },
            Anchor {
                name: "SpVV SSR utilisation",
                paper: 1.0 / 7.0,
                reproduced: spvv("ssr", v).util,
            },
            Anchor { name: "CsrMV ISSR-16 speedup", paper: 7.2, reproduced: s16 },
            Anchor { name: "CsrMV ISSR-32 speedup", paper: 6.0, reproduced: s32 },
        ];
        d.speedup_vs_base = s16;
        d.fpu_util = u16;
        d
    }
}

/// The Fig. 4c points the workload runs (of the figure's 1..=128 sweep).
const FIG4C_POINTS: [usize; 3] = [1, 16, 128];
/// Suite matrices evaluated by the power model in both variants.
const ENERGY_MATRICES: [&str; 4] = ["g11", "g7", "plat1919", "orani678"];

/// Eight workers + DMCC, banked TCDM, DMA double-buffering (Fig. 4c/4d).
///
/// Sizing: BASE on psmigr_1 alone is 720k cluster cycles (1.4 s of host
/// time, more than every other case together), so psmigr_1 — the one
/// matrix that exceeds the TCDM — runs ISSR only.
fn cluster_csrmv(b: &mut Builder) -> fn(&Lookup<'_>) -> Derived {
    for (i, name) in ENERGY_MATRICES.into_iter().enumerate() {
        let o = b.suite_csrmv(name, S + 20 + i as u64);
        for variant in [Base, Issr] {
            let case_name = format!("cluster {name} {}", variant.name());
            b.push(case::cluster_csrmv(&case_name, variant, &o.m, &o.x, &o.y));
        }
        if name == "g7" {
            b.stage(Layer::Cluster, &o);
        }
    }
    let psmigr = b.suite_csrmv("psmigr_1", S + 25);
    b.push(case::cluster_csrmv("cluster psmigr_1 ISSR", Issr, &psmigr.m, &psmigr.x, &psmigr.y));
    let (rows, cols) = (b.size(512, 64), b.size(2048, 512));
    for row_nnz in FIG4C_POINTS {
        let m = b.gen(|v| v.clustered(S + 30 + row_nnz as u64, rows, cols, row_nnz));
        let o = b.csrmv_operands(m);
        for variant in [Base, Issr] {
            let case_name = format!("cluster fig4c {row_nnz} {}", variant.name());
            b.push(case::cluster_csrmv(&case_name, variant, &o.m, &o.x, &o.y));
        }
    }

    |l| {
        let mut d = Derived::default();
        let v = &mut d.violations;
        d.speedup_vs_base = FIG4C_POINTS
            .iter()
            .map(|n| {
                let base = l.get(&format!("cluster fig4c {n} BASE"), v).cycles;
                speedup(base, l.get(&format!("cluster fig4c {n} ISSR"), v).cycles)
            })
            .fold(0.0, f64::max);
        d.fpu_util = l.get("cluster fig4c 128 ISSR", v).util;
        d.energy_gain = ENERGY_MATRICES
            .iter()
            .map(|name| {
                let base = l.get(&format!("cluster {name} BASE"), v).pj_per_fmadd;
                issr_trace::ratio(base, l.get(&format!("cluster {name} ISSR"), v).pj_per_fmadd)
            })
            .fold(0.0, f64::max);
        let (base, issr) = (l.get("cluster g7 BASE", v), l.get("cluster g7 ISSR", v));
        d.base_mw = base.power_mw;
        d.issr_mw = issr.power_mw;
        d.base_pj_per_fmadd = base.pj_per_fmadd;
        d.issr_pj_per_fmadd = issr.pj_per_fmadd;
        d.anchors = vec![
            Anchor {
                name: "cluster CsrMV peak speedup",
                paper: 5.8,
                reproduced: d.speedup_vs_base,
            },
            Anchor { name: "peak worker utilisation", paper: 0.71, reproduced: d.fpu_util },
            Anchor { name: "BASE cluster power (mW)", paper: 89.0, reproduced: d.base_mw },
            Anchor { name: "ISSR cluster power (mW)", paper: 194.0, reproduced: d.issr_mw },
            Anchor { name: "peak energy-efficiency gain", paper: 2.7, reproduced: d.energy_gain },
        ];
        d
    }
}

/// The single-cluster kernel's output bits, which a system run must
/// reproduce at every cluster count.
fn single_cluster_twin(b: &mut Builder, o: &Operands) -> u64 {
    let run = b.oracle(|| run_cluster_csrmv(Issr, &o.m, &o.x).expect("twin run finishes"));
    case::Output::Vector(run.y).hash()
}

/// Multi-cluster scale-out, serial tick loop (`ISSR_THREADS=1`).
///
/// Sizing: a pass over psmigr_1 and dense212 at 1/2/4 clusters is 3 s of
/// host time, twice what five passes in a ten-second run allow, so
/// dense212 runs at 2 clusters only. The BASE ÷ ISSR anchor and the
/// bit-identity check against `run_cluster_csrmv` run on the g7 shape,
/// where the single-cluster twin costs 45 ms of set-up instead of 0.5 s;
/// the psmigr_1 runs are checked bit-identical to each other here and to
/// the single-cluster kernel in the traced run. The g7 ISSR case is also
/// the one the traced run repeats through `TickPool` (`ISSR_THREADS=2`).
fn system_scaleout(b: &mut Builder) -> fn(&Lookup<'_>) -> Derived {
    let psmigr = b.suite_csrmv("psmigr_1", S + 40);
    for n in [1, 2, 4] {
        b.push(case::system_csrmv(
            &format!("system psmigr_1 x{n}"),
            Issr,
            &psmigr.m,
            &psmigr.x,
            n,
            &psmigr.y,
        ));
    }
    b.stage(Layer::System(2), &psmigr);
    let dense212 = b.suite_csrmv("dense212", S + 41);
    b.push(case::system_csrmv(
        "system dense212 x2",
        Issr,
        &dense212.m,
        &dense212.x,
        2,
        &dense212.y,
    ));
    let g7 = b.suite_csrmv("g7", S + 42);
    let twin = single_cluster_twin(b, &g7);
    b.push(case::system_csrmv("system g7 x2 BASE", Base, &g7.m, &g7.x, 2, &g7.y));
    b.push(
        case::system_csrmv("system g7 x2 ISSR", Issr, &g7.m, &g7.x, 2, &g7.y)
            .with_twin(twin)
            .as_pool_probe(),
    );

    |l| {
        let mut d = Derived::default();
        let v = &mut d.violations;
        let x1 = l.get("system psmigr_1 x1", v);
        let x4 = l.get("system psmigr_1 x4", v);
        for n in [2, 4] {
            if l.get(&format!("system psmigr_1 x{n}"), v).out_hash != x1.out_hash {
                v.push(format!("psmigr_1 at {n} clusters is not bit-identical to 1 cluster"));
            }
        }
        d.scaling_x4 = speedup(x1.cycles, x4.cycles);
        d.fpu_util = x4.util;
        d.speedup_vs_base =
            speedup(l.get("system g7 x2 BASE", v).cycles, l.get("system g7 x2 ISSR", v).cycles);
        d
    }
}

/// The SpGEMM sweep's three regimes (`issr-bench`'s `default_spgemm_regimes`):
/// label, rows of A, inner dimension, columns of B, nonzeros per A and B
/// row — and by how much the rows of A grow for the scaled cluster case,
/// the largest factor whose plan still fits the TCDM.
const REGIMES: [(&str, usize, usize, usize, usize, usize, usize); 3] = [
    ("hypersparse", 32, 64, 96, 4, 4, 8),
    ("moderate", 24, 64, 256, 4, 24, 4),
    ("dense-rows", 16, 64, 512, 8, 48, 2),
];

/// A sparse product problem and its host result.
struct Product {
    a: Rc<CsrMatrix<u16>>,
    b: Rc<CsrMatrix<u16>>,
    c: Rc<CsrMatrix<u32>>,
}

fn product(b: &mut Builder, a: Rc<CsrMatrix<u16>>, rhs: Rc<CsrMatrix<u16>>) -> Product {
    let c = Rc::new(b.oracle(|| reference::spgemm(&a, &rhs).with_index_width::<u32>()));
    Product { a, b: rhs, c }
}

/// The streamer used the other way round: joiner-fed reads, SpAcc and
/// write lanes.
///
/// Sizing: the single-CC kernels run on several times the rows of the
/// `issr-bench` shapes so that they take about as much of the pass as
/// the multi-panel system product; BASE runs once per kernel, on its
/// smallest shape, so that four fifths of the host time is ISSR-variant.
fn sparse_out(b: &mut Builder) -> fn(&Lookup<'_>) -> Derived {
    // SpVV∩ on the joiner at three match densities: the joiner sweep's
    // operand shape for the BASE anchor, 32 times longer for the rest.
    let (dim, small, large) = (b.size(65_536, 2048), b.size(512, 64), b.size(16_384, 128));
    for (tag, overlap, nnz, variants) in [
        ("anchor", 0.5, small, &[Base, Issr][..]),
        ("long", 0.0, large, &[Issr][..]),
        ("long", 0.5, large, &[Issr][..]),
        ("long", 1.0, large, &[Issr][..]),
    ] {
        let seed = S + 60 + (overlap * 8.0) as u64 + nnz as u64;
        let pair = b.gen(|v| v.overlapping_pair(seed, dim, nnz, overlap));
        let (a, rhs) = (Rc::new(pair.0.clone()), Rc::new(pair.1.clone()));
        let expect = b.oracle(|| reference::spvv_ss(&a, &rhs));
        for &variant in variants {
            let name = format!("spvv_ss {tag} overlap{overlap} {}", variant.name());
            b.push(case::spvv_ss(&name, variant, &a, &rhs, expect));
        }
    }

    // SpMSpV on the joiner: the sweep's matrix with 21 times the rows.
    let (rows, cols, row_nnz) = (b.size(1024, 24), b.size(2048, 256), b.size(64, 8));
    let m = b.gen(|v| v.fixed_row_nnz(S + 70, rows, cols, row_nnz));
    for x_nnz in [b.size(64, 8), b.size(512, 64)] {
        let x = b.gen(|v| v.sparse_vector(S + 71 + x_nnz as u64, cols, x_nnz));
        let y = Rc::new(b.oracle(|| reference::spmspv(&m, &x)));
        b.push(case::spmspv(&format!("spmspv x{x_nnz} ISSR"), Issr, &m, &x, &y));
    }
    let small_rows = b.size(48, 12);
    let small = b.gen(|v| v.fixed_row_nnz(S + 72, small_rows, cols, row_nnz));
    let x = b.gen(|v| v.sparse_vector(S + 73, cols, row_nnz));
    let y = Rc::new(b.oracle(|| reference::spmspv(&small, &x)));
    b.push(case::spmspv("spmspv anchor BASE", Base, &small, &x, &y));
    b.push(case::spmspv("spmspv anchor ISSR", Issr, &small, &x, &y));

    // SpGEMM on the SpAcc: the three regimes as `issr-bench` sweeps them
    // (the BASE anchors run here), then with more rows of A — 24 times
    // on one core complex, TCDM-resident on the cluster.
    let cc_scale = b.size(24, 1);
    for (i, (label, rows, inner, cols, a_nnz, b_nnz, cluster_scale)) in
        REGIMES.into_iter().enumerate()
    {
        let seed = S + 80 + 4 * i as u64;
        let rhs = b.gen(|v| v.fixed_row_nnz(seed, inner, cols, b_nnz));
        let a = b.gen(|v| v.fixed_row_nnz(seed + 1, rows, inner, a_nnz));
        let p = product(b, a, Rc::clone(&rhs));
        if label == "dense-rows" {
            b.push(case::spgemm("spgemm dense-rows BASE", Base, &p.a, &p.b, &p.c));
            b.push(case::spgemm("spgemm dense-rows ISSR", Issr, &p.a, &p.b, &p.c));
        }
        if label == "hypersparse" {
            b.push(case::cluster_spgemm("cluster_spgemm hypersparse BASE", Base, &p.a, &p.b, &p.c));
        }
        b.push(case::cluster_spgemm(
            &format!("cluster_spgemm {label} ISSR"),
            Issr,
            &p.a,
            &p.b,
            &p.c,
        ));
        let a = b.gen(|v| v.fixed_row_nnz(seed + 2, rows * cc_scale, inner, a_nnz));
        let p = product(b, a, Rc::clone(&rhs));
        b.push(case::spgemm(&format!("spgemm {label} x{cc_scale} ISSR"), Issr, &p.a, &p.b, &p.c));
        let cluster_scale = if b.quick { 1 } else { cluster_scale };
        let a = b.gen(|v| v.fixed_row_nnz(seed + 3, rows * cluster_scale, inner, a_nnz));
        let p = product(b, a, rhs);
        let name = format!("cluster_spgemm {label} x{cluster_scale} ISSR");
        b.push(case::cluster_spgemm(&name, Issr, &p.a, &p.b, &p.c));
    }

    // Multi-panel system SpGEMM at 1 and 2 clusters.
    let (rows, inner, cols) = (b.size(1024, 128), b.size(512, 64), b.size(640, 80));
    let a = b.gen(|v| v.uniform(S + 95, rows, inner, rows * 8));
    let rhs = b.gen(|v| v.uniform(S + 96, inner, cols, inner * 9));
    let p = product(b, a, rhs);
    for n in [1, 2] {
        b.push(case::system_spgemm(&format!("system_spgemm x{n}"), &p.a, &p.b, n, &p.c));
    }

    // The write side of the indirection lane, and trap-driven recovery.
    let (dim, n) = (b.size(60_000, 512), b.size(16_384, 128));
    let idcs = Rc::new(gen::sparse_vector::<u16>(&mut gen::rng(S + 97), dim, n).idcs().to_vec());
    let vals = b.gen(|v| v.dense(n));
    let expect = b.oracle(|| reference::scatter(dim, &idcs, &vals));
    b.push(case::scatter("scatter", dim, &idcs, &vals, expect));
    let a = b.gen(|v| v.fixed_row_nnz(S + 98, 8, 24, 4));
    let rhs = b.gen(|v| v.fixed_row_nnz(S + 99, 24, 64, 24));
    let p = product(b, a, rhs);
    b.push(case::spgemm_recover("spgemm_recover cap4", &p.a, &p.b, 4, &p.c));

    |l| {
        let mut d = Derived::default();
        let v = &mut d.violations;
        d.speedup_vs_base = speedup(
            l.get("spgemm dense-rows BASE", v).roi_cycles,
            l.get("spgemm dense-rows ISSR", v).roi_cycles,
        );
        d.fpu_util = l.get("spvv_ss long overlap0.5 ISSR", v).util;
        if l.get("system_spgemm x2", v).out_hash != l.get("system_spgemm x1", v).out_hash {
            v.push("system SpGEMM at 2 clusters is not bit-identical to 1 cluster".to_owned());
        }
        if l.get("spgemm_recover cap4", v).counts.overflow_retries == 0 {
            v.push("the overflow-recovery case never trapped".to_owned());
        }
        d
    }
}

/// Nonzero counts of the Fig. 4a sweep's short end.
const TINY_NNZ: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Thousands of 300–1200-cycle simulations across every kernel family.
///
/// One repetition is ~60 single-CC, 7 cluster and 4 system runs on
/// fresh structures; the repetition count sets the pass length. Per-run
/// fixed cost (plan, build, construct, marshal, summary) is most of a
/// single-CC run here, which is what this workload is for.
fn tiny_runs(b: &mut Builder) -> fn(&Lookup<'_>) -> Derived {
    let reps = b.size(48, 1);
    for rep in 0..reps {
        let s = S + 1000 + 64 * rep as u64;
        let dense = b.gen(|v| v.dense(2048));
        for (i, nnz) in TINY_NNZ.into_iter().enumerate() {
            let a = b.gen(|v| v.sparse_vector(s + i as u64, 2048, nnz));
            spvv_variants(b, &format!("r{rep} nnz{nnz}"), &a, &dense);
        }
        let m = b.gen(|v| v.uniform(s + 10, 16, 64, 96));
        let o = b.csrmv_operands(m);
        csrmv_variants(b, &format!("r{rep} 16x64"), &o, &ALL4);
        if rep == 0 {
            b.stage(Layer::SingleCc, &o);
        }

        let mut rhs = DenseMatrix::with_pow2_stride(64, 2);
        for (i, v) in b.gen(|v| v.dense(128)).iter().enumerate() {
            rhs.set(i / 2, i % 2, *v);
        }
        let rhs = Rc::new(rhs);
        let expect = b.oracle(|| reference::csrmm(&o.m, &rhs));
        b.push(case::csrmm(&format!("r{rep} csrmm 16x64 x2"), Issr, &o.m, &rhs, expect));

        // TTV: the coordinates of a 4x8x64 tensor from a uniform 32x64 matrix.
        let coords = b.gen(|v| v.uniform(s + 11, 32, 64, 120));
        let entries: Vec<([usize; 3], f64)> = (0..coords.nrows())
            .flat_map(|r| coords.row(r).map(move |(k, v)| ([r / 8, r % 8, k], v)))
            .collect();
        let tensor = CsfTensor::<u16>::from_coords([4, 8, 64], &entries);
        b.push(case::csf_ttv(&format!("r{rep} ttv 4x8x64"), Issr, tensor, o.x.to_vec()));

        let taps = gen::sparse_vector::<u16>(&mut gen::rng(s + 12), 16, 5);
        let stencil = SparseStencil {
            offsets: taps.idcs().iter().map(|&o| u32::from(o)).collect(),
            weights: b.gen(|v| v.dense(5)).to_vec(),
        };
        b.push(case::stencil(&format!("r{rep} stencil 5 taps"), stencil, dense[..96].to_vec()));

        let idcs =
            Rc::new(gen::sparse_vector::<u16>(&mut gen::rng(s + 13), 512, 128).idcs().to_vec());
        let data = Rc::new(dense[..512].to_vec());
        let expect = b.oracle(|| reference::gather(&data, &idcs));
        b.push(case::gather(&format!("r{rep} gather 128"), &data, &idcs, expect));
        let vals = Rc::new(dense[512..640].to_vec());
        let expect = b.oracle(|| reference::scatter(512, &idcs, &vals));
        b.push(case::scatter(&format!("r{rep} scatter 128"), 512, &idcs, &vals, expect));

        // Smoke-size SpGEMM (`issr-bench`'s smoke regimes), single CC and cluster.
        for (i, (label, rows, inner, cols, a_nnz, b_nnz)) in [
            ("hypersparse", 12, 24, 32, 2, 3),
            ("moderate", 10, 24, 64, 3, 10),
            ("dense-rows", 8, 24, 128, 4, 20),
        ]
        .into_iter()
        .enumerate()
        {
            let a = b.gen(|v| v.fixed_row_nnz(s + 20 + 2 * i as u64, rows, inner, a_nnz));
            let rhs = b.gen(|v| v.fixed_row_nnz(s + 21 + 2 * i as u64, inner, cols, b_nnz));
            let p = product(b, a, rhs);
            b.push(case::spgemm(&format!("r{rep} spgemm {label}"), Issr, &p.a, &p.b, &p.c));
            if label == "moderate" {
                b.push(case::cluster_spgemm(
                    &format!("r{rep} cluster_spgemm {label}"),
                    Issr,
                    &p.a,
                    &p.b,
                    &p.c,
                ));
            }
        }

        // Tiny cluster and 2-cluster system runs.
        for variant in [Base, Issr] {
            b.push(case::cluster_csrmv(
                &format!("r{rep} cluster 16x64 {}", variant.name()),
                variant,
                &o.m,
                &o.x,
                &o.y,
            ));
        }
        let m = b.gen(|v| v.uniform(s + 30, 64, 128, 600));
        let mid = b.csrmv_operands(m);
        for variant in [Base, Issr] {
            b.push(case::cluster_csrmv(
                &format!("r{rep} cluster 64x128 {}", variant.name()),
                variant,
                &mid.m,
                &mid.x,
                &mid.y,
            ));
        }
        for (tag, o) in [("16x64", &o), ("64x128", &mid)] {
            for n in [1, 2] {
                b.push(case::system_csrmv(
                    &format!("r{rep} system {tag} x{n}"),
                    Issr,
                    &o.m,
                    &o.x,
                    n,
                    &o.y,
                ));
            }
        }
        if rep == 0 {
            b.stage(Layer::Cluster, &mid);
            b.stage(Layer::System(2), &mid);
        }
    }

    |l| {
        let mut d = Derived::default();
        let v = &mut d.violations;
        let issr = l.get("spvv r0 nnz256 issr16", v);
        d.speedup_vs_base = speedup(l.get("spvv r0 nnz256 base", v).roi_cycles, issr.roi_cycles);
        d.fpu_util = issr.util;
        d
    }
}
