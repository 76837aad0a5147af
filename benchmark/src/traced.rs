//! The traced pass: the probe every case runs under, the staged copies
//! of three `run_*` functions, and the recorder-overhead probes.
//!
//! Pinned-API tier 2. Everything the benchmark knows about how a
//! `run_*` function is put together — `Plan::new`, `build_*`,
//! `Cluster::new`, `marshal`, `run`, `read_y` — and the only calls to
//! `issr_trace::host::{install, uninstall}` are in this file, so a later
//! issue that removes one of those APIs drops a probe here without
//! changing how any end-to-end number is produced. Each staged copy is
//! compared with its `run_*` twin on every traced run, cycle for cycle
//! and bit for bit, so it cannot drift unnoticed.

use crate::case::Output;
use crate::counts::Layer;
use crate::spans::Spans;
use issr_cluster::cluster::{Cluster, ClusterParams};
use issr_kernels::cluster_csrmv::{build_cluster_csrmv, run_cluster_csrmv, ClusterCsrmvPlan};
use issr_kernels::csrmv::{build_csrmv, run_csrmv, CsrmvAddrs};
use issr_kernels::layout::{alloc_result, csr_addrs, store_csr, Arena};
use issr_kernels::system_csrmv::{
    build_system_csrmv, run_system_csrmv, run_system_csrmv_traced, run_system_csrmv_with,
};
use issr_kernels::variant::Variant;
use issr_model::power::PowerModel;
use issr_snitch::cc::{SingleCcSim, SINGLE_CC_ARENA};
use issr_sparse::csr::CsrMatrix;
use issr_system::system::{System, SystemParams};
use issr_trace::{host, HostProfiler, Json, StatMerge};
use std::rc::Rc;
use std::time::Instant;

/// What a case execution reports to: nothing (untraced passes), or the
/// span recorder plus the accumulated host profile (the traced pass).
pub struct Probe<'a> {
    spans: Option<&'a mut Spans>,
    profile: Option<&'a mut HostProfiler>,
}

impl<'a> Probe<'a> {
    /// The untraced probe: [`Probe::run`] only reads the clock twice.
    #[must_use]
    pub fn off() -> Probe<'static> {
        Probe { spans: None, profile: None }
    }

    /// The traced probe: stages become spans, and the ambient host
    /// profiler is installed around every `run` stage and merged into
    /// `profile` afterwards.
    #[must_use]
    pub fn traced(spans: &'a mut Spans, profile: &'a mut HostProfiler) -> Self {
        Probe { spans: Some(spans), profile: Some(profile) }
    }

    /// The span recorder, when tracing.
    pub fn spans(&mut self) -> Option<&mut Spans> {
        self.spans.as_deref_mut()
    }

    /// Runs `f` as the stage `name`.
    pub fn stage<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        if let Some(s) = self.spans.as_deref_mut() {
            s.open(name, false);
        }
        let r = f();
        if let Some(s) = self.spans.as_deref_mut() {
            s.close();
        }
        r
    }

    /// Runs `f` — one `run_*` call, or the `run` stage of a staged copy —
    /// and returns the host nanoseconds it took.
    pub fn run<R>(&mut self, f: impl FnOnce() -> R) -> (R, u64) {
        if self.profile.is_some() {
            host::install();
        }
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        if let (Some(total), Some(p)) = (self.profile.as_deref_mut(), host::uninstall()) {
            total.merge_from(&p);
        }
        if let Some(s) = self.spans.as_deref_mut() {
            s.record("run", start, end);
        }
        (r, end.duration_since(start).as_nanos() as u64)
    }
}

/// Drops a profiler a panicking case left installed.
pub fn discard_ambient_profiler() {
    let _ = host::uninstall();
}

/// Host wall time and idle census of one profiler class, from the
/// profiler's public `to_json` view.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassProfile {
    pub wall_ns: f64,
    pub unit_ticks: f64,
    pub idle_unit_ticks: f64,
}

/// One class (`workers`, `dmcc`, `dma`, `mem`, `pool_*`) of `profile`.
#[must_use]
pub fn class_profile(profile: &Json, class: &str) -> ClassProfile {
    let field = |c: &Json, key: &str| c.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    profile.get("classes").and_then(|c| c.get(class)).map_or_else(ClassProfile::default, |c| {
        ClassProfile {
            wall_ns: field(c, "wall_ms") * 1e6,
            unit_ticks: field(c, "unit_ticks"),
            idle_unit_ticks: field(c, "idle_unit_ticks"),
        }
    })
}

/// Host wall time of all classes together.
#[must_use]
pub fn attributed_ns(profile: &Json) -> f64 {
    match profile.get("classes") {
        Some(Json::Obj(classes)) => classes
            .iter()
            .map(|(_, c)| c.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0) * 1e6)
            .sum(),
        _ => 0.0,
    }
}

/// A CsrMV case the traced pass also runs stage by stage.
#[derive(Clone)]
pub struct Staged {
    /// Which harness the copy drives.
    pub layer: Layer,
    /// The matrix.
    pub m: Rc<CsrMatrix<u16>>,
    /// The dense operand.
    pub x: Rc<Vec<f64>>,
}

/// Cycles and output of a staged copy or of its twin.
#[derive(Clone, Debug, PartialEq)]
pub struct StagedOutcome {
    pub cycles: u64,
    pub out_hash: u64,
}

impl Staged {
    /// Span name of the staged case.
    #[must_use]
    pub fn name(&self) -> String {
        match self.layer {
            Layer::SingleCc => "staged single_cc csrmv".to_owned(),
            Layer::Cluster => "staged cluster csrmv".to_owned(),
            Layer::System(n) => format!("staged system csrmv x{n}"),
        }
    }

    /// Runs the ISSR kernel stage by stage, each stage a span.
    ///
    /// # Errors
    /// Returns the simulator's timeout message.
    pub fn run(&self, p: &mut Probe<'_>) -> Result<StagedOutcome, String> {
        let (m, x) = (&*self.m, &*self.x);
        let timeout = |e: issr_snitch::cc::SimTimeout| format!("staged copy: {e}");
        let (cycles, y) = match self.layer {
            // Mirrors `run_csrmv`: an empty harness owns the memory while
            // the operands are placed, then is rebuilt around the program.
            Layer::SingleCc => {
                let sim =
                    p.stage("construct", || SingleCcSim::new(issr_isa::asm::Program::default()));
                let (a, x_addr, y_addr) = p.stage("plan", || {
                    let mut arena = Arena::new(SINGLE_CC_ARENA, SingleCcSim::DEFAULT_MEM_BYTES / 2);
                    let a = csr_addrs::<u16>(&mut arena, m.nrows() as u32, m.nnz() as u32);
                    let x_addr = arena.alloc((x.len() as u32).max(1) * 8, 8);
                    let y_addr = alloc_result(&mut arena, a.nrows.max(1));
                    (a, x_addr, y_addr)
                });
                let mut sim = sim;
                p.stage("marshal", || {
                    store_csr(sim.mem.array_mut(), a, m);
                    sim.mem.array_mut().store_f64_slice(x_addr, x);
                });
                let program = p.stage("build", || {
                    build_csrmv::<u16>(Variant::Issr, CsrmvAddrs { a, x: x_addr, y: y_addr })
                });
                let mut sim = p.stage("construct", || {
                    let mut fresh = SingleCcSim::new(program);
                    fresh.mem = sim.mem;
                    fresh
                });
                let budget = 200_000 + 64 * u64::from(a.nnz) + 64 * u64::from(a.nrows);
                let (summary, _) = p.run(|| sim.run(budget));
                let summary = summary.map_err(timeout)?.expect_clean();
                let y = p.stage("readback", || sim.mem.array().load_f64_slice(y_addr, m.nrows()));
                (summary.cycles, y)
            }
            // Mirrors `run_cluster_csrmv_with`.
            Layer::Cluster => {
                let params = ClusterParams::default();
                let plan = p.stage("plan", || ClusterCsrmvPlan::new(m, params.n_workers as u32));
                let program = p.stage("build", || build_cluster_csrmv::<u16>(Variant::Issr, &plan));
                let mut cluster = p.stage("construct", || Cluster::new(program, params));
                p.stage("marshal", || plan.marshal(&mut cluster, m, x));
                let budget = 1_000_000 + 32 * m.nnz() as u64 + 512 * m.nrows() as u64;
                let (summary, _) = p.run(|| cluster.run(budget));
                let summary = summary.map_err(timeout)?;
                let y = p.stage("readback", || plan.read_y(&cluster));
                p.stage("model", || PowerModel::default().evaluate(&summary));
                (summary.cycles, y)
            }
            // Mirrors `run_system_csrmv_with`.
            Layer::System(n_clusters) => {
                let params = SystemParams { n_clusters, ..SystemParams::default() };
                let plan =
                    p.stage("plan", || ClusterCsrmvPlan::new(m, params.cluster.n_workers as u32));
                let program = p.stage("build", || build_system_csrmv::<u16>(Variant::Issr, &plan));
                let mut system = p.stage("construct", || System::new(program, params));
                p.stage("marshal", || {
                    plan.marshal_into(system.main.array_mut(), m, x);
                    system.set_work_queue(plan.queue_addr());
                });
                let budget = 1_000_000 + 64 * m.nnz() as u64 + 1024 * m.nrows() as u64;
                let (summary, _) = p.run(|| system.run(budget));
                let summary = summary.map_err(timeout)?;
                let y = p.stage("readback", || plan.read_y_from(system.main.array()));
                (summary.cycles, y)
            }
        };
        Ok(StagedOutcome { cycles, out_hash: Output::Vector(y).hash() })
    }

    /// The `run_*` call the staged copy must equal.
    ///
    /// # Errors
    /// Returns the simulator's timeout message.
    pub fn twin(&self) -> Result<StagedOutcome, String> {
        let (m, x) = (&*self.m, &*self.x);
        let timeout = |e: issr_snitch::cc::SimTimeout| format!("twin: {e}");
        let (cycles, y) = match self.layer {
            Layer::SingleCc => {
                let r = run_csrmv(Variant::Issr, m, x).map_err(timeout)?;
                (r.summary.cycles, r.y)
            }
            Layer::Cluster => {
                let r = run_cluster_csrmv(Variant::Issr, m, x).map_err(timeout)?;
                (r.summary.cycles, r.y)
            }
            Layer::System(n) => {
                let r = run_system_csrmv(Variant::Issr, m, x, n).map_err(timeout)?;
                (r.summary.cycles, r.y)
            }
        };
        Ok(StagedOutcome { cycles, out_hash: Output::Vector(y).hash() })
    }

    /// For a system copy: the single-cluster kernel's output, which every
    /// cluster count must reproduce bit for bit.
    ///
    /// # Errors
    /// Returns the simulator's timeout message.
    pub fn single_cluster_hash(&self) -> Result<u64, String> {
        let r = run_cluster_csrmv(Variant::Issr, &self.m, &self.x)
            .map_err(|e| format!("single-cluster twin: {e}"))?;
        Ok(Output::Vector(r.y).hash())
    }
}

/// How many times an overhead probe alternates its two sides.
const OVERHEAD_ROUNDS: usize = 3;

fn median_ratio_minus_one(mut with: impl FnMut() -> u64, mut without: impl FnMut() -> u64) -> f64 {
    let ratios: Vec<f64> = (0..OVERHEAD_ROUNDS)
        .map(|_| {
            let (a, b) = (with(), without());
            issr_trace::ratio(a as f64, b as f64) - 1.0
        })
        .collect();
    crate::stats::median(&ratios)
}

/// `cluster.blackbox_overhead`: `Cluster::run` (which arms the flight
/// recorder) over a bare `while !quiescent() { tick() }` loop, minus 1.
#[must_use]
pub fn blackbox_overhead(staged: &Staged) -> f64 {
    let (m, x) = (&*staged.m, &*staged.x);
    let params = ClusterParams::default();
    let fresh = || {
        let plan = ClusterCsrmvPlan::new(m, params.n_workers as u32);
        let mut cluster = Cluster::new(build_cluster_csrmv::<u16>(Variant::Issr, &plan), params);
        plan.marshal(&mut cluster, m, x);
        cluster
    };
    let budget = 1_000_000 + 32 * m.nnz() as u64 + 512 * m.nrows() as u64;
    let armed = || {
        let mut cluster = fresh();
        let t = Instant::now();
        let _ = std::hint::black_box(cluster.run(budget));
        t.elapsed().as_nanos() as u64
    };
    let bare = || {
        let mut cluster = fresh();
        let t = Instant::now();
        let mut cycles = 0;
        while !cluster.quiescent() && cycles < budget {
            cluster.tick();
            cycles += 1;
        }
        std::hint::black_box(&cluster);
        t.elapsed().as_nanos() as u64
    };
    median_ratio_minus_one(armed, bare)
}

/// `trace.recorder_overhead`: `run_system_csrmv_traced` over
/// `run_system_csrmv_with`, minus 1.
#[must_use]
pub fn recorder_overhead(staged: &Staged, n_clusters: usize) -> f64 {
    let (m, x) = (&*staged.m, &*staged.x);
    let params = SystemParams { n_clusters, ..SystemParams::default() };
    let traced = || {
        let t = Instant::now();
        let _ = std::hint::black_box(run_system_csrmv_traced(Variant::Issr, m, x, params, 65_536));
        t.elapsed().as_nanos() as u64
    };
    let plain = || {
        let t = Instant::now();
        let _ = std::hint::black_box(run_system_csrmv_with(Variant::Issr, m, x, params));
        t.elapsed().as_nanos() as u64
    };
    median_ratio_minus_one(traced, plain)
}
