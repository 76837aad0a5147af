//! The measurement method, the same for every workload: set up (operands,
//! host oracles, lint gate, one untimed warm-up pass), then timed passes
//! over the fixed case list — closed loop, one case at a time, single
//! process — and, under `--trace`, one more pass with the span recorder
//! and the host profiler on.
//!
//! A case that panics, traps unexpectedly, times out, mismatches its
//! oracle or twin, or is not deterministic is caught and counted.

use crate::case::{Case, Observed, Raw};
use crate::counts::{Counts, Layer};
use crate::fixtures;
use crate::spans::Spans;
use crate::traced::{self, Probe, Staged};
use crate::workloads::{self, Derived, Lookup, Workload};
use issr_kernels::catalog;
use issr_kernels::variant::Variant;
use issr_lint::{lint_program, LintTarget};
use issr_trace::{HostProfiler, Json};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Timed passes a run never goes below.
pub const MIN_PASSES: usize = 5;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// How many failure messages a report keeps.
const KEPT_FAILURES: usize = 8;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed of every operand value.
    pub seed: u64,
    /// How long the timed passes measure.
    pub seconds: f64,
    /// Add the traced pass, the staged cases and the fixtures.
    pub trace: bool,
    /// One set-up, one pass, scaled-down shapes.
    pub quick: bool,
    /// Corrupt the first case's oracle (the harness self-test).
    pub corrupt_oracle: bool,
    /// When the process started: the first set-up is timed from here.
    pub started: Instant,
}

/// Host-time accounting groups: single-CC cases by variant, cluster
/// cases, system cases by cluster count.
pub const GROUPS: usize = 7;

/// Index into a pass's group table.
#[must_use]
pub fn group_of(layer: Layer, variant: Variant) -> Option<usize> {
    match (layer, variant) {
        (Layer::SingleCc, Variant::Base) => Some(0),
        (Layer::SingleCc, Variant::Ssr) => Some(1),
        (Layer::SingleCc, Variant::Issr) => Some(2),
        (Layer::Cluster, _) => Some(3),
        (Layer::System(1), _) => Some(4),
        (Layer::System(2), _) => Some(5),
        (Layer::System(4), _) => Some(6),
        (Layer::System(_), _) => None,
    }
}

/// Cycles and host time of one pass.
#[derive(Clone, Debug, Default)]
pub struct PassStats {
    /// Simulated cycles of the cases that completed.
    pub cycles: u64,
    /// Host nanoseconds inside their `run_*` calls.
    pub run_ns: u64,
    /// Host nanoseconds inside `PowerModel::evaluate`.
    pub model_ns: u64,
    /// `(cycles, run_ns)` per accounting group.
    pub groups: [(u64, u64); GROUPS],
    /// Host nanoseconds of each case's `run_*` call (0: the case failed).
    pub case_ns: Vec<u64>,
}

impl PassStats {
    /// Simulated cycles per host second of this pass.
    #[must_use]
    pub fn sim_cycles_per_s(&self) -> f64 {
        issr_trace::ratio(self.cycles as f64, self.run_ns as f64 / 1e9)
    }
}

/// The set-up's own clocks (of the last set-up of the run).
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupCost {
    pub gen_s: f64,
    pub reference_s: f64,
    pub lint_s: f64,
    pub assemble_ns_per_instr: f64,
    pub program_instrs: u64,
    pub lint_diagnostics: u64,
}

/// What the traced part of a run measured.
pub struct Traced {
    /// All spans: `workload > pass > case > stage`.
    pub spans: Spans,
    /// The host profiler's classes, merged over the traced pass.
    pub profile: Json,
    /// The traced pass.
    pub pass: PassStats,
    /// `cluster.blackbox_overhead` (0 without a staged cluster case).
    pub blackbox_overhead: f64,
    /// `trace.recorder_overhead` (0 without a staged system case).
    pub recorder_overhead: f64,
    /// The pool-probe case through `TickPool` and through the serial
    /// loop (`None`: the workload has no such case).
    pub pool: Option<PoolPrice>,
    /// Fixture metrics, by name.
    pub fixtures: Vec<(&'static str, f64)>,
}

/// What `TickPool` costs on one case: median host nanoseconds of the
/// `run_*` call at `ISSR_THREADS=2` and at `ISSR_THREADS=1`.
#[derive(Clone, Copy, Debug)]
pub struct PoolPrice {
    pub pooled_ns: f64,
    pub serial_ns: f64,
    /// Simulated cycles of the case (the same on both paths, or the
    /// pooled execution counted as failed).
    pub cycles: u64,
}

/// Everything one run measured.
pub struct Measured {
    pub workload: &'static str,
    pub options: Options,
    /// Duration of each set-up.
    pub setups_s: Vec<f64>,
    pub setup_cost: SetupCost,
    /// The timed, untraced passes.
    pub passes: Vec<PassStats>,
    /// Case names, layers and variants, in list order.
    pub cases: Vec<(String, Layer, Variant)>,
    /// First observation of each case (`None`: it never completed).
    pub first: Vec<Option<Observed>>,
    pub derived: Derived,
    /// Case executions plus cross-case checks attempted, and failed.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    pub traced: Option<Traced>,
    /// Wall time of the whole run.
    pub wall_s: f64,
}

impl Measured {
    /// Counters summed over the first observation of every case.
    #[must_use]
    pub fn counts(&self) -> Counts {
        let mut total = Counts::default();
        for o in self.first.iter().flatten() {
            total.merge(&o.counts);
        }
        total
    }

    /// Σ cycles to completion of the cases of `variant`.
    #[must_use]
    pub fn cycles_of(&self, variant: Variant) -> u64 {
        self.cases
            .iter()
            .zip(&self.first)
            .filter(|((_, _, v), _)| *v == variant)
            .filter_map(|(_, o)| o.map(|o| o.cycles))
            .sum()
    }
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(what);
        }
    }
}

/// Sets the host thread count of every `System` built from now on.
///
/// Only through the environment, never through `SystemParams::threads`,
/// so deleting the pool cannot break this build. No other thread runs
/// when this is called: a `System` joins its pool when it is dropped.
fn set_threads(threads: usize) {
    std::env::set_var("ISSR_THREADS", threads.to_string());
}

/// Runs `f`, turning a panic inside it into an `Err` with the first
/// line of the panic message.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        traced::discard_ambient_profiler();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .and_then(|m| m.lines().next())
            .unwrap_or("no message");
        Err(format!("panicked: {message}"))
    })
}

/// Checks one completed execution against its oracle, its twin and its
/// first observation. Returns the observation, or what was wrong.
fn check(
    case: &Case,
    raw: Raw,
    first: &mut Option<Observed>,
) -> Result<(Observed, u64, u64), String> {
    let mut obs = raw.obs;
    obs.out_hash = raw.output.hash();
    if !raw.output.matches(&case.expect) {
        return Err("output does not match the host oracle".to_owned());
    }
    if case.twin.is_some_and(|twin| twin != obs.out_hash) {
        return Err("output bits differ from the single-cluster kernel's".to_owned());
    }
    match first {
        Some(seen) if *seen != obs => {
            return Err("cycles, counters or output bits changed between passes".to_owned());
        }
        Some(_) => {}
        None => *first = Some(obs),
    }
    Ok((obs, raw.run_ns, raw.model_ns))
}

/// Walks the case list once.
fn run_pass(
    cases: &[Case],
    first: &mut [Option<Observed>],
    probe: &mut Probe<'_>,
    tally: &mut Tally,
) -> PassStats {
    let mut pass = PassStats { case_ns: Vec::with_capacity(cases.len()), ..PassStats::default() };
    for (case, first) in cases.iter().zip(first.iter_mut()) {
        let depth = probe.spans().map(|s| {
            s.open(&case.name, true);
            s.depth()
        });
        tally.attempted += 1;
        let outcome = guarded(|| case.exec(probe))
            .and_then(|raw| probe.stage("verify", || check(case, raw, first)));
        if let (Some(s), Some(depth)) = (probe.spans(), depth) {
            s.close_to(depth - 1);
        }
        match outcome {
            Ok((obs, run_ns, model_ns)) => {
                pass.cycles += obs.cycles;
                pass.run_ns += run_ns;
                pass.model_ns += model_ns;
                if let Some(g) = group_of(case.layer, case.variant) {
                    pass.groups[g].0 += obs.cycles;
                    pass.groups[g].1 += run_ns;
                }
                pass.case_ns.push(run_ns);
            }
            Err(what) => {
                tally.fail(format!("{}: {what}", case.name));
                pass.case_ns.push(0);
            }
        }
    }
    pass
}

/// The lint gate and the assembler clock: what `assert_shipped_clean`
/// does, counting diagnostics instead of panicking on the first.
fn lint_catalog(cost: &mut SetupCost) {
    let t = Instant::now();
    let entries = catalog();
    let assemble_ns = t.elapsed().as_nanos() as f64;
    cost.program_instrs = entries.iter().map(|e| e.program.len() as u64).sum();
    cost.assemble_ns_per_instr = issr_trace::ratio(assemble_ns, cost.program_instrs as f64);
    let (paper, sssr) = (LintTarget::paper(), LintTarget::sssr());
    let t = Instant::now();
    cost.lint_diagnostics = entries
        .iter()
        .map(|e| {
            let target = if e.needs_sparse_units { &sssr } else { &paper };
            lint_program(&e.program, target).len() as u64
        })
        .sum();
    cost.lint_s = t.elapsed().as_secs_f64();
}

struct Ready {
    workload: Workload,
    first: Vec<Option<Observed>>,
    cost: SetupCost,
}

/// One set-up: lint gate, operands and oracles, one warm-up pass.
fn set_up(o: &Options, tally: &mut Tally) -> Option<Ready> {
    let mut cost = SetupCost::default();
    lint_catalog(&mut cost);
    if cost.lint_diagnostics > 0 {
        tally.fail(format!("{} lint diagnostics on the shipped kernels", cost.lint_diagnostics));
    }
    let mut workload = workloads::build(&o.workload, o.seed, o.quick)?;
    cost.gen_s = workload.gen_ns as f64 / 1e9;
    cost.reference_s = workload.reference_ns as f64 / 1e9;
    if o.corrupt_oracle {
        if let Some(case) = workload.cases.first_mut() {
            case.expect.corrupt();
        }
    }
    let mut first = vec![None; workload.cases.len()];
    run_pass(&workload.cases, &mut first, &mut Probe::off(), tally);
    Some(Ready { workload, first, cost })
}

/// Runs the staged copies, each against its `run_*` twin.
fn run_staged(staged: &[Staged], probe: &mut Probe<'_>, tally: &mut Tally) {
    for s in staged {
        let depth = probe.spans().map(|sp| {
            sp.open(&s.name(), true);
            sp.depth()
        });
        tally.attempted += 1;
        let outcome = guarded(|| {
            let copy = s.run(probe)?;
            let twin = probe.stage("twin", || s.twin())?;
            if copy != twin {
                return Err(format!("staged {copy:?} differs from its run_* twin {twin:?}"));
            }
            // A system copy must also equal the single-cluster kernel.
            if matches!(s.layer, Layer::System(_)) && s.single_cluster_hash()? != copy.out_hash {
                return Err("system output differs from run_cluster_csrmv".to_owned());
            }
            Ok(())
        });
        if let (Some(sp), Some(depth)) = (probe.spans(), depth) {
            sp.close_to(depth - 1);
        }
        if let Err(what) = outcome {
            tally.fail(format!("{}: {what}", s.name()));
        }
    }
}

/// Runs the pool-probe case three times pooled and three times serial,
/// alternating. The pooled executions are checked like any other: same
/// oracle, same bits as the single-cluster kernel, same cycles and
/// counters as the serial first observation.
fn price_pool(
    cases: &[Case],
    first: &mut [Option<Observed>],
    tally: &mut Tally,
) -> Option<PoolPrice> {
    let (case, first) = cases.iter().zip(first.iter_mut()).find(|(c, _)| c.pool_probe)?;
    let (mut pooled, mut serial) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (threads, samples) in [(2, &mut pooled), (1, &mut serial)] {
            set_threads(threads);
            tally.attempted += 1;
            let outcome =
                guarded(|| case.exec(&mut Probe::off())).and_then(|raw| check(case, raw, first));
            match outcome {
                Ok((_, run_ns, _)) => samples.push(run_ns as f64),
                Err(what) => tally.fail(format!("{} at {threads} threads: {what}", case.name)),
            }
        }
    }
    Some(PoolPrice {
        pooled_ns: crate::stats::median(&pooled),
        serial_ns: crate::stats::median(&serial),
        cycles: first.map_or(0, |o| o.cycles),
    })
}

/// The traced part: one pass under the span recorder and the host
/// profiler, the staged copies, the overhead probes, the fixtures last.
fn run_traced(ready: &mut Ready, quick: bool, tally: &mut Tally) -> Traced {
    let mut spans = Spans::new();
    let mut profile = HostProfiler::new();
    spans.open(ready.workload.name, false);
    spans.open("pass traced", false);
    let pass = {
        let mut probe = Probe::traced(&mut spans, &mut profile);
        run_pass(&ready.workload.cases, &mut ready.first, &mut probe, tally)
    };
    spans.close();
    // The staged copies profile into a recorder of their own: the class
    // shares describe the pass, not the pass plus three more cases.
    spans.open("pass staged", false);
    run_staged(
        &ready.workload.staged,
        &mut Probe::traced(&mut spans, &mut HostProfiler::new()),
        tally,
    );
    spans.close();
    spans.close();

    let staged = &ready.workload.staged;
    let find = |want: fn(Layer) -> bool| staged.iter().find(|s| want(s.layer));
    let blackbox_overhead = find(|l| l == Layer::Cluster).map_or(0.0, traced::blackbox_overhead);
    let recorder_overhead = find(|l| matches!(l, Layer::System(_))).map_or(0.0, |s| {
        let Layer::System(n) = s.layer else { unreachable!("matched above") };
        traced::recorder_overhead(s, n)
    });
    let pool = price_pool(&ready.workload.cases, &mut ready.first, tally);
    Traced {
        spans,
        profile: profile.to_json(),
        pass,
        blackbox_overhead,
        recorder_overhead,
        pool,
        fixtures: fixtures::run_all(if quick {
            fixtures::QUICK_TICKS
        } else {
            fixtures::MIN_TICKS
        }),
    }
}

/// Runs one workload as `o` says. `None`: no such workload.
#[must_use]
pub fn run(o: &Options) -> Option<Measured> {
    let mut tally = Tally::default();
    set_threads(1);
    let mut setups_s = Vec::new();
    let mut ready = None;
    let mut began = o.started;
    for _ in 0..if o.quick { 1 } else { SETUPS } {
        // Free the previous set-up first: two resident copies of the
        // operands would double `peak_rss_mib`.
        drop(ready.take());
        ready = Some(set_up(o, &mut tally)?);
        setups_s.push(began.elapsed().as_secs_f64());
        began = Instant::now();
    }
    let mut ready = ready?;

    // A traced run spends half its time on the untraced passes that the
    // traced one is compared with.
    let (budget_s, min_passes) = match (o.quick, o.trace) {
        (true, _) => (0.0, 1),
        (false, true) => (o.seconds / 2.0, 3),
        (false, false) => (o.seconds, MIN_PASSES),
    };
    let timing = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min_passes || timing.elapsed().as_secs_f64() < budget_s {
        let cases = &ready.workload.cases;
        passes.push(run_pass(cases, &mut ready.first, &mut Probe::off(), &mut tally));
    }

    let traced = o.trace.then(|| run_traced(&mut ready, o.quick, &mut tally));

    let index: HashMap<String, usize> =
        ready.workload.cases.iter().enumerate().map(|(i, c)| (c.name.clone(), i)).collect();
    let derived = (ready.workload.derive)(&Lookup::new(&index, &ready.first));
    for violation in &derived.violations {
        tally.attempted += 1;
        tally.fail(violation.clone());
    }
    Some(Measured {
        workload: ready.workload.name,
        options: o.clone(),
        setups_s,
        setup_cost: ready.cost,
        passes,
        cases: ready.workload.cases.iter().map(|c| (c.name.clone(), c.layer, c.variant)).collect(),
        first: ready.first,
        derived,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        traced,
        wall_s: o.started.elapsed().as_secs_f64(),
    })
}
