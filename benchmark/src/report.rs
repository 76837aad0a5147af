//! From a [`Measured`] run to named metrics, and from those to the text
//! report, the result line the driver reads, and the result file
//! `--compare` reads.
//!
//! Every number is either **host time** (what the simulator costs; a
//! `host` or `fixture` metric, noisy) or **simulated time** (what the
//! modelled hardware would take; a `count` metric, exact).

use crate::counts::Layer;
use crate::host::{peak_rss_mib, Fingerprint};
use crate::runner::{Measured, Traced};
use crate::schema::{MetricSpec, Schema};
use crate::stats::{median, quantile, Summary};
use crate::traced::{attributed_ns, class_profile};
use issr_kernels::variant::Variant;
use issr_trace::json::obj;
use issr_trace::{ratio, Json};

/// Where a number comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A deterministic counter of the modelled machine.
    Count,
    /// Host time of the simulator, from passes or from the traced pass.
    Host,
    /// Host time of one layer ticked alone.
    Fixture,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Count => "count",
            Kind::Host => "host",
            Kind::Fixture => "fixture",
        }
    }
}

/// One computed metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub kind: Kind,
    /// The reported value.
    pub value: f64,
    /// The samples it was taken from (one, for a count).
    pub samples: Summary,
}

fn single(name: &'static str, kind: Kind, v: f64) -> Metric {
    Metric { name, kind, value: v, samples: Summary::single(v) }
}

fn count(name: &'static str, v: f64) -> Metric {
    single(name, Kind::Count, v)
}

fn host(name: &'static str, v: f64) -> Metric {
    single(name, Kind::Host, v)
}

/// The end-to-end metrics, always from the untraced passes.
#[must_use]
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let setups = Summary::of(&m.setups_s);
    let speeds: Vec<f64> = m.passes.iter().map(|p| p.sim_cycles_per_s()).collect();
    let speeds = Summary::of(&speeds);
    vec![
        Metric { name: "setup_s", kind: Kind::Host, value: setups.median, samples: setups },
        // The fastest pass, not the median one: every pass does the same
        // deterministic work, and what other tenants of the host take
        // away only ever slows a pass down. Over ten runs the median
        // pass scattered by 2.6–10.4 % (quartile spread), the fastest by
        // 1.6–3.4 %; the metric line still shows median, min and n.
        Metric { name: "sim_cycles_per_s", kind: Kind::Host, value: speeds.max, samples: speeds },
        host("peak_rss_mib", peak_rss_mib()),
        count("issr_cycles", m.cycles_of(Variant::Issr) as f64),
        count("speedup_vs_base", m.derived.speedup_vs_base),
        count("fpu_util", m.derived.fpu_util),
    ]
}

/// The per-layer metrics of a traced run. Layers a workload does not
/// exercise, and probes its traced run does not take, report 0.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn per_layer(m: &Measured, t: &Traced) -> Vec<Metric> {
    let c = m.counts();
    let d = &m.derived;
    let cost = &m.setup_cost;
    let share = |num: u64, den: u64| ratio(num as f64, den as f64);
    // Host nanoseconds per simulated cycle of an accounting group,
    // median over the untraced passes.
    let ns_per_cycle = |g: usize| {
        let per_pass: Vec<f64> = m
            .passes
            .iter()
            .filter(|p| p.groups[g].0 > 0)
            .map(|p| ratio(p.groups[g].1 as f64, p.groups[g].0 as f64))
            .collect();
        median(&per_pass)
    };
    let pass_run_ns = median(&m.passes.iter().map(|p| p.run_ns as f64).collect::<Vec<_>>());
    let model_s = median(&m.passes.iter().map(|p| p.model_ns as f64 / 1e9).collect::<Vec<_>>());
    // Per-call latency: only where the calls are alike enough to rank.
    let calls_us: Vec<f64> = if m.workload == "tiny_runs" {
        m.passes
            .iter()
            .flat_map(|p| p.case_ns.iter())
            .filter(|&&ns| ns > 0)
            .map(|&ns| ns as f64 / 1e3)
            .collect()
    } else {
        Vec::new()
    };

    let stage_s =
        |stage: &str, case_prefix: &str| t.spans.total_ns_under(stage, case_prefix) as f64 / 1e9;
    let class = |name: &str| class_profile(&t.profile, name);
    let (workers, dmcc, dma, mem) = (class("workers"), class("dmcc"), class("dma"), class("mem"));
    let traced_run_ns = t.pass.run_ns as f64;
    // `TickPool` against the serial loop on the pool-probe case.
    let (pool_ratio, barrier_us) = t.pool.map_or((0.0, 0.0), |p| {
        (
            ratio(p.pooled_ns, p.serial_ns),
            // Two pool barriers per simulated cycle.
            ratio(p.pooled_ns - p.serial_ns, 2.0 * p.cycles as f64) / 1e3,
        )
    });

    let mut out = vec![
        // isa
        count("isa.program_instrs", cost.program_instrs as f64),
        host("isa.assemble_ns_per_instr", cost.assemble_ns_per_instr),
        // kernels
        host("kernels.plan_s", stage_s("plan", "staged")),
        host("kernels.build_s", stage_s("build", "staged")),
        host("kernels.marshal_s", stage_s("marshal", "staged")),
        host("kernels.readback_s", stage_s("readback", "staged")),
        Metric {
            name: "kernels.run_us_p50",
            kind: Kind::Host,
            value: median(&calls_us),
            samples: Summary::of(&calls_us),
        },
        Metric {
            name: "kernels.run_us_p99",
            kind: Kind::Host,
            value: quantile(&calls_us, 0.99),
            samples: Summary::of(&calls_us),
        },
        count("kernels.base_cycles", m.cycles_of(Variant::Base) as f64),
        count("kernels.ssr_cycles", m.cycles_of(Variant::Ssr) as f64),
        // lint, sparse, model
        host("lint.catalog_s", cost.lint_s),
        count("lint.diagnostics", cost.lint_diagnostics as f64),
        host("sparse.gen_s", cost.gen_s),
        host("sparse.reference_s", cost.reference_s),
        count("model.base_mw", d.base_mw),
        count("model.issr_mw", d.issr_mw),
        count("model.base_pj_per_fmadd", d.base_pj_per_fmadd),
        count("model.issr_pj_per_fmadd", d.issr_pj_per_fmadd),
        count("model.energy_gain", d.energy_gain),
        count("model.paper_anchors", d.anchors.len() as f64),
        count("model.paper_rel_err", d.paper_rel_err()),
        host("model.evaluate_s", model_s),
        // snitch
        count("snitch.instret", c.instret as f64),
        count("snitch.fpu_ops", c.fpu_ops as f64),
        count("snitch.fmadds", c.fmadds as f64),
        count("snitch.stall_raw_cycles", c.stall_raw as f64),
        count("snitch.stall_structural_cycles", c.stall_structural as f64),
        count("snitch.fpu_stall_cycles", c.fpu_stall as f64),
        count("snitch.hart_active_share", share(c.hart_active, c.hart_cycles)),
        count("snitch.hart_fifo_empty_share", share(c.hart_fifo_empty, c.hart_cycles)),
        count("snitch.hart_port_conflict_share", share(c.hart_port_conflict, c.hart_cycles)),
        count("snitch.hart_barrier_wait_share", share(c.hart_barrier_wait, c.hart_cycles)),
        host("snitch.base_ns_per_cycle", ns_per_cycle(0)),
        host("snitch.ssr_ns_per_cycle", ns_per_cycle(1)),
        host("snitch.issr_ns_per_cycle", ns_per_cycle(2)),
        host("snitch.workers_ns_per_unit_tick", ratio(workers.wall_ns, workers.unit_ticks)),
        host("snitch.dmcc_ns_per_unit_tick", ratio(dmcc.wall_ns, dmcc.unit_ticks)),
        host("snitch.workers_idle_share", ratio(workers.idle_unit_ticks, workers.unit_ticks)),
        host("snitch.construct_s", stage_s("construct", "staged single_cc")),
        // core
        count("core.lane_data_words", c.lane_data_words as f64),
        count("core.lane_idx_words", c.lane_idx_words as f64),
        count("core.lane_write_words", c.lane_write_words as f64),
        count("core.lane_active_share", share(c.lane_active, c.lane_cycles)),
        count("core.lane_fifo_full_share", share(c.lane_fifo_full, c.lane_cycles)),
        count("core.lane_port_conflict_share", share(c.lane_port_conflict, c.lane_cycles)),
        count("core.joiner_emissions", c.joiner_emissions as f64),
        count("core.joiner_active_share", share(c.joiner_active, c.joiner_cycles)),
        count("core.spacc_pairs_in", c.spacc_pairs_in as f64),
        count("core.spacc_overlap_cycles", c.spacc_overlap_cycles as f64),
        count("core.spacc_peak_nnz", c.spacc_peak_nnz as f64),
        count("core.overflow_retries", c.overflow_retries as f64),
        count("core.stream_faults", c.stream_faults as f64),
        // mem
        count("mem.tcdm_grants", c.tcdm_grants as f64),
        count("mem.tcdm_conflicts", c.tcdm_conflicts as f64),
        count("mem.tcdm_dma_conflicts", c.tcdm_dma_conflicts as f64),
        count("mem.tcdm_conflict_share", share(c.tcdm_conflicts, c.tcdm_grants + c.tcdm_conflicts)),
        count("mem.dma_words", c.dma_words as f64),
        count("mem.dma_transfers", c.dma_transfers as f64),
        count("mem.dma_busy_share", share(c.dma_busy_cycles, c.dma_cycles)),
        count("mem.dma_stall_cycles", c.dma_stall_cycles as f64),
        count("mem.main_wide_beats", c.main_wide_beats as f64),
        count("mem.main_narrow_accesses", c.main_narrow_accesses as f64),
        count("mem.main_dma_denied", c.main_dma_denied as f64),
        host("mem.mem_ns_per_cycle", ratio(mem.wall_ns, mem.unit_ticks)),
        host("mem.mem_idle_share", ratio(mem.idle_unit_ticks, mem.unit_ticks)),
        host("mem.dma_ns_per_unit_tick", ratio(dma.wall_ns, dma.unit_ticks)),
        host("mem.dma_idle_share", ratio(dma.idle_unit_ticks, dma.unit_ticks)),
        // cluster
        count("cluster.cycles", c.cluster_cycles as f64),
        count("cluster.util", share(c.cluster_fmadds, c.cluster_worker_cycles)),
        count("cluster.peak_worker_util", c.peak_worker_util),
        count("cluster.unit_ticks", c.unit_ticks as f64),
        host("cluster.ns_per_cycle", ns_per_cycle(3)),
        host("cluster.construct_s", stage_s("construct", "staged cluster")),
        host("cluster.blackbox_overhead", t.blackbox_overhead),
        // system
        count("system.cycles_x1", c.system_cycles[0] as f64),
        count("system.cycles_x2", c.system_cycles[1] as f64),
        count("system.cycles_x4", c.system_cycles[2] as f64),
        count("system.scaling_x4", d.scaling_x4),
        count(
            "system.contention_x4",
            share(c.system_denied_x4, c.system_denied_x4 + c.system_served_x4),
        ),
        count(
            "system.overlap_share",
            share(c.system_overlap_cycles, c.system_cycles.iter().sum::<u64>()),
        ),
        count("system.dma_stall_cycles", c.system_dma_stall_cycles as f64),
        host("system.ns_per_cycle_x1", ns_per_cycle(4)),
        host("system.ns_per_cycle_x2", ns_per_cycle(5)),
        host("system.ns_per_cycle_x4", ns_per_cycle(6)),
        host("system.construct_s", stage_s("construct", "staged system")),
        host("system.pool2_vs_serial", pool_ratio),
        host("system.pool_barrier_us", barrier_us),
        // trace
        host("trace.host_profiler_overhead", ratio(traced_run_ns, pass_run_ns) - 1.0),
        host(
            "trace.host_unattributed_share",
            1.0 - ratio(attributed_ns(&t.profile), traced_run_ns),
        ),
        host("trace.recorder_overhead", t.recorder_overhead),
        host("trace.span_count", t.spans.all().len() as f64),
    ];
    out.extend(t.fixtures.iter().map(|&(name, ns)| single(name, Kind::Fixture, ns)));
    out
}

/// The computed metrics in the order `specs` lists them.
///
/// # Errors
/// Returns the names listed but not computed, or computed but not listed:
/// the program and `BENCHMARK.json` must agree exactly.
pub fn in_listed_order<'a>(
    specs: &'a [MetricSpec],
    computed: &'a [Metric],
) -> Result<Vec<(&'a MetricSpec, &'a Metric)>, String> {
    let unlisted: Vec<&str> =
        computed.iter().map(|m| m.name).filter(|n| !specs.iter().any(|s| s.name == *n)).collect();
    if !unlisted.is_empty() {
        return Err(format!("computed but not listed in BENCHMARK.json: {unlisted:?}"));
    }
    specs
        .iter()
        .map(|s| {
            computed
                .iter()
                .find(|m| m.name == s.name)
                .map(|m| (s, m))
                .ok_or(format!("listed in BENCHMARK.json but not computed: {}", s.name))
        })
        .collect()
}

/// A run's metrics against the contract.
pub struct Report<'a> {
    pub measured: &'a Measured,
    pub end_to_end: Vec<Metric>,
    /// Only for a traced run.
    pub per_layer: Option<Vec<Metric>>,
}

impl<'a> Report<'a> {
    /// Computes the metrics of `measured`.
    #[must_use]
    pub fn new(measured: &'a Measured) -> Self {
        Self {
            measured,
            end_to_end: end_to_end(measured),
            per_layer: measured.traced.as_ref().map(|t| per_layer(measured, t)),
        }
    }

    /// Whether every output was correct.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.measured.failed == 0
    }

    /// The text report: one `metric` line per listed metric, `#` lines
    /// for everything else.
    ///
    /// # Errors
    /// As [`in_listed_order`].
    pub fn text(
        &self,
        schema: &Schema,
        host: &Fingerprint,
        budget_s: f64,
    ) -> Result<String, String> {
        use std::fmt::Write as _;
        let m = self.measured;
        let o = &m.options;
        let mut s = String::new();
        let pass_s: Vec<f64> = m.passes.iter().map(|p| p.run_ns as f64 / 1e9).collect();
        let _ = writeln!(
            s,
            "# workload {} | seed {} | trace {} | quick {}",
            m.workload,
            o.seed,
            u8::from(o.trace),
            u8::from(o.quick)
        );
        let _ = writeln!(
            s,
            "# host: nproc {} | {} | profile {} | commit {}",
            host.nproc, host.rustc, host.profile, host.commit
        );
        let _ = writeln!(
            s,
            "# method: {} set-ups with one warm-up pass each, n = {} timed passes of {:.3} s \
             (median time inside run_* calls), {} cases a pass, closed loop, one process",
            m.setups_s.len(),
            m.passes.len(),
            median(&pass_s),
            m.cases.len()
        );
        let speeds: Vec<String> =
            m.passes.iter().map(|p| format!("{:.0}", p.sim_cycles_per_s())).collect();
        let _ = writeln!(s, "# sim cycles/s of each pass: {}", speeds.join(" "));
        let _ = writeln!(
            s,
            "# ops_failed_share = {} ({} failed of {} attempted)",
            ratio(m.failed as f64, m.attempted as f64),
            m.failed,
            m.attempted
        );
        for failure in &m.failures {
            let _ = writeln!(s, "#   failed: {failure}");
        }
        let mut line = |tier: &str, spec: &MetricSpec, metric: &Metric| {
            let v = metric.samples;
            let _ = writeln!(
                s,
                "metric {tier} {} = {} {} [{}; n {} median {} min {} max {}]",
                spec.name,
                metric.value,
                spec.unit,
                metric.kind.label(),
                v.n,
                v.median,
                v.min,
                v.max
            );
        };
        for (spec, metric) in in_listed_order(&schema.end_to_end, &self.end_to_end)? {
            line("end_to_end", spec, metric);
        }
        if let Some(per_layer) = &self.per_layer {
            for (spec, metric) in in_listed_order(&schema.per_layer, per_layer)? {
                line("per_layer", spec, metric);
            }
        }
        if m.derived.anchors.is_empty() {
            let _ = writeln!(
                s,
                "# paper anchors: none on this workload; the model is unvalidated here"
            );
        } else {
            let _ = writeln!(s, "# paper_rel_err = {} over:", m.derived.paper_rel_err());
            for a in &m.derived.anchors {
                let _ = writeln!(
                    s,
                    "#   {}: reproduced {:.4}, paper {:.4}",
                    a.name, a.reproduced, a.paper
                );
            }
        }
        if let Some(t) = &m.traced {
            let _ = write!(s, "{}", traced_shares(m, t));
        }
        let over = if m.wall_s > budget_s { " — OVER BUDGET" } else { "" };
        let _ = writeln!(s, "# wall {:.1} s of a {budget_s:.0} s budget{over}", m.wall_s);
        Ok(s)
    }

    /// The last line of standard output: what the driver reads.
    ///
    /// # Errors
    /// As [`in_listed_order`].
    pub fn result_line(&self, schema: &Schema) -> Result<String, String> {
        let listed = match &self.per_layer {
            Some(per_layer) => in_listed_order(&schema.per_layer, per_layer)?,
            None => in_listed_order(&schema.end_to_end, &self.end_to_end)?,
        };
        let metrics = listed
            .into_iter()
            .map(|(spec, metric)| {
                let value = obj(vec![
                    ("value", Json::Float(metric.value)),
                    ("unit", Json::from(spec.unit.as_str())),
                ]);
                (spec.name.clone(), value)
            })
            .collect();
        Ok(obj(vec![
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.measured.attempted.max(1))),
            ("failed", Json::from(self.measured.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string())
    }

    /// This workload's entry in a run of a result file (`--out`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let metrics = self
            .end_to_end
            .iter()
            .map(|m| {
                let entry = obj(vec![
                    ("kind", Json::from(m.kind.label())),
                    ("value", Json::Float(m.value)),
                    ("n", Json::from(m.samples.n)),
                    ("median", Json::Float(m.samples.median)),
                    ("min", Json::Float(m.samples.min)),
                    ("max", Json::Float(m.samples.max)),
                ]);
                (m.name.to_owned(), entry)
            })
            .collect();
        obj(vec![
            ("attempted", Json::from(self.measured.attempted)),
            ("failed", Json::from(self.measured.failed)),
            ("passes", Json::from(self.measured.passes.len())),
            ("wall_s", Json::Float(self.measured.wall_s)),
            ("end_to_end", Json::Obj(metrics)),
        ])
    }
}

/// Where the traced pass spent its host time: by case family and stage
/// (from the spans), and by profiler class inside the `run` stages.
fn traced_shares(m: &Measured, t: &Traced) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let pass_ns = t.spans.total_ns("pass traced").max(1) as f64;
    let _ = writeln!(s, "# traced pass: {:.3} s; share of it by case family:", pass_ns / 1e9);
    // The case spans of the traced pass are its children, in list order.
    let mut family = [0u64; 3];
    let spans = t.spans.all();
    let case_spans = spans.iter().filter(|sp| {
        sp.case.is_some() && sp.parent.is_some_and(|p| spans[p].name == "pass traced")
    });
    for (span, (_, layer, _)) in case_spans.zip(&m.cases) {
        let slot = match layer {
            Layer::SingleCc => 0,
            Layer::Cluster => 1,
            Layer::System(_) => 2,
        };
        family[slot] += span.duration_ns();
    }
    for (label, ns) in ["single_cc", "cluster", "system"].into_iter().zip(family) {
        let _ = writeln!(s, "#   {label:10} {:6.2} %", 100.0 * ns as f64 / pass_ns);
    }
    // The twin `run_*` call each copy is compared with is not a stage.
    const STAGES: [&str; 7] = ["plan", "build", "construct", "marshal", "run", "readback", "model"];
    let stage_ns = |stage: &str| t.spans.total_ns_under(stage, "staged") as f64;
    let staged_ns: f64 = STAGES.into_iter().map(stage_ns).sum::<f64>().max(1.0);
    let _ =
        writeln!(s, "# staged copies: {:.6} s in stages; share of it by stage:", staged_ns / 1e9);
    for stage in STAGES {
        let _ = writeln!(s, "#   {stage:10} {:6.2} %", 100.0 * stage_ns(stage) / staged_ns);
    }
    let run_ns = (t.pass.run_ns as f64).max(1.0);
    let _ =
        writeln!(s, "# host profiler classes, share of the traced pass's time inside run_* calls:");
    if let Some(Json::Obj(classes)) = t.profile.get("classes") {
        for (name, _) in classes {
            let c = class_profile(&t.profile, name);
            let _ = writeln!(
                s,
                "#   {name:18} {:6.2} %  idle unit-ticks {:6.2} %",
                100.0 * c.wall_ns / run_ns,
                100.0 * ratio(c.idle_unit_ticks, c.unit_ticks)
            );
        }
    }
    s
}
