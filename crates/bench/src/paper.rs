//! The paper scoreboard: every number the paper's evaluation claims,
//! next to what this model reproduces.
//!
//! [`ANCHORS`] is the one place a paper value is written down. Each
//! entry names where the paper states it and how to read the
//! reproduced value out of the sweeps, which [`scoreboard`] runs once
//! each; the figures' tables, the verdict of each figure's anchor run
//! and the model-only tables (area, §V comparison) ride along as
//! sections. `--bin paper` prints the [`Board`] and commits it as
//! `baselines/BENCH_paper.json`, so a model change shows its effect on
//! every anchor in the `git diff`; until the file is regenerated,
//! `crates/bench/tests/baselines.rs` fails and names the moved anchors.

use issr_cluster::cluster::ClusterSummary;
use issr_compare::{base_core_equivalent, compare, related_systems, Comparison};
use issr_model::area::{ClusterArea, StreamerArea, ISSR_DELTA_KGE};
use issr_model::timing::StreamerTiming;
use issr_snitch::cc::RunSummary;
use issr_trace::analyze::Verdict;
use issr_trace::json::obj;
use issr_trace::Json;

use crate::figures::{csrmm_check, fig4a, fig4b, fig4c, fig4d, Sweep};
use crate::report::{Fmt, Table};
use crate::telemetry::Telemetry;
use crate::verdict::{cc_verdict, cluster_verdict};

/// The sweeps the anchors read, each run once, anchored where the
/// paper quotes its numbers: nnz 1024 (Fig. 4a), 256 nnz/row (4b),
/// 128 nnz/row (4c) and the suite matrix g7 (4d).
struct Runs {
    fig4a: Sweep<RunSummary>,
    fig4b: Sweep<RunSummary>,
    fig4c: Sweep<ClusterSummary>,
    fig4d: Sweep<ClusterSummary>,
    csrmm: Table,
}

impl Runs {
    fn new() -> Self {
        Self {
            fig4a: fig4a(&[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]),
            fig4b: fig4b(&[1, 2, 4, 8, 16, 24, 32, 64, 128, 256]),
            fig4c: fig4c(&[1, 2, 4, 8, 16, 32, 64, 128]),
            fig4d: fig4d("g7"),
            csrmm: csrmm_check(&[("ragusa18", 2), ("ragusa18", 8), ("g11", 4)]),
        }
    }

    /// Fig. 4c's best speedup over its sweep.
    fn peak_cluster_speedup(&self) -> f64 {
        let speedups = &self.fig4c.table;
        (0..speedups.len()).map(|i| speedups.f64(i, "speedup")).fold(0.0, f64::max)
    }

    /// Fig. 4b's first swept nnz/row from which ISSR-16 outruns ISSR-32
    /// at every denser point (short rows take per-width code paths, so
    /// a win below the crossover is not the density trade-off the paper
    /// describes).
    fn crossover_row_nnz(&self) -> f64 {
        let rows = &self.fig4b.table;
        let wins = |i: usize| rows.f64(i, "issr16") > rows.f64(i, "issr32");
        (0..rows.len())
            .find(|&i| (i..rows.len()).all(wins))
            .map_or(f64::NAN, |i| rows.f64(i, "row_nnz"))
    }

    /// §V from the cluster-aggregate utilization of Fig. 4c's anchor run.
    fn compare(&self) -> Comparison {
        compare(self.fig4c.at_anchor("cluster_util"))
    }
}

/// One number the paper states and how this model reproduces it.
pub struct Anchor {
    /// Stable identifier, `<section>.<quantity>`.
    pub id: &'static str,
    /// Where the paper states it.
    pub source: &'static str,
    /// The paper's value (fractions, not percent).
    pub paper: f64,
    /// How the board judges it.
    pub kind: Kind,
    reproduced: Read,
}

/// Reads an anchor's reproduced value out of the sweeps.
type Read = fn(&Runs) -> f64;

/// How the board judges an anchor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// A value to hit, judged by its relative error.
    Target,
    /// A limit the reproduced value must respect, judged pass or fail.
    /// A relative error would read as a miss where the bound holds.
    Bound(Bound),
    /// A point on a swept curve the sweep can only bracket: shown next
    /// to the reproduced value and not judged.
    Locus,
}

/// Which side of the paper's value a bound anchor must stay on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bound {
    /// The reproduced value may not exceed the paper's.
    AtMost,
    /// The reproduced value may not fall below the paper's.
    AtLeast,
}

impl Bound {
    /// Whether `reproduced` respects the bound `paper`.
    #[must_use]
    pub fn holds(self, reproduced: f64, paper: f64) -> bool {
        match self {
            Bound::AtMost => reproduced <= paper,
            Bound::AtLeast => reproduced >= paper,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Bound::AtMost => "at most",
            Bound::AtLeast => "at least",
        }
    }
}

const fn target(id: &'static str, source: &'static str, paper: f64, reproduced: Read) -> Anchor {
    Anchor { id, source, paper, kind: Kind::Target, reproduced }
}

const fn bound(
    id: &'static str,
    source: &'static str,
    paper: f64,
    direction: Bound,
    reproduced: Read,
) -> Anchor {
    Anchor { id, source, paper, kind: Kind::Bound(direction), reproduced }
}

const fn locus(id: &'static str, source: &'static str, paper: f64, reproduced: Read) -> Anchor {
    Anchor { id, source, paper, kind: Kind::Locus, reproduced }
}

/// Every number of the paper's evaluation this model reproduces.
pub const ANCHORS: [Anchor; 22] = [
    // SpVV FPU utilization limits on one core complex.
    target("fig4a.base_util", "Fig. 4a", 1.0 / 9.0, |r| r.fig4a.at_anchor("base")),
    target("fig4a.ssr_util", "Fig. 4a", 1.0 / 7.0, |r| r.fig4a.at_anchor("ssr")),
    target("fig4a.issr32_util", "Fig. 4a", 0.67, |r| r.fig4a.at_anchor("issr32")),
    target("fig4a.issr16_util", "Fig. 4a", 0.80, |r| r.fig4a.at_anchor("issr16")),
    // CsrMV speedup limits over BASE on one core complex, and the
    // nnz/row from which 16-bit indices win.
    target("fig4b.issr16_speedup", "Fig. 4b", 7.2, |r| r.fig4b.at_anchor("issr16")),
    target("fig4b.issr32_speedup", "Fig. 4b", 6.0, |r| r.fig4b.at_anchor("issr32")),
    // A locus, not a bound: the paper puts the crossover "around" 20
    // nnz/row, which says where the two curves cross, not which side
    // of 20 it must fall on. The sweep brackets it between two swept
    // densities (16 and 24), so no relative error applies either.
    locus("fig4b.crossover_row_nnz", "Fig. 4b", 20.0, Runs::crossover_row_nnz),
    // Cluster CsrMV, ISSR-16 over BASE.
    target("fig4c.speedup_at_1_nnz", "Fig. 4c", 1.9, |r| r.fig4c.table.f64(0, "speedup")),
    target("fig4c.peak_speedup", "Fig. 4c", 5.8, Runs::peak_cluster_speedup),
    target("fig4c.peak_worker_util", "Fig. 4c", 0.71, |r| r.fig4c.at_anchor("peak_util")),
    target("fig4c.base_core_equivalents", "§IV-B", 46.0, |r| {
        base_core_equivalent(8.0, r.peak_cluster_speedup())
    }),
    // Cluster power and energy per fmadd on g7.
    target("fig4d.g7_base_mw", "Fig. 4d", 89.0, |r| r.fig4d.at_anchor("base_mw")),
    target("fig4d.g7_issr_mw", "Fig. 4d", 194.0, |r| r.fig4d.at_anchor("issr_mw")),
    target("fig4d.g7_base_pj_per_fmadd", "Fig. 4d", 142.0, |r| r.fig4d.at_anchor("base_pj")),
    target("fig4d.g7_issr_pj_per_fmadd", "Fig. 4d", 53.0, |r| r.fig4d.at_anchor("issr_pj")),
    target("fig4d.g7_energy_gain", "Fig. 4d", 2.7, |r| r.fig4d.at_anchor("gain")),
    // CsrMM loses next to nothing against CsrMV (Ragusa18, two columns):
    // the paper's 0.12 % is the most the utilisation may drop.
    bound("csrmm.ragusa18_x2_util_delta", "§IV-A", 0.0012, Bound::AtMost, |r| {
        r.csrmm.f64(0, "delta")
    }),
    // Area of the indirection extension.
    target("area.issr_delta_kge", "§IV-C", 4.4, |_| ISSR_DELTA_KGE),
    target("area.issr_over_ssr", "§IV-C", 0.43, |_| StreamerArea::paper_config().issr_over_ssr()),
    target("area.cluster_overhead", "§IV-C", 0.008, |_| {
        ClusterArea::paper_config().issr_overhead()
    }),
    // Peak FP64 utilization against the GTX 1080 Ti and the Xeon Phi.
    target("compare.vs_gpu_fp64", "§V", 2.8, |r| r.compare().vs_gpu_fp64),
    target("compare.vs_xeon_phi", "§V", 70.0, |r| r.compare().vs_cpu),
];

/// The board's rows: one per [`ANCHORS`] entry, in order. `rel_err` is
/// `(reproduced − paper) / paper` for a target and `null` otherwise;
/// `bound` is `"pass"` or `"fail"` for a bound and `null` otherwise.
fn anchor_table(runs: &Runs) -> Table {
    let mut table = Table::new(&[
        ("id", "anchor", Fmt::Plain),
        ("source", "source", Fmt::Plain),
        ("paper", "paper", Fmt::Sig(3)),
        ("reproduced", "reproduced", Fmt::Sig(3)),
        ("rel_err", "rel. error", Fmt::Percent(1)),
        ("bound", "bound", Fmt::Plain),
    ]);
    for a in &ANCHORS {
        let reproduced = (a.reproduced)(runs);
        let (rel_err, bound) = match a.kind {
            Kind::Target => (Json::Float((reproduced - a.paper) / a.paper), Json::Null),
            Kind::Bound(b) => {
                (Json::Null, if b.holds(reproduced, a.paper) { "pass" } else { "fail" }.into())
            }
            Kind::Locus => (Json::Null, Json::Null),
        };
        table.push(vec![
            a.id.into(),
            a.source.into(),
            a.paper.into(),
            reproduced.into(),
            rel_err,
            bound,
        ]);
    }
    table
}

/// One table of the board with what is exported and printed around it.
struct Section {
    key: &'static str,
    title: &'static str,
    table: Table,
    /// Exported next to the rows: scalars and the verdict.
    fields: Vec<(&'static str, Json)>,
    /// Printed under the table.
    notes: Vec<String>,
}

impl Section {
    /// A figure's sweep with the verdict of its anchor run.
    fn figure<S>(
        key: &'static str,
        title: &'static str,
        sweep: &Sweep<S>,
        verdict: &Verdict,
    ) -> Self {
        let label = format!("{key} at {}", sweep.table.label(sweep.anchor_row));
        Self {
            key,
            title,
            table: sweep.table.clone(),
            fields: vec![("verdict", verdict.to_json())],
            notes: vec![verdict.line(&label)],
        }
    }
}

/// The scoreboard and the sections behind it.
pub struct Board {
    /// Anchor / source / paper / reproduced / rel. error, one row per
    /// [`ANCHORS`] entry.
    pub anchors: Table,
    sections: Vec<Section>,
}

/// Runs every sweep once and assembles the board.
#[must_use]
pub fn scoreboard() -> Board {
    let runs = Runs::new();
    let mut sections = vec![
        Section::figure(
            "fig4a",
            "Fig. 4a — CC SpVV FPU utilization",
            &runs.fig4a,
            &cc_verdict(&runs.fig4a.anchor),
        ),
        Section::figure(
            "fig4b",
            "Fig. 4b — CC CsrMV speedup over BASE",
            &runs.fig4b,
            &cc_verdict(&runs.fig4b.anchor),
        ),
    ];

    let verdict = cluster_verdict(&runs.fig4c.anchor);
    let mut fig4c =
        Section::figure("fig4c", "Fig. 4c — cluster CsrMV, ISSR-16 vs BASE", &runs.fig4c, &verdict);
    let peak = runs.peak_cluster_speedup();
    fig4c.fields.push(("peak_speedup", peak.into()));
    fig4c.notes.push(format!(
        "Peak speedup {peak:.2}x -> one ISSR cluster matches ~{:.0} BASE cores.",
        base_core_equivalent(8.0, peak)
    ));
    sections.push(fig4c);

    sections.push(Section::figure(
        "fig4d",
        "Fig. 4d — cluster CsrMV power and energy per fmadd",
        &runs.fig4d,
        &cluster_verdict(&runs.fig4d.anchor),
    ));
    sections.push(Section {
        key: "csrmm",
        title: "§IV-A — CsrMM against CsrMV, ISSR FPU utilization",
        table: runs.csrmm.clone(),
        fields: Vec::new(),
        notes: Vec::new(),
    });
    sections.push(area_section());
    sections.push(compare_section(&runs.compare()));
    Board { anchors: anchor_table(&runs), sections }
}

/// Fig. 2 / §IV-C: the streamer's area breakdown, the cluster-level
/// cost of the ISSR upgrade and the synthesized critical paths.
fn area_section() -> Section {
    let streamer = StreamerArea::paper_config();
    let mut table = Table::new(&[
        ("block", "block", Fmt::Plain),
        ("kge", "kGE", Fmt::Fixed(1)),
        ("share", "of streamer", Fmt::Percent(0)),
    ]);
    for b in &streamer.blocks {
        table.push(vec![b.name.into(), b.kge.into(), (b.kge / streamer.total_kge()).into()]);
    }
    let cluster = ClusterArea::paper_config();
    let timing = StreamerTiming::paper_results();
    Section {
        key: "area",
        title: "Fig. 2 / §IV-C — streamer area breakdown",
        table,
        fields: vec![
            ("issr_delta_kge", ISSR_DELTA_KGE.into()),
            ("issr_over_ssr", streamer.issr_over_ssr().into()),
            ("cluster_upgrade_kge", cluster.issr_upgrade_kge().into()),
            ("cluster_overhead", cluster.issr_overhead().into()),
            ("ssr_path_ps", timing.ssr_ps.into()),
            ("issr_path_ps", timing.issr_ps.into()),
            ("meets_clock", timing.meets_clock().into()),
        ],
        notes: vec![
            format!(
                "ISSR delta over SSR: {ISSR_DELTA_KGE:.1} kGE ({:.0}%)",
                100.0 * streamer.issr_over_ssr()
            ),
            format!(
                "Cluster overhead of 8 ISSRs: {:.1} kGE = {:.2}%",
                cluster.issr_upgrade_kge(),
                100.0 * cluster.issr_overhead()
            ),
            format!(
                "Critical path: SSR {:.0} ps -> ISSR {:.0} ps; meets 1 GHz: {} (slack {:.0} ps)",
                timing.ssr_ps,
                timing.issr_ps,
                timing.meets_clock(),
                timing.slack_ps()
            ),
        ],
    }
}

/// §V: the quoted related systems and the ratios against this
/// cluster's measured utilization.
fn compare_section(c: &Comparison) -> Section {
    let mut table = Table::new(&[
        ("system", "system", Fmt::Plain),
        ("precision", "precision", Fmt::Plain),
        ("occupancy", "occupancy", Fmt::Percent(0)),
        ("fp_utilization", "FP util", Fmt::Percent(2)),
        ("source", "source", Fmt::Plain),
    ]);
    for s in related_systems() {
        table.push(vec![
            s.name.into(),
            s.precision.into(),
            s.occupancy.map_or(Json::Null, Json::Float),
            s.fp_utilization.into(),
            s.source.into(),
        ]);
    }
    Section {
        key: "compare",
        title: "§V — peak FP utilization in CSR SpMV",
        table,
        fields: vec![
            ("cluster_utilization", c.cluster_utilization.into()),
            ("vs_gpu_fp64", c.vs_gpu_fp64.into()),
            ("vs_cpu", c.vs_cpu.into()),
        ],
        notes: vec![format!(
            "Snitch cluster + ISSR (measured here): {:.1}% FP64 utilization -> {:.1}x over the \
             GTX 1080 Ti FP64, {:.0}x over Xeon Phi CVR.",
            c.cluster_utilization * 100.0,
            c.vs_gpu_fp64,
            c.vs_cpu
        )],
    }
}

impl Board {
    /// The table of the section exported under `key` (`"fig4c"`, …).
    #[must_use]
    pub fn section(&self, key: &str) -> Option<&Table> {
        self.sections.iter().find(|s| s.key == key).map(|s| &s.table)
    }

    /// The board as printed: the scoreboard, then every section's
    /// table and notes.
    #[must_use]
    pub fn markdown(&self) -> String {
        let mut out = format!("Paper scoreboard\n\n{}", self.anchors.markdown());
        for (i, a) in ANCHORS.iter().enumerate() {
            if let Kind::Bound(b) = a.kind {
                let verdict = self.anchors.cell(i, "bound").as_str().unwrap_or("-");
                out.push_str(&format!(
                    "\nBound {}: {} the paper's {}: {verdict}\n",
                    a.id,
                    b.name(),
                    a.paper
                ));
            }
        }
        for s in &self.sections {
            out.push_str(&format!("\n{}\n\n{}", s.title, s.table.markdown()));
            for note in &s.notes {
                out.push_str(&format!("\n{note}\n"));
            }
        }
        out
    }

    /// The board as committed: `scoreboard`, then one object per
    /// section holding its `rows` and fields.
    #[must_use]
    pub fn telemetry(&self) -> Telemetry {
        let mut t = Telemetry::new("paper", "full");
        t.push("scoreboard", self.anchors.json());
        for s in &self.sections {
            let mut fields = vec![("rows", s.table.json())];
            fields.extend(s.fields.iter().cloned());
            t.push(s.key, obj(fields));
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bound reads pass on its own side of the paper's value,
    /// including the value itself, and fail across it.
    #[test]
    fn bounds_hold_on_their_side() {
        assert!(Bound::AtMost.holds(0.0012, 0.0012) && Bound::AtMost.holds(0.001, 0.0012));
        assert!(!Bound::AtMost.holds(0.00146, 0.0012));
        assert!(Bound::AtLeast.holds(20.0, 20.0) && Bound::AtLeast.holds(24.0, 20.0));
        assert!(!Bound::AtLeast.holds(16.0, 20.0));
    }

    /// The committed board lists exactly the anchors of this source, in
    /// order — a forgotten regenerate fails here, not only in CI.
    #[test]
    fn committed_board_lists_the_anchors() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines/BENCH_paper.json");
        let text = std::fs::read_to_string(path).expect("committed paper baseline");
        let doc = Json::parse(&text).expect("baseline parses");
        let rows = doc.get("results").and_then(|r| r.get("scoreboard")).and_then(Json::as_arr);
        let ids: Vec<&str> = rows
            .expect("scoreboard section")
            .iter()
            .map(|row| row.get("id").and_then(Json::as_str).expect("anchor id"))
            .collect();
        let expect: Vec<&str> = ANCHORS.iter().map(|a| a.id).collect();
        assert_eq!(ids, expect);
    }
}
