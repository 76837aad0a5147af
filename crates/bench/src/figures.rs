//! The per-figure experiment runners.
//!
//! A runner declares its table's columns once ([`Table`]) and returns
//! the rows under them; the paper's own numbers for each figure live in
//! [`crate::paper::ANCHORS`], not here.

use issr_cluster::cluster::ClusterSummary;
use issr_core::spacc::SpAccStats;
use issr_kernels::cluster_csrmv::run_cluster_csrmv;
use issr_kernels::cluster_spgemm::{build_cluster_spgemm, run_cluster_spgemm, ClusterSpgemmPlan};
use issr_kernels::csrmm::run_csrmm;
use issr_kernels::csrmv::run_csrmv;
use issr_kernels::spgemm::{run_spgemm, run_spgemm_buffered, run_spgemm_recover};
use issr_kernels::spmspv::{run_spmspv, run_spvv_ss, run_spvv_ss_term};
use issr_kernels::spvv::run_spvv;
use issr_kernels::system_csrmv::{run_system_csrmv, run_system_csrmv_traced};
use issr_kernels::system_spgemm::{run_system_spgemm_planned, SystemSpgemmPlan};
use issr_kernels::variant::Variant;
use issr_model::power::PowerModel;
use issr_snitch::cc::RunSummary;
use issr_sparse::csr::CsrMatrix;
use issr_sparse::dense::DenseMatrix;
use issr_sparse::{gen, reference, suite};
use issr_trace::{ratio, Json};

use crate::report::{Column, Fmt, Table};

/// A sweep's table plus the summary of the run behind one of its rows —
/// the anchor, the point the figure's numbers are quoted at — so a
/// verdict printed under the table classifies a run the table shows.
#[derive(Debug)]
pub struct Sweep<S> {
    /// The sweep's rows.
    pub table: Table,
    /// Index of the row the anchor run produced.
    pub anchor_row: usize,
    /// Summary of the anchor row's ISSR run (16-bit indices).
    pub anchor: S,
}

impl<S> Sweep<S> {
    /// A sweep anchored at its last row.
    fn at_last_row(table: Table, anchor: Option<S>) -> Self {
        let anchor = anchor.expect("a sweep has at least one point");
        Self { anchor_row: table.len() - 1, table, anchor }
    }

    /// The anchor row's value under the column keyed `key`.
    #[must_use]
    pub fn at_anchor(&self, key: &str) -> f64 {
        self.table.f64(self.anchor_row, key)
    }
}

/// Fig. 4a: single-CC SpVV FPU utilization against the sparse vector's
/// nonzeros. BASE is the same for both index widths; the `m` columns
/// include the reduction. Anchored at the last point.
#[must_use]
pub fn fig4a(points: &[usize]) -> Sweep<RunSummary> {
    let mut table = Table::new(&[
        ("nnz", "nnz", Fmt::Plain),
        ("base", "BASE", Fmt::Fixed(3)),
        ("ssr", "SSR", Fmt::Fixed(3)),
        ("issr32", "ISSR-32", Fmt::Fixed(3)),
        ("issr32_m", "ISSR-32m", Fmt::Fixed(3)),
        ("issr16", "ISSR-16", Fmt::Fixed(3)),
        ("issr16_m", "ISSR-16m", Fmt::Fixed(3)),
    ]);
    let dim = 2048;
    let mut anchor = None;
    for &nnz in points {
        let mut rng = gen::rng(0x000F_164A + nnz as u64);
        let a32 = gen::sparse_vector::<u32>(&mut rng, dim, nnz);
        let a16 = a32.with_index_width::<u16>();
        let b = gen::dense_vector(&mut rng, dim);
        let base = run_spvv(Variant::Base, &a32, &b).expect("base run").summary.metrics;
        let ssr = run_spvv(Variant::Ssr, &a32, &b).expect("ssr run").summary.metrics;
        let issr32 = run_spvv(Variant::Issr, &a32, &b).expect("issr32 run").summary.metrics;
        let issr16 = run_spvv(Variant::Issr, &a16, &b).expect("issr16 run").summary;
        table.push(vec![
            nnz.into(),
            base.fpu_utilization().into(),
            ssr.fpu_utilization().into(),
            issr32.fpu_utilization().into(),
            issr32.fpu_utilization_with_reduction().into(),
            issr16.metrics.fpu_utilization().into(),
            issr16.metrics.fpu_utilization_with_reduction().into(),
        ]);
        anchor = Some(issr16);
    }
    Sweep::at_last_row(table, anchor)
}

/// Fig. 4b: single-CC CsrMV speedup over BASE against nnz/row (SSR and
/// ISSR-32 on 32-bit indices, ISSR-16 on 16-bit). Anchored at the last
/// point.
#[must_use]
pub fn fig4b(points: &[usize]) -> Sweep<RunSummary> {
    let mut table = Table::new(&[
        ("row_nnz", "nnz/row", Fmt::Plain),
        ("ssr", "SSR", Fmt::Fixed(2)),
        ("issr32", "ISSR-32", Fmt::Fixed(2)),
        ("issr16", "ISSR-16", Fmt::Fixed(2)),
    ]);
    let (nrows, ncols) = (64, 2048);
    let mut anchor = None;
    for &row_nnz in points {
        let mut rng = gen::rng(0x000F_164B + row_nnz as u64);
        let m32 = gen::csr_fixed_row_nnz::<u32>(&mut rng, nrows, ncols, row_nnz);
        let m16 = m32.with_index_width::<u16>();
        let x = gen::dense_vector(&mut rng, ncols);
        let cycles = |v| run_csrmv(v, &m32, &x).expect("run").summary.metrics.roi.cycles as f64;
        let base = cycles(Variant::Base);
        let issr16 = run_csrmv(Variant::Issr, &m16, &x).expect("issr16 run").summary;
        table.push(vec![
            row_nnz.into(),
            ratio(base, cycles(Variant::Ssr)).into(),
            ratio(base, cycles(Variant::Issr)).into(),
            ratio(base, issr16.metrics.roi.cycles as f64).into(),
        ]);
        anchor = Some(issr16);
    }
    Sweep::at_last_row(table, anchor)
}

/// Fig. 4c: cluster CsrMV, ISSR-16 against BASE, over nnz/row, with the
/// ISSR run's peak per-worker and cluster-aggregate FPU utilization
/// (§V compares the latter). Anchored at the last point.
#[must_use]
pub fn fig4c(points: &[usize]) -> Sweep<ClusterSummary> {
    let mut table = Table::new(&[
        ("row_nnz", "nnz/row", Fmt::Plain),
        ("base_cycles", "BASE cyc", Fmt::Plain),
        ("issr_cycles", "ISSR cyc", Fmt::Plain),
        ("speedup", "speedup", Fmt::Fixed(2)),
        ("peak_util", "peak util", Fmt::Fixed(3)),
        ("cluster_util", "cluster util", Fmt::Fixed(3)),
    ]);
    let (nrows, ncols) = (512, 2048);
    let mut anchor = None;
    for &row_nnz in points {
        let mut rng = gen::rng(0x000F_164C + row_nnz as u64);
        let spread = (row_nnz * 4).clamp(16, ncols);
        let m = gen::csr_clustered::<u16>(&mut rng, nrows, ncols, row_nnz, spread);
        let x = gen::dense_vector(&mut rng, ncols);
        let base = run_cluster_csrmv(Variant::Base, &m, &x).expect("base run").summary.cycles;
        let issr = run_cluster_csrmv(Variant::Issr, &m, &x).expect("issr run").summary;
        table.push(vec![
            row_nnz.into(),
            base.into(),
            issr.cycles.into(),
            ratio(base as f64, issr.cycles as f64).into(),
            issr.peak_worker_utilization().into(),
            issr.cluster_utilization().into(),
        ]);
        anchor = Some(issr);
    }
    Sweep::at_last_row(table, anchor)
}

/// Largest suite stand-in Fig. 4d simulates (nine of the eleven; the
/// two heavier ones take minutes and carry no anchor).
const FIG4D_MAX_NNZ: usize = 120_000;

/// Fig. 4d: cluster CsrMV average power and energy per fmadd over the
/// matrix suite, both variants through the power model. Anchored at
/// the matrix named `anchor`.
///
/// # Panics
/// Panics if `anchor` is not a suite matrix the sweep simulates.
#[must_use]
pub fn fig4d(anchor: &str) -> Sweep<ClusterSummary> {
    let mut table = Table::new(&[
        ("name", "matrix", Fmt::Plain),
        ("nnz", "nnz", Fmt::Plain),
        ("base_mw", "BASE mW", Fmt::Fixed(0)),
        ("issr_mw", "ISSR mW", Fmt::Fixed(0)),
        ("base_pj", "BASE pJ/fmadd", Fmt::Fixed(0)),
        ("issr_pj", "ISSR pJ/fmadd", Fmt::Fixed(0)),
        ("gain", "gain", Fmt::Fixed(2)),
    ]);
    let model = PowerModel::default();
    let mut anchored = None;
    for entry in suite::suite().into_iter().filter(|e| e.nnz <= FIG4D_MAX_NNZ) {
        let m = entry.build::<u16>();
        let mut rng = gen::rng(0x000F_164D);
        let x = gen::dense_vector(&mut rng, m.ncols());
        let base = run_cluster_csrmv(Variant::Base, &m, &x).expect("base run").summary;
        let issr = run_cluster_csrmv(Variant::Issr, &m, &x).expect("issr run").summary;
        let (eb, ei) = (model.evaluate(&base), model.evaluate(&issr));
        table.push(vec![
            entry.name.into(),
            entry.nnz.into(),
            eb.avg_power_mw.into(),
            ei.avg_power_mw.into(),
            eb.pj_per_fmadd.into(),
            ei.pj_per_fmadd.into(),
            ratio(eb.pj_per_fmadd, ei.pj_per_fmadd).into(),
        ]);
        if entry.name == anchor {
            anchored = Some((table.len() - 1, issr));
        }
    }
    let (anchor_row, anchor) = anchored.expect("anchor matrix is in the simulated suite");
    Sweep { table, anchor_row, anchor }
}

/// §IV-A CsrMM spot check: ISSR FPU utilization of CsrMM against CsrMV
/// (the matrix times the first dense column) and their absolute delta,
/// one row per `(suite matrix, dense columns)` case.
///
/// # Panics
/// Panics if a named matrix is not in the suite.
#[must_use]
pub fn csrmm_check(cases: &[(&str, usize)]) -> Table {
    let mut table = Table::new(&[
        ("name", "matrix", Fmt::Plain),
        ("b_cols", "dense cols", Fmt::Plain),
        ("mv_util", "CsrMV util", Fmt::Fixed(4)),
        ("mm_util", "CsrMM util", Fmt::Fixed(4)),
        ("delta", "delta", Fmt::Fixed(4)),
    ]);
    for &(name, b_cols) in cases {
        let m = suite::by_name(name).expect("suite entry").build::<u16>();
        let mut rng = gen::rng(0xC5);
        let mut b = DenseMatrix::with_pow2_stride(m.ncols(), b_cols);
        for r in 0..m.ncols() {
            for c in 0..b_cols {
                b.set(r, c, gen::dense_vector(&mut rng, 1)[0]);
            }
        }
        let mv = run_csrmv(Variant::Issr, &m, &b.col(0)).expect("csrmv run");
        let mm = run_csrmm(Variant::Issr, &m, &b).expect("csrmm run");
        let mv_util = mv.summary.metrics.fpu_utilization();
        let mm_util = mm.summary.metrics.fpu_utilization();
        table.push(vec![
            name.into(),
            b_cols.into(),
            mv_util.into(),
            mm_util.into(),
            (mv_util - mm_util).abs().into(),
        ]);
    }
    table
}

/// Columns the two joiner sweeps share: software merge against the
/// index joiner, ROI cycles and speedup per index width.
const JOINER_COLUMNS: [Column; 6] = [
    ("base16", "BASE-16", Fmt::Plain),
    ("issr16", "ISSR-16", Fmt::Plain),
    ("speedup16", "speedup", Fmt::Times(2)),
    ("base32", "BASE-32", Fmt::Plain),
    ("issr32", "ISSR-32", Fmt::Plain),
    ("speedup32", "speedup", Fmt::Times(2)),
];

/// The [`JOINER_COLUMNS`] cells of one sweep point.
fn joiner_cells(base16: u64, issr16: u64, base32: u64, issr32: u64) -> Vec<Json> {
    vec![
        base16.into(),
        issr16.into(),
        ratio(base16 as f64, issr16 as f64).into(),
        base32.into(),
        issr32.into(),
        ratio(base32 as f64, issr32 as f64).into(),
    ]
}

/// Sparse-sparse SpVV: joiner against software merge across the
/// fraction of indices the operands share, plus the joiner's pairs
/// emitted per ROI cycle (16-bit run) and the ROI cycles of the
/// stream-terminated intersect kernel (`frep.s`, one `fmadd` per match)
/// on the same fibers. Anchored at the point whose overlap is `anchor`.
///
/// # Panics
/// Panics if `anchor` is not one of `overlaps`.
#[must_use]
pub fn joiner_spvv(overlaps: &[f64], anchor: f64) -> Sweep<RunSummary> {
    let mut columns = vec![("overlap", "overlap", Fmt::Fixed(3))];
    columns.extend(JOINER_COLUMNS);
    columns.push(("joiner_util", "pairs/cycle", Fmt::Fixed(3)));
    columns.push(("term16", "frep.s-16", Fmt::Plain));
    columns.push(("term32", "frep.s-32", Fmt::Plain));
    let mut table = Table::new(&columns);
    let (dim, nnz) = (8192, 512);
    let mut anchored = None;
    for &overlap in overlaps {
        let mut rng = gen::rng(0x000F_164E + (overlap * 100.0) as u64);
        let (a32, b32) = gen::overlapping_pair::<u32>(&mut rng, dim, nnz, nnz, overlap);
        let (a16, b16) = (a32.with_index_width::<u16>(), b32.with_index_width::<u16>());
        let roi = |s: &RunSummary| s.metrics.roi.cycles;
        let base16 = roi(&run_spvv_ss(Variant::Base, &a16, &b16).expect("base16 run").summary);
        let issr16 = run_spvv_ss(Variant::Issr, &a16, &b16).expect("issr16 run").summary;
        let base32 = roi(&run_spvv_ss(Variant::Base, &a32, &b32).expect("base32 run").summary);
        let issr32 = roi(&run_spvv_ss(Variant::Issr, &a32, &b32).expect("issr32 run").summary);
        let term16 = roi(&run_spvv_ss_term(&a16, &b16).expect("term16 run").summary);
        let term32 = roi(&run_spvv_ss_term(&a32, &b32).expect("term32 run").summary);
        let mut cells = vec![overlap.into()];
        cells.extend(joiner_cells(base16, roi(&issr16), base32, issr32));
        cells.push(ratio(issr16.joiner_stats.emissions as f64, roi(&issr16) as f64).into());
        cells.extend([term16.into(), term32.into()]);
        table.push(cells);
        if overlap == anchor {
            anchored = Some((table.len() - 1, issr16));
        }
    }
    let (anchor_row, anchor) = anchored.expect("the anchor overlap is swept");
    Sweep { table, anchor_row, anchor }
}

/// SpMSpV: joiner against software merge across the nonzeros of the
/// sparse vector operand.
#[must_use]
pub fn joiner_spmspv(x_nnzs: &[usize]) -> Table {
    let mut columns = vec![("x_nnz", "x nnz", Fmt::Plain)];
    columns.extend(JOINER_COLUMNS);
    let mut table = Table::new(&columns);
    let (nrows, ncols, row_nnz) = (48, 2048, 64);
    for &x_nnz in x_nnzs {
        let mut rng = gen::rng(0x000F_164F + x_nnz as u64);
        let m32 = gen::csr_fixed_row_nnz::<u32>(&mut rng, nrows, ncols, row_nnz);
        let m16 = m32.with_index_width::<u16>();
        let x32 = gen::sparse_vector::<u32>(&mut rng, ncols, x_nnz);
        let x16 = x32.with_index_width::<u16>();
        let roi = |s: RunSummary| s.metrics.roi.cycles;
        let mut cells = vec![x_nnz.into()];
        cells.extend(joiner_cells(
            roi(run_spmspv(Variant::Base, &m16, &x16).expect("base16 run").summary),
            roi(run_spmspv(Variant::Issr, &m16, &x16).expect("issr16 run").summary),
            roi(run_spmspv(Variant::Base, &m32, &x32).expect("base32 run").summary),
            roi(run_spmspv(Variant::Issr, &m32, &x32).expect("issr32 run").summary),
        ));
        table.push(cells);
    }
    table
}

/// The overlap sweep the joiner binary reports.
#[must_use]
pub fn default_overlap_sweep() -> Vec<f64> {
    vec![0.0, 0.125, 0.25, 0.5, 0.75, 1.0]
}

/// One sparsity regime of the SpGEMM sweep.
#[derive(Clone, Copy, Debug)]
pub struct SpgemmRegime {
    /// Display name.
    pub label: &'static str,
    /// Rows of A (= rows of C).
    pub nrows: usize,
    /// Inner dimension (columns of A, rows of B).
    pub inner: usize,
    /// Columns of B (= columns of C).
    pub ncols: usize,
    /// Nonzeros per A row.
    pub a_row_nnz: usize,
    /// Nonzeros per B row.
    pub b_row_nnz: usize,
}

/// One row of the SpGEMM sweep: BASE vs. ISSR cycles per index width,
/// the ISSR-16 run's SpAcc unit activity, and the single-buffered
/// ISSR-16 cycles (double-buffer delta).
#[derive(Clone, Copy, Debug)]
pub struct SpgemmRow {
    /// The regime swept.
    pub regime: SpgemmRegime,
    /// BASE (software merge) ROI cycles, 16-bit indices.
    pub base16: u64,
    /// ISSR (SpAcc subsystem) ROI cycles, 16-bit indices.
    pub issr16: u64,
    /// ISSR-16 ROI cycles with single-buffered SpAcc row storage (the
    /// drain blocks the next row's feeds) — the double-buffer baseline.
    pub issr16_single: u64,
    /// BASE ROI cycles, 32-bit indices.
    pub base32: u64,
    /// ISSR ROI cycles, 32-bit indices.
    pub issr32: u64,
    /// SpAcc statistics of the (double-buffered) ISSR-16 run.
    pub spacc: SpAccStats,
}

impl SpgemmRow {
    /// SpAcc-subsystem speedup over the software merge, 16-bit indices.
    #[must_use]
    pub fn speedup16(&self) -> f64 {
        ratio(self.base16 as f64, self.issr16 as f64)
    }

    /// SpAcc-subsystem speedup over the software merge, 32-bit indices.
    #[must_use]
    pub fn speedup32(&self) -> f64 {
        ratio(self.base32 as f64, self.issr32 as f64)
    }

    /// Cycles the double-buffered SpAcc saves over the single-buffered
    /// unit (drain/feed overlap), ISSR-16.
    #[must_use]
    pub fn double_buffer_gain(&self) -> u64 {
        self.issr16_single.saturating_sub(self.issr16)
    }
}

/// SpGEMM: SpAcc subsystem vs. software merge across sparsity regimes,
/// plus the summary of the last regime's ISSR-16 run (the one the
/// binary's attribution tables and verdict describe).
///
/// # Panics
/// Panics if `regimes` is empty or a run fails.
#[must_use]
pub fn spgemm_sweep(regimes: &[SpgemmRegime]) -> (Vec<SpgemmRow>, RunSummary) {
    let mut rows = Vec::new();
    let mut last = None;
    for &regime in regimes {
        let mut rng = gen::rng(0x000F_1650 + regime.b_row_nnz as u64);
        let a32 =
            gen::csr_fixed_row_nnz::<u32>(&mut rng, regime.nrows, regime.inner, regime.a_row_nnz);
        let b32 =
            gen::csr_fixed_row_nnz::<u32>(&mut rng, regime.inner, regime.ncols, regime.b_row_nnz);
        let (a16, b16) = (a32.with_index_width::<u16>(), b32.with_index_width::<u16>());
        let base16 = run_spgemm(Variant::Base, &a16, &b16).expect("base16 run");
        let issr16 = run_spgemm(Variant::Issr, &a16, &b16).expect("issr16 run").summary;
        let issr16_single = run_spgemm_buffered(Variant::Issr, &a16, &b16, false)
            .expect("issr16 single-buffer run");
        let base32 = run_spgemm(Variant::Base, &a32, &b32).expect("base32 run");
        let issr32 = run_spgemm(Variant::Issr, &a32, &b32).expect("issr32 run");
        rows.push(SpgemmRow {
            regime,
            base16: base16.summary.metrics.roi.cycles,
            issr16: issr16.metrics.roi.cycles,
            issr16_single: issr16_single.summary.metrics.roi.cycles,
            base32: base32.summary.metrics.roi.cycles,
            issr32: issr32.summary.metrics.roi.cycles,
            spacc: issr16.spacc_stats,
        });
        last = Some(issr16);
    }
    (rows, last.expect("at least one regime"))
}

/// Per-worker SpAcc activity of one cluster SpGEMM run (ISSR variant)
/// on the given regime, plus the BASE/ISSR cluster cycle counts.
#[derive(Clone, Debug)]
pub struct ClusterSpgemmReport {
    /// The regime run.
    pub regime: SpgemmRegime,
    /// BASE cluster cycles.
    pub base_cycles: u64,
    /// ISSR cluster cycles.
    pub issr_cycles: u64,
    /// Per-worker SpAcc statistics of the ISSR run.
    pub spacc: Vec<SpAccStats>,
}

/// Runs cluster SpGEMM (both variants) on one regime.
#[must_use]
pub fn cluster_spgemm_report(regime: SpgemmRegime) -> ClusterSpgemmReport {
    let mut rng = gen::rng(0x000F_1651);
    let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, regime.nrows, regime.inner, regime.a_row_nnz);
    let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, regime.inner, regime.ncols, regime.b_row_nnz);
    let base = run_cluster_spgemm(Variant::Base, &a, &b).expect("base cluster run");
    let issr = run_cluster_spgemm(Variant::Issr, &a, &b).expect("issr cluster run");
    ClusterSpgemmReport {
        regime,
        base_cycles: base.summary.cycles,
        issr_cycles: issr.summary.cycles,
        spacc: issr.summary.spacc_stats,
    }
}

/// The overflow-recovery regime: SpGEMM with an *optimistic* SpAcc
/// row-buffer capacity recovered through trap-driven grow-and-retry.
#[derive(Clone, Copy, Debug)]
pub struct SpgemmRecoveryRow {
    /// The optimistic initial `ACC_BUF_CAP`.
    pub initial_cap: u32,
    /// The capacity the clean run converged to.
    pub final_cap: u32,
    /// Overflow traps taken before the capacity sufficed.
    pub retries: u32,
    /// Total cycles of the final clean run.
    pub cycles: u64,
    /// Peak row-buffer occupancy of the clean run.
    pub peak_nnz: u64,
}

/// Runs the overflow-recovery regime: dense-ish B rows against a tiny
/// initial capacity force several overflow traps, the harness grows
/// `ACC_BUF_CAP` and replays, and the converged product is validated
/// against the host oracle before reporting.
///
/// # Panics
/// Panics if the run fails, never retries (the regime must actually
/// trap), or diverges from the oracle.
#[must_use]
pub fn spgemm_recovery_report() -> SpgemmRecoveryRow {
    let initial_cap = 4u32;
    let mut rng = gen::rng(0x000F_1652);
    let a = gen::csr_fixed_row_nnz::<u16>(&mut rng, 8, 24, 4);
    let b = gen::csr_fixed_row_nnz::<u16>(&mut rng, 24, 64, 24);
    let rec = run_spgemm_recover(Variant::Issr, &a, &b, initial_cap).expect("recovery run");
    assert!(rec.retries >= 1, "the overflow-recovery regime must trap at least once");
    let expect = reference::spgemm(&a, &b).with_index_width::<u32>();
    assert_eq!(rec.run.c.ptr(), expect.ptr(), "recovered product row pointers");
    assert_eq!(rec.run.c.idcs(), expect.idcs(), "recovered product column indices");
    for (got, want) in rec.run.c.vals().iter().zip(expect.vals()) {
        assert!(
            (got - want).abs() <= 1e-12 * want.abs().max(1.0),
            "recovered product values: {got} vs {want}"
        );
    }
    SpgemmRecoveryRow {
        initial_cap,
        final_cap: rec.final_cap,
        retries: rec.retries,
        cycles: rec.run.summary.cycles,
        peak_nnz: rec.run.summary.spacc_stats.peak_nnz,
    }
}

/// Gustavson expansion volume of `a · b` (the multiply count — SpGEMM's
/// useful-work denominator; the ISSR variant retires these as `fmul`,
/// not `fmadd`, so the CsrMV figure's pJ/fmadd does not apply).
fn spgemm_macs(a: &CsrMatrix<u16>, b: &CsrMatrix<u16>) -> u64 {
    (0..a.nrows()).map(|r| a.row(r).map(|(k, _)| b.row_range(k).len() as u64).sum::<u64>()).sum()
}

/// Largest leading principal window of `m` whose cluster SpGEMM plan
/// (operands, expansion-volume output bound, per-worker merge scratch)
/// fits the TCDM — the suite stand-ins themselves are sized for
/// main-memory CsrMV, not for a TCDM-resident product.
fn tcdm_window(m: &CsrMatrix<u16>) -> CsrMatrix<u16> {
    let budget = u64::from(issr_mem::map::TCDM_SIZE) * 8 / 10;
    let ladder = [m.nrows(), 384, 256, 192, 128, 96, 64, 48, 32, 16];
    for &k in ladder.iter().filter(|&&k| k <= m.nrows()) {
        let w = suite::principal_window(m, k);
        let nnz = w.nnz() as u64;
        let n = k as u64;
        let volume = spgemm_macs(&w, &w);
        let cap = volume.min(n * n);
        // CSR bytes: 4-byte row pointers, 2-byte indices, 8-byte values
        // (A and B alias the same matrix but are stored twice), plus the
        // 8-worker BASE ping-pong scratch the plan always reserves.
        let bytes = 2 * ((n + 1) * 4 + nnz * 10) + (n + 1) * 4 + cap * 10 + 8 * (n * 20 + 16);
        if bytes <= budget {
            return w;
        }
    }
    suite::principal_window(m, ladder[ladder.len() - 1].min(m.nrows()))
}

/// Sweeps cluster SpGEMM (`C = M·M`, BASE vs. ISSR) over TCDM-resident
/// windows of the named suite stand-ins and evaluates each run with the
/// power model — the energy tables' first sparse-output kernel. Energy
/// is per Gustavson expansion multiply (`macs`) of the `window`-sided
/// principal submatrix simulated.
///
/// # Panics
/// Panics if a named entry is missing or a cluster run fails.
#[must_use]
pub fn spgemm_suite_sweep(names: &[&str]) -> Table {
    let mut table = Table::new(&[
        ("name", "matrix", Fmt::Plain),
        ("window", "window", Fmt::Plain),
        ("nnz", "nnz", Fmt::Plain),
        ("c_nnz", "C nnz", Fmt::Plain),
        ("macs", "macs", Fmt::Plain),
        ("base_cycles", "BASE cyc", Fmt::Plain),
        ("issr_cycles", "ISSR cyc", Fmt::Plain),
        ("base_mw", "BASE mW", Fmt::Fixed(1)),
        ("issr_mw", "ISSR mW", Fmt::Fixed(1)),
        ("base_pj_per_mac", "BASE pJ/mac", Fmt::Fixed(1)),
        ("issr_pj_per_mac", "ISSR pJ/mac", Fmt::Fixed(1)),
        ("gain", "gain", Fmt::Times(2)),
    ]);
    let model = PowerModel::default();
    for &name in names {
        let entry = suite::by_name(name).expect("suite entry");
        let m = tcdm_window(&entry.build::<u16>());
        let base = run_cluster_spgemm(Variant::Base, &m, &m).expect("base cluster run");
        let issr = run_cluster_spgemm(Variant::Issr, &m, &m).expect("issr cluster run");
        let eb = model.evaluate(&base.summary);
        let ei = model.evaluate(&issr.summary);
        let macs = spgemm_macs(&m, &m).max(1);
        let base_pj = ratio(eb.total_nj * 1000.0, macs as f64);
        let issr_pj = ratio(ei.total_nj * 1000.0, macs as f64);
        table.push(vec![
            name.into(),
            m.nrows().into(),
            m.nnz().into(),
            issr.c.nnz().into(),
            macs.into(),
            base.summary.cycles.into(),
            issr.summary.cycles.into(),
            eb.avg_power_mw.into(),
            ei.avg_power_mw.into(),
            base_pj.into(),
            issr_pj.into(),
            ratio(base_pj, issr_pj).into(),
        ]);
    }
    table
}

/// The three sparsity regimes the SpGEMM binary sweeps: hypersparse
/// (tiny expansions, fixed overheads dominate), moderate (typical
/// graph/FEM-like fill), and dense-row (long accumulations, steady-state
/// merge throughput).
#[must_use]
pub fn default_spgemm_regimes() -> Vec<SpgemmRegime> {
    vec![
        SpgemmRegime {
            label: "hypersparse",
            nrows: 32,
            inner: 64,
            ncols: 96,
            a_row_nnz: 4,
            b_row_nnz: 4,
        },
        SpgemmRegime {
            label: "moderate",
            nrows: 24,
            inner: 64,
            ncols: 256,
            a_row_nnz: 4,
            b_row_nnz: 24,
        },
        SpgemmRegime {
            label: "dense-rows",
            nrows: 16,
            inner: 64,
            ncols: 512,
            a_row_nnz: 8,
            b_row_nnz: 48,
        },
    ]
}

/// Smaller regimes for the CI smoke run (same three shapes, scaled
/// down so the sweep finishes in seconds).
#[must_use]
pub fn smoke_spgemm_regimes() -> Vec<SpgemmRegime> {
    vec![
        SpgemmRegime {
            label: "hypersparse",
            nrows: 12,
            inner: 24,
            ncols: 32,
            a_row_nnz: 2,
            b_row_nnz: 3,
        },
        SpgemmRegime {
            label: "moderate",
            nrows: 10,
            inner: 24,
            ncols: 64,
            a_row_nnz: 3,
            b_row_nnz: 10,
        },
        SpgemmRegime {
            label: "dense-rows",
            nrows: 8,
            inner: 24,
            ncols: 128,
            a_row_nnz: 4,
            b_row_nnz: 20,
        },
    ]
}

// ---------------------------------------------------------------------
// Multi-cluster scaling (`--bin system`)
// ---------------------------------------------------------------------

/// An empty multi-cluster scaling table. `speedup` is against the
/// sweep's first row, under the heading `speedup_heading` (strong
/// scaling calls it a speedup, weak scaling an efficiency);
/// `contention` is the denied fraction of shared-interface DMA word
/// requests, `overlap_cycles` the cycles with DMA traffic and ROI
/// compute in flight together; power and energy come from the system
/// power model, and the last column divides the energy by `per`'s unit
/// of useful work.
fn scaling_table(speedup_heading: &'static str, per: EnergyPer) -> Table {
    let (key, heading) = match per {
        EnergyPer::Fmadd => ("pj_per_fmadd", "pJ/fmadd"),
        EnergyPer::Mac(_) => ("pj_per_mac", "pJ/mac"),
    };
    Table::new(&[
        ("n_clusters", "clusters", Fmt::Plain),
        ("cycles", "cycles", Fmt::Plain),
        ("speedup", speedup_heading, Fmt::Times(2)),
        ("contention", "contention", Fmt::Percent(1)),
        ("dma_stalls", "dma stalls", Fmt::Plain),
        ("overlap_cycles", "overlap cyc", Fmt::Plain),
        ("avg_power_mw", "power mW", Fmt::Fixed(0)),
        ("total_nj", "energy nJ", Fmt::Fixed(0)),
        (key, heading, Fmt::Fixed(1)),
    ])
}

/// The unit of useful work a scaling row's energy is divided by.
#[derive(Clone, Copy)]
enum EnergyPer {
    /// A retired fmadd (CsrMV).
    Fmadd,
    /// One of this many Gustavson expansion multiplies (SpGEMM, whose
    /// expansion retires `fmul`, not `fmadd`), as `--suite` divides.
    Mac(u64),
}

/// Appends one run to a [`scaling_table`] made with the same `per`.
fn push_scaling_row(
    table: &mut Table,
    summary: &issr_system::system::SystemSummary,
    per: EnergyPer,
) {
    let energy = PowerModel::default().evaluate_system(summary);
    let per_op = match per {
        EnergyPer::Fmadd => energy.pj_per_fmadd,
        EnergyPer::Mac(macs) => ratio(energy.total_nj * 1000.0, macs.max(1) as f64),
    };
    let first = if table.is_empty() { summary.cycles as f64 } else { table.f64(0, "cycles") };
    table.push(vec![
        summary.clusters.len().into(),
        summary.cycles.into(),
        ratio(first, summary.cycles as f64).into(),
        summary.contention_ratio().into(),
        summary.total_dma_stalls().into(),
        summary.overlap_cycles.into(),
        energy.avg_power_mw.into(),
        energy.total_nj.into(),
        per_op.into(),
    ]);
}

/// Strong-scaling sweep of system CsrMV (ISSR) over `counts` clusters
/// on one matrix. Every run is checked **bit-identical** against the
/// single-cluster kernel ([`run_cluster_csrmv`]) — the correctness gate
/// of the scale-out path.
///
/// # Panics
/// Panics if a run fails, traps, or diverges from the single-cluster
/// result by a single bit.
#[must_use]
pub fn system_csrmv_scaling(m: &CsrMatrix<u16>, x: &[f64], counts: &[usize]) -> Table {
    let single = run_cluster_csrmv(Variant::Issr, m, x).expect("single-cluster run");
    let reference: Vec<u64> = single.y.iter().map(|v| v.to_bits()).collect();
    let mut rows = scaling_table("speedup", EnergyPer::Fmadd);
    for &n in counts {
        let run = run_system_csrmv(Variant::Issr, m, x, n).expect("system run");
        let got: Vec<u64> = run.y.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, reference, "{n}-cluster CsrMV must be bit-identical");
        push_scaling_row(&mut rows, &run.summary, EnergyPer::Fmadd);
    }
    rows
}

/// Strong-scaling sweep of system SpGEMM (ISSR) over `counts` clusters.
/// Row pointers and indices are checked exactly against the host
/// oracle, and values **bit-identical across cluster counts**; panel
/// capacities can be clamped to force multi-panel runs on small inputs.
///
/// # Panics
/// Panics if a run fails, traps, or results diverge.
#[must_use]
pub fn system_spgemm_scaling(
    a: &CsrMatrix<u16>,
    b: &CsrMatrix<u16>,
    counts: &[usize],
    panel_caps: Option<(u32, u32)>,
) -> Table {
    use issr_system::system::SystemParams;
    let expect = reference::spgemm(a, b).with_index_width::<u32>();
    let n_workers = SystemParams::default().cluster.n_workers as u32;
    let per = EnergyPer::Mac(spgemm_macs(a, b));
    let mut rows = scaling_table("speedup", per);
    let mut reference_bits: Option<Vec<u64>> = None;
    for &n in counts {
        let plan = match panel_caps {
            Some((a_cap, c_cap)) => {
                SystemSpgemmPlan::with_panel_caps(Variant::Issr, a, b, n_workers, a_cap, c_cap)
            }
            None => SystemSpgemmPlan::new(Variant::Issr, a, b, n_workers),
        };
        let run = run_system_spgemm_planned(
            Variant::Issr,
            a,
            b,
            plan,
            SystemParams { n_clusters: n, ..SystemParams::default() },
        )
        .expect("system run");
        assert_eq!(run.c.ptr(), expect.ptr(), "{n}-cluster SpGEMM row pointers");
        assert_eq!(run.c.idcs(), expect.idcs(), "{n}-cluster SpGEMM indices");
        let bits: Vec<u64> = run.c.vals().iter().map(|v| v.to_bits()).collect();
        match &reference_bits {
            Some(r) => assert_eq!(&bits, r, "{n}-cluster SpGEMM values must be bit-identical"),
            None => reference_bits = Some(bits),
        }
        push_scaling_row(&mut rows, &run.summary, per);
    }
    rows
}

/// Weak-scaling sweep of system CsrMV (ISSR): per-cluster work held
/// constant by growing the matrix with the cluster count; the
/// `speedup` column reports the efficiency `T(1) / T(n)` (1.0 = perfect
/// weak scaling).
///
/// # Panics
/// Panics if a run fails or traps.
#[must_use]
pub fn system_csrmv_weak_scaling(
    rows_per_cluster: usize,
    ncols: usize,
    nnz_per_cluster: usize,
    counts: &[usize],
) -> Table {
    let mut out = scaling_table("efficiency", EnergyPer::Fmadd);
    for &n in counts {
        let mut rng = gen::rng(7_700 + n as u64);
        let m = gen::csr_uniform::<u16>(&mut rng, rows_per_cluster * n, ncols, nnz_per_cluster * n);
        let x = gen::dense_vector(&mut rng, ncols);
        let run = run_system_csrmv(Variant::Issr, &m, &x, n).expect("system run");
        let expect = reference::csrmv(&m, &x);
        assert!(
            issr_sparse::dense::allclose(&run.y, &expect, 1e-12, 1e-12),
            "weak-scaling {n}-cluster CsrMV diverged"
        );
        push_scaling_row(&mut out, &run.summary, EnergyPer::Fmadd);
    }
    out
}

/// Per-phase stall profile of one cluster SpGEMM run (ISSR-16 on
/// `a · b`), resolved by sampling each worker's PC against the
/// program's kernel symbols once per cycle: `row` is the row loop's
/// expansion, length read and drain, `chain` the wait on the
/// predecessor's offset and the publish of the next, `other` the
/// prologue. Host-side only — the kernel and the timing model are
/// untouched, so the profiled run's cycle count equals the unprofiled
/// one's.
///
/// # Panics
/// Panics if the kernel symbols are missing or the cluster times out.
#[must_use]
pub fn cluster_spgemm_phase_profile(
    a: &CsrMatrix<u16>,
    b: &CsrMatrix<u16>,
) -> issr_trace::PhaseProfile {
    use issr_cluster::cluster::{Cluster, ClusterParams};
    use issr_snitch::params::CcParams;
    let params = ClusterParams { cc: CcParams::sssr(), ..ClusterParams::default() };
    let plan = ClusterSpgemmPlan::new(a, b, params.n_workers as u32);
    let program = build_cluster_spgemm::<u16>(Variant::Issr, &plan);
    // Instruction index × 4 = byte PC (the fetch unit indexes by pc/4).
    let pc_of = |sym: &str| {
        u32::try_from(program.symbol(sym).expect("kernel symbol") * 4).expect("pc fits u32")
    };
    let end = u32::try_from(program.len() * 4).expect("pc fits u32");
    let mut profile = issr_trace::PhaseProfile::new(&[
        ("row", pc_of("issr_row"), end),
        ("chain", pc_of("chain"), pc_of("chain_end")),
    ]);
    let mut cluster = Cluster::new(program, params);
    plan.marshal(&mut cluster, a, b);
    let budget = 4_000_000 + 1024 * (a.nnz() + b.nnz() + a.nrows()) as u64;
    let mut cycles = 0u64;
    while !cluster.quiescent() {
        assert!(cycles < budget, "phase-profiled SpGEMM run exceeded its budget");
        cluster.tick();
        cycles += 1;
        for cc in &cluster.workers {
            if !cc.core.halted() {
                profile.sample(cc.core.pc(), cc.last_causes().hart);
            }
        }
    }
    profile
}

/// One instrumented system-CsrMV run: the summary whose per-cluster
/// stall-cause breakdowns the JSON telemetry emits, plus the Chrome
/// trace-event export (one track per hart, stream lane and DMA engine
/// per cluster).
#[derive(Clone, Debug)]
pub struct SystemAttributionReport {
    /// The run's system summary (per-cluster attribution included).
    pub summary: issr_system::system::SystemSummary,
    /// The Chrome trace-event document (loadable at `ui.perfetto.dev`).
    pub trace: issr_trace::Json,
}

/// Runs system CsrMV (ISSR) once with tracing enabled and
/// returns attribution + trace. The result is validated against the
/// host reference — tracing must not change a single bit.
///
/// # Panics
/// Panics if the run fails, traps, or diverges from the reference.
#[must_use]
pub fn system_csrmv_attribution(
    m: &CsrMatrix<u16>,
    x: &[f64],
    n_clusters: usize,
    trace_cap: usize,
) -> SystemAttributionReport {
    use issr_system::system::SystemParams;
    let (run, trace) = run_system_csrmv_traced(
        Variant::Issr,
        m,
        x,
        SystemParams { n_clusters, ..SystemParams::default() },
        trace_cap,
    )
    .expect("instrumented system run");
    let expect = reference::csrmv(m, x);
    assert!(
        issr_sparse::dense::allclose(&run.y, &expect, 1e-12, 1e-12),
        "instrumented system CsrMV diverged from the reference"
    );
    SystemAttributionReport { summary: run.summary, trace }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4a_limits_on_a_coarse_sweep() {
        let sweep = fig4a(&[256]);
        let r = |key| sweep.at_anchor(key);
        assert!((r("base") - 1.0 / 9.0).abs() < 0.02);
        assert!((r("ssr") - 1.0 / 7.0).abs() < 0.02);
        assert!(r("issr16") > r("issr32"), "16-bit wins at high nnz");
        assert!(r("issr16_m") >= r("issr16"));
        let util = sweep.anchor.metrics.fpu_utilization();
        assert_eq!(util, r("issr16"), "the anchor is the run the row shows");
    }

    #[test]
    fn fig4b_ordering() {
        let sweep = fig4b(&[64]);
        let r = |key| sweep.at_anchor(key);
        assert!(r("issr16") > r("issr32") && r("issr32") > r("ssr") && r("ssr") > 1.0);
    }

    #[test]
    fn csrmm_check_small_delta() {
        let delta = csrmm_check(&[("ragusa18", 2)]).f64(0, "delta");
        assert!(delta < 0.02, "delta {delta}");
    }

    /// The acceptance bar of the sparse-output subsystem: ISSR SpGEMM
    /// at least 3x over the software merge on every default regime.
    #[test]
    fn spgemm_issr_beats_base_on_every_regime() {
        let (rows, _) = spgemm_sweep(&smoke_spgemm_regimes());
        for row in &rows {
            assert!(
                row.speedup16() > 3.0,
                "{}: SpGEMM-16 speedup {:.2}",
                row.regime.label,
                row.speedup16()
            );
            assert!(
                row.speedup32() > 3.0,
                "{}: SpGEMM-32 speedup {:.2}",
                row.regime.label,
                row.speedup32()
            );
            assert!(row.spacc.pairs_in > 0, "SpAcc must carry the expansion");
            assert!(
                row.issr16 <= row.issr16_single,
                "{}: double buffering regressed ({} vs {})",
                row.regime.label,
                row.issr16,
                row.issr16_single
            );
        }
        // Regimes with long rows must actually win overlap cycles.
        assert!(
            rows.iter().any(|r| r.spacc.overlap_cycles > 0 && r.double_buffer_gain() > 0),
            "double-buffered drains must overlap feeds somewhere in the sweep"
        );
    }

    /// The overflow-recovery regime traps at least once, converges to a
    /// capacity no larger than the output width, and (inside the
    /// runner) matches the oracle.
    #[test]
    fn spgemm_recovery_regime_traps_and_recovers() {
        let row = spgemm_recovery_report();
        assert!(row.retries >= 1);
        assert!(row.final_cap > row.initial_cap);
        assert!(row.final_cap <= 64);
        assert!(row.peak_nnz <= u64::from(row.final_cap));
    }

    /// The suite energy sweep produces sane numbers for a small and a
    /// mid-size stand-in: finite positive power, ISSR no less
    /// energy-efficient per multiply than the software merge.
    #[test]
    fn spgemm_suite_energy_is_sane() {
        let rows = spgemm_suite_sweep(&["ragusa18", "tols2000"]);
        for i in 0..rows.len() {
            let v = |key| rows.f64(i, key);
            let what = rows.cell(i, "name");
            assert!(v("base_mw").is_finite() && v("base_mw") > 0.0, "{what}");
            assert!(v("issr_mw").is_finite() && v("issr_mw") > 0.0, "{what}");
            assert!(v("issr_cycles") < v("base_cycles"), "{what}");
            assert!(v("gain") > 1.0, "{what}");
        }
    }

    #[test]
    fn joiner_beats_software_merge_on_both_kernels() {
        let spvv = joiner_spvv(&[0.5], 0.5);
        let v = |key| spvv.at_anchor(key);
        assert!(v("speedup16") > 3.0, "SpVV∩ speedup {:.2}", v("speedup16"));
        assert!(v("speedup32") > 3.0, "SpVV∩-32 speedup {:.2}", v("speedup32"));
        assert!(v("joiner_util") > 0.2, "joiner util {:.3}", v("joiner_util"));
        let speedup16 = joiner_spmspv(&[128]).f64(0, "speedup16");
        assert!(speedup16 > 2.0, "SpMSpV speedup {speedup16:.2}");
    }
}
