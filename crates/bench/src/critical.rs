//! Critical-path sections for the `BENCH_*.json` envelopes.
//!
//! The multi-cluster blame rule ([`system_critical_path`]; single-CC
//! and cluster summaries carry theirs as `attr.critical_path()`), plus
//! the one JSON section every bench binary emits: the exact cycle
//! partition (`compute` + per-edge cycles == `length`), the dominant
//! edge with its what-if savings bound, and a cross-check against the
//! roofline verdict the same envelope already carries — two
//! independent models that should (and are reported whether they)
//! agree on what the run is bound by.

use issr_cluster::cluster::longest_roi;
use issr_snitch::attr::CcAttribution;
use issr_system::system::SystemSummary;
use issr_trace::analyze::Verdict;
use issr_trace::{CriticalPath, Json};

/// The critical path of a multi-cluster run: blame walk from the
/// worker with the longest ROI across all clusters — the rule
/// [`ClusterAttribution::critical_path`] applies inside one — falling
/// back to the DMCCs when no worker opened an ROI. One hart's ROI, so
/// never longer than the run.
///
/// [`ClusterAttribution::critical_path`]:
/// issr_cluster::cluster::ClusterAttribution::critical_path
#[must_use]
pub fn system_critical_path(summary: &SystemSummary) -> CriticalPath {
    let attrs = || summary.clusters.iter().map(|c| &c.attr);
    longest_roi(attrs().flat_map(|a| &a.workers))
        .or_else(|| longest_roi(attrs().map(|a| &a.dmcc)))
        .map(CcAttribution::critical_path)
        .unwrap_or_default()
}

/// The `critical_path` envelope section: the path's own fields plus the
/// roofline cross-check. `verdict_bound` restates the envelope's
/// roofline classification, `suggested_bound` is what the blame walk
/// alone would conclude, and `agrees` is their comparison — a cheap
/// tripwire for either model drifting.
#[must_use]
pub fn critical_path_section(path: &CriticalPath, verdict: &Verdict) -> Json {
    let mut fields = match path.to_json() {
        Json::Obj(fields) => fields,
        other => return other,
    };
    let suggested = path.suggested_bound();
    fields.push(("suggested_bound".to_owned(), Json::from(suggested.label())));
    fields.push(("verdict_bound".to_owned(), Json::from(verdict.bound.label())));
    fields.push(("agrees".to_owned(), Json::from(suggested == verdict.bound)));
    Json::Obj(fields)
}

/// The human one-liner printed next to the verdict line: dominant edge,
/// its savings bound, and the partition it came from.
#[must_use]
pub fn critical_path_line(label: &str, path: &CriticalPath) -> String {
    match path.dominant() {
        Some(edge) => format!(
            "critical-path[{label}]: {} cycles = {} compute + {} blocked; \
             dominant edge {} (eliminating it saves <= {} cycles)",
            path.length,
            path.compute,
            path.blocked(),
            edge.label(),
            path.get(edge),
        ),
        None => format!(
            "critical-path[{label}]: {} cycles, all compute — no blocking edges",
            path.length
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use issr_kernels::cluster_csrmv::run_cluster_csrmv;
    use issr_kernels::variant::Variant;
    use issr_sparse::gen;

    /// A real cluster run yields an exactly partitioned path whose JSON
    /// section carries the cross-check keys.
    #[test]
    fn cluster_critical_path_partitions_exactly() {
        let mut rng = gen::rng(0x000F_1701);
        let m = gen::csr_fixed_row_nnz::<u16>(&mut rng, 64, 64, 12);
        let x = gen::dense_vector(&mut rng, 64);
        let run = run_cluster_csrmv(Variant::Issr, &m, &x).expect("run");
        let path = run.summary.attr.critical_path();
        assert!(path.length > 0);
        assert_eq!(path.compute + path.blocked(), path.length, "exact partition");
        let verdict = crate::verdict::cluster_verdict(&run.summary);
        let section = critical_path_section(&path, &verdict);
        assert_eq!(section.get("length").and_then(Json::as_int), Some(path.length as i64));
        assert!(section.get("suggested_bound").and_then(Json::as_str).is_some());
        assert!(section.get("verdict_bound").and_then(Json::as_str).is_some());
        assert!(section.get("agrees").is_some());
        let edges = section.get("edges").expect("edges object");
        let Json::Obj(pairs) = edges else { panic!("edges must be an object") };
        let sum: i64 = pairs.iter().filter_map(|(_, v)| v.as_int()).sum();
        assert_eq!(sum as u64, path.blocked(), "edge attribution sums to the blocked share");
        assert!(critical_path_line("test", &path).contains("cycles"));
    }

    /// The system path is the longest single worker ROI of any cluster
    /// — not same-index harts of all clusters summed — so it fits
    /// inside the run it explains.
    #[test]
    fn system_critical_path_is_one_worker_and_fits_the_run() {
        use issr_kernels::system_csrmv::run_system_csrmv;
        let mut rng = gen::rng(0x000F_1702);
        let m = gen::csr_uniform::<u16>(&mut rng, 200, 128, 3_000);
        let x = gen::dense_vector(&mut rng, 128);
        let run = run_system_csrmv(Variant::Issr, &m, &x, 2).expect("run");
        let path = system_critical_path(&run.summary);
        let longest = run
            .summary
            .clusters
            .iter()
            .flat_map(|c| &c.attr.workers)
            .map(CcAttribution::roi_cycles)
            .max()
            .expect("workers");
        assert!(longest > 0, "both clusters' workers open an ROI");
        assert_eq!(path.length, longest);
        assert!(path.length <= run.summary.cycles, "a path is never longer than the run");
        assert_eq!(path.compute + path.blocked(), path.length, "exact partition");
    }
}
