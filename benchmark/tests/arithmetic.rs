//! Median/min/max, span self-time and `--compare` verdict arithmetic.

use issr_benchmark::compare::{judge, Side, Verdict};
use issr_benchmark::schema::Better;
use issr_benchmark::spans::{self_times_ns, Span, Spans};
use issr_benchmark::stats::{median, quantile, Summary};

#[test]
fn summary_is_median_min_max_and_count() {
    let s = Summary::of(&[5.0, 1.0, 9.0, 3.0]);
    assert_eq!((s.median, s.min, s.max, s.n), (4.0, 1.0, 9.0, 4));
    let odd = Summary::of(&[7.0, 2.0, 4.0]);
    assert_eq!((odd.median, odd.min, odd.max, odd.n), (4.0, 2.0, 7.0, 3));
    let empty = Summary::of(&[]);
    assert_eq!((empty.median, empty.n), (0.0, 0));
    assert_eq!(Summary::single(2.5), Summary { median: 2.5, min: 2.5, max: 2.5, n: 1 });
}

#[test]
fn quantiles_interpolate_between_ranks() {
    let v = [10.0, 20.0, 30.0, 40.0, 50.0];
    assert_eq!(median(&v), 30.0);
    assert_eq!(quantile(&v, 0.0), 10.0);
    assert_eq!(quantile(&v, 1.0), 50.0);
    assert_eq!(quantile(&v, 0.25), 20.0);
    assert!((quantile(&v, 0.99) - 49.6).abs() < 1e-9);
}

fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span { name: name.to_owned(), parent, case: None, start_ns, end_ns }
}

#[test]
fn self_time_is_duration_minus_children() {
    // pass [0, 100] > case [10, 90] > plan [10, 20], run [20, 80]
    let spans = [
        span("pass", None, 0, 100),
        span("case", Some(0), 10, 90),
        span("plan", Some(1), 10, 20),
        span("run", Some(1), 20, 80),
    ];
    assert_eq!(self_times_ns(&spans), [20, 10, 10, 60]);
}

#[test]
fn recorder_nests_spans_and_shares_case_ids() {
    let mut s = Spans::new();
    let root = s.open("workload", false);
    let case = s.open("a case", true);
    let stage = s.open("run", false);
    s.close();
    s.close();
    let other = s.open("another case", true);
    s.close_to(0);
    let all = s.all();
    assert_eq!(all[root].parent, None);
    assert_eq!(all[root].case, None);
    assert_eq!(all[case].parent, Some(root));
    assert_eq!(all[stage].parent, Some(case));
    assert_eq!(all[stage].case, Some(case), "a stage carries its case's id");
    assert_eq!(all[other].case, Some(other));
    assert_eq!(s.depth(), 0);
    assert!(all.iter().all(|sp| sp.end_ns >= sp.start_ns));
    let own = s.self_times_ns();
    assert_eq!(own[case], all[case].duration_ns() - all[stage].duration_ns());
    assert_eq!(s.total_ns_under("run", "a case"), all[stage].duration_ns());
    assert_eq!(s.total_ns_under("run", "another"), 0);
}

fn host(median: f64, min: f64, max: f64) -> Side {
    Side { median, min, max, exact: false }
}

fn count(v: f64) -> Side {
    Side { median: v, min: v, max: v, exact: true }
}

#[test]
fn verdicts_follow_the_bound_and_the_spread() {
    // Tight, equal: within bound.
    let a = host(100.0, 99.0, 101.0);
    assert_eq!(judge(a, host(101.0, 100.5, 102.0), Better::Lower, 0.10), Verdict::WithinBound);
    // Disjoint and beyond the bound, lower is better.
    assert_eq!(judge(a, host(120.0, 118.0, 122.0), Better::Lower, 0.10), Verdict::Worse);
    assert_eq!(judge(a, host(80.0, 79.0, 81.0), Better::Lower, 0.10), Verdict::Better);
    // The same numbers when higher is better.
    assert_eq!(judge(a, host(120.0, 118.0, 122.0), Better::Higher, 0.10), Verdict::Better);
    assert_eq!(judge(a, host(80.0, 79.0, 81.0), Better::Higher, 0.10), Verdict::Worse);
    // Ranges that overlap by more than the bound cannot be told apart.
    let noisy = host(100.0, 70.0, 130.0);
    assert_eq!(judge(noisy, host(105.0, 75.0, 135.0), Better::Lower, 0.10), Verdict::Unresolved);
}

#[test]
fn counts_compare_exactly() {
    assert_eq!(judge(count(1000.0), count(1000.0), Better::Lower, 0.001), Verdict::WithinBound);
    // One cycle in a thousand is inside a 0.1% bound, and still a change.
    assert_eq!(judge(count(1000.0), count(1001.0), Better::Lower, 0.01), Verdict::Worse);
    assert_eq!(judge(count(1000.0), count(999.0), Better::Lower, 0.01), Verdict::Better);
    assert_eq!(judge(count(0.5), count(0.6), Better::Higher, 0.01), Verdict::Better);
}

#[test]
fn compare_takes_the_median_and_the_range_over_the_runs_of_each_file() {
    use issr_benchmark::compare::compare;
    use issr_benchmark::schema::Schema;
    use issr_trace::Json;
    let file = |speeds: [f64; 3], cycles: u64| {
        let runs: Vec<String> = speeds
            .iter()
            .map(|s| {
                format!(
                    r#"{{"workloads":{{"cc_stream":{{"end_to_end":{{
                        "sim_cycles_per_s":{{"kind":"host","value":{s}}},
                        "issr_cycles":{{"kind":"count","value":{cycles}}}}}}}}}}}"#
                )
            })
            .collect();
        Json::parse(&format!(r#"{{"runs":[{}]}}"#, runs.join(","))).expect("parses")
    };
    let (a, b) = (file([100.0, 102.0, 98.0], 1000), file([60.0, 61.0, 59.0], 1001));
    let rows = compare(&Schema::committed(), &a, &b);
    let verdict = |workload: &str, metric: &str| {
        rows.iter().find(|r| r.workload == workload && r.metric == metric).expect("row").verdict
    };
    // Two fifths slower, ranges apart: worse. One cycle more: worse, exactly.
    assert_eq!(verdict("cc_stream", "sim_cycles_per_s"), Verdict::Worse);
    assert_eq!(verdict("cc_stream", "issr_cycles"), Verdict::Worse);
    assert_eq!(verdict("cc_stream", "setup_s"), Verdict::Missing);
    assert_eq!(verdict("tiny_runs", "issr_cycles"), Verdict::Missing);
    let side =
        rows.iter().find(|r| r.metric == "sim_cycles_per_s").and_then(|r| r.a).expect("side");
    assert_eq!((side.median, side.min, side.max), (100.0, 98.0, 102.0));
    // The same file against itself: nothing moved.
    assert!(compare(&Schema::committed(), &a, &a)
        .iter()
        .all(|r| matches!(r.verdict, Verdict::WithinBound | Verdict::Missing)));
}
