//! `issr-benchmark`: runs a named workload and prints every metric by
//! name with its unit; the last line of standard output is the result
//! object the driver reads.
//!
//! ```text
//! issr-benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--quick]
//! issr-benchmark --all [--seed <u64>] [--seconds <n>] [--trace] [--quick] [--out <runs.json>]
//! issr-benchmark --compare <a.json> <b.json>
//! ```

use issr_benchmark::compare::{compare, table};
use issr_benchmark::host::Fingerprint;
use issr_benchmark::report::Report;
use issr_benchmark::runner::{run, Options};
use issr_benchmark::schema::Schema;
use issr_benchmark::{budget_s, workloads, DEFAULT_SEED};
use issr_trace::json::obj;
use issr_trace::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--all" => a.all = true,
            "--seed" => a.seed = value("a u64")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                // The driver passes `--trace 0|1`; a bare `--trace` means 1.
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(PathBuf::from(value("a path")?)),
            "--compare" => {
                a.compare =
                    Some((PathBuf::from(value("two paths")?), PathBuf::from(value("two paths")?)));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// `benchmark/out` from the repo root, `out` from inside the package.
fn out_dir() -> PathBuf {
    if Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Adds `run` to the runs the result file at `path` already holds: one
/// side of a comparison is as many runs as were made of it.
fn append_run(path: &Path, run: Json) -> Result<(), String> {
    let mut runs = match path.exists().then(|| load(path)).transpose()? {
        Some(doc) => {
            doc.get("runs").and_then(Json::as_arr).map(<[Json]>::to_vec).unwrap_or_default()
        }
        None => Vec::new(),
    };
    runs.push(run);
    write_file(path, &obj(vec![("runs", Json::Arr(runs))]).to_string())
}

fn run_compare(schema: &Schema, a: &Path, b: &Path) -> Result<ExitCode, String> {
    print!("{}", table(&compare(schema, &load(a)?, &load(b)?)));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let started = Instant::now();
    match real_main(started) {
        Ok(code) => code,
        Err(what) => {
            eprintln!("issr-benchmark: {what}");
            ExitCode::from(2)
        }
    }
}

fn real_main(started: Instant) -> Result<ExitCode, String> {
    let args = parse_args()?;
    let schema = Schema::committed();
    if let Some((a, b)) = &args.compare {
        return run_compare(&schema, a, b);
    }
    let names: Vec<String> = match (&args.workload, args.all) {
        (Some(name), false) => vec![name.clone()],
        (None, true) => workloads::NAMES.iter().map(|&n| n.to_owned()).collect(),
        _ => {
            return Err("give exactly one of --workload <name>, --all, --compare <a> <b>".to_owned())
        }
    };
    let seconds = args.seconds.unwrap_or(schema.run_seconds);
    let host = Fingerprint::probe();
    let budget = budget_s(seconds, args.trace, args.quick);

    let mut entries = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut last_line = String::new();
    let mut run_started = started;
    for name in &names {
        issr_benchmark::host::reset_peak_rss();
        let options = Options {
            workload: name.clone(),
            seed: args.seed,
            seconds,
            trace: args.trace,
            quick: args.quick,
            corrupt_oracle: false,
            started: run_started,
        };
        let measured = run(&options).ok_or_else(|| {
            format!("no workload `{name}`; the workloads are {:?}", workloads::NAMES)
        })?;
        let report = Report::new(&measured);
        print!("{}", report.text(&schema, &host, budget)?);
        if let Some(t) = &measured.traced {
            let path = out_dir().join(format!("{name}.spans.json"));
            write_file(&path, &t.spans.to_json().to_string())?;
            println!("# spans written to {}", path.display());
        }
        last_line = report.result_line(&schema)?;
        attempted += measured.attempted;
        failed += measured.failed;
        entries.push((name.clone(), report.to_json()));
        run_started = Instant::now();
    }

    let total_s = started.elapsed().as_secs_f64();
    let total_budget = budget * names.len() as f64;
    if let Some(path) = &args.out {
        let run = obj(vec![
            ("seed", Json::from(args.seed)),
            ("seconds", Json::Float(seconds)),
            ("nproc", Json::from(host.nproc)),
            ("rustc", Json::from(host.rustc.as_str())),
            ("profile", Json::from(host.profile)),
            ("commit", Json::from(host.commit.as_str())),
            ("wall_s", Json::Float(total_s)),
            ("budget_s", Json::Float(total_budget)),
            ("workloads", Json::Obj(entries)),
        ]);
        append_run(path, run)?;
        println!("# run appended to {}", path.display());
    }
    if args.all {
        println!(
            "# all {} workloads: wall {total_s:.1} s of a {total_budget:.0} s budget",
            names.len()
        );
        last_line = obj(vec![
            ("correct", Json::from(failed == 0)),
            ("attempted", Json::from(attempted.max(1))),
            ("failed", Json::from(failed)),
            ("metrics", Json::Obj(Vec::new())),
        ])
        .to_string();
    }
    println!("{last_line}");
    // The whole set must stay inside its stated budget, or sim-cycles/s
    // numbers from different commits stop being comparable.
    if args.all && total_s > total_budget {
        return Err(format!("the set took {total_s:.1} s, over its {total_budget:.0} s budget"));
    }
    Ok(ExitCode::SUCCESS)
}
