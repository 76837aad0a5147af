//! Host fingerprint and peak memory: what a sim-cycles/s number must
//! carry to be comparable with one from another commit or machine.

use std::process::Command;

/// Where the numbers were taken.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First line of `rustc -V`, or `unknown`.
    pub rustc: String,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
    /// `git rev-parse HEAD` of the checkout, or `unknown` outside a
    /// git repository (the driver's checkouts are none).
    pub commit: String,
}

impl Fingerprint {
    /// Probes the host. Spawns `rustc` and `git` and waits for both.
    #[must_use]
    pub fn probe() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            rustc: first_line(Command::new("rustc").arg("-V")),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            commit: if std::path::Path::new(".git").exists() {
                first_line(Command::new("git").args(["rev-parse", "HEAD"]))
            } else {
                "unknown".to_owned()
            },
        }
    }
}

fn first_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Resets the kernel's peak-RSS mark of this process to its current
/// RSS, so that under `--all` a workload does not inherit the peak of
/// the one before it. Best effort: where `/proc/self/clear_refs` is
/// missing or read-only the mark simply stays.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`); 0 where the file or the field is missing.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
