//! `issr-lint` CLI: statically verify every shipped kernel program.
//!
//! ```text
//! cargo run -p issr-lint --bin lint [-- --deny-warnings]
//! ```
//!
//! Each catalog entry is linted against the `CcParams` it runs on (see
//! `issr_lint::lint_shipped`). Exit status is nonzero on any error, or —
//! under `--deny-warnings` — on any diagnostic at all.

use std::process::ExitCode;

use issr_lint::{has_errors, lint_shipped};

fn main() -> ExitCode {
    let mut deny_warnings = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--deny-warnings" => deny_warnings = true,
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: cargo run -p issr-lint --bin lint [-- --deny-warnings]");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut programs = 0usize;
    let mut diagnostics = 0usize;
    let mut errors = 0usize;
    for (name, diags) in lint_shipped() {
        programs += 1;
        if has_errors(&diags) {
            errors += 1;
        }
        diagnostics += diags.len();
        for d in &diags {
            println!("{name}: {d}");
        }
    }
    println!(
        "issr-lint: {programs} program{} checked, {diagnostics} diagnostic{}, \
         {errors} with errors",
        if programs == 1 { "" } else { "s" },
        if diagnostics == 1 { "" } else { "s" },
    );
    if errors > 0 || (deny_warnings && diagnostics > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
