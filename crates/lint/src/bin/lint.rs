//! `issr-lint` CLI: statically verify every shipped kernel program.
//!
//! ```text
//! cargo run -p issr-lint --bin lint [-- --deny-warnings]
//! ```
//!
//! Each catalog entry is linted against the hardware configuration it
//! targets (the paper's two-lane SSR+ISSR core, or the sparse-sparse
//! configuration with joiner and SpAcc for the intersection and
//! sparse-output kernels). Exit status is nonzero on any error, or —
//! under `--deny-warnings` — on any diagnostic at all.

use std::process::ExitCode;

use issr_kernels::catalog::catalog;
use issr_lint::{has_errors, lint_program, LintTarget};

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

    let paper = LintTarget::paper();
    let sssr = LintTarget::sssr();
    let mut programs = 0usize;
    let mut diagnostics = 0usize;
    let mut errors = 0usize;
    for entry in catalog() {
        let target = if entry.needs_sparse_units { &sssr } else { &paper };
        programs += 1;
        let diags = lint_program(&entry.program, target);
        if has_errors(&diags) {
            errors += 1;
        }
        diagnostics += diags.len();
        for d in &diags {
            println!("{}: {d}", entry.name);
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
