//! # issr-lint
//!
//! Static verification of guest kernel programs *before they ever
//! tick*: a control-flow graph plus a forward abstract-interpretation
//! pass over the stream-unit state a program would build up — per-lane
//! shadow `scfg` writes, joiner and SpAcc job launches, the `ssr`
//! redirection CSR, and FREP sequencer windows.
//!
//! The SSR/ISSR programming model is easy to misconfigure, which is why
//! the runtime latches [`issr_core::CfgFault`] /
//! [`issr_core::StreamFault`] traps — but every one of those costs a
//! full simulation to discover, and a serving layer must reject
//! malformed tenant jobs before they occupy a cluster. This crate moves
//! every *statically decidable* instance of that checking to assemble
//! time. Both the linter and the runtime go through the same predicates
//! in [`issr_core::cfg_check`], and both read the same machine
//! description: [`lint_program`] takes the [`CcParams`] the simulator is
//! built from (its streamer and FREP buffer depth), so the static
//! verdict and the trap surface cannot drift apart.
//!
//! What the analyzer catches:
//!
//! 1. **Stream-register use before a job is launched** — an FP
//!    instruction sourcing `ft0`/`ft1` under an enabled `ssr` CSR on a
//!    path where no read job (pointer write, joiner launch) ever
//!    configured the lane. At runtime this is a silent deadlock: the
//!    lane FIFO never fills, the FPU stalls forever, and the run ends
//!    in `SimTimeout` — the most expensive possible way to find a bug.
//! 2. **Malformed FREP bodies** — branches, `scfg` accesses, `ssr` CSR
//!    toggles, nested FREPs or `halt` inside the sequencer capture
//!    window, bodies larger than the sequencer buffer, empty bodies,
//!    and `frep.s` loops whose body reads no stream source (they retire
//!    after zero iterations).
//! 3. **Port-conflict schedules** — a lane job launched on the SpAcc's
//!    port while a feed is active, or on a joiner-owned lane, or a
//!    joiner launch overlapping an active SpAcc job: the schedules that
//!    latch [`StreamFaultKind::PortConflict`] at runtime.
//! 4. **Configuration faults** — every launch the runtime would reject
//!    with a [`CfgFault`] (bad lane, missing joiner/SpAcc hardware,
//!    zero-capacity feed, count-mode drain, misaligned drain bases,
//!    indirection on a plain SSR lane, joiner-enabled pointer writes
//!    outside the launch register), proved through constant propagation
//!    over the shadow registers.
//! 5. **Dead and unreachable code** — unreachable instructions (but not
//!    the line-alignment padding `Assembler::align` records) and stream
//!    cfg writes never consumed by any launch.
//!
//! The pass is a *must*-analysis: a diagnostic is only emitted when the
//! fault provably occurs on every execution reaching that instruction,
//! so well-formed kernels — including every kernel shipped in
//! `issr-kernels` — lint clean, and a flagged launch is one the runtime
//! would provably trap (test-enforced against the simulator).

#![forbid(unsafe_code)]

mod absint;
mod cfgraph;
mod liveness;

use issr_core::{CfgFault, StreamFault, StreamFaultKind};
use issr_isa::asm::Program;
use issr_snitch::params::CcParams;

/// How bad a finding is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// The program misbehaves at runtime: a latched trap (stream,
    /// access or sequencer fault) or a silent deadlock.
    Error,
    /// The program works but carries dead weight: unreachable code,
    /// unconsumed cfg writes, zero-trip stream loops.
    Warning,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Error => f.write_str("error"),
            Severity::Warning => f.write_str("warning"),
        }
    }
}

/// Cross-reference from a diagnostic to the runtime trap surface: what
/// the simulator would do at this program point.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FaultClass {
    /// The launch latches exactly this [`CfgFault`] (same PC, same
    /// payload — the trap records the faulting `scfgwi`/`scfgri`).
    Cfg(CfgFault),
    /// The schedule latches this [`StreamFault`] mid-stream (the trap
    /// PC is the delivery vicinity, not the launch).
    Stream(StreamFault),
    /// No trap at all: the stream units deadlock and the run ends in
    /// `SimTimeout` after the full cycle budget.
    Hang,
    /// The FREP sequencer (or FPU capture path) rejects the offloaded
    /// stream: the core complex parks on `TrapCause::SequencerFault`
    /// (the trap PC is the delivery vicinity). Control flow leaving a
    /// capture window, which the sequencer cannot see, traps once the
    /// core halts with the capture still open.
    Sequencer,
    /// Control flow leaves the program: the core traps `PcOutOfRange`.
    PcOutOfRange,
    /// No runtime manifestation — wasted instructions.
    Dead,
}

impl FaultClass {
    /// Short class code used in the rendered diagnostic.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            FaultClass::Cfg(_) => "cfg",
            FaultClass::Stream(_) => "stream",
            FaultClass::Hang => "hang",
            FaultClass::Sequencer => "frep",
            FaultClass::PcOutOfRange => "pc",
            FaultClass::Dead => "dead",
        }
    }
}

/// One finding: severity, the byte PC it anchors to (the same PC a
/// runtime trap would record for cfg faults), the fault-class
/// cross-reference, and a human-readable message.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Byte address of the offending instruction (instruction index × 4
    /// — the unit `Trap::pc` uses).
    pub pc: u32,
    /// Error (runtime misbehaviour) or warning (dead weight).
    pub severity: Severity,
    /// What the runtime would do here.
    pub class: FaultClass,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}] {:#010x}: {}", self.severity, self.class.code(), self.pc, self.message)
    }
}

/// The machine a program is linted against: the same [`CcParams`] its
/// simulator is built from. The linter reads `streamer` (lane kinds,
/// joiner, SpAcc) and `frep_buffer`. A second name kept for callers
/// that still spell `LintTarget::{paper, sssr}`.
pub type LintTarget = CcParams;

/// Where a fault class is decidable: at assemble time or only once the
/// data arrives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decidability {
    /// The linter proves the fault from the program text alone.
    Static,
    /// The fault depends on runtime data (actual indices, row lengths,
    /// timing) — only the trap surface can catch it.
    RuntimeOnly,
}

/// Classifies every [`CfgFault`] class. The `match` is
/// deliberately exhaustive (no wildcard): adding a fault variant fails
/// compilation here until it is classified.
#[must_use]
pub fn classify_cfg_fault(fault: &CfgFault) -> Decidability {
    match fault {
        // Every configuration fault is a pure function of the shadow
        // state the program itself wrote — constant propagation decides
        // all of them when the operands are program constants.
        CfgFault::BadLane { .. }
        | CfgFault::NoJoiner
        | CfgFault::NoSpAcc
        | CfgFault::ZeroCapacity
        | CfgFault::NoIndirection { .. }
        | CfgFault::BadJoinerLaunch { .. }
        | CfgFault::MisalignedDrain { .. } => Decidability::Static,
    }
}

/// Classifies every [`StreamFaultKind`] variant — exhaustive for
/// the same reason as [`classify_cfg_fault`].
#[must_use]
pub fn classify_stream_fault(kind: &StreamFaultKind) -> Decidability {
    match kind {
        // Whether a merged row overflows, a feed's indices are sorted,
        // or a unit's watchdog expires depends on the data streamed at
        // runtime. (The *never-configured* special case of a stall — a
        // stream register read with no job — is caught statically as a
        // `FaultClass::Hang`.)
        StreamFaultKind::Overflow { .. }
        | StreamFaultKind::Unsorted { .. }
        | StreamFaultKind::Stall { .. } => Decidability::RuntimeOnly,
        // Port ownership is schedule-determined: two launches on one
        // port conflict regardless of the data.
        StreamFaultKind::PortConflict => Decidability::Static,
    }
}

/// Lints an assembled program against the core complex `params`
/// describes — the value its simulator is built from. Diagnostics come
/// back sorted by PC, errors before warnings at the same PC.
#[must_use]
pub fn lint_program(program: &Program, params: &CcParams) -> Vec<Diagnostic> {
    let instrs = program.instrs();
    let mut diags = Vec::new();
    if instrs.is_empty() {
        diags.push(Diagnostic {
            pc: 0,
            severity: Severity::Error,
            class: FaultClass::PcOutOfRange,
            message: "empty program: the fetch of the first instruction traps".into(),
        });
        return diags;
    }
    let cfg = cfgraph::Cfg::build(instrs);
    cfg.structural_diagnostics(&mut diags);
    let states = absint::analyze(instrs, &cfg, params);
    absint::report(instrs, &cfg, params, &states, &mut diags);
    liveness::report(program, &cfg, params, &mut diags);
    diags.sort_by_key(|d| (d.pc, d.severity));
    diags
}

/// Whether any diagnostic in `diags` is an error.
#[must_use]
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Lints `program` and panics with the rendered findings if any
/// diagnostic (error *or* warning) comes back — the load-time gate the
/// examples and benches run before handing a program to a simulator.
///
/// # Panics
/// Panics if the program produces any diagnostic.
pub fn assert_clean(program: &Program, params: &CcParams, what: &str) {
    assert_no_diagnostics(&lint_program(program, params), what);
}

fn assert_no_diagnostics(diags: &[Diagnostic], what: &str) {
    assert!(
        diags.is_empty(),
        "issr-lint: {what} failed static verification:\n{}",
        diags.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

/// Lints every program in the shipped-kernel catalog
/// ([`issr_kernels::catalog`](fn@issr_kernels::catalog)) against the
/// core complex it runs on: [`CcParams::sssr`] for the joiner and SpAcc
/// kernels, [`CcParams::paper`] for the rest. Yields each entry's name
/// and diagnostics, in catalog order.
pub fn lint_shipped() -> impl Iterator<Item = (String, Vec<Diagnostic>)> {
    issr_kernels::catalog::catalog().into_iter().map(|entry| {
        let params = if entry.needs_sparse_units { CcParams::sssr() } else { CcParams::paper() };
        let diags = lint_program(&entry.program, &params);
        (entry.name, diags)
    })
}

/// [`lint_shipped`] as the one-call load-time gate the bench binaries
/// and examples run before handing anything to a simulator.
///
/// # Panics
/// Panics if any shipped kernel produces a diagnostic.
pub fn assert_shipped_clean() {
    for (name, diags) in lint_shipped() {
        assert_no_diagnostics(&diags, &name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_every_variant() {
        let cfg_faults = [
            CfgFault::BadLane { lane: 2 },
            CfgFault::NoJoiner,
            CfgFault::NoSpAcc,
            CfgFault::ZeroCapacity,
            CfgFault::NoIndirection { lane: 0 },
            CfgFault::BadJoinerLaunch { lane: 1 },
            CfgFault::MisalignedDrain { idx_out: 1, val_out: 4 },
        ];
        for f in &cfg_faults {
            assert_eq!(classify_cfg_fault(f), Decidability::Static, "{f}");
        }
        assert_eq!(classify_stream_fault(&StreamFaultKind::PortConflict), Decidability::Static);
        for k in [
            StreamFaultKind::Overflow { cap: 4 },
            StreamFaultKind::Unsorted { prev: 3, next: 1 },
            StreamFaultKind::Stall { cycles: 100 },
        ] {
            assert_eq!(classify_stream_fault(&k), Decidability::RuntimeOnly);
        }
    }

    #[test]
    fn empty_program_is_an_error() {
        let p = Program::default();
        let diags = lint_program(&p, &CcParams::paper());
        assert!(has_errors(&diags));
        assert_eq!(diags[0].class, FaultClass::PcOutOfRange);
    }

    #[test]
    fn diagnostic_renders_with_class_code_and_pc() {
        let d = Diagnostic {
            pc: 0x18,
            severity: Severity::Error,
            class: FaultClass::Cfg(CfgFault::NoJoiner),
            message: "joiner job launched on a streamer without an index joiner".into(),
        };
        let s = d.to_string();
        assert!(s.starts_with("error[cfg] 0x00000018:"), "{s}");
    }
}
