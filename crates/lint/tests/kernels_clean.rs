//! Gate: every shipped kernel program lints clean — zero diagnostics,
//! warnings included. A kernel that trips the analyzer means either the
//! kernel is wrong or the analyzer over-approximates a legal schedule;
//! both must be fixed before shipping.

use issr_core::{CfgFault, HwCaps};
use issr_kernels::catalog::catalog;
use issr_kernels::streaming::{build_codebook_spvv, CodebookSpvvAddrs};
use issr_kernels::variant::KernelIndex;
use issr_lint::{assert_clean, assert_shipped_clean, lint_program, FaultClass};
use issr_snitch::params::CcParams;

#[test]
fn every_shipped_kernel_lints_clean() {
    assert_eq!(catalog().len(), 58, "the gate must see every builder in every shape");
    assert_shipped_clean();
}

/// The non-sparse-unit kernels must also be clean under the *larger*
/// hardware configuration: extra units never make a legal program
/// illegal.
#[test]
fn paper_kernels_also_clean_on_sssr_hardware() {
    let sssr = CcParams::sssr();
    for entry in catalog() {
        assert_clean(&entry.program, &sssr, &entry.name);
    }
}

/// Codebook SpVV streams both operands through ISSRs, so it is clean on
/// the two-ISSR streamer it runs on ([`HwCaps::CODEBOOK`], as
/// `run_codebook_spvv` builds it) — and faults on the paper's lane 0 (a
/// plain SSR), which is why it has no place in a catalog whose entries
/// run on either the paper or the SSSR core complex.
#[test]
fn codebook_spvv_is_clean_on_two_issrs_only() {
    fn check<I: KernelIndex>(what: &str) {
        let program = build_codebook_spvv::<I>(CodebookSpvvAddrs {
            codebook: 0x0030_0000,
            dense: 0x0030_0100,
            codes: 0x0030_1100,
            idcs: 0x0030_1200,
            out: 0x0030_1300,
            n: 40,
        });
        let two_issrs = CcParams { streamer: HwCaps::CODEBOOK, ..CcParams::paper() };
        assert_clean(&program, &two_issrs, what);
        let on_paper = lint_program(&program, &CcParams::paper());
        assert!(
            on_paper
                .iter()
                .any(|d| d.class == FaultClass::Cfg(CfgFault::NoIndirection { lane: 0 })),
            "{what} on the paper target: {on_paper:?}"
        );
    }
    check::<u16>("codebook_spvv/issr/u16");
    check::<u32>("codebook_spvv/issr/u32");
}
