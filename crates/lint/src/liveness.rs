//! Check (5): dead and unreachable code.
//!
//! Unreachable instructions fall out of the CFG's reachability pass.
//! Dead *configuration writes* — `scfgwi` to a stored shadow cell that
//! no launch or readback ever consumes — need a backward may-liveness
//! analysis over the `(lane, cell)` bit-space: a launch consumes the
//! whole shadow of every lane (joiner and SpAcc launches decode cells
//! across the address space, and being conservative here only silences
//! warnings, never truth), a readback consumes its one cell, and a
//! rewrite kills the previous value.
//!
//! Both analyses are may-analyses feeding *warnings*: anything a `jalr`
//! could reach is assumed live, and unreachable-code reporting is
//! suppressed entirely when one is present.

use issr_core::cfg::{reg, split_addr};
use issr_core::cfg_check::is_pointer_reg;
use issr_isa::asm::Program;
use issr_isa::instr::Instr;
use issr_snitch::params::CcParams;

use crate::absint::{cell_slot, reg_name, N_CELLS};
use crate::cfgraph::Cfg;
use crate::{Diagnostic, FaultClass, Severity};

pub(crate) fn report(program: &Program, cfg: &Cfg, params: &CcParams, diags: &mut Vec<Diagnostic>) {
    unreachable_runs(program, cfg, diags);
    dead_cfg_writes(program.instrs(), cfg, params, diags);
}

/// One warning per maximal run of unreachable instructions; alignment
/// padding (`Assembler::align`) is placed there on purpose and is not
/// reported.
fn unreachable_runs(program: &Program, cfg: &Cfg, diags: &mut Vec<Diagnostic>) {
    if cfg.has_indirect {
        return;
    }
    let dead = |i: usize| !cfg.reachable[i] && !program.is_padding(i);
    let mut i = 0;
    while i < cfg.reachable.len() {
        if !dead(i) {
            i += 1;
            continue;
        }
        let start = i;
        while i < cfg.reachable.len() && dead(i) {
            i += 1;
        }
        let len = i - start;
        diags.push(Diagnostic {
            pc: (start as u32) * 4,
            severity: Severity::Warning,
            class: FaultClass::Dead,
            message: format!(
                "unreachable code: {len} instruction{} never executed",
                if len == 1 { "" } else { "s" }
            ),
        });
    }
}

/// Whether a cfg write to `(register, lane)` launches a job — and so
/// consumes shadow state rather than storing it.
fn is_launch(register: u16, lane: u8) -> bool {
    is_pointer_reg(register)
        || (lane == 0
            && (register == reg::ACC_FEED
                || register == reg::ACC_DRAIN
                || register == reg::ACC_CLEAR))
}

fn dead_cfg_writes(instrs: &[Instr], cfg: &Cfg, params: &CcParams, diags: &mut Vec<Diagnostic>) {
    let n = instrs.len();
    let n_lanes = params.streamer.lanes.len();
    // The (lane, cell) domain is packed into a u128 bitset. Streamers
    // allow up to 8 lanes, and 8 * N_CELLS = 160 bits does not fit —
    // in release builds the shift would silently wrap and every
    // verdict after it would be wrong. This pass only emits warnings,
    // so for oversized targets it is skipped rather than widened.
    if n_lanes * N_CELLS >= 128 {
        return;
    }
    let all: u128 = (1u128 << (n_lanes * N_CELLS)) - 1;
    let bit = |lane: usize, slot: usize| 1u128 << (lane * N_CELLS + slot);

    // Backward transfer of one instruction over the live-cell set.
    let transfer = |instr: &Instr, out: u128| -> u128 {
        match *instr {
            Instr::Scfgwi { addr, .. } => {
                let (register, lane) = split_addr(addr);
                if (lane as usize) >= n_lanes {
                    return out;
                }
                if is_launch(register, lane) {
                    return all;
                }
                match cell_slot(register) {
                    Some(slot) => out & !bit(lane as usize, slot),
                    None => out,
                }
            }
            Instr::Scfgri { addr, .. } => {
                let (register, lane) = split_addr(addr);
                match cell_slot(register) {
                    Some(slot) if (lane as usize) < n_lanes => out | bit(lane as usize, slot),
                    _ => out,
                }
            }
            // The continuation of an indirect jump is unknown; assume
            // it consumes everything.
            Instr::Jalr { .. } => all,
            _ => out,
        }
    };

    let mut live_in = vec![0u128; n];
    let mut live_out = vec![0u128; n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let out = if matches!(instrs[i], Instr::Jalr { .. }) {
                all
            } else {
                cfg.succs[i].iter().fold(0u128, |acc, &s| acc | live_in[s])
            };
            let inn = transfer(&instrs[i], out);
            if out != live_out[i] || inn != live_in[i] {
                live_out[i] = out;
                live_in[i] = inn;
                changed = true;
            }
        }
    }

    for (i, instr) in instrs.iter().enumerate() {
        if !cfg.reachable[i] {
            continue;
        }
        let Instr::Scfgwi { addr, .. } = *instr else { continue };
        let (register, lane) = split_addr(addr);
        if (lane as usize) >= n_lanes || is_launch(register, lane) {
            continue;
        }
        let Some(slot) = cell_slot(register) else { continue };
        if live_out[i] & bit(lane as usize, slot) == 0 {
            diags.push(Diagnostic {
                pc: (i as u32) * 4,
                severity: Severity::Warning,
                class: FaultClass::Dead,
                message: format!(
                    "cfg write to {}/lane {lane} is never consumed by a launch or readback",
                    reg_name(register)
                ),
            });
        }
    }
}
