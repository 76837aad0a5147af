//! Forward abstract interpretation over stream-unit state.
//!
//! The abstract domain tracks exactly what the streamer's trap surface
//! depends on: the integer register file as constants (`scfg` operands
//! are almost always materialized with `li`), each lane's stored shadow
//! cells, whether each lane ever had a read/write job launched, whether
//! the joiner and SpAcc are active, and the `ssr` redirection CSR.
//!
//! The analysis is a *must*-analysis: three-valued facts (`No`/`Maybe`/
//! `Yes`) join to `Maybe` on disagreement, and diagnostics fire only on
//! definite (`Yes`/`No`) evidence. That asymmetry is what lets every
//! shipped kernel — with its data-dependent loop bounds and status-poll
//! loops — lint clean while provably faulting programs are still
//! caught: a `Maybe` silences the linter, never the runtime.
//!
//! Configuration checks call the same [`issr_core::cfg_check`]
//! predicates the streamer's `cfg_write`/`cfg_read` use, on the same
//! streamer description (`CcParams::streamer`), so a flagged launch is
//! by construction one the runtime would trap. Likewise, the linter
//! reads no instruction semantics of its own: constants fold through the
//! core's ALU ([`issr_isa::instr::AluOp::eval`], division included), and
//! the stream hang and `frep.s` checks read the FPU's operand slots
//! ([`Instr::fp_operands`]), so lint and runtime agree on which register
//! a stream pop or push comes from.

use issr_core::cfg::{reg, split_addr, AccDrainSpec, CfgShadow};
use issr_core::cfg_check::is_pointer_reg;
use issr_core::spacc::SPACC_LANE;
use issr_core::{CfgFault, StreamFault, StreamFaultKind, StreamUnit};
use issr_isa::csr::Csr;
use issr_isa::instr::{CsrOp, FrepKind, Instr};
use issr_isa::reg::IntReg;
use issr_snitch::params::CcParams;

use crate::cfgraph::Cfg;
use crate::{Diagnostic, FaultClass, Severity};

/// Three-valued logic: the lattice `No < Maybe > Yes`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Bool3 {
    No,
    Maybe,
    Yes,
}

impl Bool3 {
    fn from_bool(b: bool) -> Self {
        if b {
            Bool3::Yes
        } else {
            Bool3::No
        }
    }

    fn join(self, other: Self) -> Self {
        if self == other {
            self
        } else {
            Bool3::Maybe
        }
    }

    /// Downgrades a definite `Yes` to `Maybe` — applied when the
    /// program observes a status word, because a subsequent poll-branch
    /// usually means the unit has retired on the continuing path.
    fn weaken(self) -> Self {
        if self == Bool3::Yes {
            Bool3::Maybe
        } else {
            self
        }
    }
}

/// A flat constant domain over 32-bit register values.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum AbsVal {
    Const(u32),
    Unknown,
}

impl AbsVal {
    fn join(self, other: Self) -> Self {
        match (self, other) {
            (AbsVal::Const(a), AbsVal::Const(b)) if a == b => self,
            _ => AbsVal::Unknown,
        }
    }

    fn constant(self) -> Option<u32> {
        match self {
            AbsVal::Const(v) => Some(v),
            AbsVal::Unknown => None,
        }
    }
}

/// The shadow registers `CfgShadow` actually stores (writes to any
/// other cfg register index are dropped by the hardware, and pointer
/// registers launch jobs instead of storing).
pub(crate) const N_CELLS: usize = 20;
pub(crate) const STORED: [u16; N_CELLS] = [
    reg::REPEAT,
    reg::BOUNDS[0],
    reg::BOUNDS[1],
    reg::BOUNDS[2],
    reg::BOUNDS[3],
    reg::STRIDES[0],
    reg::STRIDES[1],
    reg::STRIDES[2],
    reg::STRIDES[3],
    reg::IDX_CFG,
    reg::DATA_BASE,
    reg::JOIN_CFG,
    reg::JOIN_IDX_B,
    reg::JOIN_DATA_B,
    reg::JOIN_NNZ_A,
    reg::JOIN_NNZ_B,
    reg::ACC_CFG,
    reg::ACC_COUNT,
    reg::ACC_VAL_OUT,
    reg::ACC_BUF_CAP,
];

/// The storage slot of a cfg register, if the shadow stores it.
pub(crate) fn cell_slot(register: u16) -> Option<usize> {
    STORED.iter().position(|&r| r == register)
}

/// Human-readable cfg register name for diagnostics.
pub(crate) fn reg_name(register: u16) -> String {
    match register {
        reg::STATUS => "STATUS".into(),
        reg::REPEAT => "REPEAT".into(),
        r if reg::BOUNDS.contains(&r) => format!("BOUNDS[{}]", r - reg::BOUNDS[0]),
        r if reg::STRIDES.contains(&r) => format!("STRIDES[{}]", r - reg::STRIDES[0]),
        reg::IDX_CFG => "IDX_CFG".into(),
        reg::DATA_BASE => "DATA_BASE".into(),
        r if reg::RPTR.contains(&r) => format!("RPTR[{}]", r - reg::RPTR[0]),
        r if reg::WPTR.contains(&r) => format!("WPTR[{}]", r - reg::WPTR[0]),
        reg::JOIN_CFG => "JOIN_CFG".into(),
        reg::JOIN_IDX_B => "JOIN_IDX_B".into(),
        reg::JOIN_DATA_B => "JOIN_DATA_B".into(),
        reg::JOIN_NNZ_A => "JOIN_NNZ_A".into(),
        reg::JOIN_NNZ_B => "JOIN_NNZ_B".into(),
        reg::JOIN_COUNT => "JOIN_COUNT".into(),
        reg::ACC_CFG => "ACC_CFG".into(),
        reg::ACC_COUNT => "ACC_COUNT".into(),
        reg::ACC_FEED => "ACC_FEED".into(),
        reg::ACC_VAL_OUT => "ACC_VAL_OUT".into(),
        reg::ACC_DRAIN => "ACC_DRAIN".into(),
        reg::ACC_NNZ => "ACC_NNZ".into(),
        reg::ACC_STATUS => "ACC_STATUS".into(),
        reg::ACC_CLEAR => "ACC_CLEAR".into(),
        reg::ACC_BUF_CAP => "ACC_BUF_CAP".into(),
        other => format!("reg {other}"),
    }
}

/// Per-lane abstract state.
#[derive(Clone, PartialEq)]
struct LaneAbs {
    /// Whether a read job was ever launched on this lane.
    read_job: Bool3,
    /// Whether a write job was ever launched on this lane.
    write_job: Bool3,
    /// Stored shadow cells, indexed by [`cell_slot`].
    cells: [AbsVal; N_CELLS],
}

/// The whole-machine abstract state at one program point.
#[derive(Clone, PartialEq)]
pub(crate) struct AbsState {
    regs: [AbsVal; 32],
    ssr_on: Bool3,
    lanes: Vec<LaneAbs>,
    joiner_active: Bool3,
    spacc_active: Bool3,
}

impl AbsState {
    /// The state at PC 0: registers unknown (`x0` pinned to zero), the
    /// `ssr` CSR off and every shadow cell at its reset value — the
    /// state the harness hands a freshly-loaded program.
    fn entry(params: &CcParams) -> Self {
        let defaults = CfgShadow::default();
        let mut cells = [AbsVal::Unknown; N_CELLS];
        for (slot, &r) in STORED.iter().enumerate() {
            cells[slot] = AbsVal::Const(defaults.read(r));
        }
        let mut regs = [AbsVal::Unknown; 32];
        regs[0] = AbsVal::Const(0);
        Self {
            regs,
            ssr_on: Bool3::No,
            lanes: vec![
                LaneAbs { read_job: Bool3::No, write_job: Bool3::No, cells };
                params.streamer.lanes.len()
            ],
            joiner_active: Bool3::No,
            spacc_active: Bool3::No,
        }
    }

    fn reg(&self, r: IntReg) -> AbsVal {
        self.regs[r.index() as usize]
    }

    fn set_reg(&mut self, r: IntReg, v: AbsVal) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = v;
        }
    }

    fn join(&self, other: &Self) -> Self {
        let mut regs = self.regs;
        for (a, b) in regs.iter_mut().zip(other.regs.iter()) {
            *a = a.join(*b);
        }
        let lanes = self
            .lanes
            .iter()
            .zip(other.lanes.iter())
            .map(|(a, b)| {
                let mut cells = a.cells;
                for (c, d) in cells.iter_mut().zip(b.cells.iter()) {
                    *c = c.join(*d);
                }
                LaneAbs {
                    read_job: a.read_job.join(b.read_job),
                    write_job: a.write_job.join(b.write_job),
                    cells,
                }
            })
            .collect();
        Self {
            regs,
            ssr_on: self.ssr_on.join(other.ssr_on),
            lanes,
            joiner_active: self.joiner_active.join(other.joiner_active),
            spacc_active: self.spacc_active.join(other.spacc_active),
        }
    }

    fn cell(&self, lane: usize, register: u16) -> AbsVal {
        cell_slot(register).map_or(AbsVal::Unknown, |slot| self.lanes[lane].cells[slot])
    }

    /// Evaluates a single-cell shadow predicate three-valuedly: a
    /// constant cell decides it, an unknown one yields `Maybe`.
    fn shadow_bit(&self, lane: usize, register: u16, f: impl Fn(&CfgShadow) -> bool) -> Bool3 {
        match self.cell(lane, register).constant() {
            Some(v) => {
                let mut s = CfgShadow::default();
                s.write(register, v);
                Bool3::from_bool(f(&s))
            }
            None => Bool3::Maybe,
        }
    }
}

fn cfg_diag(pc: u32, fault: CfgFault) -> Diagnostic {
    Diagnostic {
        pc,
        severity: Severity::Error,
        class: FaultClass::Cfg(fault),
        message: fault.to_string(),
    }
}

fn conflict_diag(pc: u32, unit: StreamUnit) -> Diagnostic {
    let fault = StreamFault { unit, kind: StreamFaultKind::PortConflict };
    Diagnostic {
        pc,
        severity: Severity::Error,
        class: FaultClass::Stream(fault),
        message: fault.to_string(),
    }
}

/// The interpreter: one `step` transforms a state across an
/// instruction, emitting diagnostics through the sink. The fixpoint
/// pass steps with a discarding sink; the report pass re-steps every
/// reachable instruction from its converged entry state.
struct Interp<'a> {
    params: &'a CcParams,
    instrs: &'a [Instr],
}

impl Interp<'_> {
    fn n_lanes(&self) -> usize {
        self.params.streamer.lanes.len()
    }

    fn step(&self, i: usize, st: &mut AbsState, sink: &mut dyn FnMut(Diagnostic)) {
        let pc = (i as u32) * 4;
        match self.instrs[i] {
            Instr::Lui { rd, imm } => st.set_reg(rd, AbsVal::Const(imm)),
            Instr::Auipc { rd, imm } => st.set_reg(rd, AbsVal::Const(pc.wrapping_add(imm))),
            Instr::Jal { rd, .. } | Instr::Jalr { rd, .. } => {
                st.set_reg(rd, AbsVal::Const(pc.wrapping_add(4)));
            }
            Instr::Branch { .. }
            | Instr::Store { .. }
            | Instr::Fence
            | Instr::Ecall
            | Instr::Halt => {}
            Instr::Load { rd, .. } => st.set_reg(rd, AbsVal::Unknown),
            Instr::OpImm { op, rd, rs1, imm } => {
                let v = st.reg(rs1).constant().map(|a| op.eval(a, imm));
                st.set_reg(rd, v.map_or(AbsVal::Unknown, AbsVal::Const));
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let v = st.reg(rs1).constant().zip(st.reg(rs2).constant());
                let v = v.map(|(a, b)| op.eval(a, b));
                st.set_reg(rd, v.map_or(AbsVal::Unknown, AbsVal::Const));
            }
            Instr::CsrI { op, rd, uimm, csr } => {
                if csr == Csr::Ssr {
                    csr_ssr(st, op, AbsVal::Const(u32::from(uimm)));
                }
                st.set_reg(rd, AbsVal::Unknown);
            }
            Instr::CsrR { op, rd, rs1, csr } => {
                if csr == Csr::Ssr {
                    let v = st.reg(rs1);
                    csr_ssr(st, op, v);
                }
                st.set_reg(rd, AbsVal::Unknown);
            }
            Instr::Scfgwi { rs1, addr } => {
                let value = st.reg(rs1);
                self.cfg_write(pc, st, addr, value, sink);
            }
            Instr::Scfgri { rd, addr } => {
                self.cfg_read(pc, st, addr, sink);
                st.set_reg(rd, AbsVal::Unknown);
            }
            Instr::Frep { kind, n_insns, .. } => self.check_frep(pc, i, kind, n_insns, sink),
            Instr::Fld { rd, .. } => {
                if st.ssr_on == Bool3::Yes && (rd.index() as usize) < self.n_lanes() {
                    sink(Diagnostic {
                        pc,
                        severity: Severity::Error,
                        class: FaultClass::Sequencer,
                        message: format!(
                            "fld writes stream register {rd} while the ssr CSR is enabled; \
                             the FPU rejects memory loads into redirected registers"
                        ),
                    });
                }
            }
            ref fp @ (Instr::Fsd { .. }
            | Instr::FpuOp2 { .. }
            | Instr::FpuOp3 { .. }
            | Instr::FpuCmp { .. }
            | Instr::FcvtDW { .. }
            | Instr::FcvtWD { .. }
            | Instr::FmvD { .. }) => {
                // FP-compare/convert results land in the integer file.
                if let Instr::FpuCmp { rd, .. } | Instr::FcvtWD { rd, .. } = *fp {
                    st.set_reg(rd, AbsVal::Unknown);
                }
                self.fp_stream_check(pc, st, fp, sink);
            }
            Instr::DmCpyI { rd, .. } | Instr::DmStatI { rd, .. } => {
                st.set_reg(rd, AbsVal::Unknown);
            }
            Instr::DmSrc { .. }
            | Instr::DmDst { .. }
            | Instr::DmStr { .. }
            | Instr::DmRep { .. } => {}
        }
    }

    /// Check (1): stream-register use with no job ever launched. A read
    /// of a never-configured lane stalls the FPU forever (the lane FIFO
    /// never fills) and the run dies in `SimTimeout` — no trap, no
    /// diagnostic, just a burned cycle budget. Must-analysis: fire only
    /// when the CSR is definitely on and the lane definitely jobless.
    /// The registers are the FPU's own operand slots. `fld` never comes
    /// here: its slot 0 is written through memory, which the FPU rejects
    /// under redirection (the sequencer fault its own arm reports).
    fn fp_stream_check(
        &self,
        pc: u32,
        st: &AbsState,
        instr: &Instr,
        sink: &mut dyn FnMut(Diagnostic),
    ) {
        if st.ssr_on != Bool3::Yes {
            return;
        }
        let n = self.n_lanes();
        let [dst, srcs @ ..] = instr.fp_operands();
        for s in srcs.into_iter().flatten() {
            let idx = s.index() as usize;
            if idx < n && st.lanes[idx].read_job == Bool3::No {
                sink(Diagnostic {
                    pc,
                    severity: Severity::Error,
                    class: FaultClass::Hang,
                    message: format!(
                        "reads stream register {s} but no read job was ever launched on \
                         lane {idx}: the FPU stalls forever and the run times out"
                    ),
                });
            }
        }
        if let Some(d) = dst {
            let idx = d.index() as usize;
            // The SpAcc consumes its lane's write stream directly, so a
            // write with an active (or possibly active) SpAcc job needs
            // no lane write job.
            if idx < n
                && st.lanes[idx].write_job == Bool3::No
                && !(idx == SPACC_LANE && st.spacc_active != Bool3::No)
            {
                sink(Diagnostic {
                    pc,
                    severity: Severity::Error,
                    class: FaultClass::Hang,
                    message: format!(
                        "writes stream register {d} but no write job was ever launched on \
                         lane {idx}: the write FIFO never drains and the run times out"
                    ),
                });
            }
        }
    }

    /// Check (2): FREP capture-window legality. The sequencer captures
    /// the next `n_insns` FP instructions; anything that redirects
    /// control or reconfigures streams inside that window aborts the
    /// capture at runtime.
    fn check_frep(
        &self,
        pc: u32,
        i: usize,
        kind: FrepKind,
        n_insns: u8,
        sink: &mut dyn FnMut(Diagnostic),
    ) {
        let seq_err = |pc: u32, message: String| Diagnostic {
            pc,
            severity: Severity::Error,
            class: FaultClass::Sequencer,
            message,
        };
        let n_body = n_insns as usize;
        if n_body == 0 {
            sink(seq_err(pc, "FREP with an empty body (n_insns = 0) never retires".into()));
            return;
        }
        if n_body > self.params.frep_buffer {
            sink(seq_err(
                pc,
                format!(
                    "FREP body of {n_body} instructions exceeds the {}-entry sequencer buffer",
                    self.params.frep_buffer
                ),
            ));
            return;
        }
        let mut collected = 0usize;
        let mut reads_stream = false;
        let mut j = i + 1;
        while collected < n_body {
            if j >= self.instrs.len() {
                sink(seq_err(pc, "FREP body runs past the end of the program".into()));
                return;
            }
            let ins = &self.instrs[j];
            let jpc = (j as u32) * 4;
            let illegal = ins.is_control_flow()
                || matches!(
                    ins,
                    Instr::Frep { .. } | Instr::Halt | Instr::Scfgwi { .. } | Instr::Scfgri { .. }
                )
                || matches!(
                    ins,
                    Instr::CsrI { csr: Csr::Ssr, .. } | Instr::CsrR { csr: Csr::Ssr, .. }
                );
            if illegal {
                sink(seq_err(jpc, format!("`{ins}` cannot appear inside an FREP capture window")));
                return;
            }
            if ins.is_fp() {
                collected += 1;
                let [_, srcs @ ..] = ins.fp_operands();
                if srcs.into_iter().flatten().any(|s| (s.index() as usize) < self.n_lanes()) {
                    reads_stream = true;
                }
            } else if kind == FrepKind::Stream {
                // frep.s replays the whole window per iteration; an
                // integer instruction there would re-execute under FPU
                // sequencing, which the hardware rejects.
                sink(seq_err(jpc, format!("non-FP instruction `{ins}` inside an frep.s body")));
                return;
            }
            j += 1;
        }
        if kind == FrepKind::Stream && !reads_stream {
            sink(Diagnostic {
                pc,
                severity: Severity::Warning,
                class: FaultClass::Sequencer,
                message: "frep.s body reads no stream register; the loop terminates after \
                          zero iterations"
                    .into(),
            });
        }
    }

    /// Checks (3) and (4): mirrors `Streamer::cfg_write`'s dispatch
    /// order exactly — lane bounds, joiner launch, SpAcc launches,
    /// pointer-write capability checks — through the shared
    /// `cfg_check` predicates, then applies the launch's abstract
    /// effect.
    fn cfg_write(
        &self,
        pc: u32,
        st: &mut AbsState,
        addr: u16,
        value: AbsVal,
        sink: &mut dyn FnMut(Diagnostic),
    ) {
        let (register, lane) = split_addr(addr);
        let caps = self.params.streamer;
        if let Err(f) = caps.check_lane(lane) {
            sink(cfg_diag(pc, f));
            return;
        }
        let lane = lane as usize;

        // Lane 0's RPTR[0] with JOIN_CFG enabled launches a joiner job.
        if lane == 0 && register == reg::RPTR[0] {
            let je = st.shadow_bit(0, reg::JOIN_CFG, CfgShadow::join_enabled);
            if je == Bool3::Yes {
                if let Err(f) = caps.check_joiner_present() {
                    sink(cfg_diag(pc, f));
                    return;
                }
                if st.spacc_active == Bool3::Yes {
                    // The queued joiner promotes as soon as lanes 0/1
                    // idle, regardless of the SpAcc — the conflict
                    // detector then latches against the active SpAcc.
                    sink(conflict_diag(pc, StreamUnit::Joiner));
                }
                st.joiner_active = Bool3::Yes;
                st.lanes[0].read_job = Bool3::Yes;
                // A caller-built HwCaps (public fields) may pair
                // has_joiner with a single lane, which `Streamer::new`
                // rejects but the linter still analyzes; the joiner's
                // lane-1 effect only exists when the lane does.
                if st.lanes.len() > 1 {
                    st.lanes[1].read_job = Bool3::Yes;
                }
                return;
            }
            if je == Bool3::Maybe {
                // Could be a joiner launch or a plain lane-0 read job:
                // join both effects, report nothing.
                st.joiner_active = st.joiner_active.join(Bool3::Yes);
                if st.lanes.len() > 1 {
                    st.lanes[1].read_job = st.lanes[1].read_job.join(Bool3::Yes);
                }
                st.lanes[0].read_job = Bool3::Yes;
                return;
            }
            // Definitely not a joiner launch: plain pointer handling.
        }

        // SpAcc launch registers live in lane 0's address space.
        if lane == 0 && register == reg::ACC_FEED {
            if let Err(f) = caps.check_spacc_present() {
                sink(cfg_diag(pc, f));
                return;
            }
            if st.cell(0, reg::ACC_BUF_CAP).constant() == Some(0) {
                sink(cfg_diag(pc, CfgFault::ZeroCapacity));
                return;
            }
            st.spacc_active = Bool3::Yes;
            return;
        }
        if lane == 0 && register == reg::ACC_DRAIN {
            if let Err(f) = caps.check_spacc_present() {
                sink(cfg_diag(pc, f));
                return;
            }
            let count_only = st.shadow_bit(0, reg::ACC_CFG, CfgShadow::acc_count_only);
            if count_only == Bool3::Yes {
                sink(cfg_diag(pc, CfgFault::CountModeDrain));
                return;
            }
            if count_only == Bool3::No {
                if let (Some(acc_cfg), Some(val_out), Some(idx_out)) = (
                    st.cell(0, reg::ACC_CFG).constant(),
                    st.cell(0, reg::ACC_VAL_OUT).constant(),
                    value.constant(),
                ) {
                    let mut shadow = CfgShadow::default();
                    shadow.write(reg::ACC_CFG, acc_cfg);
                    shadow.write(reg::ACC_VAL_OUT, val_out);
                    let spec = AccDrainSpec::from_shadow(&shadow, idx_out);
                    if let Err(f) = caps.check_drain(false, &spec) {
                        sink(cfg_diag(pc, f));
                        return;
                    }
                }
            }
            st.spacc_active = Bool3::Yes;
            return;
        }
        if lane == 0 && register == reg::ACC_CLEAR {
            if let Err(f) = caps.check_spacc_present() {
                sink(cfg_diag(pc, f));
                return;
            }
            st.spacc_active = Bool3::Yes;
            return;
        }

        if is_pointer_reg(register) {
            // HwCaps::check_pointer_write, three-valuedly.
            let je = st.shadow_bit(lane, reg::JOIN_CFG, CfgShadow::join_enabled);
            if je == Bool3::Yes {
                sink(cfg_diag(pc, CfgFault::BadJoinerLaunch { lane: lane as u8 }));
                return;
            }
            let indirect = st.shadow_bit(lane, reg::IDX_CFG, CfgShadow::indirect);
            if je == Bool3::No && indirect == Bool3::Yes {
                if let Err(f) = caps.check_indirection(lane as u8) {
                    sink(cfg_diag(pc, f));
                    return;
                }
            }
            // Check (3): a plain lane job on a port a sparse unit
            // definitely owns. Relaunches on a lane's *own* queue and
            // launches on unclaimed ports are legal (writes retry until
            // accepted), so only definite owners fire.
            if (lane == SPACC_LANE && st.spacc_active == Bool3::Yes)
                || (lane <= 1 && st.joiner_active == Bool3::Yes)
            {
                sink(conflict_diag(pc, StreamUnit::Lane(lane as u8)));
            }
            if reg::RPTR.contains(&register) {
                st.lanes[lane].read_job = Bool3::Yes;
            } else {
                st.lanes[lane].write_job = Bool3::Yes;
            }
            return;
        }

        if let Some(slot) = cell_slot(register) {
            st.lanes[lane].cells[slot] = value;
        }
    }

    /// Mirror of `Streamer::cfg_read`: lane bounds always, joiner/SpAcc
    /// presence for their status registers. Status observations weaken
    /// the corresponding activity fact (a poll loop implies the unit
    /// retires on the continuing path).
    fn cfg_read(&self, pc: u32, st: &mut AbsState, addr: u16, sink: &mut dyn FnMut(Diagnostic)) {
        let (register, lane) = split_addr(addr);
        let caps = self.params.streamer;
        if let Err(f) = caps.check_lane(lane) {
            sink(cfg_diag(pc, f));
            return;
        }
        if lane == 0 {
            match register {
                reg::JOIN_COUNT => {
                    if let Err(f) = caps.check_joiner_present() {
                        sink(cfg_diag(pc, f));
                    }
                }
                reg::ACC_NNZ => {
                    if let Err(f) = caps.check_spacc_present() {
                        sink(cfg_diag(pc, f));
                    }
                }
                reg::ACC_STATUS => {
                    if let Err(f) = caps.check_spacc_present() {
                        sink(cfg_diag(pc, f));
                    } else {
                        st.spacc_active = st.spacc_active.weaken();
                    }
                }
                reg::STATUS => {
                    st.joiner_active = st.joiner_active.weaken();
                }
                _ => {}
            }
        }
    }
}

/// Abstract transfer of a CSR access to the `ssr` redirection CSR.
fn csr_ssr(st: &mut AbsState, op: CsrOp, value: AbsVal) {
    let bit = value.constant().map(|v| v & 1 != 0);
    st.ssr_on = match (op, bit) {
        (CsrOp::Rw, Some(on)) => Bool3::from_bool(on),
        (CsrOp::Rw, None) => Bool3::Maybe,
        (CsrOp::Rs, Some(true)) => Bool3::Yes,
        (CsrOp::Rs, Some(false)) | (CsrOp::Rc, Some(false)) => st.ssr_on,
        (CsrOp::Rs, None) => st.ssr_on.join(Bool3::Yes),
        (CsrOp::Rc, Some(true)) => Bool3::No,
        (CsrOp::Rc, None) => st.ssr_on.join(Bool3::No),
    };
}

/// Runs the forward fixpoint and returns the converged entry state of
/// every reached instruction.
pub(crate) fn analyze(instrs: &[Instr], cfg: &Cfg, params: &CcParams) -> Vec<Option<AbsState>> {
    let interp = Interp { params, instrs };
    let mut states: Vec<Option<AbsState>> = vec![None; instrs.len()];
    states[0] = Some(AbsState::entry(params));
    let mut work = vec![0usize];
    let mut discard = |_d: Diagnostic| {};
    while let Some(i) = work.pop() {
        let mut st = states[i].clone().expect("worklist entries have a state");
        interp.step(i, &mut st, &mut discard);
        for &s in &cfg.succs[i] {
            match &mut states[s] {
                slot @ None => {
                    *slot = Some(st.clone());
                    work.push(s);
                }
                Some(old) => {
                    let joined = old.join(&st);
                    if joined != *old {
                        *old = joined;
                        work.push(s);
                    }
                }
            }
        }
    }
    states
}

/// Re-steps every reachable instruction from its converged entry state,
/// this time with a live diagnostic sink.
pub(crate) fn report(
    instrs: &[Instr],
    cfg: &Cfg,
    params: &CcParams,
    states: &[Option<AbsState>],
    diags: &mut Vec<Diagnostic>,
) {
    let interp = Interp { params, instrs };
    for (i, entry) in states.iter().enumerate() {
        if !cfg.reachable[i] {
            continue;
        }
        let Some(entry) = entry else { continue };
        let mut st = entry.clone();
        let mut sink = |d: Diagnostic| diags.push(d);
        interp.step(i, &mut st, &mut sink);
    }
}
