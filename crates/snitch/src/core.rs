//! The Snitch integer core: a single-issue, in-order RV32IM pipeline.
//!
//! The core sustains one instruction per cycle with result forwarding
//! between ALU operations. Loads have two-cycle load-use latency (the
//! TCDM responds the next cycle; write-back precedes issue in the cycle
//! after that), multiplies and divides have fixed latencies, and taken
//! branches execute without a bubble because kernels run from the L0
//! loop buffer — together these reproduce the paper's nine-cycle BASE
//! inner loop. The pipeline owns the timing; what an ALU operation
//! computes is `AluOp::eval`/`AluImmOp::eval` in `issr-isa`, which the
//! linter folds constants through.
//!
//! Floating-point instructions (and `frep`) are *offloaded* to the FPU
//! subsystem with their captured integer operands; the core moves on —
//! Snitch's pseudo-dual-issue.

use crate::fpu::{FpOp, FpuSubsystem, SequencerFault};
use crate::metrics::Metrics;
use crate::params::CcParams;
use issr_core::streamer::Streamer;
use issr_isa::asm::Program;
use issr_isa::csr::Csr;
use issr_isa::instr::{AluOp, BranchCond, CsrOp, Instr, LoadWidth, StoreWidth};
use issr_isa::reg::IntReg;
use issr_mem::dma::Dma;
use issr_mem::map::{region_of, Region};
use issr_mem::port::{MemOp, MemPort, MemReq};
use std::collections::VecDeque;

#[derive(Clone, Copy, Debug)]
struct LsuTag {
    rd: u8,
    width: LoadWidth,
    byte: u32,
    blocking: bool,
}

/// Why a core stopped issuing without executing `halt`.
///
/// Decode and fetch failures park the core (it reads as halted so the
/// simulation drains and terminates) and are surfaced through the run
/// summaries instead of aborting the whole simulator — the harness and
/// its caller decide how fatal the condition is.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TrapCause {
    /// The decoded instruction has no implementation in this model.
    UnimplementedInstr(Instr),
    /// The PC ran past the end of the loaded program (missing `halt`).
    PcOutOfRange,
    /// A malformed streamer configuration access (`scfgwi`/`scfgri`):
    /// nonexistent lane, joiner/SpAcc launch without that hardware, a
    /// zero-capacity SpAcc feed, or a misaligned drain output base.
    CfgFault(issr_core::CfgFault),
    /// A mid-stream fault latched by a stream unit while a job was
    /// running: SpAcc row-buffer overflow or unsorted feed, a stalled
    /// unit (progress-watchdog expiry), or a port conflict. The
    /// streamer froze and drained; the core parks here. SpAcc overflow
    /// is recoverable at the kernel layer (grow `ACC_BUF_CAP`, replay
    /// the faulted row — see `issr_core::spacc`).
    StreamFault(issr_core::StreamFault),
    /// A data access (core or FPU load/store, or a stream lane's index
    /// or data fetch) no mapped memory region contains. Runtime-only:
    /// the memory served it as a zero read / dropped write and the run
    /// harness parked the core complex that owns the port.
    AccessFault {
        /// The byte address of the faulting request.
        addr: u32,
    },
    /// The FREP sequencer rejected the offloaded instruction stream
    /// (nested, empty, oversized or abandoned `frep`, `fld` into a
    /// redirected register) — the runtime twin of
    /// the lint's `FaultClass::Sequencer`. The sequencer runs decoupled
    /// from the core, so the trap PC is a vicinity, as for stream
    /// faults.
    SequencerFault(SequencerFault),
}

/// A structured decode/fetch trap: which core stopped, where, and why.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Trap {
    /// Hart that trapped.
    pub hartid: u32,
    /// PC of the faulting fetch.
    pub pc: u32,
    /// The condition.
    pub cause: TrapCause,
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.cause {
            TrapCause::UnimplementedInstr(instr) => {
                write!(
                    f,
                    "hart {}: unimplemented instruction `{instr}` at {:#010x}",
                    self.hartid, self.pc
                )
            }
            TrapCause::PcOutOfRange => {
                write!(f, "hart {}: PC {:#010x} past end of program", self.hartid, self.pc)
            }
            TrapCause::CfgFault(fault) => {
                write!(f, "hart {}: {fault} at {:#010x}", self.hartid, self.pc)
            }
            TrapCause::StreamFault(fault) => {
                write!(f, "hart {}: stream fault — {fault} (near {:#010x})", self.hartid, self.pc)
            }
            TrapCause::AccessFault { addr } => {
                write!(
                    f,
                    "hart {}: access fault — no mapped region contains {addr:#010x} (near {:#010x})",
                    self.hartid, self.pc
                )
            }
            TrapCause::SequencerFault(fault) => {
                write!(
                    f,
                    "hart {}: sequencer fault — {fault} (near {:#010x})",
                    self.hartid, self.pc
                )
            }
        }
    }
}

/// The integer pipeline of one core complex.
#[derive(Debug)]
pub struct SnitchCore {
    hartid: u32,
    regs: [u32; 32],
    busy: [bool; 32],
    pc: u32,
    halted: bool,
    lsu_tags: VecDeque<LsuTag>,
    /// Pending multi-cycle ALU results (mul/div): (ready_cycle, rd, value).
    alu_wb: Vec<(u64, u8, u32)>,
    /// Set while a peripheral (barrier) load blocks all issue.
    blocked_on_periph: bool,
    /// Address of the most recently issued load — the word a spin loop
    /// polls, shown in the post-mortem.
    last_load_addr: Option<u32>,
    /// Latched decode/fetch trap (the core reads as halted once set).
    trap: Option<Trap>,
    /// Set while the core waits at the hardware barrier (CSR read).
    barrier_waiting: bool,
    /// One-shot release latched by the cluster barrier.
    barrier_clear: bool,
    /// Extra cycles the fetch stage still owes (instruction cache miss).
    pub fetch_stall: u64,
    /// Integer multiplier result latency ([`CcParams::mul_latency`]).
    mul_latency: u64,
    /// Integer divider result latency ([`CcParams::div_latency`]).
    div_latency: u64,
}

impl SnitchCore {
    /// Creates a core with the given hart id, starting at PC 0, with
    /// the multiplier and divider latencies of `params`.
    #[must_use]
    pub fn new(hartid: u32, params: &CcParams) -> Self {
        Self {
            mul_latency: params.mul_latency,
            div_latency: params.div_latency,
            hartid,
            regs: [0; 32],
            busy: [false; 32],
            pc: 0,
            halted: false,
            lsu_tags: VecDeque::new(),
            alu_wb: Vec::new(),
            blocked_on_periph: false,
            last_load_addr: None,
            trap: None,
            barrier_waiting: false,
            barrier_clear: false,
            fetch_stall: 0,
        }
    }

    /// The hart id.
    #[must_use]
    pub fn hartid(&self) -> u32 {
        self.hartid
    }

    /// Current program counter (byte address).
    #[must_use]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Whether the core has executed `halt` (or trapped; see
    /// [`Self::trap`]).
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Whether the pipeline carries no in-flight write-backs (load tags
    /// or multi-cycle ALU results still waiting to retire). A halted
    /// core with a drained pipeline cannot change architectural state
    /// on a tick — the property the dirty-set scheduler relies on.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.lsu_tags.is_empty() && self.alu_wb.is_empty()
    }

    /// The latched decode/fetch trap, if the core stopped on one.
    #[must_use]
    pub fn trap(&self) -> Option<Trap> {
        self.trap
    }

    /// Address of the most recently issued load, if any — the word a
    /// spin loop polls, shown in the post-mortem.
    #[must_use]
    pub fn last_load_addr(&self) -> Option<u32> {
        self.last_load_addr
    }

    /// Parks the core on `cause`: it stops issuing and reads as halted
    /// so the surrounding simulation drains instead of aborting.
    fn take_trap(&mut self, cause: TrapCause) {
        self.trap = Some(Trap { hartid: self.hartid, pc: self.pc, cause });
        self.halted = true;
    }

    /// Delivers a fault raised outside the integer pipeline — a
    /// mid-stream fault latched by the streamer, an access fault
    /// reported by the memory: the core parks exactly like a decode
    /// trap (the first trap wins — a core that already trapped or
    /// halted keeps its state but stays parked). The PC is the
    /// instruction the core had reached when the fault arrived; stream
    /// jobs and memory requests run decoupled, so it is a vicinity, not
    /// the faulting instruction itself.
    pub fn deliver_fault(&mut self, cause: TrapCause) {
        if self.trap.is_none() {
            self.trap = Some(Trap { hartid: self.hartid, pc: self.pc, cause });
        }
        self.halted = true;
    }

    /// Reads an integer register (tests and harnesses).
    #[must_use]
    pub fn reg(&self, r: IntReg) -> u32 {
        self.regs[r.index() as usize]
    }

    /// Writes an integer register (harness argument passing).
    pub fn set_reg(&mut self, r: IntReg, value: u32) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = value;
        }
    }

    /// Whether the core is parked at the hardware barrier.
    #[must_use]
    pub fn at_barrier(&self) -> bool {
        self.barrier_waiting
    }

    /// Releases a core parked at the barrier (cluster side).
    pub fn release_barrier(&mut self) {
        if self.barrier_waiting {
            self.barrier_waiting = false;
            self.barrier_clear = true;
        }
    }

    /// Applies an integer write-back from the FPU subsystem.
    pub fn apply_int_writeback(&mut self, reg: u8, value: u32) {
        if reg != 0 {
            self.regs[reg as usize] = value;
        }
        self.busy[reg as usize] = false;
    }

    fn read(&self, r: IntReg) -> u32 {
        self.regs[r.index() as usize]
    }

    fn ready(&self, r: IntReg) -> bool {
        !self.busy[r.index() as usize]
    }

    fn write(&mut self, r: IntReg, value: u32) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = value;
        }
    }

    /// One cycle: issue at most one instruction, then retire memory and
    /// multi-cycle results (so dependent issue happens the cycle after
    /// write-back — two-cycle load-use latency).
    #[allow(clippy::too_many_arguments)]
    pub fn tick(
        &mut self,
        now: u64,
        program: &Program,
        lsu: &mut MemPort,
        fpu: &mut FpuSubsystem,
        streamer: &mut Streamer,
        metrics: &mut Metrics,
        dma: Option<&mut Dma>,
    ) {
        self.issue(now, program, lsu, fpu, streamer, metrics, dma);
        self.retire(now, lsu);
    }

    fn retire(&mut self, now: u64, lsu: &mut MemPort) {
        while let Some(rsp) = lsu.take_rsp(now) {
            let tag = self.lsu_tags.pop_front().expect("load response without tag");
            let value = extract(rsp.data, tag.byte, tag.width);
            if tag.rd != 0 {
                self.regs[tag.rd as usize] = value;
                self.busy[tag.rd as usize] = false;
            }
            if tag.blocking {
                self.blocked_on_periph = false;
            }
        }
        let mut i = 0;
        while i < self.alu_wb.len() {
            if self.alu_wb[i].0 <= now {
                let (_, rd, value) = self.alu_wb.swap_remove(i);
                if rd != 0 {
                    self.regs[rd as usize] = value;
                }
                self.busy[rd as usize] = false;
            } else {
                i += 1;
            }
        }
    }

    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn issue(
        &mut self,
        now: u64,
        program: &Program,
        lsu: &mut MemPort,
        fpu: &mut FpuSubsystem,
        streamer: &mut Streamer,
        metrics: &mut Metrics,
        dma: Option<&mut Dma>,
    ) {
        if self.halted {
            // Nothing more will be offloaded; the sequencer may still
            // be waiting for the rest of an `frep` body.
            fpu.core_halted();
            return;
        }
        if self.blocked_on_periph || self.barrier_waiting {
            return;
        }
        if self.fetch_stall > 0 {
            self.fetch_stall -= 1;
            return;
        }
        let index = (self.pc / 4) as usize;
        let Some(&instr) = program.instrs().get(index) else {
            self.take_trap(TrapCause::PcOutOfRange);
            return;
        };
        let stall_raw = |m: &mut Metrics| {
            if m.roi_active {
                m.roi.core_stall_raw += 1;
            }
        };
        let stall_struct = |m: &mut Metrics| {
            if m.roi_active {
                m.roi.core_stall_structural += 1;
            }
        };
        let mut next_pc = self.pc.wrapping_add(4);
        // Every instruction that writes an integer register waits until
        // no load or multi-cycle result is still in flight to it: that
        // write-back would otherwise land after this one (WAW).
        match instr {
            Instr::Lui { rd, imm } => {
                if !self.ready(rd) {
                    return stall_raw(metrics);
                }
                self.write(rd, imm);
            }
            Instr::Auipc { rd, imm } => {
                if !self.ready(rd) {
                    return stall_raw(metrics);
                }
                self.write(rd, self.pc.wrapping_add(imm));
            }
            Instr::Jal { rd, offset } => {
                if !self.ready(rd) {
                    return stall_raw(metrics);
                }
                self.write(rd, self.pc.wrapping_add(4));
                next_pc = self.pc.wrapping_add(offset as u32);
            }
            Instr::Jalr { rd, rs1, offset } => {
                if !(self.ready(rs1) && self.ready(rd)) {
                    return stall_raw(metrics);
                }
                let target = self.read(rs1).wrapping_add(offset as u32) & !1;
                self.write(rd, self.pc.wrapping_add(4));
                next_pc = target;
            }
            Instr::Branch { cond, rs1, rs2, offset } => {
                if !(self.ready(rs1) && self.ready(rs2)) {
                    return stall_raw(metrics);
                }
                let a = self.read(rs1);
                let b = self.read(rs2);
                let taken = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => (a as i32) < (b as i32),
                    BranchCond::Ge => (a as i32) >= (b as i32),
                    BranchCond::Ltu => a < b,
                    BranchCond::Geu => a >= b,
                };
                if taken {
                    next_pc = self.pc.wrapping_add(offset as u32);
                }
            }
            Instr::Load { width, rd, rs1, offset } => {
                if !self.ready(rs1) || !self.ready(rd) {
                    return stall_raw(metrics);
                }
                if !lsu.can_send() {
                    return stall_struct(metrics);
                }
                let addr = self.read(rs1).wrapping_add(offset as u32);
                let blocking = region_of(addr) == Region::Periph;
                self.last_load_addr = Some(addr);
                lsu.send(MemReq::read(addr));
                self.lsu_tags.push_back(LsuTag { rd: rd.index(), width, byte: addr % 8, blocking });
                if !rd.is_zero() {
                    self.busy[rd.index() as usize] = true;
                }
                if blocking {
                    self.blocked_on_periph = true;
                }
                if metrics.roi_active {
                    metrics.roi.lsu_accesses += 1;
                }
            }
            Instr::Store { width, rs2, rs1, offset } => {
                if !(self.ready(rs1) && self.ready(rs2)) {
                    return stall_raw(metrics);
                }
                if !lsu.can_send() {
                    return stall_struct(metrics);
                }
                let addr = self.read(rs1).wrapping_add(offset as u32);
                let byte = addr % 8;
                let (data, strb) = match width {
                    StoreWidth::B => (u64::from(self.read(rs2) & 0xFF) << (byte * 8), 1u8 << byte),
                    StoreWidth::H => {
                        (u64::from(self.read(rs2) & 0xFFFF) << (byte * 8), 0x3u8 << byte)
                    }
                    StoreWidth::W => (u64::from(self.read(rs2)) << (byte * 8), 0xFu8 << byte),
                };
                lsu.send(MemReq { addr, op: MemOp::Write { data, strb } });
                if metrics.roi_active {
                    metrics.roi.lsu_accesses += 1;
                }
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                if !(self.ready(rs1) && self.ready(rd)) {
                    return stall_raw(metrics);
                }
                self.write(rd, op.eval(self.read(rs1), imm));
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                if !(self.ready(rs1) && self.ready(rs2) && self.ready(rd)) {
                    return stall_raw(metrics);
                }
                let v = op.eval(self.read(rs1), self.read(rs2));
                let latency = match op {
                    AluOp::Mul | AluOp::Mulh | AluOp::Mulhsu | AluOp::Mulhu => self.mul_latency,
                    AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => self.div_latency,
                    _ => 0,
                };
                if latency == 0 {
                    self.write(rd, v);
                } else {
                    if !rd.is_zero() {
                        self.busy[rd.index() as usize] = true;
                    }
                    self.alu_wb.push((now + latency, rd.index(), v));
                }
            }
            Instr::CsrR { op, rd, rs1, csr } => {
                if !(self.ready(rs1) && self.ready(rd)) {
                    return stall_raw(metrics);
                }
                if !self.csr_access(now, csr, op, self.read(rs1), rd, fpu, streamer, metrics) {
                    return;
                }
            }
            Instr::CsrI { op, rd, uimm, csr } => {
                if !self.ready(rd) {
                    return stall_raw(metrics);
                }
                if !self.csr_access(now, csr, op, u32::from(uimm), rd, fpu, streamer, metrics) {
                    return;
                }
            }
            Instr::Ecall | Instr::Fence => {}
            Instr::Scfgwi { rs1, addr } => {
                if !self.ready(rs1) {
                    return stall_raw(metrics);
                }
                match streamer.cfg_write(addr, self.read(rs1)) {
                    Ok(true) => {}
                    Ok(false) => return stall_struct(metrics),
                    Err(fault) => {
                        self.take_trap(TrapCause::CfgFault(fault));
                        return;
                    }
                }
            }
            Instr::Scfgri { rd, addr } => {
                if !self.ready(rd) {
                    return stall_raw(metrics);
                }
                match streamer.cfg_read(addr) {
                    Ok(value) => self.write(rd, value),
                    Err(fault) => {
                        self.take_trap(TrapCause::CfgFault(fault));
                        return;
                    }
                }
            }
            Instr::Frep { max_rpt, .. } => {
                if !self.ready(max_rpt) {
                    return stall_raw(metrics);
                }
                if !fpu.can_offload() {
                    return stall_struct(metrics);
                }
                fpu.offload(FpOp { instr, aux: self.read(max_rpt) });
            }
            Instr::DmSrc { .. }
            | Instr::DmDst { .. }
            | Instr::DmStr { .. }
            | Instr::DmRep { .. }
            | Instr::DmCpyI { .. }
            | Instr::DmStatI { .. } => {
                let (rs1, rs2, rd) = match instr {
                    Instr::DmSrc { rs1, rs2 }
                    | Instr::DmDst { rs1, rs2 }
                    | Instr::DmStr { rs1, rs2 } => (rs1, rs2, IntReg::ZERO),
                    Instr::DmRep { rs1 } => (rs1, IntReg::ZERO, IntReg::ZERO),
                    Instr::DmCpyI { rd, rs1, .. } => (rs1, IntReg::ZERO, rd),
                    Instr::DmStatI { rd, .. } => (IntReg::ZERO, IntReg::ZERO, rd),
                    _ => unreachable!(),
                };
                if !(self.ready(rs1) && self.ready(rs2) && self.ready(rd)) {
                    return stall_raw(metrics);
                }
                let Some(dma) = dma else {
                    // No DMA engine (worker cores): a structured trap,
                    // like every other unsupported operation.
                    self.take_trap(TrapCause::UnimplementedInstr(instr));
                    return;
                };
                let (a, b) = (self.read(rs1), self.read(rs2));
                match instr {
                    Instr::DmSrc { .. } => dma.set_src(a),
                    Instr::DmDst { .. } => dma.set_dst(a),
                    Instr::DmStr { .. } => dma.set_strides(a, b),
                    Instr::DmRep { .. } => dma.set_reps(a),
                    Instr::DmCpyI { rd, cfg, .. } => self.write(rd, dma.start(a, cfg & 1 != 0)),
                    Instr::DmStatI { rd, which: 0 } => self.write(rd, dma.completed()),
                    Instr::DmStatI { rd, .. } => self.write(rd, u32::from(dma.busy())),
                    _ => unreachable!(),
                }
            }
            Instr::Halt => {
                self.halted = true;
            }
            fp if fp.is_fp() => {
                if !fpu.can_offload() {
                    return stall_struct(metrics);
                }
                // Capture integer operands at offload time.
                let aux = match fp {
                    Instr::Fld { rs1, offset, .. } | Instr::Fsd { rs1, offset, .. } => {
                        if !self.ready(rs1) {
                            return stall_raw(metrics);
                        }
                        self.read(rs1).wrapping_add(offset as u32)
                    }
                    Instr::FcvtDW { rs1, .. } => {
                        if !self.ready(rs1) {
                            return stall_raw(metrics);
                        }
                        self.read(rs1)
                    }
                    _ => 0,
                };
                // FP→int results come back asynchronously: reserve rd.
                match fp {
                    Instr::FcvtWD { rd, .. } | Instr::FpuCmp { rd, .. } => {
                        if !self.ready(rd) {
                            return stall_raw(metrics);
                        }
                        if !rd.is_zero() {
                            self.busy[rd.index() as usize] = true;
                        }
                    }
                    _ => {}
                }
                fpu.offload(FpOp { instr: fp, aux });
            }
            other => {
                self.take_trap(TrapCause::UnimplementedInstr(other));
                return;
            }
        }
        self.pc = next_pc;
        metrics.instret += 1;
        if metrics.roi_active {
            metrics.roi.core_ops += 1;
        }
    }

    /// Returns `false` if the access must retry next cycle.
    #[allow(clippy::too_many_arguments)]
    fn csr_access(
        &mut self,
        now: u64,
        csr: Csr,
        op: CsrOp,
        src: u32,
        rd: IntReg,
        fpu: &FpuSubsystem,
        streamer: &mut Streamer,
        metrics: &mut Metrics,
    ) -> bool {
        if csr == Csr::Barrier {
            if self.barrier_clear {
                self.barrier_clear = false;
                self.write(rd, 0);
                return true;
            }
            self.barrier_waiting = true;
            return false;
        }
        let old = match csr {
            Csr::MHartId => self.hartid,
            Csr::MCycle => now as u32,
            Csr::MInstret => metrics.instret as u32,
            Csr::Ssr => u32::from(streamer.is_enabled()),
            Csr::Roi => u32::from(metrics.roi_active),
            _ => 0,
        };
        let new = match op {
            CsrOp::Rw => src,
            CsrOp::Rs => old | src,
            CsrOp::Rc => old & !src,
        };
        let write_intended = !(matches!(op, CsrOp::Rs | CsrOp::Rc) && src == 0);
        if write_intended {
            match csr {
                Csr::Ssr => {
                    // Toggling redirection must not race queued FP ops.
                    if !fpu.is_drained() {
                        if metrics.roi_active {
                            metrics.roi.core_stall_structural += 1;
                        }
                        return false;
                    }
                    streamer.set_enabled(new & 1 != 0);
                }
                Csr::Roi => {
                    // Measurement brackets synchronize with the FPU: the
                    // paper times kernels to completion, and the core
                    // runs ahead of the FPU subsystem (pseudo-dual-issue).
                    if !fpu.is_drained() {
                        if metrics.roi_active {
                            metrics.roi.core_stall_structural += 1;
                        }
                        return false;
                    }
                    if new & 1 != 0 {
                        metrics.roi_begin(now);
                    } else {
                        metrics.roi_end();
                    }
                }
                _ => {}
            }
        }
        self.write(rd, old);
        true
    }
}

fn extract(word: u64, byte: u32, width: LoadWidth) -> u32 {
    let shifted = word >> (byte * 8);
    match width {
        LoadWidth::B => (shifted as u8) as i8 as i32 as u32,
        LoadWidth::Bu => u32::from(shifted as u8),
        LoadWidth::H => (shifted as u16) as i16 as i32 as u32,
        LoadWidth::Hu => u32::from(shifted as u16),
        LoadWidth::W => shifted as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subword_extraction() {
        let word = 0x8877_6655_4433_2211u64;
        assert_eq!(extract(word, 0, LoadWidth::Bu), 0x11);
        assert_eq!(extract(word, 7, LoadWidth::Bu), 0x88);
        assert_eq!(extract(word, 7, LoadWidth::B), 0xFFFF_FF88);
        assert_eq!(extract(word, 2, LoadWidth::Hu), 0x4433);
        assert_eq!(extract(word, 6, LoadWidth::H), 0xFFFF_8877u32);
        assert_eq!(extract(word, 4, LoadWidth::W), 0x8877_6655);
    }

    #[test]
    fn x0_stays_zero() {
        let mut c = SnitchCore::new(0, &CcParams::default());
        c.set_reg(IntReg::ZERO, 42);
        assert_eq!(c.reg(IntReg::ZERO), 0);
    }
}
