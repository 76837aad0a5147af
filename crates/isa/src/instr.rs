//! The typed instruction set executed by the simulator.
//!
//! This covers the RV32I + M + D subset that the paper's kernels use,
//! plus the three Snitch extensions the paper builds on:
//!
//! * **Xssr** — streamer configuration reads/writes (`scfgri`/`scfgwi`)
//!   and the `ssr` CSR enabling register redirection,
//! * **Xfrep** — floating-point repetition hardware loops with register
//!   staggering (`frep.o`/`frep.i`),
//! * **Xdma** — the cluster DMA front end (`dmsrc`, `dmdst`, `dmstr`,
//!   `dmrep`, `dmcpyi`, `dmstati`).
//!
//! Every instruction has a 32-bit binary encoding (see
//! [`crate::encode`](mod@crate::encode)) so that programs round-trip
//! through machine code; the simulator executes the typed form directly
//! for speed.
//!
//! The parts of an instruction's meaning that more than one unit reads
//! are defined here, once: the FP operand slots
//! ([`Instr::fp_operands`], which the FPU issues from, FREP staggers and
//! the linter checks) and the integer ALU ([`AluOp::eval`],
//! [`AluImmOp::eval`], which the core executes and the linter folds
//! constants through). Timing, branch conditions, load/store data
//! handling and FP arithmetic each have one user and live with it.

use crate::csr::Csr;
use crate::reg::{FpReg, IntReg};
use std::fmt;

/// Branch comparison condition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchCond {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

/// Integer load width and sign treatment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LoadWidth {
    /// `lb`: sign-extended byte.
    B,
    /// `lh`: sign-extended halfword.
    H,
    /// `lw`: word.
    W,
    /// `lbu`: zero-extended byte.
    Bu,
    /// `lhu`: zero-extended halfword.
    Hu,
}

impl LoadWidth {
    /// Access size in bytes.
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            LoadWidth::B | LoadWidth::Bu => 1,
            LoadWidth::H | LoadWidth::Hu => 2,
            LoadWidth::W => 4,
        }
    }
}

/// Integer store width.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StoreWidth {
    B,
    H,
    W,
}

impl StoreWidth {
    /// Access size in bytes.
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            StoreWidth::B => 1,
            StoreWidth::H => 2,
            StoreWidth::W => 4,
        }
    }
}

/// Register-immediate ALU operation (`OP-IMM`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluImmOp {
    Addi,
    Slti,
    Sltiu,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
}

impl AluImmOp {
    /// The result of `op rd, rs1, imm` with `rs1 = a`. Shift amounts
    /// are the immediate's low five bits.
    #[must_use]
    #[inline]
    pub fn eval(self, a: u32, imm: i32) -> u32 {
        AluOp::eval(
            match self {
                AluImmOp::Addi => AluOp::Add,
                AluImmOp::Slti => AluOp::Slt,
                AluImmOp::Sltiu => AluOp::Sltu,
                AluImmOp::Xori => AluOp::Xor,
                AluImmOp::Ori => AluOp::Or,
                AluImmOp::Andi => AluOp::And,
                AluImmOp::Slli => AluOp::Sll,
                AluImmOp::Srli => AluOp::Srl,
                AluImmOp::Srai => AluOp::Sra,
            },
            a,
            imm as u32,
        )
    }
}

/// Register-register ALU operation (`OP`), including the M extension.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
}

impl AluOp {
    /// The result of `op rd, rs1, rs2` with `rs1 = a`, `rs2 = b`, under
    /// RV32IM semantics: shift amounts are `b`'s low five bits, division
    /// by zero gives all ones (`div`/`divu`) or the dividend
    /// (`rem`/`remu`), and `i32::MIN / -1` overflows to `i32::MIN` with
    /// remainder 0. Latency is the core's business, not the operation's.
    #[must_use]
    #[inline]
    pub fn eval(self, a: u32, b: u32) -> u32 {
        let (sa, sb) = (a as i32, b as i32);
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Sll => a.wrapping_shl(b & 0x1F),
            AluOp::Slt => u32::from(sa < sb),
            AluOp::Sltu => u32::from(a < b),
            AluOp::Xor => a ^ b,
            AluOp::Srl => a.wrapping_shr(b & 0x1F),
            AluOp::Sra => sa.wrapping_shr(b & 0x1F) as u32,
            AluOp::Or => a | b,
            AluOp::And => a & b,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Mulh => ((i64::from(sa) * i64::from(sb)) >> 32) as u32,
            AluOp::Mulhsu => ((i64::from(sa) * i64::from(b)) >> 32) as u32,
            AluOp::Mulhu => ((u64::from(a) * u64::from(b)) >> 32) as u32,
            AluOp::Div if b == 0 => u32::MAX,
            AluOp::Div => sa.wrapping_div(sb) as u32,
            AluOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
            AluOp::Rem if b == 0 => a,
            AluOp::Rem => sa.wrapping_rem(sb) as u32,
            AluOp::Remu => a.checked_rem(b).unwrap_or(a),
        }
    }
}

/// Two-operand double-precision FPU operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FpOp2 {
    FaddD,
    FsubD,
    FmulD,
    FdivD,
    FsgnjD,
    FsgnjnD,
    FsgnjxD,
    FminD,
    FmaxD,
}

/// Fused three-operand double-precision FPU operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FpOp3 {
    /// `rd = rs1 * rs2 + rs3`
    FmaddD,
    /// `rd = rs1 * rs2 - rs3`
    FmsubD,
    /// `rd = -(rs1 * rs2) + rs3`
    FnmsubD,
    /// `rd = -(rs1 * rs2) - rs3`
    FnmaddD,
}

/// Double-precision comparison writing an integer register.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FpCmp {
    FeqD,
    FltD,
    FleD,
}

/// CSR access operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CsrOp {
    /// Read/write.
    Rw,
    /// Read and set bits.
    Rs,
    /// Read and clear bits.
    Rc,
}

/// Which FREP loop flavour: `frep.o` repeats the whole body sequentially,
/// `frep.i` repeats each instruction of the body in place, and `frep.s`
/// repeats the body until the streams it reads raise their terminate
/// flag (data-dependent trip count, no `max_rpt` operand).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FrepKind {
    Outer,
    Inner,
    /// Stream-terminated outer loop: the sequencer replays the body while
    /// any stream source of the body is still live, and retires the loop
    /// once every such stream has raised `done` and drained. The
    /// `max_rpt` operand is ignored (assemblers pass `zero`).
    Stream,
}

/// Register-stagger configuration of an FREP loop.
///
/// On iteration `i`, operands selected by `mask` have their register index
/// incremented by `i mod (count + 1)`. Mask bits: 0 → `rd`, 1 → `rs1`,
/// 2 → `rs2`, 3 → `rs3` (the encoding the paper's Listing 1 uses,
/// e.g. `0b1001` staggers the accumulator read and write of an `fmadd.d`).
/// The bits are the operand slots of [`Instr::fp_operands`]: every FP
/// register operand is staggered by its slot, and an integer operand
/// never is — the core captures it (or reserves it on its scoreboard)
/// at offload, before the sequencer ever sees the instruction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Stagger {
    /// Number of *additional* registers to rotate through (0 = no stagger).
    pub count: u8,
    /// Operand-select mask (bits rd/rs1/rs2/rs3).
    pub mask: u8,
}

impl Stagger {
    /// No staggering.
    pub const NONE: Self = Self { count: 0, mask: 0 };

    /// Staggers the accumulator of an `fmadd`-style op (`rd` and `rs3`)
    /// over `n_regs` registers.
    ///
    /// # Panics
    /// Panics if `n_regs` is zero or exceeds 16.
    #[must_use]
    pub fn accumulator(n_regs: u8) -> Self {
        assert!((1..=16).contains(&n_regs), "stagger depth {n_regs} out of range");
        Self { count: n_regs - 1, mask: 0b1001 }
    }

    /// Register offset applied on iteration `i` to operands selected by the
    /// mask.
    #[must_use]
    pub fn offset_at(&self, i: u32) -> u8 {
        if self.count == 0 {
            0
        } else {
            (i % (u32::from(self.count) + 1)) as u8
        }
    }

    /// The register operand slot `slot` (0 = `rd`, 1–3 = `rs1`–`rs3`)
    /// names on an iteration whose [`Self::offset_at`] is `offset`.
    #[must_use]
    #[inline]
    pub fn apply(&self, reg: FpReg, slot: usize, offset: u8) -> FpReg {
        if self.mask & (1 << slot) != 0 && offset > 0 {
            FpReg::new((reg.index() + offset) % 32)
        } else {
            reg
        }
    }
}

/// One machine instruction.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Instr {
    // ---- RV32I ----
    /// `lui rd, imm20` — load upper immediate (`imm` is the final 32-bit
    /// value with low 12 bits zero).
    Lui { rd: IntReg, imm: u32 },
    /// `auipc rd, imm20`.
    Auipc { rd: IntReg, imm: u32 },
    /// `jal rd, offset` (byte offset relative to this instruction).
    Jal { rd: IntReg, offset: i32 },
    /// `jalr rd, offset(rs1)`.
    Jalr { rd: IntReg, rs1: IntReg, offset: i32 },
    /// Conditional branch, byte offset relative to this instruction.
    Branch { cond: BranchCond, rs1: IntReg, rs2: IntReg, offset: i32 },
    /// Integer load.
    Load { width: LoadWidth, rd: IntReg, rs1: IntReg, offset: i32 },
    /// Integer store.
    Store { width: StoreWidth, rs2: IntReg, rs1: IntReg, offset: i32 },
    /// Register-immediate ALU operation.
    OpImm { op: AluImmOp, rd: IntReg, rs1: IntReg, imm: i32 },
    /// Register-register ALU operation.
    Op { op: AluOp, rd: IntReg, rs1: IntReg, rs2: IntReg },
    /// CSR access with register source.
    CsrR { op: CsrOp, rd: IntReg, rs1: IntReg, csr: Csr },
    /// CSR access with 5-bit immediate source.
    CsrI { op: CsrOp, rd: IntReg, uimm: u8, csr: Csr },
    /// Environment call; the simulator treats `ecall` as a no-op trap hook.
    Ecall,
    /// `fence` — memory ordering; a timing no-op in this model.
    Fence,

    // ---- RV32D (subset) ----
    /// `fld rd, offset(rs1)`.
    Fld { rd: FpReg, rs1: IntReg, offset: i32 },
    /// `fsd rs2, offset(rs1)`.
    Fsd { rs2: FpReg, rs1: IntReg, offset: i32 },
    /// Two-operand FP op.
    FpuOp2 { op: FpOp2, rd: FpReg, rs1: FpReg, rs2: FpReg },
    /// Fused multiply-add family.
    FpuOp3 { op: FpOp3, rd: FpReg, rs1: FpReg, rs2: FpReg, rs3: FpReg },
    /// FP comparison into an integer register.
    FpuCmp { op: FpCmp, rd: IntReg, rs1: FpReg, rs2: FpReg },
    /// `fcvt.d.w rd, rs1` — signed 32-bit integer to double.
    FcvtDW { rd: FpReg, rs1: IntReg },
    /// `fcvt.w.d rd, rs1` — double to signed 32-bit integer (RTZ).
    FcvtWD { rd: IntReg, rs1: FpReg },
    /// `fmv.d rd, rs1` (canonical `fsgnj.d rd, rs1, rs1`); kept distinct so
    /// the FPU can treat it as a cheap move and so streams pop exactly once.
    FmvD { rd: FpReg, rs1: FpReg },

    // ---- Xssr ----
    /// `scfgwi rs1, addr` — write streamer configuration word `addr`.
    ///
    /// The 12-bit address is `reg << 5 | lane` as in Snitch's memory-mapped
    /// layout (see `issr-core`).
    Scfgwi { rs1: IntReg, addr: u16 },
    /// `scfgri rd, addr` — read streamer configuration word `addr`.
    Scfgri { rd: IntReg, addr: u16 },

    // ---- Xfrep ----
    /// Floating-point repetition loop over the next `n_insns` FP
    /// instructions, executed `rs1 + 1` times (`frep.o`/`frep.i`) or
    /// until stream termination (`frep.s`, `rs1` ignored).
    Frep { kind: FrepKind, max_rpt: IntReg, n_insns: u8, stagger: Stagger },

    // ---- Xdma ----
    /// `dmsrc rs1, rs2` — set DMA source address (low word in `rs1`).
    DmSrc { rs1: IntReg, rs2: IntReg },
    /// `dmdst rs1, rs2` — set DMA destination address (low word in `rs1`).
    DmDst { rs1: IntReg, rs2: IntReg },
    /// `dmstr rs1, rs2` — set 2D source (`rs1`) and destination (`rs2`)
    /// strides in bytes.
    DmStr { rs1: IntReg, rs2: IntReg },
    /// `dmrep rs1` — set 2D repetition count.
    DmRep { rs1: IntReg },
    /// `dmcpyi rd, rs1, cfg` — start a transfer of `rs1` bytes per row;
    /// `cfg` bit 0 enables 2D mode. Returns the transfer id in `rd`.
    DmCpyI { rd: IntReg, rs1: IntReg, cfg: u8 },
    /// `dmstati rd, which` — read DMA status. `which = 0`: number of
    /// completed transfers (monotonic); `which = 1`: 1 while busy.
    DmStatI { rd: IntReg, which: u8 },

    // ---- Simulator control (custom-2 space) ----
    /// Stops the issuing core; simulation ends when all cores halt.
    Halt,
}

impl Instr {
    /// Returns `true` if the instruction executes in the FPU subsystem
    /// (and is therefore eligible for FREP bodies and pseudo-dual-issue).
    #[must_use]
    pub fn is_fp(&self) -> bool {
        matches!(
            self,
            Instr::Fld { .. }
                | Instr::Fsd { .. }
                | Instr::FpuOp2 { .. }
                | Instr::FpuOp3 { .. }
                | Instr::FpuCmp { .. }
                | Instr::FcvtDW { .. }
                | Instr::FcvtWD { .. }
                | Instr::FmvD { .. }
        )
    }

    /// The FP register operands, indexed by stagger slot: slot 0 is the
    /// FP destination, slots 1–3 the FP sources `rs1`–`rs3`, so `fsd`
    /// reads slot 2 and `fcvt.w.d` slot 1. A stream-redirected source
    /// pops its lane once per naming, in slot order. Integer operands
    /// (`fld`/`fsd` addresses, `fcvt.d.w`'s source, the compares'
    /// and `fcvt.w.d`'s destination) are not FP operands. `fld`'s slot
    /// 0 is written through memory, not by the FPU's result path.
    #[must_use]
    #[inline]
    pub fn fp_operands(&self) -> [Option<FpReg>; 4] {
        match *self {
            Instr::FpuOp3 { rd, rs1, rs2, rs3, .. } => [Some(rd), Some(rs1), Some(rs2), Some(rs3)],
            Instr::FpuOp2 { rd, rs1, rs2, .. } => [Some(rd), Some(rs1), Some(rs2), None],
            Instr::FpuCmp { rs1, rs2, .. } => [None, Some(rs1), Some(rs2), None],
            Instr::FmvD { rd, rs1 } => [Some(rd), Some(rs1), None, None],
            Instr::FcvtWD { rs1, .. } => [None, Some(rs1), None, None],
            Instr::Fld { rd, .. } | Instr::FcvtDW { rd, .. } => [Some(rd), None, None, None],
            Instr::Fsd { rs2, .. } => [None, None, Some(rs2), None],
            _ => [None; 4],
        }
    }

    /// Returns `true` for control-flow instructions (branches and jumps).
    #[must_use]
    pub fn is_control_flow(&self) -> bool {
        matches!(self, Instr::Jal { .. } | Instr::Jalr { .. } | Instr::Branch { .. })
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Lui { rd, imm } => write!(f, "lui {rd}, {:#x}", imm >> 12),
            Instr::Auipc { rd, imm } => write!(f, "auipc {rd}, {:#x}", imm >> 12),
            Instr::Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Instr::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            Instr::Branch { cond, rs1, rs2, offset } => {
                let name = match cond {
                    BranchCond::Eq => "beq",
                    BranchCond::Ne => "bne",
                    BranchCond::Lt => "blt",
                    BranchCond::Ge => "bge",
                    BranchCond::Ltu => "bltu",
                    BranchCond::Geu => "bgeu",
                };
                write!(f, "{name} {rs1}, {rs2}, {offset}")
            }
            Instr::Load { width, rd, rs1, offset } => {
                let name = match width {
                    LoadWidth::B => "lb",
                    LoadWidth::H => "lh",
                    LoadWidth::W => "lw",
                    LoadWidth::Bu => "lbu",
                    LoadWidth::Hu => "lhu",
                };
                write!(f, "{name} {rd}, {offset}({rs1})")
            }
            Instr::Store { width, rs2, rs1, offset } => {
                let name = match width {
                    StoreWidth::B => "sb",
                    StoreWidth::H => "sh",
                    StoreWidth::W => "sw",
                };
                write!(f, "{name} {rs2}, {offset}({rs1})")
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                let name = match op {
                    AluImmOp::Addi => "addi",
                    AluImmOp::Slti => "slti",
                    AluImmOp::Sltiu => "sltiu",
                    AluImmOp::Xori => "xori",
                    AluImmOp::Ori => "ori",
                    AluImmOp::Andi => "andi",
                    AluImmOp::Slli => "slli",
                    AluImmOp::Srli => "srli",
                    AluImmOp::Srai => "srai",
                };
                write!(f, "{name} {rd}, {rs1}, {imm}")
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let name = match op {
                    AluOp::Add => "add",
                    AluOp::Sub => "sub",
                    AluOp::Sll => "sll",
                    AluOp::Slt => "slt",
                    AluOp::Sltu => "sltu",
                    AluOp::Xor => "xor",
                    AluOp::Srl => "srl",
                    AluOp::Sra => "sra",
                    AluOp::Or => "or",
                    AluOp::And => "and",
                    AluOp::Mul => "mul",
                    AluOp::Mulh => "mulh",
                    AluOp::Mulhsu => "mulhsu",
                    AluOp::Mulhu => "mulhu",
                    AluOp::Div => "div",
                    AluOp::Divu => "divu",
                    AluOp::Rem => "rem",
                    AluOp::Remu => "remu",
                };
                write!(f, "{name} {rd}, {rs1}, {rs2}")
            }
            Instr::CsrR { op, rd, rs1, csr } => {
                let name = match op {
                    CsrOp::Rw => "csrrw",
                    CsrOp::Rs => "csrrs",
                    CsrOp::Rc => "csrrc",
                };
                write!(f, "{name} {rd}, {csr}, {rs1}")
            }
            Instr::CsrI { op, rd, uimm, csr } => {
                let name = match op {
                    CsrOp::Rw => "csrrwi",
                    CsrOp::Rs => "csrrsi",
                    CsrOp::Rc => "csrrci",
                };
                write!(f, "{name} {rd}, {csr}, {uimm}")
            }
            Instr::Ecall => write!(f, "ecall"),
            Instr::Fence => write!(f, "fence"),
            Instr::Fld { rd, rs1, offset } => write!(f, "fld {rd}, {offset}({rs1})"),
            Instr::Fsd { rs2, rs1, offset } => write!(f, "fsd {rs2}, {offset}({rs1})"),
            Instr::FpuOp2 { op, rd, rs1, rs2 } => {
                let name = match op {
                    FpOp2::FaddD => "fadd.d",
                    FpOp2::FsubD => "fsub.d",
                    FpOp2::FmulD => "fmul.d",
                    FpOp2::FdivD => "fdiv.d",
                    FpOp2::FsgnjD => "fsgnj.d",
                    FpOp2::FsgnjnD => "fsgnjn.d",
                    FpOp2::FsgnjxD => "fsgnjx.d",
                    FpOp2::FminD => "fmin.d",
                    FpOp2::FmaxD => "fmax.d",
                };
                write!(f, "{name} {rd}, {rs1}, {rs2}")
            }
            Instr::FpuOp3 { op, rd, rs1, rs2, rs3 } => {
                let name = match op {
                    FpOp3::FmaddD => "fmadd.d",
                    FpOp3::FmsubD => "fmsub.d",
                    FpOp3::FnmsubD => "fnmsub.d",
                    FpOp3::FnmaddD => "fnmadd.d",
                };
                write!(f, "{name} {rd}, {rs1}, {rs2}, {rs3}")
            }
            Instr::FpuCmp { op, rd, rs1, rs2 } => {
                let name = match op {
                    FpCmp::FeqD => "feq.d",
                    FpCmp::FltD => "flt.d",
                    FpCmp::FleD => "fle.d",
                };
                write!(f, "{name} {rd}, {rs1}, {rs2}")
            }
            Instr::FcvtDW { rd, rs1 } => write!(f, "fcvt.d.w {rd}, {rs1}"),
            Instr::FcvtWD { rd, rs1 } => write!(f, "fcvt.w.d {rd}, {rs1}"),
            Instr::FmvD { rd, rs1 } => write!(f, "fmv.d {rd}, {rs1}"),
            Instr::Scfgwi { rs1, addr } => write!(f, "scfgwi {rs1}, {addr:#x}"),
            Instr::Scfgri { rd, addr } => write!(f, "scfgri {rd}, {addr:#x}"),
            Instr::Frep { kind, max_rpt, n_insns, stagger } => {
                let name = match kind {
                    FrepKind::Outer => "frep.o",
                    FrepKind::Inner => "frep.i",
                    FrepKind::Stream => "frep.s",
                };
                write!(f, "{name} {max_rpt}, {n_insns}, {}, {:#06b}", stagger.count, stagger.mask)
            }
            Instr::DmSrc { rs1, rs2 } => write!(f, "dmsrc {rs1}, {rs2}"),
            Instr::DmDst { rs1, rs2 } => write!(f, "dmdst {rs1}, {rs2}"),
            Instr::DmStr { rs1, rs2 } => write!(f, "dmstr {rs1}, {rs2}"),
            Instr::DmRep { rs1 } => write!(f, "dmrep {rs1}"),
            Instr::DmCpyI { rd, rs1, cfg } => write!(f, "dmcpyi {rd}, {rs1}, {cfg}"),
            Instr::DmStatI { rd, which } => write!(f, "dmstati {rd}, {which}"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stagger_rotation() {
        let s = Stagger::accumulator(4);
        assert_eq!(s.count, 3);
        assert_eq!(s.mask, 0b1001);
        let offsets: Vec<u8> = (0..9).map(|i| s.offset_at(i)).collect();
        assert_eq!(offsets, [0, 1, 2, 3, 0, 1, 2, 3, 0]);
    }

    #[test]
    fn stagger_none_is_identity() {
        assert_eq!(Stagger::NONE.offset_at(17), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stagger_zero_depth_panics() {
        let _ = Stagger::accumulator(0);
    }

    #[test]
    fn fp_classification() {
        let fmadd = Instr::FpuOp3 {
            op: FpOp3::FmaddD,
            rd: FpReg::FT2,
            rs1: FpReg::FT0,
            rs2: FpReg::FT1,
            rs3: FpReg::FT2,
        };
        assert!(fmadd.is_fp());
        assert!(!fmadd.is_control_flow());
        let bne =
            Instr::Branch { cond: BranchCond::Ne, rs1: IntReg::T0, rs2: IntReg::T1, offset: -4 };
        assert!(bne.is_control_flow());
        assert!(!bne.is_fp());
    }

    #[test]
    fn display_smoke() {
        let i = Instr::Load { width: LoadWidth::W, rd: IntReg::T0, rs1: IntReg::A0, offset: 8 };
        assert_eq!(i.to_string(), "lw t0, 8(a0)");
        let f = Instr::Frep {
            kind: FrepKind::Outer,
            max_rpt: IntReg::T0,
            n_insns: 1,
            stagger: Stagger::accumulator(4),
        };
        assert_eq!(f.to_string(), "frep.o t0, 1, 3, 0b1001");
    }

    #[test]
    fn alu_reference_semantics() {
        use AluOp as A;
        assert_eq!(A::Add.eval(2, 3), 5);
        assert_eq!(A::Sub.eval(2, 3), u32::MAX);
        assert_eq!(A::Sra.eval(0x8000_0000, 4), 0xF800_0000);
        assert_eq!(A::Srl.eval(0x8000_0000, 4), 0x0800_0000);
        assert_eq!(A::Slt.eval(u32::MAX, 0), 1); // -1 < 0
        assert_eq!(A::Sltu.eval(u32::MAX, 0), 0);
        assert_eq!(A::Mulhu.eval(0xFFFF_FFFF, 0xFFFF_FFFF), 0xFFFF_FFFE);
        assert_eq!(A::Div.eval(7u32.wrapping_neg(), 2), 3u32.wrapping_neg());
        assert_eq!(A::Divu.eval(0, 0), u32::MAX);
        assert_eq!(A::Rem.eval(7, 0), 7);

        // Division by zero: all ones, or the dividend.
        let neg7 = 7u32.wrapping_neg();
        for a in [0, 7, neg7, i32::MIN as u32] {
            assert_eq!(A::Div.eval(a, 0), u32::MAX);
            assert_eq!(A::Divu.eval(a, 0), u32::MAX);
            assert_eq!(A::Rem.eval(a, 0), a);
            assert_eq!(A::Remu.eval(a, 0), a);
        }
        // Signed overflow: i32::MIN / -1 = i32::MIN, remainder 0.
        let (min, minus1) = (i32::MIN as u32, u32::MAX);
        assert_eq!(A::Div.eval(min, minus1), min);
        assert_eq!(A::Rem.eval(min, minus1), 0);
        assert_eq!(A::Rem.eval(neg7, 2), 1u32.wrapping_neg()); // sign of the dividend
        assert_eq!(A::Remu.eval(neg7, 2), 1);

        // High multiplies: rs1 signed for mulh/mulhsu, rs2 signed for mulh only.
        assert_eq!(A::Mulh.eval(minus1, minus1), 0); // -1 * -1 = 1
        assert_eq!(A::Mulh.eval(minus1, 1), minus1); // -1 * 1 = -1
        assert_eq!(A::Mulh.eval(min, min), 0x4000_0000); // 2^62
        assert_eq!(A::Mulhsu.eval(minus1, minus1), minus1); // -1 * (2^32 - 1)
        assert_eq!(A::Mulhsu.eval(1, minus1), 0);
        assert_eq!(A::Mulhu.eval(minus1, 2), 1);
        assert_eq!(A::Mul.eval(minus1, minus1), 1);

        // Shift amounts are masked to five bits.
        assert_eq!(A::Sll.eval(1, 33), 2);
        assert_eq!(A::Srl.eval(0x8000_0000, 32), 0x8000_0000);
        assert_eq!(A::Sra.eval(0x8000_0000, 63), u32::MAX);
        assert_eq!(AluImmOp::Slli.eval(1, 0x21), 2);

        // OP-IMM: the immediate is sign-extended, sltiu compares it unsigned.
        assert_eq!(AluImmOp::Addi.eval(5, -6), u32::MAX);
        assert_eq!(AluImmOp::Slti.eval(neg7, -1), 1);
        assert_eq!(AluImmOp::Sltiu.eval(5, -1), 1); // 5 < 0xFFFF_FFFF
        assert_eq!(AluImmOp::Sltiu.eval(u32::MAX, -1), 0);
        assert_eq!(AluImmOp::Sltiu.eval(0, 1), 1); // seqz
        assert_eq!(AluImmOp::Srai.eval(0x8000_0010, 4), 0xF800_0001);
        assert_eq!(AluImmOp::Srli.eval(0x8000_0010, 4), 0x0800_0001);
        assert_eq!(AluImmOp::Xori.eval(0xF0, -1), !0xF0);
        assert_eq!(AluImmOp::Andi.eval(0x1234, 0xF), 4);
        assert_eq!(AluImmOp::Ori.eval(0x1230, 0xF), 0x123F);
    }

    #[test]
    fn fp_operands_follow_the_stagger_slots() {
        use FpReg as F;
        let fsd = Instr::Fsd { rs2: F::FT3, rs1: IntReg::A0, offset: 0 };
        assert_eq!(fsd.fp_operands(), [None, None, Some(F::FT3), None]);
        let flt = Instr::FpuCmp { op: FpCmp::FltD, rd: IntReg::T0, rs1: F::FT1, rs2: F::FT2 };
        assert_eq!(flt.fp_operands(), [None, Some(F::FT1), Some(F::FT2), None]);
        let cvt = Instr::FcvtDW { rd: F::FT4, rs1: IntReg::A0 };
        assert_eq!(cvt.fp_operands(), [Some(F::FT4), None, None, None]);
        assert_eq!(Instr::Halt.fp_operands(), [None; 4]);

        let s = Stagger { count: 3, mask: 0b0010 };
        assert_eq!(s.apply(F::FT4, 1, 2), F::FT6);
        assert_eq!(s.apply(F::FT4, 2, 2), F::FT4, "slot 2 is not selected");
        assert_eq!(s.apply(F::FT4, 1, 0), F::FT4, "iteration 0 is unrotated");
        assert_eq!(s.apply(FpReg::new(31), 1, 1), F::FT0, "wraps at f31");
    }

    #[test]
    fn load_store_widths() {
        assert_eq!(LoadWidth::Hu.bytes(), 2);
        assert_eq!(LoadWidth::W.bytes(), 4);
        assert_eq!(StoreWidth::B.bytes(), 1);
    }
}
