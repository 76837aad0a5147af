//! A small programmatic assembler.
//!
//! Kernels in this project are generated per workload (addresses and trip
//! counts are baked in the way a linker would), so the assembler is a
//! builder over [`Instr`] with label fix-ups rather than a text parser.
//!
//! # Examples
//! ```
//! use issr_isa::asm::Assembler;
//! use issr_isa::reg::IntReg;
//!
//! let mut a = Assembler::new();
//! a.li(IntReg::T0, 3);
//! let loop_head = a.bind_label();
//! a.addi(IntReg::T0, IntReg::T0, -1);
//! a.bnez(IntReg::T0, loop_head);
//! a.halt();
//! let program = a.finish().expect("labels resolved");
//! assert_eq!(program.len(), 4);
//! ```

use crate::csr::Csr;
use crate::instr::*;
use crate::reg::{FpReg, IntReg};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// A branch/jump target created by [`Assembler::new_label`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Label(usize);

/// Error produced when finishing a program with unresolved or misused
/// labels or a repeated symbol.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AsmError {
    /// A label was referenced but never bound.
    UnboundLabel(Label),
    /// A computed branch offset does not fit its encoding.
    OffsetOutOfRange { at: usize, offset: i64 },
    /// A symbol name was recorded at two positions.
    DuplicateSymbol { name: String, first: usize, again: usize },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel(l) => write!(f, "label {l:?} referenced but never bound"),
            AsmError::OffsetOutOfRange { at, offset } => {
                write!(f, "branch at instruction {at} has out-of-range offset {offset}")
            }
            AsmError::DuplicateSymbol { name, first, again } => {
                write!(f, "symbol `{name}` recorded at instruction {first} and again at {again}")
            }
        }
    }
}

impl std::error::Error for AsmError {}

/// An assembled program: a flat instruction sequence starting at PC 0.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Program {
    instrs: Vec<Instr>,
    /// Named positions, for traces and tests.
    symbols: HashMap<String, usize>,
    /// The `nop` runs [`Assembler::align`] inserted, in order.
    padding: Vec<Range<usize>>,
}

impl Program {
    /// The instructions, indexed by `pc / 4`.
    #[must_use]
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction index bound to `name`, if any.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<usize> {
        self.symbols.get(name).copied()
    }

    /// Encodes the program to machine words.
    #[must_use]
    pub fn to_words(&self) -> Vec<u32> {
        crate::encode::encode_all(&self.instrs)
    }

    /// Whether instruction `index` is alignment padding
    /// ([`Assembler::align`]).
    #[must_use]
    pub fn is_padding(&self, index: usize) -> bool {
        self.padding.iter().any(|run| run.contains(&index))
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: HashMap<usize, &str> = HashMap::new();
        for (name, &at) in &self.symbols {
            names.insert(at, name);
        }
        for (i, instr) in self.instrs.iter().enumerate() {
            if let Some(name) = names.get(&i) {
                writeln!(f, "{name}:")?;
            }
            writeln!(f, "  {:4}: {instr}", i * 4)?;
        }
        Ok(())
    }
}

#[derive(Clone, Copy, Debug)]
enum Fixup {
    Branch,
    Jal,
}

/// The program builder. Emitter methods append one instruction each and
/// mirror assembly mnemonics; pseudo-instructions (`li`, `mv`, `nop`,
/// `bnez`, …) expand exactly like the standard assembler would.
#[derive(Debug, Default)]
pub struct Assembler {
    instrs: Vec<Instr>,
    bound: Vec<Option<usize>>,
    fixups: Vec<(usize, Label, Fixup)>,
    symbols: HashMap<String, usize>,
    /// The first name [`Assembler::symbol`] saw twice, reported by
    /// [`Assembler::finish`].
    duplicate: Option<AsmError>,
    padding: Vec<Range<usize>>,
}

impl Assembler {
    /// Creates an empty assembler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current instruction index (the position the next emit lands at).
    #[must_use]
    pub fn here(&self) -> usize {
        self.instrs.len()
    }

    /// Creates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.bound.push(None);
        Label(self.bound.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.bound[label.0].is_none(), "label bound twice");
        self.bound[label.0] = Some(self.instrs.len());
    }

    /// Creates a label bound to the current position.
    pub fn bind_label(&mut self) -> Label {
        let l = self.new_label();
        self.bind(l);
        l
    }

    /// Records a named symbol at the current position (for traces/tests).
    /// A name is recorded once: a second record makes
    /// [`Assembler::finish`] fail with [`AsmError::DuplicateSymbol`].
    pub fn symbol(&mut self, name: &str) {
        let again = self.instrs.len();
        if let Some(first) = self.symbols.insert(name.to_owned(), again) {
            let name = name.to_owned();
            self.duplicate.get_or_insert(AsmError::DuplicateSymbol { name, first, again });
        }
    }

    /// Appends a raw instruction.
    pub fn push(&mut self, instr: Instr) {
        self.instrs.push(instr);
    }

    /// Resolves labels and produces the program.
    ///
    /// # Errors
    /// Returns [`AsmError`] if a symbol was recorded twice, a referenced
    /// label is unbound or an offset does not fit the encoding.
    pub fn finish(mut self) -> Result<Program, AsmError> {
        if let Some(duplicate) = self.duplicate {
            return Err(duplicate);
        }
        for &(at, label, kind) in &self.fixups {
            let Some(target) = self.bound[label.0] else {
                return Err(AsmError::UnboundLabel(label));
            };
            let offset = (target as i64 - at as i64) * 4;
            match (kind, &mut self.instrs[at]) {
                (Fixup::Branch, Instr::Branch { offset: o, .. }) => {
                    if !(-4096..=4094).contains(&offset) {
                        return Err(AsmError::OffsetOutOfRange { at, offset });
                    }
                    *o = offset as i32;
                }
                (Fixup::Jal, Instr::Jal { offset: o, .. }) => {
                    if !(-(1 << 20)..(1 << 20)).contains(&offset) {
                        return Err(AsmError::OffsetOutOfRange { at, offset });
                    }
                    *o = offset as i32;
                }
                _ => unreachable!("fixup kind mismatch"),
            }
        }
        Ok(Program { instrs: self.instrs, symbols: self.symbols, padding: self.padding })
    }

    /// Pads with `nop`s until the next instruction starts a `bytes`-byte
    /// line (PC 0 starts one), so that a loop can be placed on
    /// instruction-cache lines. The padding is recorded in the program:
    /// put it behind an unconditional jump and `issr-lint` does not
    /// report it as unreachable code.
    ///
    /// # Panics
    /// Panics if `bytes` is not a power of two of at least 4.
    pub fn align(&mut self, bytes: u32) {
        assert!(bytes.is_power_of_two() && bytes >= 4, "alignment {bytes} is not a line size");
        let per_line = (bytes / 4) as usize;
        self.pad((per_line - self.here() % per_line) % per_line);
    }

    /// Emits `count` `nop`s recorded as padding, as [`Assembler::align`]
    /// does: a path shorter than the slots it was given keeps the
    /// addresses of the code behind it. Put it behind an unconditional
    /// jump.
    pub fn pad(&mut self, count: usize) {
        let start = self.here();
        for _ in 0..count {
            self.nop();
        }
        if count > 0 {
            self.padding.push(start..self.here());
        }
    }

    // ---- RV32I emitters ----

    pub fn lui(&mut self, rd: IntReg, imm: u32) {
        self.push(Instr::Lui { rd, imm: imm & 0xFFFF_F000 });
    }

    pub fn auipc(&mut self, rd: IntReg, imm: u32) {
        self.push(Instr::Auipc { rd, imm: imm & 0xFFFF_F000 });
    }

    pub fn jal(&mut self, rd: IntReg, target: Label) {
        self.fixups.push((self.instrs.len(), target, Fixup::Jal));
        self.push(Instr::Jal { rd, offset: 0 });
    }

    pub fn jalr(&mut self, rd: IntReg, rs1: IntReg, offset: i32) {
        self.push(Instr::Jalr { rd, rs1, offset });
    }

    fn branch(&mut self, cond: BranchCond, rs1: IntReg, rs2: IntReg, target: Label) {
        self.fixups.push((self.instrs.len(), target, Fixup::Branch));
        self.push(Instr::Branch { cond, rs1, rs2, offset: 0 });
    }

    pub fn beq(&mut self, rs1: IntReg, rs2: IntReg, target: Label) {
        self.branch(BranchCond::Eq, rs1, rs2, target);
    }
    pub fn bne(&mut self, rs1: IntReg, rs2: IntReg, target: Label) {
        self.branch(BranchCond::Ne, rs1, rs2, target);
    }
    pub fn blt(&mut self, rs1: IntReg, rs2: IntReg, target: Label) {
        self.branch(BranchCond::Lt, rs1, rs2, target);
    }
    pub fn bge(&mut self, rs1: IntReg, rs2: IntReg, target: Label) {
        self.branch(BranchCond::Ge, rs1, rs2, target);
    }
    pub fn bltu(&mut self, rs1: IntReg, rs2: IntReg, target: Label) {
        self.branch(BranchCond::Ltu, rs1, rs2, target);
    }
    pub fn bgeu(&mut self, rs1: IntReg, rs2: IntReg, target: Label) {
        self.branch(BranchCond::Geu, rs1, rs2, target);
    }

    pub fn lw(&mut self, rd: IntReg, rs1: IntReg, offset: i32) {
        self.push(Instr::Load { width: LoadWidth::W, rd, rs1, offset });
    }
    pub fn lh(&mut self, rd: IntReg, rs1: IntReg, offset: i32) {
        self.push(Instr::Load { width: LoadWidth::H, rd, rs1, offset });
    }
    pub fn lhu(&mut self, rd: IntReg, rs1: IntReg, offset: i32) {
        self.push(Instr::Load { width: LoadWidth::Hu, rd, rs1, offset });
    }
    pub fn lb(&mut self, rd: IntReg, rs1: IntReg, offset: i32) {
        self.push(Instr::Load { width: LoadWidth::B, rd, rs1, offset });
    }
    pub fn lbu(&mut self, rd: IntReg, rs1: IntReg, offset: i32) {
        self.push(Instr::Load { width: LoadWidth::Bu, rd, rs1, offset });
    }
    pub fn sw(&mut self, rs2: IntReg, rs1: IntReg, offset: i32) {
        self.push(Instr::Store { width: StoreWidth::W, rs2, rs1, offset });
    }
    pub fn sh(&mut self, rs2: IntReg, rs1: IntReg, offset: i32) {
        self.push(Instr::Store { width: StoreWidth::H, rs2, rs1, offset });
    }
    pub fn sb(&mut self, rs2: IntReg, rs1: IntReg, offset: i32) {
        self.push(Instr::Store { width: StoreWidth::B, rs2, rs1, offset });
    }

    pub fn addi(&mut self, rd: IntReg, rs1: IntReg, imm: i32) {
        self.push(Instr::OpImm { op: AluImmOp::Addi, rd, rs1, imm });
    }
    pub fn andi(&mut self, rd: IntReg, rs1: IntReg, imm: i32) {
        self.push(Instr::OpImm { op: AluImmOp::Andi, rd, rs1, imm });
    }
    pub fn ori(&mut self, rd: IntReg, rs1: IntReg, imm: i32) {
        self.push(Instr::OpImm { op: AluImmOp::Ori, rd, rs1, imm });
    }
    pub fn xori(&mut self, rd: IntReg, rs1: IntReg, imm: i32) {
        self.push(Instr::OpImm { op: AluImmOp::Xori, rd, rs1, imm });
    }
    pub fn slti(&mut self, rd: IntReg, rs1: IntReg, imm: i32) {
        self.push(Instr::OpImm { op: AluImmOp::Slti, rd, rs1, imm });
    }
    pub fn sltiu(&mut self, rd: IntReg, rs1: IntReg, imm: i32) {
        self.push(Instr::OpImm { op: AluImmOp::Sltiu, rd, rs1, imm });
    }
    pub fn slli(&mut self, rd: IntReg, rs1: IntReg, shamt: i32) {
        self.push(Instr::OpImm { op: AluImmOp::Slli, rd, rs1, imm: shamt & 0x1F });
    }
    pub fn srli(&mut self, rd: IntReg, rs1: IntReg, shamt: i32) {
        self.push(Instr::OpImm { op: AluImmOp::Srli, rd, rs1, imm: shamt & 0x1F });
    }
    pub fn srai(&mut self, rd: IntReg, rs1: IntReg, shamt: i32) {
        self.push(Instr::OpImm { op: AluImmOp::Srai, rd, rs1, imm: shamt & 0x1F });
    }

    pub fn add(&mut self, rd: IntReg, rs1: IntReg, rs2: IntReg) {
        self.push(Instr::Op { op: AluOp::Add, rd, rs1, rs2 });
    }
    pub fn sub(&mut self, rd: IntReg, rs1: IntReg, rs2: IntReg) {
        self.push(Instr::Op { op: AluOp::Sub, rd, rs1, rs2 });
    }
    pub fn sll(&mut self, rd: IntReg, rs1: IntReg, rs2: IntReg) {
        self.push(Instr::Op { op: AluOp::Sll, rd, rs1, rs2 });
    }
    pub fn and(&mut self, rd: IntReg, rs1: IntReg, rs2: IntReg) {
        self.push(Instr::Op { op: AluOp::And, rd, rs1, rs2 });
    }
    pub fn or(&mut self, rd: IntReg, rs1: IntReg, rs2: IntReg) {
        self.push(Instr::Op { op: AluOp::Or, rd, rs1, rs2 });
    }
    pub fn xor(&mut self, rd: IntReg, rs1: IntReg, rs2: IntReg) {
        self.push(Instr::Op { op: AluOp::Xor, rd, rs1, rs2 });
    }
    pub fn sltu(&mut self, rd: IntReg, rs1: IntReg, rs2: IntReg) {
        self.push(Instr::Op { op: AluOp::Sltu, rd, rs1, rs2 });
    }
    pub fn mul(&mut self, rd: IntReg, rs1: IntReg, rs2: IntReg) {
        self.push(Instr::Op { op: AluOp::Mul, rd, rs1, rs2 });
    }
    pub fn divu(&mut self, rd: IntReg, rs1: IntReg, rs2: IntReg) {
        self.push(Instr::Op { op: AluOp::Divu, rd, rs1, rs2 });
    }
    pub fn remu(&mut self, rd: IntReg, rs1: IntReg, rs2: IntReg) {
        self.push(Instr::Op { op: AluOp::Remu, rd, rs1, rs2 });
    }

    pub fn csrrw(&mut self, rd: IntReg, csr: Csr, rs1: IntReg) {
        self.push(Instr::CsrR { op: CsrOp::Rw, rd, rs1, csr });
    }
    pub fn csrrs(&mut self, rd: IntReg, csr: Csr, rs1: IntReg) {
        self.push(Instr::CsrR { op: CsrOp::Rs, rd, rs1, csr });
    }
    pub fn csrr(&mut self, rd: IntReg, csr: Csr) {
        self.csrrs(rd, csr, IntReg::ZERO);
    }
    pub fn csrsi(&mut self, csr: Csr, uimm: u8) {
        self.push(Instr::CsrI { op: CsrOp::Rs, rd: IntReg::ZERO, uimm, csr });
    }
    pub fn csrci(&mut self, csr: Csr, uimm: u8) {
        self.push(Instr::CsrI { op: CsrOp::Rc, rd: IntReg::ZERO, uimm, csr });
    }
    pub fn csrwi(&mut self, csr: Csr, uimm: u8) {
        self.push(Instr::CsrI { op: CsrOp::Rw, rd: IntReg::ZERO, uimm, csr });
    }

    pub fn ecall(&mut self) {
        self.push(Instr::Ecall);
    }
    pub fn fence(&mut self) {
        self.push(Instr::Fence);
    }

    // ---- pseudo-instructions ----

    /// `li rd, imm` — loads a 32-bit constant (1 or 2 instructions).
    pub fn li(&mut self, rd: IntReg, imm: i64) {
        let imm = imm as i32;
        let lo = (imm << 20) >> 20; // sign-extended low 12 bits
        let hi = imm.wrapping_sub(lo) as u32;
        if hi == 0 {
            self.addi(rd, IntReg::ZERO, lo);
        } else if lo == 0 {
            self.lui(rd, hi);
        } else {
            self.lui(rd, hi);
            self.addi(rd, rd, lo);
        }
    }

    /// `li` for an unsigned address constant.
    pub fn li_addr(&mut self, rd: IntReg, addr: u32) {
        self.li(rd, i64::from(addr as i32));
    }

    pub fn mv(&mut self, rd: IntReg, rs1: IntReg) {
        self.addi(rd, rs1, 0);
    }
    pub fn nop(&mut self) {
        self.addi(IntReg::ZERO, IntReg::ZERO, 0);
    }
    pub fn j(&mut self, target: Label) {
        self.jal(IntReg::ZERO, target);
    }
    pub fn bnez(&mut self, rs1: IntReg, target: Label) {
        self.bne(rs1, IntReg::ZERO, target);
    }
    pub fn beqz(&mut self, rs1: IntReg, target: Label) {
        self.beq(rs1, IntReg::ZERO, target);
    }
    pub fn blez(&mut self, rs1: IntReg, target: Label) {
        self.bge(IntReg::ZERO, rs1, target);
    }
    pub fn bgtz(&mut self, rs1: IntReg, target: Label) {
        self.blt(IntReg::ZERO, rs1, target);
    }

    // ---- RV32D emitters ----

    pub fn fld(&mut self, rd: FpReg, rs1: IntReg, offset: i32) {
        self.push(Instr::Fld { rd, rs1, offset });
    }
    pub fn fsd(&mut self, rs2: FpReg, rs1: IntReg, offset: i32) {
        self.push(Instr::Fsd { rs2, rs1, offset });
    }
    pub fn fadd_d(&mut self, rd: FpReg, rs1: FpReg, rs2: FpReg) {
        self.push(Instr::FpuOp2 { op: FpOp2::FaddD, rd, rs1, rs2 });
    }
    pub fn fsub_d(&mut self, rd: FpReg, rs1: FpReg, rs2: FpReg) {
        self.push(Instr::FpuOp2 { op: FpOp2::FsubD, rd, rs1, rs2 });
    }
    pub fn fmul_d(&mut self, rd: FpReg, rs1: FpReg, rs2: FpReg) {
        self.push(Instr::FpuOp2 { op: FpOp2::FmulD, rd, rs1, rs2 });
    }
    pub fn fmadd_d(&mut self, rd: FpReg, rs1: FpReg, rs2: FpReg, rs3: FpReg) {
        self.push(Instr::FpuOp3 { op: FpOp3::FmaddD, rd, rs1, rs2, rs3 });
    }
    pub fn fmv_d(&mut self, rd: FpReg, rs1: FpReg) {
        self.push(Instr::FmvD { rd, rs1 });
    }
    pub fn fcvt_d_w(&mut self, rd: FpReg, rs1: IntReg) {
        self.push(Instr::FcvtDW { rd, rs1 });
    }
    pub fn fcvt_w_d(&mut self, rd: IntReg, rs1: FpReg) {
        self.push(Instr::FcvtWD { rd, rs1 });
    }

    // ---- extension emitters ----

    pub fn scfgwi(&mut self, rs1: IntReg, addr: u16) {
        self.push(Instr::Scfgwi { rs1, addr });
    }
    pub fn scfgri(&mut self, rd: IntReg, addr: u16) {
        self.push(Instr::Scfgri { rd, addr });
    }

    /// `frep.o max_rpt, n_insns, stagger` — hardware loop over the next
    /// `n_insns` FP instructions, `max_rpt + 1` iterations.
    pub fn frep_outer(&mut self, max_rpt: IntReg, n_insns: u8, stagger: Stagger) {
        self.push(Instr::Frep { kind: FrepKind::Outer, max_rpt, n_insns, stagger });
    }
    pub fn frep_inner(&mut self, max_rpt: IntReg, n_insns: u8, stagger: Stagger) {
        self.push(Instr::Frep { kind: FrepKind::Inner, max_rpt, n_insns, stagger });
    }
    /// `frep.s n_insns, stagger` — stream-terminated hardware loop: the
    /// body replays until every stream it reads has raised its terminate
    /// flag and drained (data-dependent trip count, no `max_rpt`).
    pub fn frep_stream(&mut self, n_insns: u8, stagger: Stagger) {
        self.push(Instr::Frep { kind: FrepKind::Stream, max_rpt: IntReg::ZERO, n_insns, stagger });
    }

    pub fn dmsrc(&mut self, rs1: IntReg, rs2: IntReg) {
        self.push(Instr::DmSrc { rs1, rs2 });
    }
    pub fn dmdst(&mut self, rs1: IntReg, rs2: IntReg) {
        self.push(Instr::DmDst { rs1, rs2 });
    }
    pub fn dmstr(&mut self, rs1: IntReg, rs2: IntReg) {
        self.push(Instr::DmStr { rs1, rs2 });
    }
    pub fn dmrep(&mut self, rs1: IntReg) {
        self.push(Instr::DmRep { rs1 });
    }
    pub fn dmcpyi(&mut self, rd: IntReg, rs1: IntReg, cfg: u8) {
        self.push(Instr::DmCpyI { rd, rs1, cfg });
    }
    pub fn dmstati(&mut self, rd: IntReg, which: u8) {
        self.push(Instr::DmStatI { rd, which });
    }

    pub fn halt(&mut self) {
        self.push(Instr::Halt);
    }

    /// Opens the measured region of interest.
    pub fn roi_begin(&mut self) {
        self.csrsi(Csr::Roi, 1);
    }

    /// Closes the measured region of interest.
    pub fn roi_end(&mut self) {
        self.csrci(Csr::Roi, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut a = Assembler::new();
        let fwd = a.new_label();
        a.beqz(IntReg::A0, fwd); // at 0 -> offset +12
        let back = a.bind_label();
        a.addi(IntReg::A0, IntReg::A0, -1);
        a.bnez(IntReg::A0, back); // at 2 -> offset -4
        a.bind(fwd);
        a.halt();
        let p = a.finish().unwrap();
        match p.instrs()[0] {
            Instr::Branch { offset, .. } => assert_eq!(offset, 12),
            ref other => panic!("unexpected {other:?}"),
        }
        match p.instrs()[2] {
            Instr::Branch { offset, .. } => assert_eq!(offset, -4),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut a = Assembler::new();
        let l = a.new_label();
        a.j(l);
        assert!(matches!(a.finish(), Err(AsmError::UnboundLabel(_))));
    }

    #[test]
    fn li_expansions() {
        let mut a = Assembler::new();
        a.li(IntReg::T0, 42); // addi
        a.li(IntReg::T0, 0x10000); // lui only
        a.li(IntReg::T0, 0x12345); // lui + addi
        a.li(IntReg::T0, -1); // addi
        let p = a.finish().unwrap();
        assert_eq!(p.len(), 5);
        assert!(matches!(p.instrs()[0], Instr::OpImm { imm: 42, .. }));
        assert!(matches!(p.instrs()[1], Instr::Lui { imm: 0x10000, .. }));
        assert!(matches!(p.instrs()[2], Instr::Lui { .. }));
        assert!(matches!(p.instrs()[3], Instr::OpImm { .. }));
        assert!(matches!(p.instrs()[4], Instr::OpImm { imm: -1, .. }));
    }

    #[test]
    fn li_matches_semantics() {
        // lui+addi must reconstruct the constant for tricky sign cases.
        for value in [0x12345_i64, 0x7FFFF800, 0x7FF, -2048, -1, 0, 0xFFFF_i64, 0x8000_i64] {
            let mut a = Assembler::new();
            a.li(IntReg::T0, value);
            let p = a.finish().unwrap();
            let mut acc: i64 = 0;
            for instr in p.instrs() {
                match *instr {
                    Instr::Lui { imm, .. } => acc = i64::from(imm as i32),
                    Instr::OpImm { op: AluImmOp::Addi, imm, rs1, .. } => {
                        let base = if rs1.is_zero() { 0 } else { acc };
                        acc = (base + i64::from(imm)) as i32 as i64;
                    }
                    ref other => panic!("unexpected {other:?}"),
                }
            }
            assert_eq!(acc as i32, value as i32, "value {value:#x}");
        }
    }

    #[test]
    fn symbols_recorded() {
        let mut a = Assembler::new();
        a.nop();
        a.symbol("body");
        a.halt();
        let p = a.finish().unwrap();
        assert_eq!(p.symbol("body"), Some(1));
        assert_eq!(p.symbol("missing"), None);
    }

    /// `align` pads with `nop`s up to the next line boundary, records
    /// exactly the padding, and adds nothing on a boundary; `pad`
    /// records the `nop`s it is asked for.
    #[test]
    fn align_pads_to_the_next_line() {
        let mut a = Assembler::new();
        a.li(IntReg::T0, 1);
        a.li(IntReg::T1, 2);
        a.li(IntReg::T2, 3);
        a.align(32);
        assert_eq!(a.here(), 8, "padding ends on the 32-byte boundary");
        a.align(32);
        assert_eq!(a.here(), 8, "an aligned position needs no padding");
        a.li(IntReg::T0, 4);
        a.pad(0);
        a.pad(2);
        a.halt();
        let p = a.finish().unwrap();
        let padding: Vec<usize> = (0..p.len()).filter(|&i| p.is_padding(i)).collect();
        assert_eq!(padding, [3, 4, 5, 6, 7, 9, 10]);
        assert!(padding.iter().all(|&i| p.instrs()[i]
            == Instr::OpImm { op: AluImmOp::Addi, rd: IntReg::ZERO, rs1: IntReg::ZERO, imm: 0 }));
    }

    /// A name recorded twice fails the program, and the message names
    /// the symbol and both positions.
    #[test]
    fn repeated_symbol_is_an_error() {
        let mut a = Assembler::new();
        a.symbol("drain");
        a.nop();
        a.symbol("drain");
        a.halt();
        let err = a.finish().unwrap_err();
        assert_eq!(err, AsmError::DuplicateSymbol { name: "drain".into(), first: 0, again: 1 });
        assert_eq!(err.to_string(), "symbol `drain` recorded at instruction 0 and again at 1");
    }

    #[test]
    fn display_includes_symbols() {
        let mut a = Assembler::new();
        a.symbol("entry");
        a.nop();
        let p = a.finish().unwrap();
        let text = p.to_string();
        assert!(text.contains("entry:"));
        assert!(text.contains("addi"));
    }
}
