//! # issr-isa
//!
//! The RISC-V instruction set used by the ISSR reproduction: a typed
//! RV32I + M + D subset plus the three Snitch extensions the DATE 2021
//! paper builds on — **Xssr** (streamer configuration), **Xfrep**
//! (floating-point repetition with register staggering) and **Xdma**
//! (the cluster DMA front end).
//!
//! The crate provides:
//!
//! * [`instr::Instr`] — the typed instruction set the simulator executes,
//! * [`encode`](mod@encode)/[`decode`](mod@decode) — 32-bit binary
//!   encodings (round-trip tested),
//! * [`asm::Assembler`] — a programmatic assembler with labels, used by
//!   `issr-kernels` to generate the paper's kernels per workload.
//!
//! # Examples
//!
//! The paper's ISSR SpVV inner loop is a single `fmadd.d` under an FREP
//! hardware loop with a staggered accumulator:
//!
//! ```
//! use issr_isa::asm::Assembler;
//! use issr_isa::instr::Stagger;
//! use issr_isa::reg::{FpReg, IntReg};
//!
//! let mut a = Assembler::new();
//! a.frep_outer(IntReg::T0, 1, Stagger::accumulator(4));
//! a.fmadd_d(FpReg::FT2, FpReg::FT0, FpReg::FT1, FpReg::FT2);
//! let program = a.finish()?;
//! assert_eq!(program.len(), 2);
//! # Ok::<(), issr_isa::asm::AsmError>(())
//! ```

#![forbid(unsafe_code)]

pub mod asm;
pub mod csr;
pub mod decode;
pub mod encode;
pub mod instr;
pub mod reg;

pub use asm::{Assembler, Label, Program};
pub use csr::Csr;
pub use decode::{decode, decode_all, DecodeError};
pub use encode::{encode, encode_all};
pub use instr::{Instr, Stagger};
pub use reg::{FpReg, IntReg};
