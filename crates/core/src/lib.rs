//! # issr-core
//!
//! The paper's primary contribution: **indirection stream semantic
//! registers (ISSRs)** — stream semantic registers extended with a
//! streaming-indirection address generator so that sparse-dense inner
//! loops (`y += a_vals[j] * x[a_idcs[j]]`) execute as pure `fmadd`
//! streams.
//!
//! The crate models, cycle by cycle:
//!
//! * the shadowed configuration interface ([`cfg`](mod@cfg)),
//! * the four-deep affine address iterator ([`affine`]),
//! * the indirection unit: index-word fetcher, decoupling FIFO, 16/32-bit
//!   index serializer with arbitrary alignment and outstanding-request
//!   limiter, plus the round-robin multiplexing of index and data
//!   traffic onto one memory port, which yields the paper's 4/5 (16-bit)
//!   and 2/3 (32-bit) peak data rates — one crate-private front end
//!   (`idxstream` + [`serializer`]) borrowed by [`lane`] (shift + base
//!   adder), [`joiner`] and [`spacc`],
//! * the sparse-sparse **index joiner** of the SSSR follow-up
//!   (arXiv:2305.05559): an index comparator that intersects, unions or
//!   left-joins two sparse index streams and feeds matched value pairs
//!   to the register file ([`joiner`]),
//! * the **sparse accumulator** (SpAcc): the symmetric write-stream
//!   unit, a union-merging sparse output builder that turns a lane's
//!   write stream into compressed (idcs[], vals[]) rows — the builder
//!   row-wise SpGEMM needs ([`spacc`]),
//! * the lane bundle mapped onto the FP register file ([`streamer`]).
//!
//! The streamer is platform-agnostic, exactly as the paper argues: it
//! talks to the world through [`issr_mem::port::MemPort`] and a small
//! register-file interface, and is embedded into the Snitch core complex
//! by the `issr-snitch` crate.

#![forbid(unsafe_code)]

pub mod affine;
pub mod cfg;
pub mod cfg_check;
pub mod fault;
pub mod fifo;
pub mod gate_check;
mod idxstream;
pub mod joiner;
pub mod lane;
pub mod serializer;
pub mod spacc;
pub mod streamer;

pub use affine::{AffineIterator, MAX_DIMS};
pub use cfg::{
    acc_cfg_word, cfg_addr, idx_cfg_word, join_cfg_word, AccDrainSpec, AccFeedSpec, CfgShadow,
    JobKind, JobSpec, JoinerMode, JoinerSpec, Pattern, SPACC_ROW_CAP_RESET,
};
pub use cfg_check::{CfgFault, HwCaps};
pub use fault::{StreamFault, StreamFaultKind, StreamUnit, STREAM_WATCHDOG_RESET};
pub use fifo::Fifo;
pub use joiner::{IndexJoiner, JoinerStats, JOIN_OUT_DEPTH};
pub use lane::{Lane, LaneKind, LaneStats, DATA_FIFO_DEPTH, IDX_FIFO_DEPTH};
pub use serializer::{IndexSerializer, IndexSize};
pub use spacc::{SpAcc, SpAccStats, SPACC_LANE};
pub use streamer::{Streamer, StreamerProbe};
