//! Streamer configuration registers and job specifications.
//!
//! Each lane exposes a shadowed configuration register file to the core
//! (Fig. 1, block 1): `scfgwi`/`scfgri` address it with
//! `addr = reg << 5 | lane`. Writing a *pointer* register launches a job
//! from the current shadow state — a read job via `RPTR[d]` (affine,
//! `d + 1` dimensions) or a write job via `WPTR[d]`. With indirection
//! enabled in `IDX_CFG`, the pointer carries the **index array** address
//! and the affine configuration is fixed to one dimension, as in the
//! paper (§II-A); the streamed element count still comes from
//! `BOUNDS[0] + 1`.
//!
//! Lane 0's space also holds the joiner's `JOIN_*` and the sparse
//! accumulator's `ACC_*` registers. A number [`reg`] does not name
//! (such as 29 or 37) stores nothing and reads 0; freed numbers are not
//! reused, so an assembled program keeps its meaning.

use crate::affine::MAX_DIMS;
use crate::serializer::IndexSize;

/// Register indices within a lane's configuration space.
pub mod reg {
    /// Status word: bit 0 = done, bit 1 = busy.
    pub const STATUS: u16 = 0;
    /// Element repetition count (each datum delivered `REPEAT + 1` times).
    pub const REPEAT: u16 = 1;
    /// Loop bounds minus one, dimensions 0..=3.
    pub const BOUNDS: [u16; 4] = [2, 3, 4, 5];
    /// Relative byte strides, dimensions 0..=3.
    pub const STRIDES: [u16; 4] = [6, 7, 8, 9];
    /// Indirection configuration: bit 0 enable, bit 1 index size
    /// (0 = 16-bit, 1 = 32-bit), bits 7:4 extra index shift.
    pub const IDX_CFG: u16 = 10;
    /// Data base address for indirection.
    pub const DATA_BASE: u16 = 12;
    /// Read-job pointer registers (write launches the job).
    pub const RPTR: [u16; 4] = [16, 17, 18, 19];
    /// Write-job pointer registers (write launches the job).
    pub const WPTR: [u16; 4] = [20, 21, 22, 23];
    /// Joiner configuration: bit 0 enable, bits 2:1 mode
    /// ([`super::JoinerMode`]), bit 3 index size (0 = 16-bit, 1 = 32-bit).
    pub const JOIN_CFG: u16 = 24;
    /// Second (B-side) index array base address for joiner jobs.
    pub const JOIN_IDX_B: u16 = 25;
    /// B-side value array base address for joiner jobs.
    pub const JOIN_DATA_B: u16 = 26;
    /// A-side element count for joiner jobs (raw count; zero allowed).
    pub const JOIN_NNZ_A: u16 = 27;
    /// B-side element count for joiner jobs (raw count; zero allowed).
    pub const JOIN_NNZ_B: u16 = 28;
    /// Sparse-accumulator configuration: bit 0 index size (0 = 16-bit,
    /// 1 = 32-bit).
    pub const ACC_CFG: u16 = 30;
    /// Element count of the next SpAcc feed job.
    pub const ACC_COUNT: u16 = 31;
    /// SpAcc feed launch: writing the input index-array address starts a
    /// feed job pairing those indices with values pushed to the write
    /// stream of the SpAcc's lane.
    pub const ACC_FEED: u16 = 32;
    /// Value output base address for the next SpAcc drain (8-aligned).
    pub const ACC_VAL_OUT: u16 = 33;
    /// SpAcc drain launch: writing the output index-array address drains
    /// the accumulated row as (idcs[], vals[]) and clears the buffer.
    pub const ACC_DRAIN: u16 = 34;
    /// SpAcc row occupancy (read-only; stable only while the unit is
    /// idle — poll [`ACC_STATUS`] first).
    pub const ACC_NNZ: u16 = 35;
    /// SpAcc status word: bit 0 = done/idle, bit 1 = busy, bit 2 = all
    /// feed jobs retired (read-only). With double-buffered row storage a
    /// drain may still be writing while bit 2 is already set — kernels
    /// poll bit 2 before reading [`ACC_NNZ`] so the next row's feeds
    /// overlap the previous row's drain.
    pub const ACC_STATUS: u16 = 36;
    /// SpAcc row-buffer capacity in elements (hardware sizing; resets to
    /// [`super::SPACC_ROW_CAP_RESET`]). Launching a feed with capacity
    /// zero is a configuration fault that traps the core.
    pub const ACC_BUF_CAP: u16 = 38;
}

/// Reset value of the SpAcc row-buffer capacity register
/// ([`reg::ACC_BUF_CAP`]), in elements.
pub const SPACC_ROW_CAP_RESET: u32 = 4096;

/// Builds an `scfgwi`/`scfgri` address from a register and lane index.
#[must_use]
pub fn cfg_addr(register: u16, lane: u8) -> u16 {
    (register << 5) | u16::from(lane & 0x1F)
}

/// Splits an `scfg` address into `(register, lane)`.
#[must_use]
pub fn split_addr(addr: u16) -> (u16, u8) {
    (addr >> 5, (addr & 0x1F) as u8)
}

/// The shadow configuration a core writes before launching a job.
#[derive(Clone, Copy, Debug)]
pub struct CfgShadow {
    /// Element repetition count.
    pub repeat: u32,
    /// Loop bounds minus one.
    pub bounds: [u32; MAX_DIMS],
    /// Relative byte strides.
    pub strides: [i32; MAX_DIMS],
    /// Raw indirection configuration word.
    pub idx_cfg: u32,
    /// Data base address for indirection (A-side values for joiner jobs).
    pub data_base: u32,
    /// Raw joiner configuration word.
    pub join_cfg: u32,
    /// B-side index array base address for joiner jobs.
    pub join_idx_b: u32,
    /// B-side value array base address for joiner jobs.
    pub join_data_b: u32,
    /// A-side element count for joiner jobs.
    pub join_nnz_a: u32,
    /// B-side element count for joiner jobs.
    pub join_nnz_b: u32,
    /// Raw sparse-accumulator configuration word.
    pub acc_cfg: u32,
    /// Element count of the next SpAcc feed job.
    pub acc_count: u32,
    /// Value output base of the next SpAcc drain.
    pub acc_val_out: u32,
    /// SpAcc row-buffer capacity in elements.
    pub acc_buf_cap: u32,
}

impl Default for CfgShadow {
    fn default() -> Self {
        Self {
            repeat: 0,
            bounds: [0; MAX_DIMS],
            strides: [0; MAX_DIMS],
            idx_cfg: 0,
            data_base: 0,
            join_cfg: 0,
            join_idx_b: 0,
            join_data_b: 0,
            join_nnz_a: 0,
            join_nnz_b: 0,
            acc_cfg: 0,
            acc_count: 0,
            acc_val_out: 0,
            acc_buf_cap: SPACC_ROW_CAP_RESET,
        }
    }
}

impl CfgShadow {
    /// Whether indirection mode is enabled.
    #[must_use]
    pub fn indirect(&self) -> bool {
        self.idx_cfg & 1 != 0
    }

    /// Configured index width.
    #[must_use]
    pub fn index_size(&self) -> IndexSize {
        if self.idx_cfg & 2 != 0 {
            IndexSize::U32
        } else {
            IndexSize::U16
        }
    }

    /// Extra index shift (beyond the static `<< 3` serving doubles).
    #[must_use]
    pub fn index_shift(&self) -> u32 {
        (self.idx_cfg >> 4) & 0xF
    }

    /// Whether the next pointer write launches a joiner job.
    #[must_use]
    pub fn join_enabled(&self) -> bool {
        self.join_cfg & 1 != 0
    }

    /// Configured joiner matching mode.
    #[must_use]
    pub fn join_mode(&self) -> JoinerMode {
        match (self.join_cfg >> 1) & 3 {
            0 => JoinerMode::Intersect,
            1 => JoinerMode::Union,
            _ => JoinerMode::GatherA,
        }
    }

    /// Configured joiner index width (both streams share it).
    #[must_use]
    pub fn join_index_size(&self) -> IndexSize {
        if self.join_cfg & 8 != 0 {
            IndexSize::U32
        } else {
            IndexSize::U16
        }
    }

    /// Configured sparse-accumulator index width.
    #[must_use]
    pub fn acc_index_size(&self) -> IndexSize {
        if self.acc_cfg & 1 != 0 {
            IndexSize::U32
        } else {
            IndexSize::U16
        }
    }

    /// Reads a shadow register (the value `scfgri` returns).
    #[must_use]
    pub fn read(&self, register: u16) -> u32 {
        match register {
            reg::REPEAT => self.repeat,
            r if reg::BOUNDS.contains(&r) => self.bounds[(r - reg::BOUNDS[0]) as usize],
            r if reg::STRIDES.contains(&r) => self.strides[(r - reg::STRIDES[0]) as usize] as u32,
            reg::IDX_CFG => self.idx_cfg,
            reg::DATA_BASE => self.data_base,
            reg::JOIN_CFG => self.join_cfg,
            reg::JOIN_IDX_B => self.join_idx_b,
            reg::JOIN_DATA_B => self.join_data_b,
            reg::JOIN_NNZ_A => self.join_nnz_a,
            reg::JOIN_NNZ_B => self.join_nnz_b,
            reg::ACC_CFG => self.acc_cfg,
            reg::ACC_COUNT => self.acc_count,
            reg::ACC_VAL_OUT => self.acc_val_out,
            reg::ACC_BUF_CAP => self.acc_buf_cap,
            _ => 0,
        }
    }

    /// Writes a shadow register. Pointer registers are handled by the
    /// lane (they launch jobs); everything else lands here.
    pub fn write(&mut self, register: u16, value: u32) {
        match register {
            reg::REPEAT => self.repeat = value,
            r if reg::BOUNDS.contains(&r) => {
                self.bounds[(r - reg::BOUNDS[0]) as usize] = value;
            }
            r if reg::STRIDES.contains(&r) => {
                self.strides[(r - reg::STRIDES[0]) as usize] = value as i32;
            }
            reg::IDX_CFG => self.idx_cfg = value,
            reg::DATA_BASE => self.data_base = value,
            reg::JOIN_CFG => self.join_cfg = value,
            reg::JOIN_IDX_B => self.join_idx_b = value,
            reg::JOIN_DATA_B => self.join_data_b = value,
            reg::JOIN_NNZ_A => self.join_nnz_a = value,
            reg::JOIN_NNZ_B => self.join_nnz_b = value,
            reg::ACC_CFG => self.acc_cfg = value,
            reg::ACC_COUNT => self.acc_count = value,
            reg::ACC_VAL_OUT => self.acc_val_out = value,
            reg::ACC_BUF_CAP => self.acc_buf_cap = value,
            _ => {}
        }
    }
}

/// Whether a job streams from memory to the register file or back.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobKind {
    /// Memory → register (gather / unit-stride load stream).
    Read,
    /// Register → memory (scatter / unit-stride store stream).
    Write,
}

/// The address pattern of a job.
#[derive(Clone, Debug)]
pub enum Pattern {
    /// SSR-style affine loop nest.
    Affine {
        /// Data pointer the job was launched with.
        base: u32,
        /// Number of active dimensions.
        dims: usize,
        /// Bounds minus one.
        bounds: [u32; MAX_DIMS],
        /// Relative byte strides.
        strides: [i64; MAX_DIMS],
    },
    /// ISSR streaming indirection: `data_base + (idx << (3 + shift))`.
    Indirect {
        /// Index array byte address (any index-aligned address).
        idx_base: u32,
        /// Index width.
        idx_size: IndexSize,
        /// Extra shift for power-of-two-strided higher axes.
        shift: u32,
        /// Dense operand base address.
        data_base: u32,
        /// Number of elements to stream.
        count: u64,
    },
}

/// A fully-specified streaming job, decoded from the shadow registers at
/// pointer-write time.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Read or write stream.
    pub kind: JobKind,
    /// Each datum is delivered `repeat + 1` times (read jobs only).
    pub repeat: u32,
    /// The address pattern.
    pub pattern: Pattern,
}

impl JobSpec {
    /// Decodes a job from the shadow state and a pointer write.
    #[must_use]
    pub fn from_shadow(shadow: &CfgShadow, kind: JobKind, dims: usize, pointer: u32) -> Self {
        let pattern = if shadow.indirect() {
            Pattern::Indirect {
                idx_base: pointer,
                idx_size: shadow.index_size(),
                shift: shadow.index_shift(),
                data_base: shadow.data_base,
                count: u64::from(shadow.bounds[0]) + 1,
            }
        } else {
            let mut strides = [0i64; MAX_DIMS];
            for (dst, &src) in strides.iter_mut().zip(shadow.strides.iter()) {
                *dst = i64::from(src);
            }
            Pattern::Affine { base: pointer, dims, bounds: shadow.bounds, strides }
        };
        JobSpec { kind, repeat: shadow.repeat, pattern }
    }

    /// Total number of elements the FPU side will see.
    #[must_use]
    pub fn total_elements(&self) -> u64 {
        let raw = match &self.pattern {
            Pattern::Affine { dims, bounds, .. } => {
                (0..*dims).map(|d| u64::from(bounds[d]) + 1).product()
            }
            Pattern::Indirect { count, .. } => *count,
        };
        raw * (u64::from(self.repeat) + 1)
    }
}

/// Matching mode of an index-joiner job (the sparse-sparse extension of
/// the SSSR follow-up, arXiv:2305.05559).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum JoinerMode {
    /// Emit a pair only where both index streams carry the index.
    Intersect,
    /// Emit a pair for every index in either stream; the absent side is
    /// zero-filled.
    Union,
    /// Emit one pair per A-side index (in order); the B side delivers
    /// its matching value or zero. The emission count equals the A-side
    /// length, which keeps sparse-sparse FREP trip counts static.
    GatherA,
}

impl JoinerMode {
    /// All modes in presentation order.
    pub const ALL: [JoinerMode; 3] =
        [JoinerMode::Intersect, JoinerMode::Union, JoinerMode::GatherA];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JoinerMode::Intersect => "intersect",
            JoinerMode::Union => "union",
            JoinerMode::GatherA => "gather-a",
        }
    }
}

impl std::fmt::Display for JoinerMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully-specified index-joiner job, decoded from the shadow registers
/// at pointer-write time (the pointer carries the A-side index array).
#[derive(Clone, Copy, Debug)]
pub struct JoinerSpec {
    /// Matching mode.
    pub mode: JoinerMode,
    /// Index width shared by both streams.
    pub idx_size: IndexSize,
    /// Unused and always `false`: the joiner has no count-only mode.
    /// The benchmark's fixtures still build this struct by literal, so
    /// the field goes together with those lines (ROADMAP item 14).
    pub count_only: bool,
    /// A-side index array byte address.
    pub idx_a: u32,
    /// A-side value array base address.
    pub vals_a: u32,
    /// A-side element count (may be zero).
    pub count_a: u64,
    /// B-side index array byte address.
    pub idx_b: u32,
    /// B-side value array base address.
    pub vals_b: u32,
    /// B-side element count (may be zero).
    pub count_b: u64,
}

impl JoinerSpec {
    /// Decodes a joiner job from the shadow state and a pointer write.
    #[must_use]
    pub fn from_shadow(shadow: &CfgShadow, idx_a: u32) -> Self {
        Self {
            mode: shadow.join_mode(),
            idx_size: shadow.join_index_size(),
            count_only: false,
            idx_a,
            vals_a: shadow.data_base,
            count_a: u64::from(shadow.join_nnz_a),
            idx_b: shadow.join_idx_b,
            vals_b: shadow.join_data_b,
            count_b: u64::from(shadow.join_nnz_b),
        }
    }
}

/// A fully-specified SpAcc *feed* job, decoded from the shadow registers
/// at `ACC_FEED` write time (the pointer carries the input index array).
/// The job consumes `count` indices from memory and pairs them, in
/// order, with `count` values pushed into the SpAcc lane's write stream.
#[derive(Clone, Copy, Debug)]
pub struct AccFeedSpec {
    /// Input index array byte address (element aligned).
    pub idx_base: u32,
    /// Number of (index, value) pairs to merge (may be zero).
    pub count: u64,
    /// Index width.
    pub idx_size: IndexSize,
    /// Unused and always `false`: the SpAcc has no count-only mode.
    /// The benchmark's fixtures still build this struct by literal, so
    /// the field goes together with those lines (ROADMAP item 14).
    pub count_only: bool,
    /// Row-buffer capacity in elements (nonzero; the streamer faults
    /// zero-capacity launches before they reach the unit).
    pub cap: u32,
}

impl AccFeedSpec {
    /// Decodes a feed job from the shadow state and the pointer write.
    #[must_use]
    pub fn from_shadow(shadow: &CfgShadow, idx_base: u32) -> Self {
        Self {
            idx_base,
            count: u64::from(shadow.acc_count),
            idx_size: shadow.acc_index_size(),
            count_only: false,
            cap: shadow.acc_buf_cap,
        }
    }
}

/// A fully-specified SpAcc *drain* job, decoded at `ACC_DRAIN` write
/// time (the pointer carries the output index array address).
#[derive(Clone, Copy, Debug)]
pub struct AccDrainSpec {
    /// Output index array byte address (element aligned; word alignment
    /// not required — partial words are written with byte strobes).
    pub idx_out: u32,
    /// Output value array base address (8-aligned).
    pub val_out: u32,
    /// Index width.
    pub idx_size: IndexSize,
}

impl AccDrainSpec {
    /// Decodes a drain job from the shadow state and the pointer write.
    #[must_use]
    pub fn from_shadow(shadow: &CfgShadow, idx_out: u32) -> Self {
        Self { idx_out, val_out: shadow.acc_val_out, idx_size: shadow.acc_index_size() }
    }
}

/// Encodes the `JOIN_CFG` register value.
#[must_use]
pub fn join_cfg_word(mode: JoinerMode, size: IndexSize) -> u32 {
    let mode_bits = match mode {
        JoinerMode::Intersect => 0,
        JoinerMode::Union => 1,
        JoinerMode::GatherA => 2,
    };
    let size_bit = match size {
        IndexSize::U16 => 0,
        IndexSize::U32 => 8,
    };
    1 | (mode_bits << 1) | size_bit
}

/// Encodes the `ACC_CFG` register value.
#[must_use]
pub fn acc_cfg_word(size: IndexSize) -> u32 {
    match size {
        IndexSize::U16 => 0,
        IndexSize::U32 => 1,
    }
}

/// Encodes the `IDX_CFG` register value.
#[must_use]
pub fn idx_cfg_word(size: IndexSize, shift: u32) -> u32 {
    let size_bit = match size {
        IndexSize::U16 => 0,
        IndexSize::U32 => 2,
    };
    1 | size_bit | ((shift & 0xF) << 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_packing_round_trips() {
        let addr = cfg_addr(reg::RPTR[0], 1);
        assert_eq!(split_addr(addr), (reg::RPTR[0], 1));
        assert_eq!(split_addr(cfg_addr(reg::STATUS, 0)), (reg::STATUS, 0));
    }

    #[test]
    fn shadow_read_write_round_trip() {
        let mut s = CfgShadow::default();
        s.write(reg::REPEAT, 3);
        s.write(reg::BOUNDS[0], 99);
        s.write(reg::BOUNDS[2], 7);
        s.write(reg::STRIDES[0], 8);
        s.write(reg::STRIDES[1], (-16i32) as u32);
        s.write(reg::IDX_CFG, idx_cfg_word(IndexSize::U32, 2));
        s.write(reg::DATA_BASE, 0x0010_4000);
        assert_eq!(s.read(reg::REPEAT), 3);
        assert_eq!(s.read(reg::BOUNDS[0]), 99);
        assert_eq!(s.read(reg::BOUNDS[2]), 7);
        assert_eq!(s.read(reg::STRIDES[0]), 8);
        assert_eq!(s.read(reg::STRIDES[1]) as i32, -16);
        assert!(s.indirect());
        assert_eq!(s.index_size(), IndexSize::U32);
        assert_eq!(s.index_shift(), 2);
        assert_eq!(s.read(reg::DATA_BASE), 0x0010_4000);
    }

    #[test]
    fn affine_job_decode() {
        let mut s = CfgShadow::default();
        s.write(reg::BOUNDS[0], 9);
        s.write(reg::STRIDES[0], 8);
        let job = JobSpec::from_shadow(&s, JobKind::Read, 1, 0x0010_0000);
        assert_eq!(job.total_elements(), 10);
        match job.pattern {
            Pattern::Affine { base, dims, .. } => {
                assert_eq!(base, 0x0010_0000);
                assert_eq!(dims, 1);
            }
            Pattern::Indirect { .. } => panic!("expected affine"),
        }
    }

    #[test]
    fn indirect_job_decode() {
        let mut s = CfgShadow::default();
        s.write(reg::BOUNDS[0], 15);
        s.write(reg::IDX_CFG, idx_cfg_word(IndexSize::U16, 0));
        s.write(reg::DATA_BASE, 0x0010_8000);
        let job = JobSpec::from_shadow(&s, JobKind::Read, 1, 0x0010_0002);
        match job.pattern {
            Pattern::Indirect { idx_base, idx_size, data_base, count, shift } => {
                assert_eq!(idx_base, 0x0010_0002);
                assert_eq!(idx_size, IndexSize::U16);
                assert_eq!(data_base, 0x0010_8000);
                assert_eq!(count, 16);
                assert_eq!(shift, 0);
            }
            Pattern::Affine { .. } => panic!("expected indirect"),
        }
    }

    #[test]
    fn joiner_cfg_word_round_trips() {
        for mode in JoinerMode::ALL {
            for size in [IndexSize::U16, IndexSize::U32] {
                let mut s = CfgShadow::default();
                s.write(reg::JOIN_CFG, join_cfg_word(mode, size));
                assert!(s.join_enabled());
                assert_eq!(s.join_mode(), mode);
                assert_eq!(s.join_index_size(), size);
            }
        }
        assert!(!CfgShadow::default().join_enabled());
    }

    #[test]
    fn joiner_job_decode() {
        let mut s = CfgShadow::default();
        s.write(reg::JOIN_CFG, join_cfg_word(JoinerMode::GatherA, IndexSize::U16));
        s.write(reg::DATA_BASE, 0x0010_1000);
        s.write(reg::JOIN_IDX_B, 0x0010_2000);
        s.write(reg::JOIN_DATA_B, 0x0010_3000);
        s.write(reg::JOIN_NNZ_A, 5);
        s.write(reg::JOIN_NNZ_B, 0);
        assert_eq!(s.read(reg::JOIN_IDX_B), 0x0010_2000);
        assert_eq!(s.read(reg::JOIN_NNZ_A), 5);
        let spec = JoinerSpec::from_shadow(&s, 0x0010_0800);
        assert_eq!(spec.mode, JoinerMode::GatherA);
        assert_eq!(spec.idx_size, IndexSize::U16);
        assert_eq!(spec.idx_a, 0x0010_0800);
        assert_eq!(spec.vals_a, 0x0010_1000);
        assert_eq!(spec.count_a, 5);
        assert_eq!(spec.idx_b, 0x0010_2000);
        assert_eq!(spec.vals_b, 0x0010_3000);
        assert_eq!(spec.count_b, 0);
    }

    #[test]
    fn spacc_job_decode() {
        let mut s = CfgShadow::default();
        s.write(reg::ACC_CFG, acc_cfg_word(IndexSize::U32));
        s.write(reg::ACC_COUNT, 17);
        s.write(reg::ACC_VAL_OUT, 0x0030_8000);
        assert_eq!(s.read(reg::ACC_COUNT), 17);
        assert_eq!(s.acc_index_size(), IndexSize::U32);
        let feed = AccFeedSpec::from_shadow(&s, 0x0030_1004);
        assert_eq!(feed.idx_base, 0x0030_1004);
        assert_eq!(feed.count, 17);
        assert_eq!(feed.idx_size, IndexSize::U32);
        assert_eq!(feed.cap, SPACC_ROW_CAP_RESET);
        let drain = AccDrainSpec::from_shadow(&s, 0x0030_4002);
        assert_eq!(drain.idx_out, 0x0030_4002);
        assert_eq!(drain.val_out, 0x0030_8000);
        assert_eq!(drain.idx_size, IndexSize::U32);
        assert_eq!(CfgShadow::default().acc_index_size(), IndexSize::U16);
        // The capacity register resets nonzero and round-trips.
        assert_eq!(s.read(reg::ACC_BUF_CAP), SPACC_ROW_CAP_RESET);
        s.write(reg::ACC_BUF_CAP, 9);
        assert_eq!(AccFeedSpec::from_shadow(&s, 0).cap, 9);
    }

    #[test]
    fn repeat_scales_elements() {
        let mut s = CfgShadow::default();
        s.write(reg::BOUNDS[0], 4);
        s.write(reg::REPEAT, 2);
        let job = JobSpec::from_shadow(&s, JobKind::Read, 1, 0);
        assert_eq!(job.total_elements(), 15);
    }
}
