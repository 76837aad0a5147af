//! Configuration-validation predicates shared by the runtime and the
//! static linter.
//!
//! The streamer rejects malformed `scfg` accesses with a [`CfgFault`]
//! before any hardware state changes (PR 3). `issr-lint` proves the
//! same rejections at assemble time by abstract interpretation over a
//! program's shadow-register writes. Both callers go through the
//! predicates in this module, so the static verdict and the runtime
//! trap surface cannot drift apart: a launch the linter flags is a
//! launch [`crate::streamer::Streamer::cfg_write`] would fault, by
//! construction.
//!
//! Every predicate is a pure function of decoded shadow state and the
//! streamer description ([`HwCaps`]). There is one such value per
//! machine: the streamer is built from it, and the linter reads the
//! same value out of the `CcParams` the program runs on.

use crate::cfg::{reg, AccDrainSpec, AccFeedSpec, CfgShadow};
use crate::lane::LaneKind;

/// A malformed streamer configuration access: the hardware cannot
/// execute it and raises a fault the core latches as a trap (surfaced
/// through the run summaries) instead of aborting the simulation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CfgFault {
    /// `scfgwi`/`scfgri` addressed a lane this streamer does not have.
    BadLane {
        /// The addressed lane index.
        lane: u8,
    },
    /// A joiner job was launched on a streamer without joiner hardware.
    NoJoiner,
    /// A SpAcc job was launched on a streamer without a sparse
    /// accumulator.
    NoSpAcc,
    /// A SpAcc feed was launched with a zero-capacity row buffer
    /// (`ACC_BUF_CAP` written to 0).
    ZeroCapacity,
    /// A pointer write would launch an indirection (ISSR) job on a
    /// plain SSR lane, which has no indirection unit.
    NoIndirection {
        /// The addressed lane index.
        lane: u8,
    },
    /// A pointer write with `JOIN_CFG` enabled outside the joiner's
    /// launch register (lane 0's `RPTR[0]`) — the joiner spans lanes
    /// 0/1 and launches only through that register.
    BadJoinerLaunch {
        /// The addressed lane index.
        lane: u8,
    },
    /// A SpAcc drain was launched with a misaligned output base: the
    /// index base must be element aligned, the value base word aligned
    /// (byte strobes cover partial words, not arbitrary offsets).
    MisalignedDrain {
        /// The index output base of the faulting launch.
        idx_out: u32,
        /// The value output base of the faulting launch.
        val_out: u32,
    },
}

impl std::fmt::Display for CfgFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CfgFault::BadLane { lane } => write!(f, "scfg access to nonexistent lane {lane}"),
            CfgFault::NoJoiner => {
                f.write_str("joiner job launched on a streamer without an index joiner")
            }
            CfgFault::NoSpAcc => {
                f.write_str("SpAcc job launched on a streamer without a sparse accumulator")
            }
            CfgFault::ZeroCapacity => {
                f.write_str("SpAcc feed launched with a zero-capacity row buffer")
            }
            CfgFault::NoIndirection { lane } => {
                write!(f, "indirection job launched on plain SSR lane {lane}")
            }
            CfgFault::BadJoinerLaunch { lane } => {
                write!(f, "joiner-enabled pointer write outside the launch register (lane {lane})")
            }
            CfgFault::MisalignedDrain { idx_out, val_out } => {
                write!(
                    f,
                    "SpAcc drain launched with misaligned output bases \
                     (idcs {idx_out:#010x}, vals {val_out:#010x})"
                )
            }
        }
    }
}

/// The description of one streamer: the lane list plus the optional
/// joiner and sparse accumulator. [`crate::streamer::Streamer::new`]
/// builds its hardware from it, and `issr-lint` checks a program
/// against the same value (it rides in `CcParams::streamer`). `Copy`,
/// with a `'static` lane list, so the per-access hot path never
/// allocates and the parameter structs that carry it stay `Copy`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HwCaps {
    /// Lane kinds, indexed like the lanes (`ft0`, `ft1`, ...).
    pub lanes: &'static [LaneKind],
    /// Whether the hardware includes the index joiner.
    pub has_joiner: bool,
    /// Whether the hardware includes the sparse accumulator.
    pub has_spacc: bool,
}

impl HwCaps {
    /// The paper's evaluated streamer: one SSR (`ft0`) and one ISSR
    /// (`ft1`), each with a private memory port.
    pub const PAPER: Self =
        Self { lanes: &[LaneKind::Ssr, LaneKind::Issr], has_joiner: false, has_spacc: false };

    /// The sparse-sparse streamer (arXiv:2305.05559): the paper's two
    /// lanes plus the index joiner across them and the sparse
    /// accumulator on lane 1.
    pub const SSSR: Self = Self { has_joiner: true, has_spacc: true, ..Self::PAPER };

    /// Two ISSRs, for codebook-compressed sparse values (§III-C).
    pub const CODEBOOK: Self = Self { lanes: &[LaneKind::Issr, LaneKind::Issr], ..Self::PAPER };

    /// Validates a lane index against the lane list.
    ///
    /// # Errors
    /// [`CfgFault::BadLane`] for a lane this hardware does not have.
    pub fn check_lane(&self, lane: u8) -> Result<(), CfgFault> {
        if (lane as usize) < self.lanes.len() {
            Ok(())
        } else {
            Err(CfgFault::BadLane { lane })
        }
    }

    /// Validates a joiner launch.
    ///
    /// # Errors
    /// [`CfgFault::NoJoiner`] without joiner hardware.
    pub fn check_joiner_present(&self) -> Result<(), CfgFault> {
        if self.has_joiner {
            Ok(())
        } else {
            Err(CfgFault::NoJoiner)
        }
    }

    /// Validates a SpAcc launch (`ACC_FEED`/`ACC_DRAIN`) or
    /// readback (`ACC_NNZ`/`ACC_STATUS`).
    ///
    /// # Errors
    /// [`CfgFault::NoSpAcc`] without accumulator hardware.
    pub fn check_spacc_present(&self) -> Result<(), CfgFault> {
        if self.has_spacc {
            Ok(())
        } else {
            Err(CfgFault::NoSpAcc)
        }
    }

    /// Validates a SpAcc feed launch against the decoded spec.
    ///
    /// # Errors
    /// [`CfgFault::NoSpAcc`] without accumulator hardware,
    /// [`CfgFault::ZeroCapacity`] for a zero-capacity row buffer.
    pub fn check_feed(&self, spec: &AccFeedSpec) -> Result<(), CfgFault> {
        self.check_spacc_present()?;
        if spec.cap == 0 {
            return Err(CfgFault::ZeroCapacity);
        }
        Ok(())
    }

    /// Validates a SpAcc drain launch against the decoded spec.
    ///
    /// # Errors
    /// [`CfgFault::NoSpAcc`] without accumulator hardware, and
    /// [`CfgFault::MisalignedDrain`] for misaligned output bases.
    pub fn check_drain(&self, spec: &AccDrainSpec) -> Result<(), CfgFault> {
        self.check_spacc_present()?;
        if spec.idx_out % spec.idx_size.bytes() != 0 || spec.val_out % 8 != 0 {
            return Err(CfgFault::MisalignedDrain { idx_out: spec.idx_out, val_out: spec.val_out });
        }
        Ok(())
    }

    /// Validates a lane pointer write (`RPTR[d]`/`WPTR[d]`) against the
    /// lane's shadow state. The joiner's own launch register (lane 0's
    /// `RPTR[0]` with `JOIN_CFG` enabled) is dispatched before this
    /// check — see [`is_joiner_launch`].
    ///
    /// # Errors
    /// [`CfgFault::BadJoinerLaunch`] for a joiner-enabled pointer write
    /// outside the launch register, [`CfgFault::NoIndirection`] for an
    /// indirection launch on a plain SSR lane.
    pub fn check_pointer_write(&self, shadow: &CfgShadow, lane: u8) -> Result<(), CfgFault> {
        if shadow.join_enabled() {
            return Err(CfgFault::BadJoinerLaunch { lane });
        }
        if shadow.indirect() {
            self.check_indirection(lane)?;
        }
        Ok(())
    }

    /// Validates an indirection (ISSR) job launch on `lane`, which must
    /// be in range ([`HwCaps::check_lane`]).
    ///
    /// # Errors
    /// [`CfgFault::NoIndirection`] when `lane` is a plain SSR lane.
    pub fn check_indirection(&self, lane: u8) -> Result<(), CfgFault> {
        if self.lanes[lane as usize] == LaneKind::Issr {
            Ok(())
        } else {
            Err(CfgFault::NoIndirection { lane })
        }
    }
}

/// Whether `(register, lane)` is a lane pointer register — a write to
/// it launches a read or write job from the current shadow state.
#[must_use]
pub fn is_pointer_reg(register: u16) -> bool {
    reg::RPTR.contains(&register) || reg::WPTR.contains(&register)
}

/// Whether a write to `(register, lane)` under `shadow` launches a
/// joiner job: lane 0's `RPTR[0]` with `JOIN_CFG` enabled.
#[must_use]
pub fn is_joiner_launch(register: u16, lane: u8, shadow: &CfgShadow) -> bool {
    lane == 0 && register == reg::RPTR[0] && shadow.join_enabled()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{acc_cfg_word, idx_cfg_word, join_cfg_word, JoinerMode};
    use crate::serializer::IndexSize;

    #[test]
    fn lane_bounds() {
        assert_eq!(HwCaps::PAPER.check_lane(1), Ok(()));
        assert_eq!(HwCaps::PAPER.check_lane(2), Err(CfgFault::BadLane { lane: 2 }));
    }

    #[test]
    fn hardware_presence() {
        assert_eq!(HwCaps::PAPER.check_joiner_present(), Err(CfgFault::NoJoiner));
        assert_eq!(HwCaps::PAPER.check_spacc_present(), Err(CfgFault::NoSpAcc));
        assert_eq!(HwCaps::SSSR.check_joiner_present(), Ok(()));
        assert_eq!(HwCaps::SSSR.check_spacc_present(), Ok(()));
    }

    #[test]
    fn feed_and_drain_specs() {
        let mut shadow = CfgShadow::default();
        shadow.write(reg::ACC_BUF_CAP, 0);
        let feed = AccFeedSpec::from_shadow(&shadow, 0x1000);
        assert_eq!(HwCaps::SSSR.check_feed(&feed), Err(CfgFault::ZeroCapacity));
        shadow.write(reg::ACC_BUF_CAP, 16);
        let feed = AccFeedSpec::from_shadow(&shadow, 0x1000);
        assert_eq!(HwCaps::SSSR.check_feed(&feed), Ok(()));

        shadow.write(reg::ACC_VAL_OUT, 0x2004);
        let drain = AccDrainSpec::from_shadow(&shadow, 0x3000);
        assert_eq!(
            HwCaps::SSSR.check_drain(&drain),
            Err(CfgFault::MisalignedDrain { idx_out: 0x3000, val_out: 0x2004 })
        );
        shadow.write(reg::ACC_VAL_OUT, 0x2008);
        let drain = AccDrainSpec::from_shadow(&shadow, 0x3000);
        assert_eq!(HwCaps::SSSR.check_drain(&drain), Ok(()));
        assert_eq!(HwCaps::PAPER.check_drain(&drain), Err(CfgFault::NoSpAcc));
        // 32-bit indices need a 4-aligned index output base.
        shadow.write(reg::ACC_CFG, acc_cfg_word(IndexSize::U32));
        let drain = AccDrainSpec::from_shadow(&shadow, 0x3002);
        assert_eq!(
            HwCaps::SSSR.check_drain(&drain),
            Err(CfgFault::MisalignedDrain { idx_out: 0x3002, val_out: 0x2008 })
        );
    }

    #[test]
    fn pointer_write_capabilities() {
        let mut shadow = CfgShadow::default();
        assert_eq!(HwCaps::SSSR.check_pointer_write(&shadow, 0), Ok(()));
        shadow.write(reg::IDX_CFG, idx_cfg_word(IndexSize::U16, 0));
        assert_eq!(
            HwCaps::SSSR.check_pointer_write(&shadow, 0),
            Err(CfgFault::NoIndirection { lane: 0 })
        );
        assert_eq!(HwCaps::SSSR.check_pointer_write(&shadow, 1), Ok(()));
        shadow.write(reg::JOIN_CFG, join_cfg_word(JoinerMode::Intersect, IndexSize::U16));
        assert_eq!(
            HwCaps::SSSR.check_pointer_write(&shadow, 1),
            Err(CfgFault::BadJoinerLaunch { lane: 1 })
        );
    }

    #[test]
    fn launch_register_decode() {
        let mut shadow = CfgShadow::default();
        assert!(!is_joiner_launch(reg::RPTR[0], 0, &shadow));
        shadow.write(reg::JOIN_CFG, join_cfg_word(JoinerMode::Union, IndexSize::U16));
        assert!(is_joiner_launch(reg::RPTR[0], 0, &shadow));
        assert!(!is_joiner_launch(reg::RPTR[0], 1, &shadow));
        assert!(!is_joiner_launch(reg::RPTR[1], 0, &shadow));
        assert!(is_pointer_reg(reg::WPTR[0]));
        assert!(!is_pointer_reg(reg::STATUS));
    }
}
