//! The system address map.
//!
//! | Region | Base | Size | Notes |
//! |---|---|---|---|
//! | TCDM | `0x0010_0000` | 256 KiB | 32 banks × 8 KiB, word-interleaved |
//! | Cluster peripherals | `0x0020_0000` | 4 KiB | barrier, wake flags |
//! | Main memory | `0x8000_0000` | configurable | behind the cluster crossbar |

/// TCDM base address.
pub const TCDM_BASE: u32 = 0x0010_0000;
/// TCDM size in bytes (256 KiB, as in the paper).
pub const TCDM_SIZE: u32 = 0x0004_0000;
/// Number of TCDM banks (32, as in the paper).
pub const TCDM_BANKS: usize = 32;

/// Cluster peripheral region base.
pub const PERIPH_BASE: u32 = 0x0020_0000;
/// Cluster peripheral region size.
pub const PERIPH_SIZE: u32 = 0x0000_1000;
/// Hardware barrier register (reads stall until all cores arrive).
pub const PERIPH_BARRIER: u32 = PERIPH_BASE;

/// Main memory base address.
pub const MAIN_BASE: u32 = 0x8000_0000;
/// Default main memory size (64 MiB — ample for the paper's largest
/// matrices at 680 k nonzeros).
pub const MAIN_SIZE: u32 = 0x0400_0000;

/// Classification of an address by region.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Region {
    Tcdm,
    Periph,
    Main,
    /// Outside every mapped region.
    Unmapped,
}

/// Classifies `addr` against the fixed map.
#[must_use]
#[inline]
pub fn region_of(addr: u32) -> Region {
    if (TCDM_BASE..TCDM_BASE + TCDM_SIZE).contains(&addr) {
        Region::Tcdm
    } else if (PERIPH_BASE..PERIPH_BASE + PERIPH_SIZE).contains(&addr) {
        Region::Periph
    } else if addr >= MAIN_BASE {
        Region::Main
    } else {
        Region::Unmapped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_ordered() {
        assert_eq!(region_of(TCDM_BASE), Region::Tcdm);
        assert_eq!(region_of(TCDM_BASE + TCDM_SIZE - 1), Region::Tcdm);
        assert_eq!(region_of(TCDM_BASE + TCDM_SIZE), Region::Unmapped);
        assert_eq!(region_of(PERIPH_BARRIER), Region::Periph);
        assert_eq!(region_of(MAIN_BASE), Region::Main);
        assert_eq!(region_of(0xFFFF_FFFF), Region::Main);
        assert_eq!(region_of(0), Region::Unmapped);
    }

    #[test]
    fn tcdm_matches_paper_configuration() {
        // 256 KiB over 32 banks = 8 KiB per bank.
        assert_eq!(TCDM_SIZE as usize / TCDM_BANKS, 8 * 1024);
    }
}
