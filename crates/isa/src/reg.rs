//! Architectural register newtypes.
//!
//! The Snitch core implements the RV32 integer register file (`x0`–`x31`)
//! and, in its FPU subsystem, the RV64-double register file (`f0`–`f31`).
//! Newtypes keep integer and floating-point register operands statically
//! distinct (C-NEWTYPE).

use std::fmt;

/// An integer (`x`) register index.
///
/// # Examples
/// ```
/// use issr_isa::reg::IntReg;
/// assert_eq!(IntReg::A0.index(), 10);
/// assert_eq!(IntReg::new(5), IntReg::T0);
/// assert_eq!(IntReg::T0.to_string(), "t0");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct IntReg(u8);

/// A floating-point (`f`) register index.
///
/// # Examples
/// ```
/// use issr_isa::reg::FpReg;
/// assert_eq!(FpReg::FT0.index(), 0);
/// assert_eq!(FpReg::FT2.offset(3).to_string(), "ft5");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct FpReg(u8);

impl IntReg {
    /// Creates a register from its index.
    ///
    /// # Panics
    /// Panics if `index > 31`.
    #[must_use]
    #[inline]
    pub fn new(index: u8) -> Self {
        assert!(index < 32, "integer register index {index} out of range");
        Self(index)
    }

    /// Returns the register index (0–31).
    #[must_use]
    #[inline]
    pub fn index(self) -> u8 {
        self.0
    }

    /// Returns `true` for `x0`, which always reads zero.
    #[must_use]
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    pub const ZERO: Self = Self(0);
    pub const RA: Self = Self(1);
    pub const SP: Self = Self(2);
    pub const GP: Self = Self(3);
    pub const TP: Self = Self(4);
    pub const T0: Self = Self(5);
    pub const T1: Self = Self(6);
    pub const T2: Self = Self(7);
    pub const S0: Self = Self(8);
    pub const S1: Self = Self(9);
    pub const A0: Self = Self(10);
    pub const A1: Self = Self(11);
    pub const A2: Self = Self(12);
    pub const A3: Self = Self(13);
    pub const A4: Self = Self(14);
    pub const A5: Self = Self(15);
    pub const A6: Self = Self(16);
    pub const A7: Self = Self(17);
    pub const S2: Self = Self(18);
    pub const S3: Self = Self(19);
    pub const S4: Self = Self(20);
    pub const S5: Self = Self(21);
    pub const S6: Self = Self(22);
    pub const S7: Self = Self(23);
    pub const S8: Self = Self(24);
    pub const S9: Self = Self(25);
    pub const S10: Self = Self(26);
    pub const S11: Self = Self(27);
    pub const T3: Self = Self(28);
    pub const T4: Self = Self(29);
    pub const T5: Self = Self(30);
    pub const T6: Self = Self(31);
}

const INT_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

impl fmt::Display for IntReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(INT_NAMES[self.0 as usize])
    }
}

impl From<IntReg> for u8 {
    fn from(reg: IntReg) -> Self {
        reg.0
    }
}

impl FpReg {
    /// Creates a register from its index.
    ///
    /// # Panics
    /// Panics if `index > 31`.
    #[must_use]
    #[inline]
    pub fn new(index: u8) -> Self {
        assert!(index < 32, "fp register index {index} out of range");
        Self(index)
    }

    /// Returns the register index (0–31).
    #[must_use]
    #[inline]
    pub fn index(self) -> u8 {
        self.0
    }

    /// Returns the register `self + n`, used to address staggered
    /// accumulator groups.
    ///
    /// # Panics
    /// Panics if the result exceeds `f31`.
    #[must_use]
    #[inline]
    pub fn offset(self, n: u8) -> Self {
        Self::new(self.0 + n)
    }

    pub const FT0: Self = Self(0);
    pub const FT1: Self = Self(1);
    pub const FT2: Self = Self(2);
    pub const FT3: Self = Self(3);
    pub const FT4: Self = Self(4);
    pub const FT5: Self = Self(5);
    pub const FT6: Self = Self(6);
    pub const FT7: Self = Self(7);
    pub const FS0: Self = Self(8);
    pub const FS1: Self = Self(9);
    pub const FA0: Self = Self(10);
    pub const FA1: Self = Self(11);
    pub const FA2: Self = Self(12);
    pub const FA3: Self = Self(13);
    pub const FA4: Self = Self(14);
    pub const FA5: Self = Self(15);
    pub const FA6: Self = Self(16);
    pub const FA7: Self = Self(17);
    pub const FS2: Self = Self(18);
    pub const FS3: Self = Self(19);
    pub const FS4: Self = Self(20);
    pub const FS5: Self = Self(21);
    pub const FS6: Self = Self(22);
    pub const FS7: Self = Self(23);
    pub const FS8: Self = Self(24);
    pub const FS9: Self = Self(25);
    pub const FS10: Self = Self(26);
    pub const FS11: Self = Self(27);
    pub const FT8: Self = Self(28);
    pub const FT9: Self = Self(29);
    pub const FT10: Self = Self(30);
    pub const FT11: Self = Self(31);
}

const FP_NAMES: [&str; 32] = [
    "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7", "fs0", "fs1", "fa0", "fa1", "fa2",
    "fa3", "fa4", "fa5", "fa6", "fa7", "fs2", "fs3", "fs4", "fs5", "fs6", "fs7", "fs8", "fs9",
    "fs10", "fs11", "ft8", "ft9", "ft10", "ft11",
];

impl fmt::Display for FpReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(FP_NAMES[self.0 as usize])
    }
}

impl From<FpReg> for u8 {
    fn from(reg: FpReg) -> Self {
        reg.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_reg_abi_names() {
        assert_eq!(IntReg::ZERO.to_string(), "zero");
        assert_eq!(IntReg::A0.to_string(), "a0");
        assert_eq!(IntReg::T6.to_string(), "t6");
        assert_eq!(IntReg::new(8), IntReg::S0);
    }

    #[test]
    fn fp_reg_abi_names() {
        assert_eq!(FpReg::FT0.to_string(), "ft0");
        assert_eq!(FpReg::FT11.to_string(), "ft11");
        assert_eq!(FpReg::FA0.index(), 10);
    }

    #[test]
    fn fp_offset_addresses_accumulator_group() {
        assert_eq!(FpReg::FT2.offset(0), FpReg::FT2);
        assert_eq!(FpReg::FT2.offset(5), FpReg::FT7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int_reg_out_of_range_panics() {
        let _ = IntReg::new(32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fp_offset_past_f31_panics() {
        let _ = FpReg::FT11.offset(1);
    }

    #[test]
    fn zero_detection() {
        assert!(IntReg::ZERO.is_zero());
        assert!(!IntReg::A0.is_zero());
    }
}
