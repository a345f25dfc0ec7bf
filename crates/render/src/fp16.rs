//! Software IEEE 754 binary16 ("half", FP16).
//!
//! The SpNeRF accelerator computes on chip in FP16 (Section IV-A) while voxel
//! data lives off chip in INT8. This module provides a bit-exact `f32 ↔ f16`
//! conversion (round-to-nearest-even, subnormals, infinities, NaN) plus
//! arithmetic performed at f32 precision and re-rounded to f16 — the behaviour
//! of an FP16 multiply/add datapath with an f32-accurate core.
//!
//! Implemented in-tree because the offline dependency set does not include
//! the `half` crate.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An IEEE 754 binary16 value stored as its 16 raw bits.
///
/// # Examples
///
/// ```
/// use spnerf_render::fp16::F16;
///
/// let x = F16::from_f32(1.5);
/// assert_eq!(x.to_f32(), 1.5);
/// let y = x * F16::from_f32(2.0);
/// assert_eq!(y.to_f32(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// One.
    pub const ONE: F16 = F16(0x3c00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7c00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xfc00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7e00);
    /// Largest finite value (65504).
    pub const MAX: F16 = F16(0x7bff);
    /// Smallest positive normal value (2⁻¹⁴).
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Machine epsilon (2⁻¹⁰): difference between 1.0 and the next value.
    pub const EPSILON: F16 = F16(0x1400);

    /// Converts from `f32` with round-to-nearest-even.
    pub fn from_f32(x: f32) -> Self {
        F16(f32_to_f16_bits(x))
    }

    /// Converts to `f32` exactly (every f16 is representable in f32).
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Creates a value from its raw bit pattern.
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// The raw bit pattern.
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Whether the value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7c00) == 0x7c00 && (self.0 & 0x03ff) != 0
    }

    /// Whether the value is ±∞.
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7fff) == 0x7c00
    }

    /// Whether the value is finite (neither ∞ nor NaN).
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7c00) != 0x7c00
    }

    /// Whether the value is subnormal (non-zero with biased exponent 0).
    pub fn is_subnormal(self) -> bool {
        (self.0 & 0x7c00) == 0 && (self.0 & 0x03ff) != 0
    }

    /// Absolute value.
    pub fn abs(self) -> Self {
        F16(self.0 & 0x7fff)
    }

    /// Fused a·b + c evaluated at f32 precision, rounded once to f16 — the
    /// operation of one FP16 MAC in the systolic array.
    pub fn mul_add(self, b: F16, c: F16) -> F16 {
        F16::from_f32(self.to_f32() * b.to_f32() + c.to_f32())
    }
}

impl From<f32> for F16 {
    fn from(x: f32) -> Self {
        F16::from_f32(x)
    }
}

impl From<F16> for f32 {
    fn from(h: F16) -> f32 {
        h.to_f32()
    }
}

impl PartialEq for F16 {
    fn eq(&self, other: &Self) -> bool {
        self.to_f32() == other.to_f32() // IEEE semantics: NaN ≠ NaN, -0 == +0
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl Add for F16 {
    type Output = F16;
    fn add(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() + rhs.to_f32())
    }
}

impl Sub for F16 {
    type Output = F16;
    fn sub(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() - rhs.to_f32())
    }
}

impl Mul for F16 {
    type Output = F16;
    fn mul(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() * rhs.to_f32())
    }
}

impl Div for F16 {
    type Output = F16;
    fn div(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() / rhs.to_f32())
    }
}

impl Neg for F16 {
    type Output = F16;
    fn neg(self) -> F16 {
        F16(self.0 ^ 0x8000)
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Converts an `f32` to raw f16 bits with round-to-nearest-even.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let b = x.to_bits();
    let sign = ((b >> 16) & 0x8000) as u16;
    let exp32 = ((b >> 23) & 0xff) as i32;
    let frac32 = b & 0x007f_ffff;

    if exp32 == 0xff {
        // Infinity or NaN. Preserve NaN-ness by forcing a non-zero payload.
        if frac32 == 0 {
            return sign | 0x7c00;
        }
        let payload = ((frac32 >> 13) as u16) & 0x03ff;
        return sign | 0x7c00 | if payload == 0 { 0x0200 } else { payload };
    }

    let e = exp32 - 127; // unbiased exponent
    if e >= 16 {
        return sign | 0x7c00; // overflow → ±∞
    }
    if e >= -14 {
        // Normal half.
        let exp16 = (e + 15) as u32;
        let mut mant = frac32 >> 13;
        let rem = frac32 & 0x1fff;
        if rem > 0x1000 || (rem == 0x1000 && (mant & 1) == 1) {
            mant += 1; // may carry into the exponent, which is correct
        }
        let bits = (exp16 << 10) + mant;
        if bits >= 0x7c00 {
            return sign | 0x7c00; // rounded up to ∞
        }
        return sign | bits as u16;
    }
    if e >= -25 {
        // Subnormal half: drop (13 + (-14 - e)) bits of the 24-bit significand.
        let mant32 = frac32 | 0x0080_0000;
        let shift = (13 + (-14 - e)) as u32;
        let mut m = mant32 >> shift;
        let rem = mant32 & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        if rem > half || (rem == half && (m & 1) == 1) {
            m += 1; // m == 0x400 becomes the smallest normal — still correct bits
        }
        return sign | m as u16;
    }
    sign // underflow → ±0
}

/// Converts raw f16 bits to `f32` exactly.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let frac = (h & 0x03ff) as u32;
    let bits = match (exp, frac) {
        (0, 0) => sign,
        (0, f) => {
            // Subnormal: value = f × 2⁻²⁴, exact in f32.
            let v = f as f32 / 16_777_216.0;
            return if sign != 0 { -v } else { v };
        }
        (31, 0) => sign | 0x7f80_0000,
        (31, f) => sign | 0x7f80_0000 | (f << 13) | 0x0040_0000, // quiet NaN
        (e, f) => sign | ((e + 112) << 23) | (f << 13),
    };
    f32::from_bits(bits)
}

/// Rounds every element of `v` through f16 — models storing a vector in an
/// FP16 buffer.
pub fn round_slice_to_f16(v: &mut [f32]) {
    for x in v.iter_mut() {
        *x = F16::from_f32(*x).to_f32();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers() {
        for i in -2048i32..=2048 {
            let x = i as f32;
            assert_eq!(F16::from_f32(x).to_f32(), x, "integer {i} must round-trip");
        }
    }

    #[test]
    fn known_bit_patterns() {
        assert_eq!(F16::from_f32(1.0).to_bits(), 0x3c00);
        assert_eq!(F16::from_f32(-2.0).to_bits(), 0xc000);
        assert_eq!(F16::from_f32(65504.0).to_bits(), 0x7bff);
        assert_eq!(F16::from_f32(0.5).to_bits(), 0x3800);
        assert_eq!(F16::from_f32(2.0f32.powi(-14)).to_bits(), 0x0400);
        assert_eq!(F16::from_f32(2.0f32.powi(-24)).to_bits(), 0x0001);
    }

    #[test]
    fn overflow_to_infinity() {
        assert!(F16::from_f32(1e6).is_infinite());
        assert!(F16::from_f32(-1e6).is_infinite());
        assert!(F16::from_f32(65520.0).is_infinite()); // rounds up past MAX
        assert_eq!(F16::from_f32(65519.0).to_bits(), 0x7bff); // rounds down to MAX
    }

    #[test]
    fn underflow_to_zero() {
        assert_eq!(F16::from_f32(1e-10).to_bits(), 0);
        assert_eq!(F16::from_f32(-1e-10).to_bits(), 0x8000);
    }

    #[test]
    fn nan_preserved() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::NAN.is_nan());
        assert!(F16::NAN.to_f32().is_nan());
        assert_ne!(F16::NAN, F16::NAN); // IEEE: NaN ≠ NaN
    }

    #[test]
    fn subnormal_round_trip() {
        for f in 1u16..=0x3ff {
            let h = F16::from_bits(f);
            assert!(h.is_subnormal());
            assert_eq!(F16::from_f32(h.to_f32()).to_bits(), f);
        }
    }

    #[test]
    fn all_finite_bit_patterns_round_trip() {
        for bits in 0u16..=0xffff {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                continue;
            }
            let back = F16::from_f32(h.to_f32());
            assert_eq!(back.to_bits(), bits, "bits {bits:#06x} failed round-trip");
        }
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly between 1.0 and 1+2^-10 → ties to even (1.0).
        let x = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(x).to_bits(), 0x3c00);
        // 1 + 3·2^-11 is between 1+2^-10 and 1+2^-9 → ties to even (1+2^-9).
        let y = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(y).to_bits(), 0x3c02);
        // Slightly above the tie rounds up.
        let z = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(F16::from_f32(z).to_bits(), 0x3c01);
    }

    #[test]
    fn arithmetic_rounds_like_fp16() {
        let a = F16::from_f32(0.1);
        let b = F16::from_f32(0.2);
        let c = a + b;
        // Result equals rounding the f32 sum of the rounded inputs.
        let expect = F16::from_f32(a.to_f32() + b.to_f32());
        assert_eq!(c.to_bits(), expect.to_bits());
        assert!((c.to_f32() - 0.3).abs() < 1e-3);
    }

    #[test]
    fn mul_add_matches_composition_when_exact() {
        let a = F16::from_f32(3.0);
        let b = F16::from_f32(4.0);
        let c = F16::from_f32(5.0);
        assert_eq!(a.mul_add(b, c).to_f32(), 17.0);
    }

    #[test]
    fn negation_flips_sign_bit_only() {
        let x = F16::from_f32(1.5);
        assert_eq!((-x).to_f32(), -1.5);
        assert_eq!((-(-x)).to_bits(), x.to_bits());
    }

    #[test]
    fn comparisons() {
        assert!(F16::from_f32(1.0) < F16::from_f32(2.0));
        assert!(F16::from_f32(-1.0) < F16::ZERO);
        assert_eq!(F16::from_f32(0.0), F16::from_f32(-0.0)); // IEEE -0 == +0
    }

    #[test]
    fn epsilon_is_ulp_of_one() {
        let next = F16::from_bits(F16::ONE.to_bits() + 1);
        assert_eq!((next - F16::ONE).to_bits(), F16::EPSILON.to_bits());
    }

    #[test]
    fn round_slice() {
        let mut v = [0.1f32, 1.0, 1e6];
        round_slice_to_f16(&mut v);
        assert_eq!(v[1], 1.0);
        assert!(v[2].is_infinite());
        assert_ne!(v[0], 0.1); // 0.1 is not representable
    }
}
