//! Explicit-width lane arithmetic for the hot-path kernels.
//!
//! Stable Rust has no `std::simd`, so this module hand-rolls the one lane
//! type the renderer needs: [`F32x8`], eight `f32` elements — one 256-bit
//! vector register's worth — stored as a plain array so the autovectorizer
//! can map every element-wise operation onto packed instructions.
//!
//! # The bitwise contract
//!
//! Every operation here is **element-wise**: there are no horizontal
//! reductions, no reassociation, and [`F32x8::mul_add`] is deliberately an
//! unfused multiply-then-add. A kernel that accumulates lane-wise in the
//! same per-element order as its scalar reference therefore produces
//! bit-identical results. That is what lets every build run the lane
//! kernels — [`crate::interp::interpolate_cell`] and the MLP GEMV behind
//! [`crate::mlp::Mlp::forward`] — while the scalar oracles
//! ([`crate::interp::interpolate_cell_scalar`],
//! [`crate::mlp::Mlp::forward_scalar`]) pin every pixel of every golden
//! render in the tests.
//!
//! The trick is choosing the lane axis: both vectorized kernels put
//! *independent outputs* in the lanes (feature channels for interpolation,
//! output neurons for the GEMV) and keep the reduction axis sequential, so
//! each output's float-addition order is exactly the scalar one.

use std::ops::{Add, AddAssign, Mul};

/// Number of `f32` elements per [`F32x8`] lane vector.
pub const LANE_WIDTH: usize = 8;

/// An 8-wide `f32` lane vector with element-wise arithmetic.
///
/// # Examples
///
/// ```
/// use spnerf_render::lanes::F32x8;
///
/// let acc = F32x8::splat(1.0);
/// let w = F32x8::from_array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
/// // Unfused acc + w * 2.0 per element.
/// let r = F32x8::splat(2.0).mul_add(w, acc);
/// assert_eq!(r.to_array()[3], 1.0 + 2.0 * 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct F32x8([f32; LANE_WIDTH]);

impl F32x8 {
    /// All elements zero.
    pub const ZERO: F32x8 = F32x8([0.0; LANE_WIDTH]);

    /// Broadcasts one value into every lane.
    pub const fn splat(v: f32) -> Self {
        Self([v; LANE_WIDTH])
    }

    /// Wraps an element array.
    pub const fn from_array(a: [f32; LANE_WIDTH]) -> Self {
        Self(a)
    }

    /// The element array.
    pub const fn to_array(self) -> [f32; LANE_WIDTH] {
        self.0
    }

    /// Loads up to [`LANE_WIDTH`] elements from the front of `s`,
    /// zero-filling the tail — the padded load used at ragged edges
    /// (e.g. feature channels 8..12, or an output block past `out_dim`).
    pub fn load_padded(s: &[f32]) -> Self {
        let mut a = [0.0f32; LANE_WIDTH];
        let n = s.len().min(LANE_WIDTH);
        a[..n].copy_from_slice(&s[..n]);
        Self(a)
    }

    /// Stores the first `out.len().min(LANE_WIDTH)` elements into `out` —
    /// the padded store matching [`F32x8::load_padded`].
    pub fn store_padded(self, out: &mut [f32]) {
        let n = out.len().min(LANE_WIDTH);
        out[..n].copy_from_slice(&self.0[..n]);
    }

    /// Element-wise unfused multiply-then-add: `acc + self * m` per lane.
    ///
    /// Two IEEE 754 rounding steps, exactly like the scalar
    /// `acc += w * x` it replaces — **not** a fused `mul_add`, which would
    /// round once and break bitwise equality with the scalar reference.
    pub fn mul_add(self, m: F32x8, acc: F32x8) -> F32x8 {
        let mut out = [0.0f32; LANE_WIDTH];
        for ((o, (a, b)), c) in out.iter_mut().zip(self.0.iter().zip(m.0)).zip(acc.0) {
            *o = c + a * b;
        }
        Self(out)
    }
}

impl Add for F32x8 {
    type Output = F32x8;

    fn add(self, rhs: F32x8) -> F32x8 {
        let mut out = [0.0f32; LANE_WIDTH];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(rhs.0)) {
            *o = a + b;
        }
        Self(out)
    }
}

impl AddAssign for F32x8 {
    fn add_assign(&mut self, rhs: F32x8) {
        *self = *self + rhs;
    }
}

impl Mul for F32x8 {
    type Output = F32x8;

    fn mul(self, rhs: F32x8) -> F32x8 {
        let mut out = [0.0f32; LANE_WIDTH];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(rhs.0)) {
            *o = a * b;
        }
        Self(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_and_roundtrip() {
        let v = F32x8::splat(2.5);
        assert_eq!(v.to_array(), [2.5; 8]);
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(F32x8::from_array(a).to_array(), a);
    }

    #[test]
    fn padded_load_zero_fills() {
        let v = F32x8::load_padded(&[1.0, 2.0, 3.0]);
        assert_eq!(v.to_array(), [1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        // Over-long slices truncate.
        let long: Vec<f32> = (0..12).map(|i| i as f32).collect();
        assert_eq!(F32x8::load_padded(&long).to_array()[7], 7.0);
    }

    #[test]
    fn padded_store_respects_length() {
        let v = F32x8::from_array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let mut out = [0.0f32; 3];
        v.store_padded(&mut out);
        assert_eq!(out, [1.0, 2.0, 3.0]);
        let mut full = [0.0f32; 8];
        v.store_padded(&mut full);
        assert_eq!(full, v.to_array());
    }

    #[test]
    fn elementwise_ops() {
        let a = F32x8::from_array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = F32x8::splat(0.5);
        assert_eq!((a + b).to_array()[2], 3.5);
        assert_eq!((a * b).to_array()[5], 3.0);
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
    }

    #[test]
    fn mul_add_is_unfused_and_matches_scalar_order() {
        // The exact double-rounding of `acc + a*b` must be preserved: pick
        // operands where fused and unfused differ in the last ulp.
        let a = 0.1f32;
        let b = 0.2f32;
        let acc = 0.3f32;
        let lane = F32x8::splat(a).mul_add(F32x8::splat(b), F32x8::splat(acc));
        let scalar = acc + a * b;
        for l in lane.to_array() {
            assert_eq!(l.to_bits(), scalar.to_bits());
        }
    }
}
