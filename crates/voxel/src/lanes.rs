//! Explicit-width lane arithmetic for the hot-path kernels.
//!
//! Stable Rust has no `std::simd`, so this module hand-rolls the one lane
//! type the workspace needs: [`F32x8`], eight `f32` elements — one 256-bit
//! vector register's worth — stored as a plain array so the autovectorizer
//! can map every element-wise operation onto packed instructions. It lives
//! here, in the lowest crate, so the k-means trainer
//! ([`crate::kmeans`]) and the renderer (`spnerf-render` re-exports this
//! module as `spnerf_render::lanes`) share one lane type. Every operation
//! is `#[inline]`, so the renderer's kernels inline them across the crate
//! boundary as if the type were local.
//!
//! # Width
//!
//! The x86-64 baseline has only 128-bit SSE registers, so there an
//! [`F32x8`] is two of them. The throughput-bound kernels therefore run
//! through [`wide!`](crate::wide!): on a host with AVX it runs the kernel
//! body in a clone compiled with AVX enabled, where an [`F32x8`] is one
//! ymm register; on any other host it runs the same body as built. The
//! host's CPU picks the clone; no flag, feature or setting does.
//!
//! # The bitwise contract
//!
//! Every operation here is **element-wise**: there are no horizontal
//! reductions, no reassociation, and [`F32x8::mul_add`] is deliberately an
//! unfused multiply-then-add. A kernel that accumulates lane-wise in the
//! same per-element order as its scalar reference therefore produces
//! bit-identical results. That is what lets every build run the lane
//! kernels — the renderer's `interpolate_cell` and MLP kernels, and
//! [`crate::kmeans::Codebook::assign`] — while the scalar oracles
//! (`interpolate_cell_scalar`, `Mlp::forward_scalar`,
//! [`crate::kmeans::Codebook::assign_scalar`]) pin every result in the
//! tests.
//!
//! The trick is choosing the lane axis: the vectorized kernels put
//! *independent outputs* in the lanes (feature channels for interpolation,
//! output neurons for the GEMV, the eight samples of a batched MLP pass,
//! codewords or training rows for k-means) and keep the reduction axis
//! sequential, so each output's float-addition order is exactly the scalar
//! one.
//!
//! The AVX clone keeps the contract: [`wide!`](crate::wide!) enables
//! `avx` alone, never `fma`, and Rust never fuses a separate multiply and
//! add, so every lane still rounds twice, as the scalar oracles do.

use std::ops::{Add, AddAssign, Mul, Sub};

/// Number of `f32` elements per [`F32x8`] lane vector.
pub const LANE_WIDTH: usize = 8;

/// Evaluates a lane-kernel expression at the widest lane width the host
/// offers: `wide!(expr)` is [`lanes::wide`](crate::lanes::wide) run on an
/// `#[inline(always)]` closure around `expr`.
///
/// On an x86-64 host with AVX, `expr` runs inside a clone compiled with
/// `#[target_feature(enable = "avx")]`, where each
/// [`F32x8`](crate::lanes::F32x8) is one 256-bit ymm register instead of
/// two SSE registers; everywhere else it runs as built. Only `avx` is
/// enabled, never `fma`, so both clones compute the same bits (see the
/// module's bitwise contract).
///
/// The widening reaches only code that is inlined into the clone. The
/// macro pins the closure inline; the functions `expr` calls must be
/// `#[inline(always)]` too. Code the compiler keeps out of line still gives
/// the same results, at baseline width; `scripts/check-wide-lanes.sh` finds
/// it in a release binary.
///
/// # Examples
///
/// ```
/// use spnerf_voxel::lanes::F32x8;
/// use spnerf_voxel::wide;
///
/// let (a, b) = (F32x8::splat(1.5), F32x8::splat(2.0));
/// assert_eq!(wide!(a.mul_add(b, a)), a.mul_add(b, a));
/// ```
#[macro_export]
macro_rules! wide {
    ($kernel:expr) => {
        $crate::lanes::wide(
            #[inline(always)]
            || $kernel,
        )
    };
}

/// Runs `kernel` at the widest lane width the host offers, and returns its
/// result: the function behind [`wide!`](crate::wide!), which callers use
/// so that the closure is inlined into the AVX clone.
#[allow(unsafe_code)]
#[inline(always)]
pub fn wide<R>(kernel: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    {
        /// Runs `kernel`, compiled with AVX instructions enabled.
        ///
        /// # Safety
        ///
        /// The CPU running it must support AVX.
        #[target_feature(enable = "avx")]
        unsafe fn avx<R>(kernel: impl FnOnce() -> R) -> R {
            kernel()
        }

        if std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: `avx` has no requirement beyond the one its
            // `#[target_feature]` attribute states — that the CPU supports
            // AVX — and the runtime check above has just found AVX on this
            // CPU (which also covers the OS saving the ymm state).
            return unsafe { avx(kernel) };
        }
    }
    kernel()
}

/// An 8-wide `f32` lane vector with element-wise arithmetic.
///
/// # Examples
///
/// ```
/// use spnerf_voxel::lanes::F32x8;
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
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Self([v; LANE_WIDTH])
    }

    /// Wraps an element array.
    #[inline]
    pub const fn from_array(a: [f32; LANE_WIDTH]) -> Self {
        Self(a)
    }

    /// The element array.
    #[inline]
    pub const fn to_array(self) -> [f32; LANE_WIDTH] {
        self.0
    }

    /// Loads up to [`LANE_WIDTH`] elements from the front of `s`,
    /// zero-filling the tail — the padded load used at ragged edges
    /// (e.g. feature channels 8..12, or an output block past `out_dim`).
    #[inline]
    pub fn load_padded(s: &[f32]) -> Self {
        let mut a = [0.0f32; LANE_WIDTH];
        let n = s.len().min(LANE_WIDTH);
        a[..n].copy_from_slice(&s[..n]);
        Self(a)
    }

    /// Stores the first `out.len().min(LANE_WIDTH)` elements into `out` —
    /// the padded store matching [`F32x8::load_padded`].
    #[inline]
    pub fn store_padded(self, out: &mut [f32]) {
        let n = out.len().min(LANE_WIDTH);
        out[..n].copy_from_slice(&self.0[..n]);
    }

    /// Element-wise unfused multiply-then-add: `acc + self * m` per lane.
    ///
    /// Two IEEE 754 rounding steps, exactly like the scalar
    /// `acc += w * x` it replaces — **not** a fused `mul_add`, which would
    /// round once and break bitwise equality with the scalar reference.
    #[inline]
    pub fn mul_add(self, m: F32x8, acc: F32x8) -> F32x8 {
        let mut out = [0.0f32; LANE_WIDTH];
        for ((o, (a, b)), c) in out.iter_mut().zip(self.0.iter().zip(m.0)).zip(acc.0) {
            *o = c + a * b;
        }
        Self(out)
    }

    /// Per lane, `if self < bound { then } else { otherwise }` — the
    /// branch-free select behind a running argmin.
    ///
    /// The comparison is IEEE `<`: a NaN on either side is "not less", so
    /// that lane keeps `otherwise`, exactly like the scalar
    /// `if d < best { .. }` it replaces.
    #[inline]
    pub fn select_lt(self, bound: F32x8, then: F32x8, otherwise: F32x8) -> F32x8 {
        let mut out = [0.0f32; LANE_WIDTH];
        for (l, o) in out.iter_mut().enumerate() {
            *o = if self.0[l] < bound.0[l] { then.0[l] } else { otherwise.0[l] };
        }
        Self(out)
    }
}

impl Add for F32x8 {
    type Output = F32x8;

    #[inline]
    fn add(self, rhs: F32x8) -> F32x8 {
        let mut out = [0.0f32; LANE_WIDTH];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(rhs.0)) {
            *o = a + b;
        }
        Self(out)
    }
}

impl AddAssign for F32x8 {
    #[inline]
    fn add_assign(&mut self, rhs: F32x8) {
        *self = *self + rhs;
    }
}

impl Sub for F32x8 {
    type Output = F32x8;

    #[inline]
    fn sub(self, rhs: F32x8) -> F32x8 {
        let mut out = [0.0f32; LANE_WIDTH];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(rhs.0)) {
            *o = a - b;
        }
        Self(out)
    }
}

impl Mul for F32x8 {
    type Output = F32x8;

    #[inline]
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
        assert_eq!((a - b).to_array()[0], 0.5);
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
    }

    #[test]
    fn select_lt_is_a_strict_ieee_less_than() {
        let x = F32x8::from_array([1.0, 2.0, 3.0, f32::NAN, 5.0, -0.0, f32::INFINITY, 0.5]);
        let bound = F32x8::from_array([2.0, 2.0, 1.0, 9.0, f32::NAN, 0.0, f32::INFINITY, 1.0]);
        let got = x.select_lt(bound, F32x8::splat(1.0), F32x8::splat(0.0)).to_array();
        // Ties, NaN on either side and -0.0 < +0.0 are all "not less".
        assert_eq!(got, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn mul_add_is_unfused_and_matches_scalar_order() {
        // The exact double-rounding of `acc + a*b` must be preserved, at
        // baseline width and in the `wide` clone, whose operands are hidden
        // from constant folding. The second operands tell a fused
        // multiply-add apart: `a·a = 1 + 2^-11 + 2^-24` rounds to
        // `1 + 2^-11`, so the unfused sum is 0 and a fused one is 2^-24.
        let a = 1.0 + 2.0f32.powi(-12);
        let acc = -(1.0 + 2.0f32.powi(-11));
        assert_eq!(acc + a * a, 0.0);
        assert_eq!(a.mul_add(a, acc), 2.0f32.powi(-24), "the operands tell fused apart");
        for (a, b, acc) in [(0.1f32, 0.2f32, 0.3f32), (a, a, acc)] {
            let scalar = acc + a * b;
            let lane = F32x8::splat(a).mul_add(F32x8::splat(b), F32x8::splat(acc));
            let (wa, wb, wacc) =
                std::hint::black_box((F32x8::splat(a), F32x8::splat(b), F32x8::splat(acc)));
            let wide_lane = wide!(wa.mul_add(wb, wacc));
            for (l, w) in lane.to_array().into_iter().zip(wide_lane.to_array()) {
                assert_eq!(l.to_bits(), scalar.to_bits(), "baseline, {a} * {b} + {acc}");
                assert_eq!(w.to_bits(), scalar.to_bits(), "wide clone, {a} * {b} + {acc}");
            }
        }
    }
}
