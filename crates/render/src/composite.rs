//! Volume-rendering composition: density → alpha, transmittance, and
//! front-to-back accumulation.
//!
//! Implements the standard emission-absorption volume rendering equation
//! used by NeRF-family renderers:
//! `C = Σ T_i · α_i · c_i + T_N · C_bg` with `α_i = 1 − exp(−σ_i δ)` and
//! `T_i = Π_{j<i} (1 − α_j)`.

use crate::vec3::Vec3;

/// Converts a density sample to an opacity given the step length `dt`.
///
/// Negative densities are treated as empty (alpha 0).
pub fn alpha_from_density(sigma: f32, dt: f32) -> f32 {
    if sigma <= 0.0 {
        0.0
    } else {
        1.0 - (-sigma * dt).exp()
    }
}

/// The compositing inner loop: `acc[c] += values[c] * w` for every channel
/// — one multiply and one add per channel (two IEEE rounding steps),
/// channels in ascending order.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn accumulate_weighted(acc: &mut [f32], values: &[f32], w: f32) {
    assert_eq!(acc.len(), values.len(), "channel counts must match");
    for (a, v) in acc.iter_mut().zip(values) {
        *a += *v * w;
    }
}

/// Front-to-back ray accumulator.
///
/// # Examples
///
/// ```
/// use spnerf_render::composite::RayAccumulator;
/// use spnerf_render::vec3::Vec3;
///
/// let mut acc = RayAccumulator::new();
/// acc.add_sample(1.0, Vec3::new(1.0, 0.0, 0.0)); // fully opaque red sample
/// assert!(acc.is_opaque(1e-3));
/// let c = acc.finalize(Vec3::ONE);
/// assert_eq!(c, Vec3::new(1.0, 0.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayAccumulator {
    color: Vec3,
    transmittance: f32,
}

impl Default for RayAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl RayAccumulator {
    /// A fresh accumulator (full transmittance, no color).
    pub fn new() -> Self {
        Self { color: Vec3::ZERO, transmittance: 1.0 }
    }

    /// Adds one sample with opacity `alpha` and radiance `rgb`.
    ///
    /// Alpha is clamped to `[0, 1]`. The channel update runs through
    /// [`accumulate_weighted`]: `C += c · (T · α)`.
    pub fn add_sample(&mut self, alpha: f32, rgb: Vec3) {
        let a = alpha.clamp(0.0, 1.0);
        let mut ch = [self.color.x, self.color.y, self.color.z];
        accumulate_weighted(&mut ch, &[rgb.x, rgb.y, rgb.z], self.transmittance * a);
        self.color = Vec3::new(ch[0], ch[1], ch[2]);
        self.attenuate(alpha);
    }

    /// Attenuates the transmittance by one sample of opacity `alpha`
    /// without adding color: [`RayAccumulator::add_sample`]'s own
    /// `T *= 1 − clamp(α, 0, 1)`.
    ///
    /// The ray kernel's march phase runs this per shaded sample, so the
    /// transmittance, early termination and depth of a ray are settled
    /// before its colors exist; the composite phase then replays the same
    /// alphas through `add_sample` and reaches the same `T` bit for bit.
    pub fn attenuate(&mut self, alpha: f32) {
        self.transmittance *= 1.0 - alpha.clamp(0.0, 1.0);
    }

    /// Remaining transmittance `T`.
    pub fn transmittance(&self) -> f32 {
        self.transmittance
    }

    /// Accumulated opacity `1 − T`.
    pub fn opacity(&self) -> f32 {
        1.0 - self.transmittance
    }

    /// Whether the ray can be terminated early (`T < threshold`) — the
    /// early-ray-termination optimization both the software renderer and the
    /// accelerator pipeline apply.
    pub fn is_opaque(&self, threshold: f32) -> bool {
        self.transmittance < threshold
    }

    /// Composites the remaining transmittance against a background color and
    /// returns the final pixel value.
    pub fn finalize(&self, background: Vec3) -> Vec3 {
        self.color + background * self.transmittance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_zero_for_empty() {
        assert_eq!(alpha_from_density(0.0, 0.1), 0.0);
        assert_eq!(alpha_from_density(-5.0, 0.1), 0.0);
    }

    #[test]
    fn alpha_monotonic_in_density_and_step() {
        let a1 = alpha_from_density(1.0, 0.1);
        let a2 = alpha_from_density(2.0, 0.1);
        let a3 = alpha_from_density(1.0, 0.2);
        assert!(a2 > a1);
        assert!(a3 > a1);
        assert!((0.0..1.0).contains(&a1));
    }

    #[test]
    fn empty_ray_shows_background() {
        let acc = RayAccumulator::new();
        let bg = Vec3::new(0.2, 0.4, 0.6);
        assert_eq!(acc.finalize(bg), bg);
    }

    #[test]
    fn opaque_sample_blocks_background() {
        let mut acc = RayAccumulator::new();
        acc.add_sample(1.0, Vec3::new(0.5, 0.5, 0.5));
        let out = acc.finalize(Vec3::ONE);
        assert_eq!(out, Vec3::splat(0.5));
        assert_eq!(acc.opacity(), 1.0);
    }

    #[test]
    fn half_transparent_blend() {
        let mut acc = RayAccumulator::new();
        acc.add_sample(0.5, Vec3::new(1.0, 0.0, 0.0));
        let out = acc.finalize(Vec3::new(0.0, 0.0, 1.0));
        assert!((out.x - 0.5).abs() < 1e-6);
        assert!((out.z - 0.5).abs() < 1e-6);
    }

    #[test]
    fn transmittance_is_product_of_survival() {
        let mut acc = RayAccumulator::new();
        acc.add_sample(0.25, Vec3::ONE);
        acc.add_sample(0.5, Vec3::ONE);
        assert!((acc.transmittance() - 0.75 * 0.5).abs() < 1e-6);
    }

    #[test]
    fn order_matters_front_to_back() {
        let mut red_first = RayAccumulator::new();
        red_first.add_sample(0.6, Vec3::new(1.0, 0.0, 0.0));
        red_first.add_sample(0.6, Vec3::new(0.0, 1.0, 0.0));
        let mut green_first = RayAccumulator::new();
        green_first.add_sample(0.6, Vec3::new(0.0, 1.0, 0.0));
        green_first.add_sample(0.6, Vec3::new(1.0, 0.0, 0.0));
        let a = red_first.finalize(Vec3::ZERO);
        let b = green_first.finalize(Vec3::ZERO);
        assert!(a.x > a.y, "front sample dominates");
        assert!(b.y > b.x);
    }

    #[test]
    fn early_termination_threshold() {
        let mut acc = RayAccumulator::new();
        assert!(!acc.is_opaque(1e-3));
        for _ in 0..20 {
            acc.add_sample(0.5, Vec3::ONE);
        }
        assert!(acc.is_opaque(1e-3));
    }

    #[test]
    fn accumulate_weighted_matches_the_manual_blend() {
        let mut acc = [0.5f32, -1.0, 2.0];
        accumulate_weighted(&mut acc, &[1.0, 2.0, 3.0], 0.25);
        assert_eq!(acc[0].to_bits(), (0.5f32 + 1.0 * 0.25).to_bits());
        assert_eq!(acc[1].to_bits(), (-1.0f32 + 2.0 * 0.25).to_bits());
        assert_eq!(acc[2].to_bits(), (2.0f32 + 3.0 * 0.25).to_bits());
    }

    #[test]
    #[should_panic(expected = "channel counts must match")]
    fn accumulate_weighted_rejects_length_mismatch() {
        let mut acc = [0.0f32; 3];
        accumulate_weighted(&mut acc, &[0.0; 4], 1.0);
    }

    #[test]
    fn attenuate_is_add_samples_transmittance_update() {
        let mut colored = RayAccumulator::new();
        let mut dark = RayAccumulator::new();
        for alpha in [0.3f32, 0.0, 0.77, 1e-8, 0.5, 2.0, -1.0] {
            colored.add_sample(alpha, Vec3::new(0.9, 0.2, 0.4));
            dark.attenuate(alpha);
            assert_eq!(dark.transmittance().to_bits(), colored.transmittance().to_bits());
        }
        assert_eq!(dark.finalize(Vec3::ZERO), Vec3::ZERO, "attenuate adds no color");
    }

    #[test]
    fn alpha_clamped() {
        let mut acc = RayAccumulator::new();
        acc.add_sample(5.0, Vec3::ONE); // clamps to 1
        assert_eq!(acc.transmittance(), 0.0);
        let mut acc2 = RayAccumulator::new();
        acc2.add_sample(-1.0, Vec3::ONE); // clamps to 0
        assert_eq!(acc2.transmittance(), 1.0);
    }
}
