//! Pinhole cameras and pose generation.
//!
//! Synthetic-NeRF renders 800×800 views from poses orbiting the object; the
//! reproduction generates equivalent orbit poses procedurally.

use crate::ray::Ray;
use crate::vec3::Vec3;

/// A camera pose: rotation (world-from-camera, column-major basis vectors)
/// plus position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    /// Camera right vector in world space.
    pub right: Vec3,
    /// Camera up vector in world space.
    pub up: Vec3,
    /// Camera forward vector in world space (viewing direction).
    pub forward: Vec3,
    /// Camera position in world space.
    pub position: Vec3,
}

impl Pose {
    /// Builds a pose at `eye` looking toward `target` with the given world
    /// up hint.
    ///
    /// # Panics
    ///
    /// Panics if `eye == target` or the up hint is parallel to the view
    /// direction.
    pub fn look_at(eye: Vec3, target: Vec3, up_hint: Vec3) -> Self {
        let forward = (target - eye).normalized();
        let right = forward.cross(up_hint).normalized();
        let up = right.cross(forward);
        Self { right, up, forward, position: eye }
    }
}

/// A pinhole camera: image size, focal length in pixels, and pose.
///
/// # Examples
///
/// ```
/// use spnerf_render::camera::PinholeCamera;
/// use spnerf_render::vec3::Vec3;
///
/// let cam = PinholeCamera::look_at(
///     64, 64, 80.0,
///     Vec3::new(0.0, 0.0, -3.0), Vec3::ZERO, Vec3::new(0.0, 1.0, 0.0),
/// );
/// let ray = cam.ray_for_pixel(32, 32);
/// // The central ray points straight at the target.
/// assert!((ray.dir - Vec3::new(0.0, 0.0, 1.0)).length() < 0.02);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PinholeCamera {
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Focal length in pixel units.
    pub focal: f32,
    /// Camera pose.
    pub pose: Pose,
}

impl PinholeCamera {
    /// Creates a camera with a look-at pose.
    ///
    /// # Panics
    ///
    /// Panics if `width`, `height` or `focal` is zero/non-positive, or the
    /// look-at construction is degenerate.
    pub fn look_at(width: u32, height: u32, focal: f32, eye: Vec3, target: Vec3, up: Vec3) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        assert!(focal > 0.0, "focal length must be positive");
        Self { width, height, focal, pose: Pose::look_at(eye, target, up) }
    }

    /// The world-space ray through the center of pixel `(px, py)`.
    ///
    /// # Panics
    ///
    /// Panics if the pixel is outside the image.
    pub fn ray_for_pixel(&self, px: u32, py: u32) -> Ray {
        assert!(px < self.width && py < self.height, "pixel ({px},{py}) outside image");
        let x = (px as f32 + 0.5) - self.width as f32 * 0.5;
        // Image y grows downward; camera up grows upward.
        let y = self.height as f32 * 0.5 - (py as f32 + 0.5);
        let dir = (self.pose.right * (x / self.focal)
            + self.pose.up * (y / self.focal)
            + self.pose.forward)
            .normalized();
        Ray::new(self.pose.position, dir)
    }
}

/// Generates `n` poses orbiting `target` at distance `radius` and elevation
/// angle `elevation_rad`, evenly spaced in azimuth — the Synthetic-NeRF test
/// trajectory.
pub fn orbit_poses(n: usize, target: Vec3, radius: f32, elevation_rad: f32) -> Vec<Pose> {
    assert!(n > 0, "need at least one pose");
    (0..n)
        .map(|i| {
            let az = i as f32 / n as f32 * std::f32::consts::TAU;
            let eye = target
                + Vec3::new(
                    radius * elevation_rad.cos() * az.cos(),
                    radius * elevation_rad.sin(),
                    radius * elevation_rad.cos() * az.sin(),
                );
            Pose::look_at(eye, target, Vec3::new(0.0, 1.0, 0.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn look_at_is_orthonormal() {
        let p = Pose::look_at(Vec3::new(1.0, 2.0, 3.0), Vec3::ZERO, Vec3::new(0.0, 1.0, 0.0));
        assert!((p.right.length() - 1.0).abs() < 1e-6);
        assert!((p.up.length() - 1.0).abs() < 1e-6);
        assert!((p.forward.length() - 1.0).abs() < 1e-6);
        assert!(p.right.dot(p.up).abs() < 1e-6);
        assert!(p.right.dot(p.forward).abs() < 1e-6);
        assert!(p.up.dot(p.forward).abs() < 1e-6);
    }

    #[test]
    fn central_ray_points_forward() {
        let cam = PinholeCamera::look_at(
            101,
            101,
            100.0,
            Vec3::new(0.0, 0.0, -4.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
        );
        let r = cam.ray_for_pixel(50, 50);
        assert!((r.dir - cam.pose.forward).length() < 1e-2);
    }

    #[test]
    fn corner_rays_diverge_symmetrically() {
        let cam = PinholeCamera::look_at(
            64,
            64,
            64.0,
            Vec3::new(0.0, 0.0, -4.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
        );
        let tl = cam.ray_for_pixel(0, 0);
        let br = cam.ray_for_pixel(63, 63);
        // Top-left ray goes up-left, bottom-right down-right; symmetric about forward.
        assert!((tl.dir.x + br.dir.x).abs() < 1e-6);
        assert!((tl.dir.y + br.dir.y).abs() < 1e-6);
    }

    #[test]
    fn orbit_poses_lie_on_circle() {
        let poses = orbit_poses(8, Vec3::ZERO, 4.0, 0.5);
        assert_eq!(poses.len(), 8);
        for p in &poses {
            assert!((p.position.length() - 4.0).abs() < 1e-5);
            // All look at the origin.
            assert!(p.forward.dot((Vec3::ZERO - p.position).normalized()) > 0.999);
        }
    }

    #[test]
    #[should_panic(expected = "outside image")]
    fn oob_pixel_panics() {
        let cam = PinholeCamera::look_at(
            4,
            4,
            4.0,
            Vec3::new(0.0, 0.0, -4.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
        );
        let _ = cam.ray_for_pixel(4, 0);
    }
}
