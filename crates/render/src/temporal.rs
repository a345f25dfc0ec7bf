//! Temporal camera-path workloads: deterministic trajectories and
//! frame-to-frame radiance reuse (Cicero-style forward warping).
//!
//! Everything else in this crate renders independent still frames. Video —
//! the workload SpNeRF's edge-device target actually serves — renders
//! *paths*: a sequence of nearby cameras whose frames are largely
//! redundant. This module makes paths first class:
//!
//! * [`PathKind`] / [`TrajectorySpec`] — deterministic camera paths
//!   (orbit, dolly, handheld jitter from the seeded rand shim) expanded
//!   into [`PinholeCamera`] sequences;
//! * [`ReuseMode`] — the frame-to-frame reuse policy.
//!   [`ReuseMode::Off`] renders every frame through the ordinary tile
//!   engine and is **bitwise-identical** to a loop of independent
//!   [`crate::renderer::render_view`] calls.
//!   [`ReuseMode::Warp`] forward-warps the previous frame's radiance along
//!   the camera delta at its marched depth and re-marches only the rays
//!   that need it (disoccluded pixels, depth edges, and a rotating
//!   validation subset). A frame with nothing to warp from is the same
//!   pass with every pixel a hole, so every ray re-marches. Only radiance
//!   and depth carry between frames; each re-marched ray starts afresh;
//! * [`advance_frame`] / [`render_trajectory`] — the stateful
//!   per-frame driver and the one-shot path renderer.
//!
//! # Reuse semantics and determinism
//!
//! The warp pass is an approximation — warped pixels carry last frame's
//! radiance reprojected to this frame's grid — but a *deterministic* one:
//!
//! * the splat loop runs serially over the previous frame's pixels in
//!   row-major order with a strict nearest-depth-wins test, so conflicts
//!   resolve identically on every run;
//! * re-marched rays go through the same pure
//!   [`crate::renderer::trace_rays`] job kernel and the same ordered worker
//!   pool as still frames, and the per-frame merge is in pixel order — so
//!   a temporal frame is bitwise-identical across thread counts and tile
//!   sizes (the warp pass schedules pixel chunks itself and ignores the
//!   latter);
//! * background is reused too: rays that shaded nothing are splatted at
//!   [`WarpConfig::far_depth`], so an empty sky never forces a re-march.
//!
//! Error is bounded by construction, not hope: every pixel whose warped
//! 3×3 depth neighborhood spans more than
//! [`WarpConfig::depth_edge_threshold`] (silhouettes — where disocclusion
//! happens) is re-marched, and a rotating `1/validation_stride` subset of
//! all pixels is re-marched each frame so no pixel goes more than
//! `validation_stride` frames without ground truth.
//! [`TemporalFrame::validation_error`] reports the largest warped-vs-
//! re-marched discrepancy actually observed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::camera::{PinholeCamera, Pose};
use crate::engine::run_ordered;
use crate::image::ImageBuffer;
use crate::ray::{Aabb, Ray};
use crate::renderer::{
    render_view, trace_rays, RenderConfig, RenderFrame, RenderStats, Shader, TracedRay,
};
use crate::source::VoxelSource;
use crate::vec3::Vec3;

/// The camera-path families, all deterministic functions of their fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathKind {
    /// Circular orbit around the origin (the Synthetic-NeRF test motion,
    /// restricted to a configurable azimuth sweep so successive frames
    /// stay warpable).
    Orbit {
        /// Orbit radius.
        radius: f32,
        /// Elevation angle above the equator, radians.
        elevation: f32,
        /// Azimuth of frame 0, radians.
        start_azimuth: f32,
        /// Total azimuth swept over the whole path, radians.
        sweep: f32,
    },
    /// Straight-line push from one eye position to another, always looking
    /// at a fixed target.
    Dolly {
        /// Eye position of frame 0.
        from: Vec3,
        /// Eye position of the last frame.
        to: Vec3,
        /// Look-at target held across the path.
        target: Vec3,
    },
    /// Handheld jitter: small random eye offsets around a base position,
    /// drawn from the seeded rand shim (equal seeds give equal paths, bit
    /// for bit).
    Jitter {
        /// Nominal eye position.
        base: Vec3,
        /// Look-at target held across the path.
        target: Vec3,
        /// Maximum per-axis offset from `base`.
        amplitude: f32,
        /// RNG seed for the offset stream.
        seed: u64,
    },
}

/// A complete trajectory description: path kind, frame count, and the
/// (constant) camera intrinsics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectorySpec {
    /// The camera path.
    pub kind: PathKind,
    /// Number of frames rendered along the path.
    pub frames: usize,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Focal length in pixel units.
    pub focal: f32,
}

impl TrajectorySpec {
    /// A spec with the convention focal length `width · 1.1` (the same
    /// intrinsics [`crate::scene::default_camera`] uses).
    pub fn new(kind: PathKind, frames: usize, width: u32, height: u32) -> Self {
        Self { kind, frames, width, height, focal: width as f32 * 1.1 }
    }

    /// The standard test orbit: radius 2.8 at elevation 0.45 (the
    /// [`crate::scene::default_camera`] ring), advancing a fixed 0.045 rad
    /// of azimuth per frame — with the convention focal length that is
    /// ~5% of the image width of motion per frame, enough to move every
    /// silhouette yet small enough that successive frames warp well at
    /// any frame count.
    pub fn orbit(frames: usize, width: u32, height: u32) -> Self {
        let sweep = 0.045 * frames.saturating_sub(1) as f32;
        Self::new(
            PathKind::Orbit { radius: 2.8, elevation: 0.45, start_azimuth: 0.35, sweep },
            frames,
            width,
            height,
        )
    }

    /// A standard dolly push along the frame-0 orbit viewing axis, from
    /// radius 2.8 in to radius 2.1.
    pub fn dolly(frames: usize, width: u32, height: u32) -> Self {
        let dir = orbit_eye(2.8, 0.45, 0.35).normalized();
        Self::new(
            PathKind::Dolly { from: dir * 2.8, to: dir * 2.1, target: Vec3::ZERO },
            frames,
            width,
            height,
        )
    }

    /// A standard handheld-jitter path around the frame-0 orbit eye.
    pub fn jitter(frames: usize, width: u32, height: u32, seed: u64) -> Self {
        Self::new(
            PathKind::Jitter {
                base: orbit_eye(2.8, 0.45, 0.35),
                target: Vec3::ZERO,
                amplitude: 0.04,
                seed,
            },
            frames,
            width,
            height,
        )
    }

    /// Expands the spec into its camera sequence. Pure: equal specs give
    /// equal cameras, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero, a dimension is zero, or a pose is
    /// degenerate (eye on the target).
    pub fn cameras(&self) -> Vec<PinholeCamera> {
        assert!(self.frames > 0, "a trajectory needs at least one frame");
        let denom = (self.frames - 1).max(1) as f32;
        let up = Vec3::new(0.0, 1.0, 0.0);
        let camera = |pose: Pose| PinholeCamera {
            width: self.width,
            height: self.height,
            focal: self.focal,
            pose,
        };
        match self.kind {
            PathKind::Orbit { radius, elevation, start_azimuth, sweep } => (0..self.frames)
                .map(|i| {
                    let az = start_azimuth + sweep * i as f32 / denom;
                    camera(Pose::look_at(orbit_eye(radius, elevation, az), Vec3::ZERO, up))
                })
                .collect(),
            PathKind::Dolly { from, to, target } => (0..self.frames)
                .map(|i| {
                    let eye = from + (to - from) * (i as f32 / denom);
                    camera(Pose::look_at(eye, target, up))
                })
                .collect(),
            PathKind::Jitter { base, target, amplitude, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                (0..self.frames)
                    .map(|_| {
                        let offset = Vec3::new(
                            rng.gen_range(-1.0f32..1.0),
                            rng.gen_range(-1.0f32..1.0),
                            rng.gen_range(-1.0f32..1.0),
                        ) * amplitude;
                        camera(Pose::look_at(base + offset, target, up))
                    })
                    .collect()
            }
        }
    }
}

/// Eye position on the standard orbit ring.
fn orbit_eye(radius: f32, elevation: f32, azimuth: f32) -> Vec3 {
    Vec3::new(
        radius * elevation.cos() * azimuth.cos(),
        radius * elevation.sin(),
        radius * elevation.cos() * azimuth.sin(),
    )
}

/// Tuning knobs of the forward-warp reuse path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarpConfig {
    /// Every pixel `j` with `j % validation_stride == frame % stride` is
    /// re-marched, so each pixel is refreshed from ground truth at least
    /// once per `validation_stride` frames. `1` re-marches everything
    /// (warp becomes full rendering with extra bookkeeping).
    pub validation_stride: usize,
    /// Re-march every pixel whose warped 3×3 depth neighborhood spans more
    /// than this (world units): depth discontinuities are where occlusion
    /// relationships change, so the silhouette band is never trusted.
    pub depth_edge_threshold: f32,
    /// Re-march every pixel whose warped 3×3 neighborhood spans more than
    /// this per-channel color contrast: a warp is only sub-pixel accurate,
    /// so across a sharp texture gradient the reprojected color can be off
    /// by up to the local contrast. Smooth regions — where a sub-pixel
    /// error is invisible — stay warped.
    pub color_edge_threshold: f32,
    /// Depth at which background pixels (no shaded sample) are splatted so
    /// an empty sky warps instead of forcing a re-march. Must be far
    /// beyond the scene (the standard scenes fit in a radius-2.8 orbit).
    pub far_depth: f32,
    /// Documented accuracy contract: the largest per-channel deviation a
    /// warped pixel may show against a full re-march. The renderer does
    /// not enforce it (it *measures* [`TemporalFrame::validation_error`]);
    /// the property tests assert it over the whole corpus.
    pub tolerance: f32,
}

impl Default for WarpConfig {
    fn default() -> Self {
        Self {
            validation_stride: 16,
            depth_edge_threshold: 0.5,
            color_edge_threshold: 0.2,
            far_depth: 100.0,
            tolerance: 0.25,
        }
    }
}

/// Frame-to-frame reuse policy of a trajectory render.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ReuseMode {
    /// No reuse: every frame renders through the ordinary tile engine,
    /// bitwise-identical to independent per-frame rendering (the exactness
    /// anchor, and the default).
    #[default]
    Off,
    /// Forward-warp the previous frame and re-march only disoccluded,
    /// depth-edge, and validation rays.
    Warp(WarpConfig),
}

impl ReuseMode {
    /// [`ReuseMode::Warp`] with the default [`WarpConfig`].
    pub fn warp() -> Self {
        ReuseMode::Warp(WarpConfig::default())
    }

    /// Whether this mode reuses anything at all.
    pub fn is_on(&self) -> bool {
        matches!(self, ReuseMode::Warp(_))
    }

    /// Canonical CLI name (`off` / `warp`).
    pub fn name(&self) -> &'static str {
        match self {
            ReuseMode::Off => "off",
            ReuseMode::Warp(_) => "warp",
        }
    }
}

/// The reusable state a frame leaves behind for its successor: the camera
/// it was rendered from and its radiance and depth buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct ReuseState {
    camera: PinholeCamera,
    colors: Vec<Vec3>,
    depths: Vec<f32>,
}

impl ReuseState {
    /// The camera the buffered frame was rendered from.
    pub fn camera(&self) -> &PinholeCamera {
        &self.camera
    }
}

/// The forward-warp kernel: splats every pixel of the buffered previous
/// frame into the new view at its marched depth, returning the warped
/// color and depth buffers (`f32::INFINITY` depth = hole).
///
/// Serial, row-major, nearest-depth-wins with a strict `<` (ties keep the
/// first, row-major-earliest, writer) — the determinism anchor of the
/// reuse path. The primary splat rounds to the nearest target pixel; a
/// secondary pass re-splats every source pixel over its 2×2 continuous
/// footprint and fills only the pixels the primary pass left empty, so
/// rounding pinholes (two sources landing on one target under rotation)
/// don't masquerade as disocclusions and force needless re-marching.
pub fn warp_splat(
    prev: &ReuseState,
    camera: &PinholeCamera,
    wcfg: &WarpConfig,
) -> (Vec<Vec3>, Vec<f32>) {
    let (w, h) = (camera.width as usize, camera.height as usize);
    let n = w * h;
    let mut colors = vec![Vec3::ZERO; n];
    let mut depths = vec![f32::INFINITY; n];
    let mut fill_colors = vec![Vec3::ZERO; n];
    let mut fill_depths = vec![f32::INFINITY; n];
    for (i, (&color, &depth)) in prev.colors.iter().zip(&prev.depths).enumerate() {
        let (px, py) = ((i % w) as u32, (i / w) as u32);
        let t = if depth.is_finite() { depth } else { wcfg.far_depth };
        let world = prev.camera.ray_for_pixel(px, py).at(t);
        let v = world - camera.pose.position;
        let z = v.dot(camera.pose.forward);
        if z <= 1e-3 {
            continue;
        }
        let txf = camera.focal * v.dot(camera.pose.right) / z + w as f32 * 0.5 - 0.5;
        let tyf = h as f32 * 0.5 - camera.focal * v.dot(camera.pose.up) / z - 0.5;
        let nd = v.length();
        let (tx, ty) = (txf.round(), tyf.round());
        if tx >= 0.0 && ty >= 0.0 && tx < w as f32 && ty < h as f32 {
            let j = ty as usize * w + tx as usize;
            if nd < depths[j] {
                depths[j] = nd;
                colors[j] = color;
            }
        }
        for ty in [tyf.floor(), tyf.floor() + 1.0] {
            for tx in [txf.floor(), txf.floor() + 1.0] {
                if tx < 0.0 || ty < 0.0 || tx >= w as f32 || ty >= h as f32 {
                    continue;
                }
                let j = ty as usize * w + tx as usize;
                if nd < fill_depths[j] {
                    fill_depths[j] = nd;
                    fill_colors[j] = color;
                }
            }
        }
    }
    for j in 0..n {
        if !depths[j].is_finite() && fill_depths[j].is_finite() {
            depths[j] = fill_depths[j];
            colors[j] = fill_colors[j];
        }
    }
    (colors, depths)
}

/// The disocclusion-test kernel: decides which rays of a warped buffer
/// cannot be trusted and must be re-marched. Returns
/// `(remarch, holes, validation)` per-pixel masks.
///
/// A ray re-marches when it is a hole even the footprint pass never
/// covered (revealed area), part of the rotating validation subset
/// (`j % stride == frame_idx % stride`), or a trailing-edge ghost: a near
/// pixel with a markedly farther (or color-contrasting) 3×3 neighbor,
/// i.e. a foreground splat that may be covering freshly revealed
/// background. Far pixels beside near ones are *not* re-marched — the
/// warp can only err there by showing background where background
/// belongs.
pub fn disocclusion_mask(
    colors: &[Vec3],
    depths: &[f32],
    w: usize,
    h: usize,
    wcfg: &WarpConfig,
    frame_idx: usize,
) -> (Vec<bool>, Vec<bool>, Vec<bool>) {
    let n = w * h;
    let stride = wcfg.validation_stride.max(1);
    let mut remarch = vec![false; n];
    let mut holes = vec![false; n];
    let mut validation = vec![false; n];
    for (j, flag) in remarch.iter_mut().enumerate() {
        if !depths[j].is_finite() {
            *flag = true;
            holes[j] = true;
        } else if j % stride == frame_idx % stride {
            *flag = true;
            validation[j] = true;
        }
    }
    for py in 0..h {
        for px in 0..w {
            let j = py * w + px;
            if holes[j] {
                continue;
            }
            let d = depths[j];
            let c = colors[j];
            'neighbors: for dy in py.saturating_sub(1)..=(py + 1).min(h - 1) {
                for dx in px.saturating_sub(1)..=(px + 1).min(w - 1) {
                    let k = dy * w + dx;
                    let dn = depths[k];
                    let dc = colors[k] - c;
                    if (dn.is_finite() && dn - d > wcfg.depth_edge_threshold)
                        || dc.x.abs().max(dc.y.abs()).max(dc.z.abs()) > wcfg.color_edge_threshold
                    {
                        remarch[j] = true;
                        validation[j] = false;
                        break 'neighbors;
                    }
                }
            }
        }
    }
    (remarch, holes, validation)
}

/// One rendered frame of a trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalFrame {
    /// The frame's image.
    pub image: ImageBuffer,
    /// The frame's workload statistics. On warped frames
    /// [`RenderStats::rays`] counts *all* pixels while only
    /// [`RenderStats::rays_remarched`] of them marched, so
    /// `samples_marched / rays` is the amortized per-ray cost the reuse
    /// bought.
    pub stats: RenderStats,
    /// Largest per-channel |warped − re-marched| observed at pixels that
    /// were both warped and re-marched this frame (validation rays);
    /// `0.0` on frames without reuse. A diagnostic, deliberately kept out
    /// of [`RenderStats`] (which stays `Eq`).
    pub validation_error: f32,
}

/// Renders one frame of a trajectory, consuming and replacing the reuse
/// state in `state`.
///
/// * [`ReuseMode::Off`] — renders through [`render_view`]; the result
///   is bitwise-identical to an independent still render and `state` is
///   cleared.
/// * [`ReuseMode::Warp`] — forward-warps the previous frame and
///   re-marches only the rays that need it, then records reuse state. With
///   no usable state (first frame, or a camera shape change) nothing is
///   splatted, every pixel is a hole and every ray re-marches, so the
///   image is bitwise-identical to a still render.
///
/// `frame_idx` rotates the validation phase; callers rendering a path pass
/// the frame's index along it.
///
/// # Panics
///
/// Panics if `cfg.samples_per_ray` or `cfg.tile_size` is zero, or if a
/// worker thread panics.
#[allow(clippy::too_many_arguments)] // the low-level frame step: every knob is load-bearing
pub fn advance_frame<S: VoxelSource + Sync>(
    source: &S,
    shader: Shader<'_>,
    camera: &PinholeCamera,
    aabb: &Aabb,
    cfg: &RenderConfig,
    mode: ReuseMode,
    frame_idx: usize,
    state: &mut Option<ReuseState>,
) -> TemporalFrame {
    let wcfg = match mode {
        ReuseMode::Off => {
            *state = None;
            let (image, stats) = render_view(source, shader, camera, aabb, cfg);
            return TemporalFrame { image, stats, validation_error: 0.0 };
        }
        ReuseMode::Warp(wcfg) => wcfg,
    };
    let frame = RenderFrame::new(source.dims(), aabb, cfg);
    let prev = state.take().filter(|s| {
        s.camera.width == camera.width
            && s.camera.height == camera.height
            && s.camera.focal == camera.focal
    });
    let (w, h) = (camera.width as usize, camera.height as usize);
    let n = w * h;

    let (mut colors, mut depths) = match &prev {
        Some(prev) => warp_splat(prev, camera, &wcfg),
        // Nothing to warp from: every pixel is a hole, so every ray
        // re-marches and no pixel is a validation pixel.
        None => (vec![Vec3::ZERO; n], vec![f32::INFINITY; n]),
    };
    let (remarch, _, validation) = disocclusion_mask(&colors, &depths, w, h, &wcfg, frame_idx);

    // Re-march pass: only the selected rays.
    let jobs: Vec<usize> = (0..n).filter(|&j| remarch[j]).collect();
    let traced = trace_pixels(source, shader, camera, &frame, cfg, &jobs);

    let mut stats = RenderStats::default();
    let mut validation_error = 0.0f32;
    for (&j, ray) in jobs.iter().zip(&traced) {
        if validation[j] {
            let d = ray.color - colors[j];
            validation_error = validation_error.max(d.x.abs()).max(d.y.abs()).max(d.z.abs());
        }
        colors[j] = ray.color;
        depths[j] = ray.depth;
        stats += ray.stats;
    }
    stats.rays_remarched = jobs.len();
    stats.rays_warped = n - jobs.len();
    stats.rays = n;

    let image = image_from_colors(camera, &colors);
    *state = Some(ReuseState { camera: *camera, colors, depths });
    TemporalFrame { image, stats, validation_error }
}

/// Renders a whole camera path, threading reuse state frame to frame.
///
/// With [`ReuseMode::Off`] the result is bitwise-identical to calling
/// [`render_view`] once per camera.
///
/// # Panics
///
/// Panics if `cfg.samples_per_ray` or `cfg.tile_size` is zero, or if a
/// worker thread panics.
pub fn render_trajectory<S: VoxelSource + Sync>(
    source: &S,
    shader: Shader<'_>,
    cameras: &[PinholeCamera],
    aabb: &Aabb,
    cfg: &RenderConfig,
    mode: ReuseMode,
) -> Vec<TemporalFrame> {
    let mut state = None;
    cameras
        .iter()
        .enumerate()
        .map(|(i, camera)| advance_frame(source, shader, camera, aabb, cfg, mode, i, &mut state))
        .collect()
}

/// Builds an image from a row-major color buffer.
fn image_from_colors(camera: &PinholeCamera, colors: &[Vec3]) -> ImageBuffer {
    let mut image = ImageBuffer::new(camera.width, camera.height);
    for (j, &c) in colors.iter().enumerate() {
        image.set(j as u32 % camera.width, j as u32 / camera.width, c);
    }
    image
}

/// Pixels re-marched per scheduling chunk; chunk boundaries only move work
/// between workers, never change any per-ray result.
const REMARCH_CHUNK: usize = 128;

/// Traces the listed pixels (row-major indices), returning results in job
/// order.
///
/// The pixels are cut into [`REMARCH_CHUNK`]-sized [`trace_rays`] jobs
/// for the engine's ordered worker pool, which hands the chunks back in
/// job order. Since every ray's result depends on that ray alone and the
/// per-frame statistics are sums of naturals, the output is
/// bitwise-identical at every worker count.
fn trace_pixels<S: VoxelSource + Sync>(
    source: &S,
    shader: Shader<'_>,
    camera: &PinholeCamera,
    frame: &RenderFrame,
    cfg: &RenderConfig,
    jobs: &[usize],
) -> Vec<TracedRay> {
    let chunks: Vec<&[usize]> = jobs.chunks(REMARCH_CHUNK).collect();
    let traced = run_ordered(cfg.parallelism, chunks.len(), |ci| {
        let rays: Vec<Ray> = chunks[ci]
            .iter()
            .map(|&j| camera.ray_for_pixel(j as u32 % camera.width, j as u32 / camera.width))
            .collect();
        trace_rays(source, shader, frame, &rays, cfg)
    });
    traced.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Mlp;
    use crate::renderer::SkipMode;
    use crate::scene::{build_grid, scene_aabb, SceneId};

    fn tiny_cfg() -> RenderConfig {
        RenderConfig { samples_per_ray: 32, ..Default::default() }
    }

    #[test]
    fn specs_expand_deterministically() {
        for spec in [
            TrajectorySpec::orbit(6, 12, 10),
            TrajectorySpec::dolly(6, 12, 10),
            TrajectorySpec::jitter(6, 12, 10, 9),
        ] {
            let a = spec.cameras();
            let b = spec.cameras();
            assert_eq!(a.len(), 6);
            assert_eq!(a, b, "{spec:?} must expand identically every time");
            for cam in &a {
                assert_eq!((cam.width, cam.height), (12, 10));
                assert!(cam.pose.position.length() > 1.9, "eye stays outside the scene box");
            }
            // The path must actually move (frame-to-frame camera deltas).
            assert_ne!(a[0].pose.position, a[5].pose.position);
        }
        // Different jitter seeds give different paths.
        let j1 = TrajectorySpec::jitter(4, 8, 8, 1).cameras();
        let j2 = TrajectorySpec::jitter(4, 8, 8, 2).cameras();
        assert_ne!(j1, j2);
    }

    #[test]
    fn off_mode_is_bitwise_per_frame_rendering() {
        let grid = build_grid(SceneId::Lego, 24);
        let mlp = Mlp::random(0);
        let shader = Shader::PerSample(&mlp);
        let cfg = tiny_cfg();
        let cams = TrajectorySpec::orbit(3, 10, 10).cameras();
        let frames = render_trajectory(&grid, shader, &cams, &scene_aabb(), &cfg, ReuseMode::Off);
        for (frame, cam) in frames.iter().zip(&cams) {
            let (img, stats) = render_view(&grid, shader, cam, &scene_aabb(), &cfg);
            assert_eq!(frame.image, img);
            assert_eq!(frame.stats, stats);
            assert_eq!(frame.stats.rays_warped, 0);
            assert_eq!(frame.stats.rays_remarched, 0);
        }
    }

    #[test]
    fn warp_frame_zero_matches_a_still_render() {
        let grid = build_grid(SceneId::Mic, 24);
        let mlp = Mlp::random(1);
        let shader = Shader::PerSample(&mlp);
        let cfg = tiny_cfg();
        let cam = TrajectorySpec::orbit(3, 12, 12).cameras()[0];
        let mut state = None;
        let frame = advance_frame(
            &grid,
            shader,
            &cam,
            &scene_aabb(),
            &cfg,
            ReuseMode::warp(),
            0,
            &mut state,
        );
        let (img, stats) = render_view(&grid, shader, &cam, &scene_aabb(), &cfg);
        assert_eq!(frame.image, img, "a stateless warp frame is a full render");
        assert_eq!(frame.stats, RenderStats { rays_remarched: stats.rays, ..stats });
        assert_eq!(frame.validation_error, 0.0, "nothing was warped, so nothing is validated");
        assert!(state.is_some(), "the frame must leave reuse state behind");
    }

    #[test]
    fn warp_reuses_most_rays_and_stays_close() {
        let grid = build_grid(SceneId::Lego, 28);
        let mlp = Mlp::random(0);
        let shader = Shader::PerSample(&mlp);
        let cfg = tiny_cfg();
        let cams = TrajectorySpec::orbit(4, 16, 16).cameras();
        let frames =
            render_trajectory(&grid, shader, &cams, &scene_aabb(), &cfg, ReuseMode::warp());
        let tolerance = WarpConfig::default().tolerance;
        for (i, (frame, cam)) in frames.iter().zip(&cams).enumerate().skip(1) {
            assert!(
                frame.stats.rays_warped > frame.stats.rays_remarched,
                "frame {i}: most rays must warp ({} warped vs {} re-marched)",
                frame.stats.rays_warped,
                frame.stats.rays_remarched
            );
            assert_eq!(frame.stats.rays_warped + frame.stats.rays_remarched, frame.stats.rays);
            assert!(frame.validation_error <= tolerance, "frame {i}: {}", frame.validation_error);
            // Warped frames approximate the exact render within tolerance.
            let (exact, _) = render_view(&grid, shader, cam, &scene_aabb(), &cfg);
            for (a, b) in frame.image.pixels().iter().zip(exact.pixels()) {
                let d = *a - *b;
                for ch in [d.x, d.y, d.z] {
                    assert!(ch.abs() <= tolerance, "frame {i}: pixel drifted {}", ch.abs());
                }
            }
        }
    }

    #[test]
    fn warp_is_deterministic_across_thread_counts() {
        let grid = build_grid(SceneId::Drums, 24);
        let mlp = Mlp::random(2);
        let shader = Shader::PerSample(&mlp);
        let cams = TrajectorySpec::orbit(3, 14, 11).cameras();
        let base =
            render_trajectory(&grid, shader, &cams, &scene_aabb(), &tiny_cfg(), ReuseMode::warp());
        for (threads, tile) in [(2usize, 4u32), (4, 7), (0, 32)] {
            let cfg = RenderConfig { parallelism: threads, tile_size: tile, ..tiny_cfg() };
            let got =
                render_trajectory(&grid, shader, &cams, &scene_aabb(), &cfg, ReuseMode::warp());
            assert_eq!(got, base, "threads={threads} tile={tile}");
        }
    }

    #[test]
    fn skip_mode_warp_frames_keep_their_pixels() {
        use crate::source::WithOccupancy;
        let grid = build_grid(SceneId::Mic, 24);
        let mlp = Mlp::random(1);
        let shader = Shader::PerSample(&mlp);
        let skippable = WithOccupancy::build(&grid);
        let cfg = RenderConfig { skip_mode: SkipMode::mip(), ..tiny_cfg() };
        let cams = TrajectorySpec::orbit(3, 12, 12).cameras();
        let skipped =
            render_trajectory(&skippable, shader, &cams, &scene_aabb(), &cfg, ReuseMode::warp());
        let plain =
            render_trajectory(&grid, shader, &cams, &scene_aabb(), &tiny_cfg(), ReuseMode::warp());
        for (s, p) in skipped.iter().zip(&plain) {
            assert_eq!(s.image, p.image, "skipping must never change a temporal pixel");
            assert_eq!(s.stats.rays_remarched, p.stats.rays_remarched);
            assert!(s.stats.samples_marched < p.stats.samples_marched);
        }
    }

    #[test]
    fn camera_shape_change_resets_reuse() {
        let grid = build_grid(SceneId::Lego, 24);
        let mlp = Mlp::random(0);
        let shader = Shader::PerSample(&mlp);
        let cfg = tiny_cfg();
        let mut state = None;
        let small = TrajectorySpec::orbit(2, 10, 10).cameras();
        let big = TrajectorySpec::orbit(2, 14, 14).cameras();
        advance_frame(
            &grid,
            shader,
            &small[0],
            &scene_aabb(),
            &cfg,
            ReuseMode::warp(),
            0,
            &mut state,
        );
        let frame = advance_frame(
            &grid,
            shader,
            &big[1],
            &scene_aabb(),
            &cfg,
            ReuseMode::warp(),
            1,
            &mut state,
        );
        assert_eq!(frame.stats.rays_warped, 0, "incompatible state must not be warped from");
        assert_eq!(frame.stats.rays_remarched, frame.stats.rays);
        let (img, _) = render_view(&grid, shader, &big[1], &scene_aabb(), &cfg);
        assert_eq!(frame.image, img, "the reset frame is a full render");
    }
}
