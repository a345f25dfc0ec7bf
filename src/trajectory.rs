//! Camera-path rendering through the pipeline facade: the `Trajectory` API.
//!
//! [`spnerf_render::temporal`] supplies the mechanics — deterministic camera
//! paths ([`TrajectorySpec`]) and frame-to-frame forward-warp reuse
//! ([`ReuseMode`]). This module ties them to the [`Scene`](crate::pipeline::Scene)/[`RenderSession`]
//! front door:
//!
//! * [`RenderSession::trajectory_stream`] — incremental: a
//!   [`TrajectoryStream`] advances one frame at a time and owns the warp
//!   state it carries from frame to frame.
//! * [`RenderSession::render_trajectory`] — one-shot: a stream run over a
//!   whole path, returning every frame plus the per-frame
//!   [`FrameWorkload`]s the accelerator's path simulator
//!   ([`spnerf_accel::simulate_path`]) consumes.
//!
//! # Determinism
//!
//! Trajectory rendering inherits every exactness rule of the render crate:
//! [`ReuseMode::Off`] is bitwise-identical to a loop of independent
//! per-frame renders, and warped frames are bitwise-reproducible across
//! thread counts and tile sizes. The one piece of state a path carries —
//! the previous frame's radiance and depth — lives in its stream, so
//! streams never see each other's frames, and a stream borrows one scene's
//! session, so its buffers can never seed a frame of a respecialized model.
//!
//! # Example
//!
//! ```
//! use spnerf::core::SpNerfConfig;
//! use spnerf::pipeline::{PipelineBuilder, RenderSource};
//! use spnerf::render::scene::SceneId;
//! use spnerf::trajectory::TrajectoryRequest;
//! use spnerf::render::temporal::{ReuseMode, TrajectorySpec};
//! use spnerf::voxel::vqrf::VqrfConfig;
//!
//! let scene = PipelineBuilder::new(SceneId::Mic)
//!     .grid_side(18)
//!     .vqrf_config(VqrfConfig { codebook_size: 16, kmeans_iters: 1, ..Default::default() })
//!     .spnerf_config(SpNerfConfig { subgrid_count: 4, table_size: 2048, codebook_size: 16 })
//!     .build()?;
//! let session = scene.session();
//! let spec = TrajectorySpec::orbit(3, 8, 8);
//! let req = TrajectoryRequest::new(RenderSource::spnerf_masked(), spec)
//!     .with_mode(ReuseMode::warp());
//! let resp = session.render_trajectory(&req)?;
//! assert_eq!(resp.frames.len(), 3);
//! assert_eq!(resp.workloads.len(), 3);
//! # Ok::<(), spnerf::Error>(())
//! ```

use spnerf_accel::frame::FrameWorkload;
use spnerf_render::camera::PinholeCamera;
use spnerf_render::renderer::RenderStats;
pub use spnerf_render::temporal::{PathKind, ReuseMode, TrajectorySpec, WARP_TOLERANCE};
use spnerf_render::temporal::{ReuseState, TemporalFrame};

use crate::pipeline::{RenderSession, RenderSource};
use crate::Error;

/// A camera-path render request: which source to render, the path to render
/// it along, and the reuse mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryRequest {
    /// What to render.
    pub source: RenderSource,
    /// The deterministic camera path.
    pub spec: TrajectorySpec,
    /// Frame-to-frame reuse policy (default [`ReuseMode::Off`], the
    /// exactness anchor).
    pub mode: ReuseMode,
}

impl TrajectoryRequest {
    /// A request in [`ReuseMode::Off`].
    pub fn new(source: RenderSource, spec: TrajectorySpec) -> Self {
        Self { source, spec, mode: ReuseMode::Off }
    }

    /// Overrides the reuse mode.
    pub fn with_mode(mut self, mode: ReuseMode) -> Self {
        self.mode = mode;
        self
    }
}

/// Everything one trajectory render produced.
#[derive(Debug, Clone)]
pub struct TrajectoryResponse {
    /// The rendered source.
    pub source: RenderSource,
    /// Every frame, in path order (image + per-frame stats +
    /// validation error).
    pub frames: Vec<TemporalFrame>,
    /// One accelerator workload per frame, in path order, with the scene's
    /// sparse-format metadata traffic attached — ready for
    /// [`spnerf_accel::simulate_path`].
    pub workloads: Vec<FrameWorkload>,
    /// Statistics merged across the whole path.
    pub stats: RenderStats,
}

impl TrajectoryResponse {
    /// Samples marched on frames 1.. — the cost temporal reuse amortizes
    /// (frame 0 always pays a full render).
    pub fn samples_marched_after_first(&self) -> usize {
        self.frames.iter().skip(1).map(|f| f.stats.samples_marched).sum()
    }

    /// Largest per-frame validation error over the path (`0.0` for
    /// [`ReuseMode::Off`]).
    pub fn max_validation_error(&self) -> f32 {
        self.frames.iter().map(|f| f.validation_error).fold(0.0, f32::max)
    }
}

/// An in-flight trajectory advancing one frame per call. It owns the
/// previous frame's warp buffers and the index of its next frame, so
/// dropping the stream ends the path.
///
/// Obtained from [`RenderSession::trajectory_stream`].
#[derive(Debug)]
pub struct TrajectoryStream<'s, 'a> {
    session: &'s RenderSession<'a>,
    source: RenderSource,
    mode: ReuseMode,
    state: Option<ReuseState>,
    next_frame: usize,
}

impl TrajectoryStream<'_, '_> {
    /// Index of the frame the next [`TrajectoryStream::advance`] renders.
    pub fn next_frame(&self) -> usize {
        self.next_frame
    }

    /// Renders the path's next frame and returns it with its accelerator
    /// workload. The first call (or the first after a [`reset`]) renders a
    /// full frame; under [`ReuseMode::Warp`] subsequent calls warp the
    /// previous frame forward and re-march only disoccluded, depth-edge,
    /// and validation rays.
    ///
    /// # Panics
    ///
    /// Panics if the session's render configuration has a zero
    /// `samples_per_ray` or `tile_size` (see
    /// [`RenderConfig::validate`](spnerf_render::renderer::RenderConfig::validate)),
    /// or if `camera` has a zero image width or height.
    ///
    /// [`reset`]: TrajectoryStream::reset
    pub fn advance(&mut self, camera: &PinholeCamera) -> (TemporalFrame, FrameWorkload) {
        let frame =
            self.session.frame(self.source, camera, self.mode, self.next_frame, &mut self.state);
        self.next_frame += 1;
        let workload = self.session.scene().workload(&frame.stats);
        (frame, workload)
    }

    /// Forgets the in-flight state: the next [`TrajectoryStream::advance`]
    /// renders frame 0 of a new path.
    pub fn reset(&mut self) {
        self.state = None;
        self.next_frame = 0;
    }
}

impl<'a> RenderSession<'a> {
    /// Renders a whole camera path in one call: one
    /// [`TrajectoryStream`] advanced over the spec's cameras.
    ///
    /// # Errors
    ///
    /// [`Error::Render`] when the session's render configuration is
    /// invalid, and [`Error::Request`] for a zero-frame path or a camera
    /// with a zero image width or height.
    pub fn render_trajectory(
        &self,
        request: &TrajectoryRequest,
    ) -> Result<TrajectoryResponse, Error> {
        self.render_config().validate()?;
        let spec = &request.spec;
        if spec.frames == 0 {
            return Err(Error::Request("a trajectory needs at least one frame".into()));
        }
        if spec.width == 0 || spec.height == 0 {
            return Err(Error::Request(format!(
                "the trajectory's camera is {}x{} pixels; a view needs a non-zero width and height",
                spec.width, spec.height
            )));
        }
        let mut stream = self.trajectory_stream(request.source, request.mode);
        let (frames, workloads): (Vec<_>, Vec<_>) =
            spec.cameras().iter().map(|camera| stream.advance(camera)).unzip();
        let mut stats = RenderStats::default();
        for frame in &frames {
            stats += frame.stats;
        }
        Ok(TrajectoryResponse { source: request.source, frames, workloads, stats })
    }

    /// Opens a trajectory over one source at frame 0: each
    /// [`TrajectoryStream::advance`] renders the path's next frame.
    pub fn trajectory_stream<'s>(
        &'s self,
        source: RenderSource,
        mode: ReuseMode,
    ) -> TrajectoryStream<'s, 'a> {
        TrajectoryStream { session: self, source, mode, state: None, next_frame: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{PipelineBuilder, RenderRequest, Scene};
    use spnerf_core::SpNerfConfig;
    use spnerf_render::renderer::{RenderConfig, SkipMode};
    use spnerf_render::scene::SceneId;
    use spnerf_voxel::vqrf::VqrfConfig;

    fn tiny_scene() -> Scene {
        PipelineBuilder::new(SceneId::Mic)
            .grid_side(18)
            .vqrf_config(VqrfConfig { codebook_size: 16, kmeans_iters: 1, ..Default::default() })
            .spnerf_config(SpNerfConfig { subgrid_count: 4, table_size: 2048, codebook_size: 16 })
            .render_config(RenderConfig { samples_per_ray: 16, ..Default::default() })
            .build()
            .expect("tiny pipeline builds")
    }

    #[test]
    fn off_mode_trajectory_is_bitwise_per_frame_session_rendering() {
        let scene = tiny_scene();
        let session = scene.session();
        let spec = TrajectorySpec::orbit(3, 12, 12);
        for source in
            [RenderSource::GroundTruth, RenderSource::spnerf_masked(), RenderSource::Baked]
        {
            let resp = session
                .render_trajectory(&TrajectoryRequest::new(source, spec))
                .expect("off-mode trajectory renders");
            assert_eq!(resp.frames.len(), 3);
            for (frame, cam) in resp.frames.iter().zip(spec.cameras()) {
                let still =
                    session.render(&RenderRequest::single(source, cam)).expect("still renders");
                assert_eq!(
                    frame.image, still.images[0],
                    "{source:?}: Off-mode trajectory frame must be bitwise per-frame rendering"
                );
                assert_eq!(frame.stats.rays_warped, 0);
                assert_eq!(frame.stats.rays_remarched, 0);
            }
        }
    }

    #[test]
    fn warp_trajectory_reuses_rays_and_reports_workload_columns() {
        let scene = tiny_scene();
        let session = scene.session();
        let spec = TrajectorySpec::orbit(4, 16, 16);
        let req = TrajectoryRequest::new(RenderSource::spnerf_masked(), spec)
            .with_mode(ReuseMode::warp());
        let resp = session.render_trajectory(&req).expect("warp trajectory renders");
        assert_eq!(resp.frames.len(), 4);
        assert_eq!(resp.frames[0].stats.rays_warped, 0, "frame 0 pays a full render");
        for (i, f) in resp.frames.iter().enumerate().skip(1) {
            assert!(f.stats.rays_warped > 0, "frame {i} reused nothing");
            assert_eq!(f.stats.rays_warped + f.stats.rays_remarched, f.stats.rays);
            let w = &resp.workloads[i];
            assert_eq!(w.stats, f.stats, "workload must carry the frame's counters");
        }
        assert!(resp.max_validation_error() <= WARP_TOLERANCE);
        // Off renders every sample on every frame; the warped path amortizes.
        let off = session
            .render_trajectory(&TrajectoryRequest::new(RenderSource::spnerf_masked(), spec))
            .expect("off trajectory renders");
        assert!(
            2 * resp.samples_marched_after_first() <= off.samples_marched_after_first(),
            "frames 1..: warp marched {} samples, off marched {} (< 2x reuse)",
            resp.samples_marched_after_first(),
            off.samples_marched_after_first()
        );
    }

    /// A frame's pixels and validation error as raw bits, so equality is
    /// bit for bit.
    fn frame_bits(frame: &TemporalFrame) -> Vec<u32> {
        let pixels = frame.image.pixels().iter().flat_map(|p| [p.x, p.y, p.z]);
        pixels.chain([frame.validation_error]).map(f32::to_bits).collect()
    }

    #[test]
    fn interleaved_streams_each_reproduce_the_one_shot_path() {
        let scene = tiny_scene();
        let session = scene.session();
        let spec = TrajectorySpec::orbit(3, 12, 12);
        let cams = spec.cameras();
        let source = RenderSource::spnerf_masked();
        let req = TrajectoryRequest::new(source, spec).with_mode(ReuseMode::warp());
        let one_shot = session.render_trajectory(&req).expect("one-shot renders");
        // Two streams over the same source on one session, advanced in
        // turn: each carries its own warp state.
        let mut a = session.trajectory_stream(source, ReuseMode::warp());
        let mut b = session.trajectory_stream(source, ReuseMode::warp());
        for (i, cam) in cams.iter().enumerate() {
            for stream in [&mut a, &mut b] {
                assert_eq!(stream.next_frame(), i);
                let (frame, workload) = stream.advance(cam);
                assert_eq!(frame_bits(&frame), frame_bits(&one_shot.frames[i]), "frame {i}");
                assert_eq!(frame.stats, one_shot.frames[i].stats, "frame {i}");
                assert_eq!(workload, one_shot.workloads[i], "frame {i}");
            }
        }
        // reset() restarts the path at a full frame 0.
        a.reset();
        assert_eq!(a.next_frame(), 0);
        let (restart, _) = a.advance(&cams[0]);
        assert_eq!(frame_bits(&restart), frame_bits(&one_shot.frames[0]));
        assert_eq!(restart.stats, one_shot.frames[0].stats);
        assert_eq!(b.next_frame(), 3, "resetting one stream leaves the other alone");
    }

    #[test]
    fn one_pixel_views_render_through_every_source() {
        let scene = tiny_scene();
        let spec = TrajectorySpec::orbit(3, 1, 1);
        let cams = spec.cameras();
        // Every trajectory frame of every source, in both reuse modes.
        let frames_under = |skip_mode| {
            let session = scene.session_with(RenderConfig { skip_mode, ..scene.render_config() });
            let mut images = Vec::new();
            for source in [
                RenderSource::GroundTruth,
                RenderSource::Vqrf,
                RenderSource::spnerf_masked(),
                RenderSource::spnerf_unmasked(),
                RenderSource::Baked,
            ] {
                let stills = session
                    .render(&RenderRequest::batch(source, cams.clone()))
                    .expect("1x1 stills render");
                assert_eq!(stills.stats.rays, 3, "{source:?}");
                for mode in [ReuseMode::Off, ReuseMode::warp()] {
                    let req = TrajectoryRequest::new(source, spec).with_mode(mode);
                    let resp = session.render_trajectory(&req).expect("1x1 trajectory renders");
                    assert_eq!(resp.frames.len(), 3);
                    for (i, frame) in resp.frames.iter().enumerate() {
                        let at = format!("{source:?} {mode:?} {skip_mode:?} frame {i}");
                        assert_eq!((frame.image.width(), frame.image.height()), (1, 1), "{at}");
                        let px = frame.image.get(0, 0);
                        assert!(px.x.is_finite() && px.y.is_finite() && px.z.is_finite(), "{at}");
                        assert_eq!(frame.stats.rays, 1, "{at}");
                        if mode.is_on() {
                            assert_eq!(frame.stats.rays_warped + frame.stats.rays_remarched, 1);
                        }
                        // Frame 0 and every unwarped frame are still renders.
                        if i == 0 || !frame.stats.is_warped() {
                            assert_eq!(frame.image, stills.images[i], "{at}");
                        }
                        assert!(frame.validation_error <= WARP_TOLERANCE, "{at}");
                        images.push(frame.image.clone());
                    }
                }
            }
            images
        };
        assert_eq!(
            frames_under(SkipMode::mip()),
            frames_under(SkipMode::Off),
            "skipping must not change a pixel"
        );
    }

    #[test]
    fn skip_mode_sessions_keep_warp_pixels() {
        let scene = tiny_scene();
        let spec = TrajectorySpec::orbit(3, 12, 12);
        let req = TrajectoryRequest::new(RenderSource::spnerf_masked(), spec)
            .with_mode(ReuseMode::warp());
        let plain = scene.session().render_trajectory(&req).expect("plain renders");
        let skip_cfg = RenderConfig { skip_mode: SkipMode::mip(), ..scene.render_config() };
        let skipped = scene.session_with(skip_cfg).render_trajectory(&req).expect("skip renders");
        for (i, (a, b)) in plain.frames.iter().zip(&skipped.frames).enumerate() {
            assert_eq!(a.image, b.image, "frame {i}: skipping must not change pixels");
        }
        assert!(
            skipped.stats.samples_marched < plain.stats.samples_marched,
            "the occupancy pyramid must remove marched samples along the path"
        );
    }

    #[test]
    fn zero_frame_trajectories_are_rejected() {
        let scene = tiny_scene();
        let session = scene.session();
        let mut spec = TrajectorySpec::orbit(3, 8, 8);
        spec.frames = 0;
        let err = session
            .render_trajectory(&TrajectoryRequest::new(RenderSource::GroundTruth, spec))
            .unwrap_err();
        assert!(matches!(err, Error::Request(_)));
    }

    #[test]
    fn zero_size_trajectory_cameras_are_rejected() {
        let scene = tiny_scene();
        for (width, height) in [(0, 8), (8, 0)] {
            let spec = TrajectorySpec::orbit(2, width, height);
            let req = TrajectoryRequest::new(RenderSource::spnerf_masked(), spec);
            match scene.session().render_trajectory(&req) {
                Err(Error::Request(msg)) => {
                    assert!(msg.contains(&format!("camera is {width}x{height}")), "{msg}")
                }
                other => panic!("{width}x{height}: expected a request error, got {other:?}"),
            }
        }
    }

    #[test]
    fn trajectories_reject_zero_render_fields() {
        use spnerf_render::renderer::RenderConfigError;
        let scene = tiny_scene();
        let req = TrajectoryRequest::new(RenderSource::GroundTruth, TrajectorySpec::orbit(2, 8, 8));
        for (cfg, want) in [
            (
                RenderConfig { samples_per_ray: 0, ..scene.render_config() },
                RenderConfigError::ZeroSamplesPerRay,
            ),
            (
                RenderConfig { tile_size: 0, ..scene.render_config() },
                RenderConfigError::ZeroTileSize,
            ),
        ] {
            let err = scene.session_with(cfg).render_trajectory(&req).unwrap_err();
            assert!(matches!(err, Error::Render(e) if e == want), "{want:?}");
        }
    }
}
