//! Camera-path rendering through the pipeline facade: the `Trajectory` API.
//!
//! [`spnerf_render::temporal`] supplies the mechanics — deterministic camera
//! paths ([`TrajectorySpec`]) and frame-to-frame forward-warp reuse
//! ([`ReuseMode`]). This module ties them to the [`Scene`](crate::pipeline::Scene)/[`RenderSession`]
//! front door:
//!
//! * [`RenderSession::render_trajectory`] — one-shot: render a whole path,
//!   returning every frame plus the per-frame [`FrameWorkload`]s the
//!   accelerator's path simulator ([`spnerf_accel::simulate_path`])
//!   consumes.
//! * [`RenderSession::trajectory_stream`] — incremental: advance one frame
//!   at a time, persisting the warp state in the scene's [`TemporalCache`]
//!   so a path can continue across sessions.
//!
//! # Determinism
//!
//! Trajectory rendering inherits every exactness rule of the render crate:
//! [`ReuseMode::Off`] is bitwise-identical to a loop of independent
//! per-frame renders, and warped frames are bitwise-reproducible across
//! thread counts and tile sizes. The one new piece of shared
//! state — the [`TemporalCache`] — is keyed per [`RenderSource`] and is
//! **invalidated** (fresh, empty cache) by every scene respecialization
//! ([`Scene::with_spnerf`](crate::pipeline::Scene::with_spnerf), [`Scene::with_sparse_format`](crate::pipeline::Scene::with_sparse_format)): a trajectory
//! resumed on a respecialized bundle re-renders its next frame from
//! scratch rather than warping stale buffers.
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

use std::collections::HashMap;
use std::sync::Mutex;

use spnerf_accel::frame::FrameWorkload;
use spnerf_render::camera::PinholeCamera;
use spnerf_render::renderer::RenderStats;
pub use spnerf_render::temporal::{PathKind, ReuseMode, TrajectorySpec, WarpConfig};
use spnerf_render::temporal::{ReuseState, TemporalFrame};

use crate::pipeline::{RenderSession, RenderSource};
use crate::Error;

/// Per-source temporal reuse state shared by every session of one [`Scene`](crate::pipeline::Scene)
/// bundle.
///
/// A [`TrajectoryStream`] persists its warp buffers here after each frame,
/// so a path can continue across sessions (and across session-cache
/// clears). Plain `Scene::clone` shares the cache — clones are the same
/// bundle — but every respecialization gets a fresh one; see
/// [`Scene::temporal`](crate::pipeline::Scene::temporal).
#[derive(Debug, Default)]
pub struct TemporalCache {
    slots: Mutex<HashMap<RenderSource, Slot>>,
}

#[derive(Debug)]
struct Slot {
    state: Option<ReuseState>,
    next_frame: usize,
}

impl TemporalCache {
    /// Removes and returns the cached `(state, next_frame_index)` for one
    /// source; `(None, 0)` when the source has no trajectory in flight.
    fn take(&self, source: RenderSource) -> (Option<ReuseState>, usize) {
        match self.slots.lock().expect("temporal cache lock").remove(&source) {
            Some(slot) => (slot.state, slot.next_frame),
            None => (None, 0),
        }
    }

    /// Stores one source's state after a frame.
    fn put(&self, source: RenderSource, state: Option<ReuseState>, next_frame: usize) {
        self.slots.lock().expect("temporal cache lock").insert(source, Slot { state, next_frame });
    }

    /// Index of the next frame a resumed stream for `source` would render
    /// (`0` when nothing is in flight).
    pub fn next_frame(&self, source: RenderSource) -> usize {
        self.slots.lock().expect("temporal cache lock").get(&source).map_or(0, |s| s.next_frame)
    }

    /// Number of sources with a trajectory in flight.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("temporal cache lock").len()
    }

    /// Whether no trajectory is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every in-flight trajectory's state.
    pub fn clear(&self) {
        self.slots.lock().expect("temporal cache lock").clear();
    }

    /// Drops one source's in-flight state.
    pub fn forget(&self, source: RenderSource) {
        self.slots.lock().expect("temporal cache lock").remove(&source);
    }
}

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

/// An in-flight trajectory advancing one frame per call, persisting its
/// warp state in the scene's [`TemporalCache`] between calls.
///
/// Obtained from [`RenderSession::trajectory_stream`]. Dropping the stream
/// loses nothing — the state lives on the scene, so a later stream for the
/// same source (from this session or another on the same bundle) resumes
/// where this one stopped.
#[derive(Debug)]
pub struct TrajectoryStream<'s, 'a> {
    session: &'s RenderSession<'a>,
    source: RenderSource,
    mode: ReuseMode,
}

impl TrajectoryStream<'_, '_> {
    /// Index of the frame the next [`TrajectoryStream::advance`] renders.
    pub fn next_frame(&self) -> usize {
        self.session.scene().temporal().next_frame(self.source)
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
        let cache = self.session.scene().temporal();
        let (mut state, frame_idx) = cache.take(self.source);
        let frame = self.session.frame(self.source, camera, self.mode, frame_idx, &mut state);
        cache.put(self.source, state, frame_idx + 1);
        let workload = self.session.scene().workload(&frame.stats);
        (frame, workload)
    }

    /// Forgets the in-flight state: the next [`TrajectoryStream::advance`]
    /// renders frame 0 of a new path.
    pub fn reset(&self) {
        self.session.scene().temporal().forget(self.source);
    }
}

impl<'a> RenderSession<'a> {
    /// Renders a whole camera path in one call.
    ///
    /// Self-contained: the path starts from a fresh frame 0 and does not
    /// read or leave state in the scene's [`TemporalCache`] (use
    /// [`RenderSession::trajectory_stream`] for resumable paths).
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
        let mut state = None;
        let mut stats = RenderStats::default();
        let mut frames = Vec::with_capacity(request.spec.frames);
        let mut workloads = Vec::with_capacity(request.spec.frames);
        for (i, camera) in request.spec.cameras().iter().enumerate() {
            let frame = self.frame(request.source, camera, request.mode, i, &mut state);
            stats += frame.stats;
            workloads.push(self.scene().workload(&frame.stats));
            frames.push(frame);
        }
        Ok(TrajectoryResponse { source: request.source, frames, workloads, stats })
    }

    /// Opens a resumable trajectory over one source: each
    /// [`TrajectoryStream::advance`] renders the path's next frame,
    /// persisting warp state in the scene's [`TemporalCache`] between
    /// calls. A stream over a source with a path already in flight (from
    /// this session or another on the same bundle) resumes it.
    pub fn trajectory_stream<'s>(
        &'s self,
        source: RenderSource,
        mode: ReuseMode,
    ) -> TrajectoryStream<'s, 'a> {
        TrajectoryStream { session: self, source, mode }
    }
}

/// Ensures the temporal cache participates in the scene bundle's `Debug`
/// and sharing rules the way the doc on [`Scene::temporal`](crate::pipeline::Scene::temporal) promises.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{PipelineBuilder, RenderRequest, Scene};
    use spnerf_core::SpNerfConfig;
    use spnerf_render::renderer::{RenderConfig, SkipMode};
    use spnerf_render::scene::SceneId;
    use spnerf_voxel::sparse::FormatSelection;
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
            // Off mode leaves no reuse state behind.
            assert!(scene.temporal().is_empty());
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
        assert!(resp.max_validation_error() <= WarpConfig::default().tolerance);
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
        // One-shot trajectories are self-contained.
        assert!(scene.temporal().is_empty());
    }

    #[test]
    fn streams_persist_across_sessions_on_the_same_bundle() {
        let scene = tiny_scene();
        let spec = TrajectorySpec::orbit(3, 12, 12);
        let cams = spec.cameras();
        let source = RenderSource::spnerf_masked();
        {
            let session = scene.session();
            let mut stream = session.trajectory_stream(source, ReuseMode::warp());
            assert_eq!(stream.next_frame(), 0);
            let (f0, w0) = stream.advance(&cams[0]);
            assert_eq!(f0.stats.rays_warped, 0);
            assert_eq!(w0.stats, f0.stats);
        }
        // A new session on the same bundle resumes the in-flight path.
        let session = scene.session();
        let mut stream = session.trajectory_stream(source, ReuseMode::warp());
        assert_eq!(stream.next_frame(), 1);
        let (f1, _) = stream.advance(&cams[1]);
        assert!(f1.stats.rays_warped > 0, "resumed frame must warp the persisted buffers");
        // The streamed path is bitwise the one-shot path.
        let one_shot = scene
            .session()
            .render_trajectory(&TrajectoryRequest::new(source, spec).with_mode(ReuseMode::warp()))
            .expect("one-shot renders");
        assert_eq!(f1.image, one_shot.frames[1].image);
        // reset() forgets the path.
        stream.reset();
        assert_eq!(stream.next_frame(), 0);
        assert!(scene.temporal().is_empty());
    }

    #[test]
    fn respecializing_invalidates_in_flight_warp_state() {
        let scene = tiny_scene();
        let spec = TrajectorySpec::orbit(3, 12, 12);
        let cams = spec.cameras();
        let source = RenderSource::spnerf_masked();
        let session = scene.session();
        let mut stream = session.trajectory_stream(source, ReuseMode::warp());
        stream.advance(&cams[0]);
        stream.advance(&cams[1]);
        assert_eq!(scene.temporal().next_frame(source), 2);

        // Plain clones are the same bundle: they share the in-flight path.
        assert_eq!(scene.clone().temporal().next_frame(source), 2);

        // Respecializing the SpNeRF stage must start from an empty cache …
        let respec = scene
            .with_spnerf(SpNerfConfig { subgrid_count: 2, table_size: 1024, codebook_size: 16 })
            .expect("respecialize");
        assert!(respec.temporal().is_empty(), "with_spnerf must invalidate temporal state");
        // … so the next frame rendered on it is a fresh full render, never
        // a warp of the old model's buffers.
        let rs = respec.session();
        let (frame, _) = rs.trajectory_stream(source, ReuseMode::warp()).advance(&cams[2]);
        assert_eq!(frame.stats.rays_warped, 0, "stale warp buffers served after with_spnerf");
        let still =
            rs.render(&RenderRequest::single(source, cams[2])).expect("fresh still renders");
        assert_eq!(frame.image, still.images[0]);

        // Same contract for the sparse-format respecialization, which used
        // to clone the whole bundle wholesale.
        let refmt = scene.with_sparse_format(FormatSelection::Auto);
        assert!(refmt.temporal().is_empty(), "with_sparse_format must invalidate temporal state");
        // The original bundle still has its path in flight.
        assert_eq!(scene.temporal().next_frame(source), 2);
    }

    #[test]
    fn skip_mode_sessions_carry_hints_without_changing_pixels() {
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
