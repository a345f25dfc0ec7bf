//! Property tests for the temporal trajectory path
//! ([`spnerf_render::temporal`]), over corpus archetypes × path kinds:
//!
//! * `ReuseMode::Off` is bitwise a loop of independent single-frame
//!   renders, for every source kind including the bake-and-defer path;
//! * warped frames are bitwise-deterministic across thread counts and
//!   tile sizes;
//! * warp-then-validate never drifts from a full re-march by more than the
//!   documented [`WARP_TOLERANCE`], on any pixel of any frame.

use proptest::prelude::*;
use spnerf_render::bake::bake;
use spnerf_render::camera::PinholeCamera;
use spnerf_render::mlp::{DeferredMlp, Mlp};
use spnerf_render::renderer::{render_view, RenderConfig, Shader};
use spnerf_render::source::VoxelSource;
use spnerf_render::temporal::{
    advance_frame, ReuseMode, TemporalFrame, TrajectorySpec, WARP_TOLERANCE,
};
use spnerf_testkit::corpus::{generate, Archetype, CorpusSpec};
use spnerf_testkit::fixtures;

/// The three path kinds at gentle test scales.
fn spec_for(path_idx: usize, frames: usize, image: u32) -> TrajectorySpec {
    match path_idx {
        0 => TrajectorySpec::orbit(frames, image, image),
        1 => TrajectorySpec::dolly(frames, image, image),
        _ => TrajectorySpec::jitter(frames, image, image, 17),
    }
}

fn corpus_grid(arch_idx: usize) -> spnerf_voxel::grid::DenseGrid {
    let spec = CorpusSpec::archetype_default(Archetype::ALL[arch_idx], 16, 31);
    generate(&spec)
}

fn render_cfg() -> RenderConfig {
    RenderConfig { samples_per_ray: 16, ..Default::default() }
}

/// Renders a whole path: `advance_frame` over the cameras, threading one
/// reuse state frame to frame.
fn render_path<S: VoxelSource + Sync>(
    source: &S,
    shader: Shader<'_>,
    cameras: &[PinholeCamera],
    cfg: &RenderConfig,
    mode: ReuseMode,
) -> Vec<TemporalFrame> {
    let mut state = None;
    cameras
        .iter()
        .enumerate()
        .map(|(i, camera)| advance_frame(source, shader, camera, cfg, mode, i, &mut state))
        .collect()
}

/// Renders one trajectory over a source picked by index: the raw grid
/// per-sample, the SpNeRF masked decode per-sample, or the baked grid
/// through the deferred per-pixel shader.
fn trajectory_over_source(
    arch_idx: usize,
    source_idx: usize,
    spec: &TrajectorySpec,
    cfg: &RenderConfig,
    mode: ReuseMode,
) -> Vec<TemporalFrame> {
    let grid = corpus_grid(arch_idx);
    let mlp = Mlp::random(fixtures::MLP_SEED);
    let cams = spec.cameras();
    match source_idx {
        0 => render_path(&&grid, Shader::PerSample(&mlp), &cams, cfg, mode),
        1 => {
            let cspec = CorpusSpec::archetype_default(Archetype::ALL[arch_idx], 16, 31);
            let (_g, _v, model) = fixtures::corpus_fixture(&cspec, 32, 8, 4096);
            let view = model.masked();
            render_path(&view, Shader::PerSample(&mlp), &cams, cfg, mode)
        }
        _ => {
            let baked = bake(&grid, &mlp);
            let deferred = DeferredMlp::random(fixtures::MLP_SEED);
            render_path(&&baked, Shader::Deferred(&deferred), &cams, cfg, mode)
        }
    }
}

/// Renders the same `(source, cameras)` as independent single-frame calls.
fn independent_frames<S: VoxelSource + Sync>(
    source: &S,
    shader: Shader<'_>,
    spec: &TrajectorySpec,
    cfg: &RenderConfig,
) -> Vec<(spnerf_render::image::ImageBuffer, spnerf_render::renderer::RenderStats)> {
    spec.cameras().iter().map(|cam| render_view(source, shader, cam, cfg)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn off_mode_is_bitwise_independent_single_frame_renders(
        arch_idx in 0usize..5,
        path_idx in 0usize..3,
        source_idx in 0usize..3,
        frames in 2usize..=4,
        image in 6u32..=10,
    ) {
        let spec = spec_for(path_idx, frames, image);
        let cfg = render_cfg();
        let traj = trajectory_over_source(arch_idx, source_idx, &spec, &cfg, ReuseMode::Off);
        // Re-derive the independent loop over the identical source.
        let grid = corpus_grid(arch_idx);
        let mlp = Mlp::random(fixtures::MLP_SEED);
        let solo = match source_idx {
            0 => independent_frames(&&grid, Shader::PerSample(&mlp), &spec, &cfg),
            1 => {
                let cspec = CorpusSpec::archetype_default(Archetype::ALL[arch_idx], 16, 31);
                let (_g, _v, model) = fixtures::corpus_fixture(&cspec, 32, 8, 4096);
                let view = model.masked();
                independent_frames(&view, Shader::PerSample(&mlp), &spec, &cfg)
            }
            _ => {
                let baked = bake(&grid, &mlp);
                let deferred = DeferredMlp::random(fixtures::MLP_SEED);
                independent_frames(&&baked, Shader::Deferred(&deferred), &spec, &cfg)
            }
        };
        prop_assert_eq!(traj.len(), solo.len());
        for (i, (t, (img, stats))) in traj.iter().zip(&solo).enumerate() {
            prop_assert!(
                t.image == *img,
                "frame {} diverged (arch={} path={} source={})",
                i, arch_idx, path_idx, source_idx
            );
            prop_assert_eq!(&t.stats, stats, "stats diverged on frame {}", i);
            prop_assert_eq!(t.stats.rays_warped, 0);
        }
    }

    #[test]
    fn warped_frames_are_deterministic_across_schedules(
        arch_idx in 0usize..5,
        path_idx in 0usize..3,
        frames in 2usize..=4,
        image in 6u32..=10,
        threads_a in 1usize..=6,
        threads_b in 1usize..=6,
        tile_a in 1u32..=8,
        tile_b in 1u32..=8,
    ) {
        let spec = spec_for(path_idx, frames, image);
        let cfg_a = RenderConfig { parallelism: threads_a, tile_size: tile_a, ..render_cfg() };
        let cfg_b = RenderConfig { parallelism: threads_b, tile_size: tile_b, ..render_cfg() };
        let a = trajectory_over_source(arch_idx, 1, &spec, &cfg_a, ReuseMode::warp());
        let b = trajectory_over_source(arch_idx, 1, &spec, &cfg_b, ReuseMode::warp());
        for (i, (fa, fb)) in a.iter().zip(&b).enumerate() {
            prop_assert!(
                fa.image == fb.image,
                "warped frame {} depends on the schedule (arch={} path={} \
                 threads {}/{} tiles {}/{})",
                i, arch_idx, path_idx, threads_a, threads_b, tile_a, tile_b
            );
            prop_assert_eq!(&fa.stats, &fb.stats, "stats diverged on frame {}", i);
        }
    }

    #[test]
    fn warp_never_drifts_past_the_configured_tolerance(
        arch_idx in 0usize..5,
        path_idx in 0usize..3,
        frames in 2usize..=4,
        image in 6u32..=10,
    ) {
        let spec = spec_for(path_idx, frames, image);
        let cfg = render_cfg();
        let tol = WARP_TOLERANCE;
        let warp = trajectory_over_source(arch_idx, 1, &spec, &cfg, ReuseMode::warp());
        let exact = trajectory_over_source(arch_idx, 1, &spec, &cfg, ReuseMode::Off);
        for (i, (w, e)) in warp.iter().zip(&exact).enumerate() {
            prop_assert!(w.validation_error <= tol, "frame {} validation error {}", i, w.validation_error);
            let mut worst = 0.0f32;
            for (pw, pe) in w.image.pixels().iter().zip(e.image.pixels()) {
                worst = worst
                    .max((pw.x - pe.x).abs())
                    .max((pw.y - pe.y).abs())
                    .max((pw.z - pe.z).abs());
            }
            prop_assert!(
                worst <= tol,
                "frame {} drifted {} > {} (arch={} path={})",
                i, worst, tol, arch_idx, path_idx
            );
        }
    }
}
