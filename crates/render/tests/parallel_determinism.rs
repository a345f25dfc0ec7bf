//! Property tests for the tile-parallel render engine's determinism
//! guarantee: for random scenes, image sizes, tile sizes, and thread
//! counts, the parallel image and stats are exactly equal to the serial
//! reference, and a ray's result does not depend on the job it is traced
//! in. Both renders run the lane kernels, which `lane_equivalence.rs` pins
//! bitwise to their scalar oracles.

use proptest::prelude::*;
use spnerf_render::bake::bake;
use spnerf_render::mlp::{DeferredMlp, Mlp};
use spnerf_render::ray::Ray;
use spnerf_render::renderer::{
    render_view, render_view_serial, trace_rays, RenderConfig, RenderFrame, RenderStats, Shader,
    SkipMode, TracedRay,
};
use spnerf_render::scene::{build_grid, default_camera, scene_aabb, SceneId};
use spnerf_render::source::{VoxelSource, WithOccupancy};
use spnerf_testkit::corpus::{generate, Archetype, CorpusSpec};

/// A traced ray with its floats as bits, so equality is bitwise.
type RayBits = ([u32; 3], u32, RenderStats);

fn ray_bits(traced: &[TracedRay]) -> Vec<RayBits> {
    traced
        .iter()
        .map(|t| {
            let c = t.color;
            ([c.x.to_bits(), c.y.to_bits(), c.z.to_bits()], t.depth.to_bits(), t.stats)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn parallel_render_is_bitwise_serial(
        scene_idx in 0usize..8,
        width in 3u32..=14,
        height in 3u32..=14,
        tile_size in 1u32..=10,
        threads in 1usize..=8,
        pose in 0usize..6,
    ) {
        let scene = SceneId::all()[scene_idx];
        let grid = build_grid(scene, 20);
        let mlp = Mlp::random(7);
        let cam = default_camera(width, height, pose, 6);
        let cfg = RenderConfig {
            samples_per_ray: 24,
            tile_size,
            parallelism: threads,
            ..Default::default()
        };
        let (serial_img, serial_stats) =
            render_view_serial(&grid, &mlp, &cam, &scene_aabb(), &cfg);
        let (img, stats) = render_view(&grid, &mlp, &cam, &scene_aabb(), &cfg);
        prop_assert_eq!(
            stats, serial_stats,
            "stats diverged: scene={} {}x{} tile={} threads={}",
            scene, width, height, tile_size, threads
        );
        prop_assert!(
            img == serial_img,
            "image diverged: scene={} {}x{} tile={} threads={}",
            scene, width, height, tile_size, threads
        );
    }

    #[test]
    fn auto_parallelism_is_bitwise_serial(
        scene_idx in 0usize..8,
        image in 4u32..=12,
    ) {
        let scene = SceneId::all()[scene_idx];
        let grid = build_grid(scene, 18);
        let mlp = Mlp::random(11);
        let cam = default_camera(image, image, 2, 6);
        // parallelism: 0 = all available cores; tiles smaller than the image
        // force multiple work items.
        let cfg = RenderConfig {
            samples_per_ray: 16,
            tile_size: 4,
            parallelism: 0,
            ..Default::default()
        };
        let serial = render_view_serial(&grid, &mlp, &cam, &scene_aabb(), &cfg);
        let parallel = render_view(&grid, &mlp, &cam, &scene_aabb(), &cfg);
        prop_assert!(parallel == serial, "auto-thread render diverged on {}", scene);
    }

    #[test]
    fn parallel_render_is_bitwise_serial_on_corpus_scenes(
        arch_idx in 0usize..5,
        occupancy in 0.01f64..0.60,
        seed in 0u64..100,
        tile_size in 1u32..=8,
        threads in 1usize..=6,
    ) {
        // The corpus spans the sparsity/structure space the eight dataset
        // scenes don't (dense blobs, pure noise, near-empty grids): the
        // engine's determinism guarantee must hold across all of it.
        let spec = CorpusSpec::new(Archetype::ALL[arch_idx], 16, occupancy, seed);
        let grid = generate(&spec);
        let mlp = Mlp::random(5);
        let cam = default_camera(11, 9, 1, 6);
        let cfg = RenderConfig {
            samples_per_ray: 20,
            tile_size,
            parallelism: threads,
            ..Default::default()
        };
        let serial = render_view_serial(&grid, &mlp, &cam, &scene_aabb(), &cfg);
        let parallel = render_view(&grid, &mlp, &cam, &scene_aabb(), &cfg);
        prop_assert!(
            parallel == serial,
            "corpus render diverged: {} tile={} threads={}",
            spec.label(), tile_size, threads
        );
    }

    #[test]
    fn skip_mode_is_pixel_exact_at_every_thread_count(
        arch_idx in 0usize..5,
        occupancy in 0.005f64..0.40,
        seed in 0u64..100,
        tile_size in 1u32..=8,
        threads in 1usize..=6,
    ) {
        // Empty-space skipping composes with tile parallelism: for any
        // corpus scene, tile size and thread count, the skipped render
        // equals the skip-off serial reference pixel for pixel, and stats
        // are thread-count-invariant.
        let spec = CorpusSpec::new(Archetype::ALL[arch_idx], 16, occupancy, seed);
        let grid = generate(&spec);
        let skippable = WithOccupancy::build(&grid);
        let mlp = Mlp::random(5);
        let cam = default_camera(10, 8, 3, 6);
        let off = RenderConfig { samples_per_ray: 20, ..Default::default() };
        let on = RenderConfig { tile_size, parallelism: threads, skip_mode: SkipMode::Mip, ..off };
        let (ref_img, ref_stats) = render_view_serial(&grid, &mlp, &cam, &scene_aabb(), &off);
        let (img, stats) = render_view(&skippable, &mlp, &cam, &scene_aabb(), &on);
        prop_assert!(
            img == ref_img,
            "skip render changed pixels: {} tile={} threads={}",
            spec.label(), tile_size, threads
        );
        prop_assert_eq!(stats.samples_shaded, ref_stats.samples_shaded, "{}", spec.label());
        prop_assert_eq!(
            stats.samples_marched + stats.samples_skipped,
            ref_stats.samples_marched,
            "{}: marched + skipped must equal the unskipped march count",
            spec.label()
        );
        // And the serial skipped render agrees with the parallel one.
        let serial_on = render_view_serial(&skippable, &mlp, &cam, &scene_aabb(), &on);
        prop_assert!(serial_on == (img, stats), "{}: thread-count variance", spec.label());
    }

    #[test]
    fn baked_render_is_invariant_to_threads_and_tiles(
        arch_idx in 0usize..5,
        occupancy in 0.01f64..0.40,
        seed in 0u64..100,
        tile_size in 1u32..=8,
        threads in 1usize..=6,
    ) {
        // The bake-and-defer path accumulates a specular feature along each
        // ray and then shades once per pixel — both steps must carry the
        // same determinism guarantee as per-sample shading: for any corpus
        // scene, the parallel/tiled/skipped baked render equals the serial
        // reference bitwise, pixels and stats alike (including
        // `pixels_shaded`).
        let spec = CorpusSpec::new(Archetype::ALL[arch_idx], 16, occupancy, seed);
        let grid = generate(&spec);
        let baked = bake(&grid, &Mlp::random(5));
        let skippable = WithOccupancy::build(&baked);
        let deferred = DeferredMlp::random(9);
        let shader = Shader::Deferred(&deferred);
        let cam = default_camera(10, 9, 2, 6);
        let reference_cfg = RenderConfig { samples_per_ray: 20, ..Default::default() };
        let varied_cfg = RenderConfig {
            tile_size,
            parallelism: threads,
            skip_mode: SkipMode::Mip,
            ..reference_cfg
        };
        let (ref_img, ref_stats) =
            render_view_serial(&baked, shader, &cam, &scene_aabb(), &reference_cfg);
        let (img, stats) = render_view(&skippable, shader, &cam, &scene_aabb(), &varied_cfg);
        prop_assert!(
            img == ref_img,
            "baked render diverged: {} tile={} threads={}",
            spec.label(), tile_size, threads
        );
        prop_assert_eq!(stats.pixels_shaded, ref_stats.pixels_shaded, "{}", spec.label());
        prop_assert_eq!(stats.samples_shaded, ref_stats.samples_shaded, "{}", spec.label());
        prop_assert_eq!(
            stats.samples_marched + stats.samples_skipped,
            ref_stats.samples_marched,
            "{}: marched + skipped must equal the unskipped march count",
            spec.label()
        );
    }

    #[test]
    fn job_split_never_changes_a_ray(
        arch_idx in 0usize..5,
        occupancy in 0.01f64..0.40,
        seed in 0u64..100,
        skip in 0usize..2,
    ) {
        // The job kernel marches a whole job before it shades, so every
        // ray shares its queue with the others. The same pixels traced as
        // jobs of 1, 7, 8, 9 and 64 rays (short, exact and ragged groups of
        // eight) and as one whole-frame job must agree bit for bit: color,
        // depth and stats, under both shaders and both skip modes.
        let spec = CorpusSpec::new(Archetype::ALL[arch_idx], 16, occupancy, seed);
        let grid = generate(&spec);
        let mlp = Mlp::random(5);
        let baked = bake(&grid, &mlp);
        let deferred = DeferredMlp::random(9);
        let skip_mode = if skip == 1 { SkipMode::mip() } else { SkipMode::Off };
        let per_sample = job_split_mismatch(&WithOccupancy::build(&grid), (&mlp).into(), skip_mode);
        prop_assert_eq!(per_sample, None, "per-sample: {}", spec.label());
        let deferred =
            job_split_mismatch(&WithOccupancy::build(&baked), Shader::Deferred(&deferred), skip_mode);
        prop_assert_eq!(deferred, None, "deferred: {}", spec.label());
    }
}

/// Traces a 10×9 view as one job and as jobs of 1, 7, 8, 9 and 64 rays,
/// and returns the first job size whose rays differ from the one-job
/// trace in any bit.
fn job_split_mismatch<S: VoxelSource + ?Sized>(
    source: &S,
    shader: Shader<'_>,
    skip_mode: SkipMode,
) -> Option<usize> {
    let cfg = RenderConfig { samples_per_ray: 20, skip_mode, ..Default::default() };
    let frame = RenderFrame::new(source.dims(), &scene_aabb(), &cfg);
    let cam = default_camera(10, 9, 2, 6);
    let rays: Vec<Ray> = (0..cam.height)
        .flat_map(|py| (0..cam.width).map(move |px| (px, py)))
        .map(|(px, py)| cam.ray_for_pixel(px, py))
        .collect();
    let whole = ray_bits(&trace_rays(source, shader, &frame, &rays, &cfg));
    assert_eq!(whole.len(), rays.len(), "one result per ray");
    [1usize, 7, 8, 9, 64].into_iter().find(|&job| {
        let split: Vec<TracedRay> = rays
            .chunks(job)
            .flat_map(|chunk| trace_rays(source, shader, &frame, chunk, &cfg))
            .collect();
        ray_bits(&split) != whole
    })
}
