//! The march oracle: a plain per-sample definition of a rendered pixel,
//! compared bit for bit with the renderer's march.
//!
//! [`oracle_ray`] walks one ray the way the volume-rendering equation
//! reads: `UniformSampler` → `world_to_grid` → `trilinear_cell` →
//! `interpolate_cell_scalar` (which never probes) → `Mlp::forward_scalar`
//! → `RayAccumulator::add_sample`, with early termination and the
//! opacity-weighted depth. The renderer instead locates each sample,
//! probes its cell base, weighs only cells that survive, queues shaded
//! samples and shades them eight per pass; none of that may move a bit of
//! color, depth or any counter. The goldens pin the march at one
//! configuration; this pins it against its definition.

use spnerf_core::MaskMode;
use spnerf_render::camera::PinholeCamera;
use spnerf_render::composite::{alpha_from_density, RayAccumulator};
use spnerf_render::interp::{interpolate_cell_scalar, trilinear_cell, GridFrame};
use spnerf_render::mlp::{encode_direction, Mlp, MLP_INPUT_DIM};
use spnerf_render::ray::{Aabb, Ray, UniformSampler};
use spnerf_render::renderer::{
    render_view, render_view_serial, trace_rays, RayStats, RenderConfig, RenderFrame, RenderStats,
    SkipCache, SkipMode, RAY_DIAGONAL_FACTOR,
};
use spnerf_render::scene::{default_camera, scene_aabb, SceneId};
use spnerf_render::source::{VoxelData, VoxelSource, WithOccupancy};
use spnerf_render::vec3::Vec3;
use spnerf_testkit::corpus::Corpus;
use spnerf_testkit::fixtures;
use spnerf_voxel::coord::{GridCoord, GridDims};
use spnerf_voxel::FEATURE_DIM;

/// One ray as the oracle defines it.
struct OracleRay {
    color: Vec3,
    depth: f32,
    stats: RayStats,
}

/// The per-sample reference march of one ray.
fn oracle_ray<S: VoxelSource + ?Sized>(
    source: &S,
    mlp: &Mlp,
    ray: Ray,
    aabb: &Aabb,
    cfg: &RenderConfig,
) -> OracleRay {
    let dims = source.dims();
    let grid = GridFrame::new(dims, aabb.min, aabb.max);
    let step = aabb.size().max_component() * RAY_DIAGONAL_FACTOR / cfg.samples_per_ray as f32;
    let view = encode_direction(ray.dir);
    let mut acc = RayAccumulator::new();
    let mut stats = RayStats::default();
    let mut depth_sum = 0.0f32;
    for (t, pos) in UniformSampler::new(ray, aabb, step) {
        stats.samples_marched += 1;
        let Some(cell) = trilinear_cell(dims, grid.world_to_grid(pos)) else { continue };
        let sample = interpolate_cell_scalar(source, &cell);
        if sample.density <= 0.0 {
            continue;
        }
        stats.samples_shaded += 1;
        let alpha = alpha_from_density(sample.density * cfg.density_scale, step);
        // The sample's front-to-back weight `T·α`, before it updates `T`.
        let w = acc.transmittance() * alpha.clamp(0.0, 1.0);
        depth_sum += w * t;
        let mut input = [0.0f32; MLP_INPUT_DIM];
        input[..FEATURE_DIM].copy_from_slice(&sample.features);
        input[FEATURE_DIM..].copy_from_slice(&view);
        let [r, g, b] = mlp.forward_scalar(&input);
        acc.add_sample(alpha, Vec3::new(r, g, b));
        if acc.is_opaque(cfg.early_stop) {
            stats.terminated_early = true;
            break;
        }
    }
    let opacity = acc.opacity();
    let depth = if opacity == 0.0 { f32::INFINITY } else { depth_sum / opacity };
    OracleRay { color: acc.finalize(cfg.background), depth, stats }
}

fn color_bits(c: Vec3) -> [u32; 3] {
    [c.x.to_bits(), c.y.to_bits(), c.z.to_bits()]
}

/// Compares the renderer on `source` with the oracle on `reference` (the
/// same voxels, without any skipping wrapper) over one view:
///
/// * per ray, against [`trace_rays`] over the whole view as one job
///   (`render_view_serial`'s own job): color bits, depth bits and every
///   [`RayStats`] field;
/// * the image bits and [`RenderStats`] of `render_view_serial`, and of a
///   two-thread `render_view` on 5-pixel tiles.
///
/// Under [`SkipMode::Mip`] a skipped sample is counted in `samples_skipped`
/// instead of `samples_marched`, so the per-ray check there is that the two
/// add up to the oracle's marched count; everything else must match as is.
/// Returns the view's stats.
fn check_view<R, S>(
    reference: &R,
    source: &S,
    mlp: &Mlp,
    camera: &PinholeCamera,
    cfg: &RenderConfig,
) -> Result<RenderStats, String>
where
    R: VoxelSource + ?Sized,
    S: VoxelSource + Sync,
{
    let aabb = scene_aabb();
    let pixels: Vec<(u32, u32)> =
        (0..camera.height).flat_map(|y| (0..camera.width).map(move |x| (x, y))).collect();
    let rays: Vec<(Ray, SkipCache)> =
        pixels.iter().map(|&(x, y)| (camera.ray_for_pixel(x, y), SkipCache::EMPTY)).collect();
    let frame = RenderFrame::new(source.dims(), &aabb, cfg);
    let traced = trace_rays(source, mlp.into(), &frame, &rays, cfg);
    let skipping = cfg.skip_mode.is_on();
    let mut want = RenderStats::default();
    for ((&(x, y), &(ray, _)), got) in pixels.iter().zip(&rays).zip(&traced) {
        let oracle = oracle_ray(reference, mlp, ray, &aabb, cfg);
        let at = format!("pixel ({x},{y})");
        if color_bits(got.color) != color_bits(oracle.color) {
            return Err(format!("{at}: color {:?}, oracle {:?}", got.color, oracle.color));
        }
        if got.depth.to_bits() != oracle.depth.to_bits() {
            return Err(format!("{at}: depth {}, oracle {}", got.depth, oracle.depth));
        }
        let stats = if skipping {
            let (marched, skipped) = (got.stats.samples_marched, got.stats.samples_skipped);
            if marched + skipped != oracle.stats.samples_marched {
                return Err(format!(
                    "{at}: {marched} marched + {skipped} skipped, oracle marched {}",
                    oracle.stats.samples_marched
                ));
            }
            RayStats {
                samples_marched: oracle.stats.samples_marched,
                samples_skipped: 0,
                ..got.stats
            }
        } else {
            got.stats
        };
        if stats != oracle.stats {
            return Err(format!("{at}: stats {:?}, oracle {:?}", got.stats, oracle.stats));
        }
        want.record_ray(&got.stats);
    }
    let tiled = RenderConfig { parallelism: 2, tile_size: 5, ..*cfg };
    for (name, (image, stats)) in [
        ("render_view_serial", render_view_serial(source, mlp, camera, &aabb, cfg)),
        ("render_view", render_view(source, mlp, camera, &aabb, &tiled)),
    ] {
        for (&(x, y), got) in pixels.iter().zip(&traced) {
            if color_bits(image.get(x, y)) != color_bits(got.color) {
                return Err(format!("{name}: pixel ({x},{y}) differs from the oracle"));
            }
        }
        if stats != want {
            return Err(format!("{name}: stats {stats:?}, oracle {want:?}"));
        }
    }
    Ok(want)
}

fn cfg(samples_per_ray: usize, skip_mode: SkipMode) -> RenderConfig {
    RenderConfig { samples_per_ray, skip_mode, ..Default::default() }
}

/// [`check_view`] with skipping off, then with the source's exact
/// occupancy pyramid attached under [`SkipMode::Mip`].
fn check_both_modes<S: VoxelSource + Sync + Copy>(
    source: S,
    mlp: &Mlp,
    camera: &PinholeCamera,
) -> Result<(), String> {
    let stats = check_view(&source, &source, mlp, camera, &cfg(48, SkipMode::Off))
        .map_err(|e| format!("skipping off: {e}"))?;
    if stats.samples_shaded == 0 {
        return Err("the view shades nothing, so it pins no color".into());
    }
    let skippable = WithOccupancy::build(source);
    check_view(&source, &skippable, mlp, camera, &cfg(48, SkipMode::mip()))
        .map(|_| ())
        .map_err(|e| format!("skipping mip: {e}"))
}

#[test]
fn march_is_the_oracle_on_every_archetype() {
    let mlp = Mlp::random(fixtures::MLP_SEED);
    for (i, spec) in Corpus::quick().enumerate() {
        let (grid, _vqrf, model) = fixtures::corpus_fixture(&spec, 32, 8, 4096);
        let camera = default_camera(16, 16, i, 5);
        for (name, result) in [
            ("masked", check_both_modes(model.view(MaskMode::Masked), &mlp, &camera)),
            ("unmasked", check_both_modes(model.view(MaskMode::Unmasked), &mlp, &camera)),
            ("ground truth", check_both_modes(&grid, &mlp, &camera)),
        ] {
            if let Err(e) = result {
                panic!("{}, {name}: {e}", spec.label());
            }
        }
    }
}

#[test]
fn march_is_the_oracle_on_a_side_64_mic_still() {
    // The paper's 128 samples per ray over a finer grid than the corpus:
    // more cells per ray and more probes per frame.
    let (_grid, _vqrf, model) = fixtures::dataset_fixture(SceneId::Mic, 64, 32, 8, 4096);
    let mlp = Mlp::random(fixtures::MLP_SEED);
    let masked = model.view(MaskMode::Masked);
    let camera = default_camera(32, 32, 3, 8);
    let stats = check_view(&masked, &masked, &mlp, &camera, &cfg(128, SkipMode::Off)).unwrap();
    assert!(stats.samples_shaded > 0, "the still must hit the scene");
}

/// A source that answers "empty" for every other cell its inner source
/// may occupy: a march that trusts it treats those "maybe" cells as empty,
/// which is the mistake the probe must never make.
struct DropsMaybeCells<S>(S);

impl<S: VoxelSource> VoxelSource for DropsMaybeCells<S> {
    fn dims(&self) -> GridDims {
        self.0.dims()
    }

    fn fetch(&self, c: GridCoord) -> Option<VoxelData> {
        self.0.fetch(c)
    }

    fn cell_maybe_occupied(&self, base: GridCoord) -> bool {
        self.0.cell_maybe_occupied(base) && (base.x + base.y + base.z) % 2 == 1
    }
}

#[test]
fn a_march_that_drops_maybe_cells_fails_the_oracle() {
    let (_grid, _vqrf, model) = fixtures::dataset_fixture(SceneId::Mic, 24, 32, 8, 4096);
    let mlp = Mlp::random(fixtures::MLP_SEED);
    let masked = model.view(MaskMode::Masked);
    let camera = default_camera(16, 16, 1, 8);
    let cfg = cfg(48, SkipMode::Off);
    check_view(&masked, &masked, &mlp, &camera, &cfg).expect("the honest march is the oracle");
    let err = check_view(&masked, &DropsMaybeCells(masked), &mlp, &camera, &cfg)
        .expect_err("a march that drops occupied cells must fail the oracle");
    assert!(err.starts_with("pixel"), "the per-ray check must catch it: {err}");
}
