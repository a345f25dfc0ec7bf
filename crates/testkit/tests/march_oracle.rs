//! The march oracle: a plain per-sample definition of a rendered pixel,
//! compared bit for bit with the renderer's march under both shaders.
//!
//! [`oracle_ray`] walks one ray the way the volume-rendering equation
//! reads: `UniformSampler` → `world_to_grid` → `trilinear_cell` →
//! `interpolate_cell_scalar` (which never probes) → a color →
//! `RayAccumulator::add_sample`, with early termination and the
//! opacity-weighted depth. Per sample the color is `Mlp::forward_scalar`;
//! over a baked grid it is the baked diffuse color, the specular feature is
//! accumulated with `accumulate_weighted`, and one
//! `DeferredMlp::forward_scalar` per shaded pixel adds view dependence
//! scaled by the ray's opacity. The renderer instead clips each sample
//! against the source's occupied box, locates it, probes its cell base,
//! weighs only cells that survive, queues shaded samples and shades them
//! eight per pass; none of that may move a bit of color, depth or any
//! counter. The goldens pin the march at one configuration; this pins it
//! against its definition.

use spnerf_core::MaskMode;
use spnerf_render::bake::bake;
use spnerf_render::camera::PinholeCamera;
use spnerf_render::composite::{accumulate_weighted, alpha_from_density, RayAccumulator};
use spnerf_render::interp::{interpolate_cell_scalar, trilinear_cell, GridFrame};
use spnerf_render::mlp::{encode_direction, DeferredMlp, Mlp, DEFERRED_INPUT_DIM, MLP_INPUT_DIM};
use spnerf_render::ray::{Aabb, Ray, UniformSampler};
use spnerf_render::renderer::{
    render_view, render_view_serial, trace_rays, RenderConfig, RenderFrame, RenderStats, Shader,
    SkipMode, BACKGROUND, DENSITY_SCALE, RAY_DIAGONAL_FACTOR,
};
use spnerf_render::scene::{default_camera, scene_aabb, SceneId};
use spnerf_render::source::{support_bitmap, VoxelData, VoxelSource, WithOccupancy};
use spnerf_render::vec3::Vec3;
use spnerf_testkit::corpus::{generate, Corpus};
use spnerf_testkit::fixtures;
use spnerf_voxel::baked::{DIFFUSE_DIM, SPEC_DIM};
use spnerf_voxel::coord::{GridCoord, GridDims};
use spnerf_voxel::grid::DenseGrid;
use spnerf_voxel::FEATURE_DIM;

/// One ray as the oracle defines it.
struct OracleRay {
    color: Vec3,
    depth: f32,
    stats: RenderStats,
}

/// The per-sample reference march of one ray under `shader`.
fn oracle_ray<S: VoxelSource + ?Sized>(
    source: &S,
    shader: Shader<'_>,
    ray: Ray,
    aabb: &Aabb,
    cfg: &RenderConfig,
) -> OracleRay {
    let dims = source.dims();
    let grid = GridFrame::new(dims, aabb.min, aabb.max);
    let step = aabb.size().max_component() * RAY_DIAGONAL_FACTOR / cfg.samples_per_ray as f32;
    let view = encode_direction(ray.dir);
    let mut acc = RayAccumulator::new();
    let mut stats = RenderStats { rays: 1, ..RenderStats::default() };
    let mut depth_sum = 0.0f32;
    // The specular feature a deferred ray accumulates, weighted like color.
    let mut spec = [0.0f32; SPEC_DIM];
    for (t, pos) in UniformSampler::new(ray, aabb, step) {
        stats.samples_marched += 1;
        let Some(cell) = trilinear_cell(dims, grid.world_to_grid(pos)) else { continue };
        let sample = interpolate_cell_scalar(source, &cell);
        if sample.density <= 0.0 {
            continue;
        }
        stats.samples_shaded += 1;
        let alpha = alpha_from_density(sample.density * DENSITY_SCALE, step);
        // The sample's front-to-back weight `T·α`, before it updates `T`.
        let w = acc.transmittance() * alpha.clamp(0.0, 1.0);
        depth_sum += w * t;
        let [r, g, b] = match shader {
            Shader::PerSample(mlp) => {
                let mut input = [0.0f32; MLP_INPUT_DIM];
                input[..FEATURE_DIM].copy_from_slice(&sample.features);
                input[FEATURE_DIM..].copy_from_slice(&view);
                mlp.forward_scalar(&input)
            }
            Shader::Deferred(_) => {
                // A baked payload: diffuse RGB, then the specular feature.
                accumulate_weighted(&mut spec, &sample.features[DIFFUSE_DIM..], w);
                [sample.features[0], sample.features[1], sample.features[2]]
            }
        };
        acc.add_sample(alpha, Vec3::new(r, g, b));
        if acc.is_opaque(cfg.early_stop) {
            stats.rays_terminated_early = 1;
            break;
        }
    }
    let opacity = acc.opacity();
    let depth = if opacity == 0.0 { f32::INFINITY } else { depth_sum / opacity };
    let mut color = acc.finalize(BACKGROUND);
    if let Shader::Deferred(deferred) = shader {
        if stats.samples_shaded > 0 {
            // One view-dependent evaluation per shaded pixel.
            stats.pixels_shaded = 1;
            let mut input = [0.0f32; DEFERRED_INPUT_DIM];
            input[..SPEC_DIM].copy_from_slice(&spec);
            input[SPEC_DIM..].copy_from_slice(&view);
            let [r, g, b] = deferred.forward_scalar(&input);
            color = color + Vec3::new(r, g, b) * opacity;
        }
    }
    OracleRay { color, depth, stats }
}

fn color_bits(c: Vec3) -> [u32; 3] {
    [c.x.to_bits(), c.y.to_bits(), c.z.to_bits()]
}

/// Compares the renderer on `source` with the oracle on `reference` (the
/// same voxels, without any skipping wrapper) over one view:
///
/// * per ray, against [`trace_rays`] over the whole view as one job
///   (`render_view_serial`'s own job): color bits, depth bits and every
///   [`RenderStats`] field;
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
    shader: Shader<'_>,
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
    let rays: Vec<Ray> = pixels.iter().map(|&(x, y)| camera.ray_for_pixel(x, y)).collect();
    let frame = RenderFrame::new(source.dims(), &aabb, cfg);
    let traced = trace_rays(source, shader, &frame, &rays, cfg);
    let skipping = cfg.skip_mode.is_on();
    let mut want = RenderStats::default();
    for ((&(x, y), &ray), got) in pixels.iter().zip(&rays).zip(&traced) {
        let oracle = oracle_ray(reference, shader, ray, &aabb, cfg);
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
            RenderStats {
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
        want += got.stats;
    }
    let tiled = RenderConfig { parallelism: 2, tile_size: 5, ..*cfg };
    for (name, (image, stats)) in [
        ("render_view_serial", render_view_serial(source, shader, camera, &aabb, cfg)),
        ("render_view", render_view(source, shader, camera, &aabb, &tiled)),
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
    shader: Shader<'_>,
    camera: &PinholeCamera,
) -> Result<(), String> {
    let stats = check_view(&source, &source, shader, camera, &cfg(48, SkipMode::Off))
        .map_err(|e| format!("skipping off: {e}"))?;
    if stats.samples_shaded == 0 {
        return Err("the view shades nothing, so it pins no color".into());
    }
    let skippable = WithOccupancy::build(source);
    check_view(&source, &skippable, shader, camera, &cfg(48, SkipMode::mip()))
        .map(|_| ())
        .map_err(|e| format!("skipping mip: {e}"))
}

#[test]
fn march_is_the_oracle_on_every_archetype() {
    let mlp = Mlp::random(fixtures::MLP_SEED);
    let shader = Shader::PerSample(&mlp);
    for (i, spec) in Corpus::quick().enumerate() {
        let (grid, _vqrf, model) = fixtures::corpus_fixture(&spec, 32, 8, 4096);
        let camera = default_camera(16, 16, i, 5);
        for (name, result) in [
            ("masked", check_both_modes(model.view(MaskMode::Masked), shader, &camera)),
            ("unmasked", check_both_modes(model.view(MaskMode::Unmasked), shader, &camera)),
            ("ground truth", check_both_modes(&grid, shader, &camera)),
        ] {
            if let Err(e) = result {
                panic!("{}, {name}: {e}", spec.label());
            }
        }
    }
}

#[test]
fn deferred_march_is_the_oracle_on_every_baked_archetype() {
    let deferred = DeferredMlp::random(fixtures::MLP_SEED);
    let shader = Shader::Deferred(&deferred);
    for (i, spec) in Corpus::quick().enumerate() {
        let baked = bake(&generate(&spec), &Mlp::random(fixtures::MLP_SEED));
        let camera = default_camera(16, 16, i, 5);
        if let Err(e) = check_both_modes(&baked, shader, &camera) {
            panic!("{}, baked: {e}", spec.label());
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
    let stats =
        check_view(&masked, &masked, (&mlp).into(), &camera, &cfg(128, SkipMode::Off)).unwrap();
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
    let shader = Shader::PerSample(&mlp);
    check_view(&masked, &masked, shader, &camera, &cfg).expect("the honest march is the oracle");
    let err = check_view(&masked, &DropsMaybeCells(masked), shader, &camera, &cfg)
        .expect_err("a march that drops occupied cells must fail the oracle");
    assert!(err.starts_with("pixel"), "the per-ray check must catch it: {err}");
}

/// A source whose occupied box leaves out its inner source's far x plane
/// of occupied vertices: a march that trusts it clips away samples that
/// plane contributes to.
struct LeavesOutAPlane<S>(S);

impl<S: VoxelSource> VoxelSource for LeavesOutAPlane<S> {
    fn dims(&self) -> GridDims {
        self.0.dims()
    }

    fn fetch(&self, c: GridCoord) -> Option<VoxelData> {
        self.0.fetch(c)
    }

    fn occupied_bounds(&self) -> Option<(GridCoord, GridCoord)> {
        let (lo, hi) = self.0.occupied_bounds()?;
        Some((lo, GridCoord::new(hi.x - 1, hi.y, hi.z)))
    }

    fn cell_maybe_occupied(&self, base: GridCoord) -> bool {
        self.0.cell_maybe_occupied(base)
    }
}

#[test]
fn a_march_that_trusts_lying_bounds_fails_the_oracle() {
    let (_grid, _vqrf, model) = fixtures::dataset_fixture(SceneId::Mic, 24, 32, 8, 4096);
    let mlp = Mlp::random(fixtures::MLP_SEED);
    let masked = model.view(MaskMode::Masked);
    assert!(masked.occupied_bounds().is_some(), "the masked view has a box to lie about");
    let camera = default_camera(16, 16, 1, 8);
    let cfg = cfg(48, SkipMode::Off);
    let shader = Shader::PerSample(&mlp);
    check_view(&masked, &masked, shader, &camera, &cfg).expect("the honest march is the oracle");
    let err = check_view(&masked, &LeavesOutAPlane(masked), shader, &camera, &cfg)
        .expect_err("a march that clips away an occupied plane must fail the oracle");
    assert!(err.starts_with("pixel"), "the per-ray check must catch it: {err}");
}

/// A grid of `dims` with density (and position-dependent features) on
/// every vertex `occupied` admits.
fn grid_where(dims: GridDims, occupied: impl Fn(GridCoord) -> bool) -> DenseGrid {
    let mut grid = DenseGrid::zeros(dims);
    for c in dims.iter().filter(|&c| occupied(c)) {
        grid.set_density(c, 0.6 + 0.02 * (c.x + c.y + c.z) as f32);
        let f: Vec<f32> = (0..FEATURE_DIM as u32)
            .map(|j| ((c.x * 3 + c.y * 5 + c.z * 7 + j) % 11) as f32 / 10.0)
            .collect();
        grid.set_features(c, &f);
    }
    grid
}

#[test]
fn the_clip_holds_at_the_grid_edges() {
    let mlp = Mlp::random(fixtures::MLP_SEED);
    let shader = Shader::PerSample(&mlp);
    let n = 16;
    let mid = |v: u32| (n / 2 - 2..=n / 2 + 1).contains(&v);
    let at = GridCoord::new;
    let cases: [(&str, DenseGrid, usize, (GridCoord, GridCoord)); 5] = [
        // Three rods through the centre, each spanning its axis: the
        // occupied vertices touch all six faces, so the dilated box reaches
        // past the grid on every side.
        (
            "six faces",
            grid_where(GridDims::cube(n), |c| {
                [mid(c.x) && mid(c.y), mid(c.y) && mid(c.z), mid(c.x) && mid(c.z)].contains(&true)
            }),
            4,
            (at(0, 0, 0), at(n - 1, n - 1, n - 1)),
        ),
        // A 3×3×3 cluster in the far corner, everything else empty.
        (
            "corner cluster",
            grid_where(GridDims::cube(n), |c| c.x >= n - 3 && c.y >= n - 3 && c.z >= n - 3),
            4,
            (at(n - 3, n - 3, n - 3), at(n - 1, n - 1, n - 1)),
        ),
        // 1-thick axes, with a box smaller than the grid on the other two.
        (
            "1-thick x",
            grid_where(GridDims::new(1, n, n), |c| {
                (3..12).contains(&c.y) && (5..14).contains(&c.z)
            }),
            1,
            (at(0, 3, 5), at(0, 11, 13)),
        ),
        (
            "1-thick y",
            grid_where(GridDims::new(n, 1, n), |c| {
                (6..13).contains(&c.x) && (1..10).contains(&c.z)
            }),
            4,
            (at(6, 0, 1), at(12, 0, 9)),
        ),
        (
            "1-thick z",
            grid_where(GridDims::new(n, n, 1), |c| (2..9).contains(&c.x) && (4..15).contains(&c.y)),
            4,
            (at(2, 4, 0), at(8, 14, 0)),
        ),
    ];
    for (i, (name, grid, subgrids, bounds)) in cases.into_iter().enumerate() {
        let (grid, _vqrf, model) = fixtures::model_fixture(grid, 8, subgrids, 4096);
        let masked = model.view(MaskMode::Masked);
        assert_eq!(masked.occupied_bounds(), Some(bounds), "{name}");
        let camera = default_camera(16, 16, i, 5);
        for (source, result) in [
            ("masked", check_both_modes(masked, shader, &camera)),
            ("ground truth", check_both_modes(&grid, shader, &camera)),
        ] {
            if let Err(e) = result {
                panic!("{name}, {source}: {e}");
            }
        }
    }
}

#[test]
fn an_empty_pyramid_skips_every_sample() {
    // No occupied vertex, so the pyramid has no box: the skipper alone
    // settles every sample, in the grid (its top block is unset) and out
    // of it (no cell to locate).
    let grid = DenseGrid::zeros(GridDims::cube(16));
    let mlp = Mlp::random(fixtures::MLP_SEED);
    let camera = default_camera(16, 16, 2, 5);
    let skippable = WithOccupancy::build(&grid);
    assert_eq!(skippable.occupied_bounds(), None);
    let off = check_view(&grid, &grid, (&mlp).into(), &camera, &cfg(48, SkipMode::Off)).unwrap();
    let mip =
        check_view(&grid, &skippable, (&mlp).into(), &camera, &cfg(48, SkipMode::mip())).unwrap();
    assert_eq!(off.samples_shaded, 0);
    assert!(off.samples_marched > 0, "the view's rays cross the grid");
    assert_eq!(mip.samples_marched, 0, "an empty pyramid leaves nothing to march");
    assert_eq!(mip.samples_skipped, off.samples_marched);
}

#[test]
fn every_source_keeps_the_bounds_contract() {
    // Only the masked view knows a box; it is its bitmap's, and it holds
    // the view's exact decode support. Every other source answers `None`.
    for spec in Corpus::quick() {
        let (grid, vqrf, model) = fixtures::corpus_fixture(&spec, 32, 8, 4096);
        let label = spec.label();
        let masked = model.view(MaskMode::Masked);
        let bounds = masked.occupied_bounds();
        assert_eq!(bounds, model.bitmap().occupied_bounds(), "{label}");
        let (lo, hi) = bounds.expect("every archetype occupies something");
        let (slo, shi) = support_bitmap(&masked).occupied_bounds().expect("the view decodes");
        assert!(lo.x <= slo.x && lo.y <= slo.y && lo.z <= slo.z, "{label}: {lo} above {slo}");
        assert!(shi.x <= hi.x && shi.y <= hi.y && shi.z <= hi.z, "{label}: {shi} past {hi}");
        assert_eq!(model.view(MaskMode::Unmasked).occupied_bounds(), None, "{label}");
        assert_eq!(grid.occupied_bounds(), None, "{label}");
        assert_eq!(vqrf.occupied_bounds(), None, "{label}");
        let baked = bake(&grid, &Mlp::random(fixtures::MLP_SEED));
        assert_eq!(baked.occupied_bounds(), None, "{label}");
    }
}
