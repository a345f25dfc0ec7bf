//! The CPU reference renderer: ray march → (source decode) → trilinear
//! interpolation → MLP → compositing.
//!
//! This is the software counterpart of the whole accelerator pipeline. It is
//! generic over [`VoxelSource`], so the identical code path renders the dense
//! ground truth, the VQRF gold model and SpNeRF's online decoder — PSNR
//! deltas then isolate the data representation, as in Fig. 6(b).
//!
//! Its [`RenderStats`] (samples marched, samples shaded, early terminations)
//! are also the per-frame workload descriptor the cycle-level accelerator
//! simulator consumes.
//!
//! # Layering
//!
//! The renderer is split into three layers:
//!
//! 1. [`trace_ray`] — the one pure per-ray kernel: march, decode, shade,
//!    composite one primary ray against a shared read-only [`RenderFrame`];
//! 2. [`crate::engine`] — the tile scheduler and the ordered worker pool
//!    that fans jobs out over threads and returns results in job order;
//! 3. [`render_view`] — the front door: renders one view honoring
//!    [`RenderConfig::parallelism`] / [`RenderConfig::tile_size`].
//!
//! [`render_view_serial`] is the single-threaded row-major reference the
//! parallel engine is tested against: for every scene and thread count the
//! engine's image and stats are bitwise-identical to it.

use crate::camera::PinholeCamera;
use crate::composite::{accumulate_weighted, alpha_from_density, RayAccumulator};
use crate::engine::{run_ordered, TileScheduler};
use crate::image::ImageBuffer;
use crate::interp::{interpolate_cell, trilinear_cell, GridFrame, InterpSample, TrilinearCell};
use crate::mlp::{
    encode_direction, DeferredMlp, Mlp, MlpScratch, DEFERRED_INPUT_DIM, MLP_INPUT_DIM,
};
use crate::ray::{Aabb, Ray, UniformSampler};
use crate::source::VoxelSource;
use crate::vec3::Vec3;
use spnerf_voxel::baked::{DIFFUSE_DIM, SPEC_DIM};
use spnerf_voxel::coord::{GridCoord, GridDims};
use spnerf_voxel::mip::OccupancyMip;
use spnerf_voxel::FEATURE_DIM;

/// Ratio between the ray-march extent and the AABB's largest edge.
///
/// `samples_per_ray` uniform samples must span the longest chord a ray can
/// cut through the scene box. For a cube that chord is the space diagonal,
/// `√3 ≈ 1.7321` times the edge length; this factor rounds it up to 1.74 so
/// the spacing `step = edge · 1.74 / samples_per_ray` always covers the
/// diagonal with a small safety margin. The value matches the historical
/// literal bit-for-bit, so renders are unchanged.
pub const RAY_DIAGONAL_FACTOR: f32 = 1.74;

/// Empty-space skipping policy of the ray marcher.
///
/// Skipping is **provably safe**: a sample is skipped only when the
/// occupancy pyramid proves all 8 corners of its interpolation cell are
/// unoccupied — exactly the samples whose interpolated density would be
/// `≤ 0` and contribute nothing. Rendered images are therefore
/// bitwise-identical to [`SkipMode::Off`]; only
/// [`RenderStats::samples_marched`] (and the cycles/DRAM traffic derived
/// from it) drops, mirroring how the paper's pruning removes work without
/// changing output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SkipMode {
    /// March every sample (the historical behaviour, and the default).
    #[default]
    Off,
    /// Skip macro-blocks the source's [`OccupancyMip`] proves empty.
    /// Requires the source to carry a pyramid
    /// ([`crate::source::VoxelSource::occupancy_mip`]); sources without one
    /// render exactly as [`SkipMode::Off`].
    Mip {
        /// Coarsest pyramid level consulted (clamped to the levels built);
        /// `0` degenerates to per-cell checks. Use [`SkipMode::mip`] for
        /// the whole pyramid.
        levels: usize,
    },
}

impl SkipMode {
    /// [`SkipMode::Mip`] using every pyramid level — the sensible default
    /// when skipping is wanted at all.
    pub const fn mip() -> Self {
        SkipMode::Mip { levels: usize::MAX }
    }

    /// Whether this mode skips at all.
    pub const fn is_on(&self) -> bool {
        matches!(self, SkipMode::Mip { .. })
    }
}

/// How samples along a ray turn into radiance.
///
/// [`Shader::PerSample`] is the classical NeRF path: the full color [`Mlp`]
/// runs on every positive-density sample. [`Shader::Deferred`] is the
/// SNeRG-style bake-and-defer path over a pre-baked source (see
/// [`crate::bake::bake`]): the marcher composites the baked diffuse color
/// and accumulates the baked specular feature along the ray, then runs the
/// small [`DeferredMlp`] **once per pixel** in the ray epilogue —
/// collapsing MLP work from `samples_shaded` to `pixels_shaded`
/// evaluations, the workload change [`RayStats::pixels_shaded`] charges
/// through the accelerator model.
///
/// Both variants are pure per-ray computations, so every determinism
/// guarantee (threads, tiles, skip mode) holds for both.
///
/// `&Mlp` converts into [`Shader::PerSample`], so the front doors accept
/// a bare color MLP wherever they accept a shader.
#[derive(Debug, Clone, Copy)]
pub enum Shader<'a> {
    /// Evaluate the full color MLP on every shaded sample.
    PerSample(&'a Mlp),
    /// Composite baked diffuse colors and defer view dependence to one
    /// small per-pixel MLP. The source must carry baked payloads in its
    /// feature channels (diffuse RGB in `0..3`, specular feature in
    /// `3..12`), as produced by [`crate::bake::bake`].
    Deferred(&'a DeferredMlp),
}

impl<'a> From<&'a Mlp> for Shader<'a> {
    fn from(mlp: &'a Mlp) -> Self {
        Shader::PerSample(mlp)
    }
}

/// Rendering parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderConfig {
    /// Uniform samples across the AABB diameter per ray.
    pub samples_per_ray: usize,
    /// Multiplier applied to grid densities before the alpha computation
    /// (grids store normalized densities; this sets shell opacity).
    pub density_scale: f32,
    /// Terminate a ray once transmittance falls below this threshold.
    pub early_stop: f32,
    /// Background color composited behind the volume (Synthetic-NeRF uses
    /// white).
    pub background: Vec3,
    /// Worker threads for tile-parallel rendering: `1` renders serially,
    /// `0` uses every available core. Output is bitwise-identical at any
    /// value.
    pub parallelism: usize,
    /// Square tile side (pixels) used by the tile scheduler. Must be
    /// non-zero.
    pub tile_size: u32,
    /// Empty-space skipping policy. Images are bitwise-identical in every
    /// mode; `Mip` drops [`RenderStats::samples_marched`] on sources that
    /// carry an occupancy pyramid.
    pub skip_mode: SkipMode,
}

impl Default for RenderConfig {
    fn default() -> Self {
        Self {
            samples_per_ray: 128,
            density_scale: 110.0,
            early_stop: 1e-3,
            background: Vec3::ONE,
            parallelism: 1,
            tile_size: 32,
            skip_mode: SkipMode::Off,
        }
    }
}

/// Workload statistics of one rendered view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RenderStats {
    /// Primary rays cast.
    pub rays: usize,
    /// Sample positions marched (each is one SGPU decode: 8 vertex lookups).
    pub samples_marched: usize,
    /// Samples with positive interpolated density (each is one MLP
    /// evaluation on the systolic array).
    pub samples_shaded: usize,
    /// Rays that hit the early-termination threshold.
    pub rays_terminated_early: usize,
    /// Sample positions the occupancy pyramid proved empty and skipped
    /// without decoding (always 0 under [`SkipMode::Off`]). Skipped samples
    /// are charged no GID/MLP work — `samples_marched + samples_skipped`
    /// is invariant across skip modes.
    pub samples_skipped: usize,
    /// Per-pixel deferred-MLP evaluations (one per ray that shaded at
    /// least one sample). Always 0 under [`Shader::PerSample`]; under
    /// [`Shader::Deferred`] this replaces `samples_shaded` as the MLP
    /// workload — the `samples_shaded / pixels_shaded` ratio is the
    /// bake-and-defer MLP-work collapse.
    pub pixels_shaded: usize,
    /// Rays whose radiance was forward-warped from the previous frame of a
    /// trajectory instead of being marched (see
    /// [`crate::temporal`]). Always 0 for single-frame renders and under
    /// [`crate::temporal::ReuseMode::Off`]. Warped rays are charged no
    /// march/decode/MLP work; together with [`RenderStats::rays_remarched`]
    /// they partition [`RenderStats::rays`] on temporal frames.
    pub rays_warped: usize,
    /// Rays of a temporal frame that were marched in full (disoccluded,
    /// depth-edge, or validation rays — plus every ray of a frame rendered
    /// without reusable state). Always 0 for single-frame renders and under
    /// [`crate::temporal::ReuseMode::Off`].
    pub rays_remarched: usize,
}

impl RenderStats {
    /// Average marched samples per ray.
    pub fn avg_marched_per_ray(&self) -> f64 {
        if self.rays == 0 {
            0.0
        } else {
            self.samples_marched as f64 / self.rays as f64
        }
    }

    /// Average shaded (MLP-evaluated) samples per ray.
    pub fn avg_shaded_per_ray(&self) -> f64 {
        if self.rays == 0 {
            0.0
        } else {
            self.samples_shaded as f64 / self.rays as f64
        }
    }

    /// Accumulates another view's statistics.
    pub fn merge(&mut self, other: &RenderStats) {
        self.rays += other.rays;
        self.samples_marched += other.samples_marched;
        self.samples_shaded += other.samples_shaded;
        self.rays_terminated_early += other.rays_terminated_early;
        self.samples_skipped += other.samples_skipped;
        self.pixels_shaded += other.pixels_shaded;
        self.rays_warped += other.rays_warped;
        self.rays_remarched += other.rays_remarched;
    }

    /// Folds one traced ray into the totals. The temporal reuse columns
    /// ([`RenderStats::rays_warped`] / [`RenderStats::rays_remarched`]) are
    /// frame-level bookkeeping, not per-ray properties, so they are left
    /// untouched here — the temporal driver sets them once per frame.
    pub fn record_ray(&mut self, ray: &RayStats) {
        self.rays += 1;
        self.samples_marched += ray.samples_marched;
        self.samples_shaded += ray.samples_shaded;
        self.rays_terminated_early += usize::from(ray.terminated_early);
        self.samples_skipped += ray.samples_skipped;
        self.pixels_shaded += ray.pixels_shaded;
    }
}

impl std::ops::AddAssign<RenderStats> for RenderStats {
    fn add_assign(&mut self, other: RenderStats) {
        self.merge(&other);
    }
}

impl std::ops::AddAssign<&RenderStats> for RenderStats {
    fn add_assign(&mut self, other: &RenderStats) {
        self.merge(other);
    }
}

/// Workload statistics of one traced ray.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RayStats {
    /// Sample positions marched along this ray.
    pub samples_marched: usize,
    /// Samples with positive density (MLP evaluations).
    pub samples_shaded: usize,
    /// Whether the ray hit the early-termination threshold.
    pub terminated_early: bool,
    /// Sample positions skipped by the occupancy pyramid (see
    /// [`RenderStats::samples_skipped`]).
    pub samples_skipped: usize,
    /// Deferred-MLP evaluations on this ray: `1` when
    /// [`Shader::Deferred`] shaded at least one sample, `0` otherwise (and
    /// always `0` under [`Shader::PerSample`]).
    pub pixels_shaded: usize,
}

/// Opaque cross-frame empty-space cache handle.
///
/// Wraps the ray marcher's cached empty macro-block — a claim about
/// the *grid* ("this cell range is provably empty"), not about any
/// particular ray. Seeding the next frame's skipper with it is therefore
/// exactness-preserving for any ray: a seeded skipper skips exactly the
/// samples an unseeded one would also skip (after one pyramid descent),
/// so pixels are bitwise-unchanged and only the descent order of
/// book-keeping differs — and that book-keeping
/// ([`RayStats::samples_skipped`]) is identical too, because cached-range
/// skips and pyramid-descent skips are counted the same way.
///
/// The handle is only valid for the source it was produced from: after a
/// model respecialization it must be dropped (the facade's temporal cache
/// does this), because a stale empty-region claim about a *different* grid
/// would be unsound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkipCache(Option<(GridCoord, GridCoord)>);

impl SkipCache {
    /// The empty handle: seeding with it is exactly the historical
    /// (unseeded) marching path.
    pub const EMPTY: Self = SkipCache(None);

    /// Whether the handle carries a cached empty region.
    pub fn is_hint(&self) -> bool {
        self.0.is_some()
    }
}

/// Everything [`trace_ray`] learns about one primary ray: the composited
/// color, the opacity-weighted mean march depth (world-space distance
/// along the ray; `+∞` for rays that shaded nothing), the per-ray workload
/// statistics, and the final empty-space cache handle for cross-frame
/// carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracedRay {
    /// Composited pixel color.
    pub color: Vec3,
    /// Opacity-weighted mean depth of the shaded samples along the ray,
    /// in world units from the ray origin; `f32::INFINITY` when no sample
    /// shaded (pure background). This is the depth the temporal
    /// forward-warp reprojects radiance at.
    pub depth: f32,
    /// Per-ray workload statistics.
    pub stats: RayStats,
    /// The skipper's final cached empty region, reusable as the seed of a
    /// nearby ray in the next frame (see [`SkipCache`]).
    pub skip_cache: SkipCache,
}

/// Per-view context precomputed once and shared read-only by every ray:
/// the world↔grid frame, the scene AABB, and the march step size.
#[derive(Debug, Clone)]
pub struct RenderFrame {
    grid: GridFrame,
    aabb: Aabb,
    step: f32,
}

impl RenderFrame {
    /// Builds the per-view context for a source of dimensions `dims`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.samples_per_ray` is zero.
    pub fn new(dims: GridDims, aabb: &Aabb, cfg: &RenderConfig) -> Self {
        assert!(cfg.samples_per_ray > 0, "samples_per_ray must be non-zero");
        let step = aabb.size().max_component() * RAY_DIAGONAL_FACTOR / cfg.samples_per_ray as f32;
        Self { grid: GridFrame::new(dims, aabb.min, aabb.max), aabb: *aabb, step }
    }

    /// The world↔grid coordinate frame.
    pub fn grid(&self) -> &GridFrame {
        &self.grid
    }

    /// The scene bounding box rays are clipped against.
    pub fn aabb(&self) -> &Aabb {
        &self.aabb
    }

    /// The uniform inter-sample distance along each ray.
    pub fn step(&self) -> f32 {
        self.step
    }
}

/// Per-ray empty-space skipper: the DDA-style coarse traversal state over a
/// source's [`OccupancyMip`].
///
/// Each admitted sample re-derives its interpolation cell with the exact
/// arithmetic `interpolate` uses, so a skip decision is an *integer*
/// statement about that cell's 8 corners — never a float extrapolation
/// along the ray. That is what makes skipping provably pixel-exact: every
/// skipped sample would have interpolated to density `≤ 0` and hit the
/// `continue` branch anyway.
struct EmptySkipper<'a> {
    mip: &'a OccupancyMip,
    max_level: usize,
    /// Conservative grid-space occupied box (the mip's occupied AABB
    /// dilated by the cell + boundary-clamp reach of 1.5 vertices);
    /// positions outside cannot contribute. `None` when the grid is
    /// entirely empty.
    clip: Option<(Vec3, Vec3)>,
    /// Inclusive cell-base range of the last empty macro-block found —
    /// successive samples inside it skip on three integer range checks,
    /// without re-descending the pyramid.
    cached: Option<(GridCoord, GridCoord)>,
}

impl<'a> EmptySkipper<'a> {
    /// A skipper whose empty-region cache is pre-seeded from a previous
    /// frame ([`SkipCache::EMPTY`] is the unseeded march).
    fn new(mip: &'a OccupancyMip, max_level: usize, seed: SkipCache) -> Self {
        // Dilation bound: a contributing sample has a cell corner on an
        // occupied vertex, so its base ∈ [lo−1, hi] and its (unclamped)
        // grid position ∈ [lo−1.5, hi+1.5] per axis (trilinear_cell admits
        // positions up to 0.5 outside the cell lattice). Small-integer ±1.5
        // arithmetic is exact in f32, so the containment test below never
        // rounds a contributing sample out.
        let clip = mip.occupied_bounds().map(|(lo, hi)| {
            (
                Vec3::new(lo.x as f32, lo.y as f32, lo.z as f32) - Vec3::splat(1.5),
                Vec3::new(hi.x as f32, hi.y as f32, hi.z as f32) + Vec3::splat(1.5),
            )
        });
        Self { mip, max_level, clip, cached: seed.0 }
    }

    /// Decides one sample at continuous grid position `g`: `Some(cell)`
    /// when it must be marched, `None` when it is provably empty.
    fn admit(&mut self, dims: GridDims, g: Vec3) -> Option<TrilinearCell> {
        // Ray-interval clipping against the occupied AABB: outside the
        // dilated box no cell corner can reach an occupied vertex.
        match self.clip {
            None => return None,
            Some((lo, hi)) => {
                if g.x < lo.x || g.y < lo.y || g.z < lo.z {
                    return None;
                }
                if g.x > hi.x || g.y > hi.y || g.z > hi.z {
                    return None;
                }
            }
        }
        // Outside the grid the interpolated sample is empty by definition.
        let cell = trilinear_cell(dims, g)?;
        let b = cell.base;
        if let Some((lo, hi)) = self.cached {
            if (lo.x..=hi.x).contains(&b.x)
                && (lo.y..=hi.y).contains(&b.y)
                && (lo.z..=hi.z).contains(&b.z)
            {
                return None;
            }
        }
        if let Some(region) = self.mip.empty_region(b, self.max_level) {
            self.cached = Some(region);
            return None;
        }
        Some(cell)
    }
}

/// Traces one primary ray: march the AABB, decode and interpolate each
/// sample, shade positive-density samples, and composite — the one per-ray
/// kernel behind still frames, the serial oracle, and the temporal warp
/// pass.
///
/// Pure in its inputs — no shared mutable state — which is what lets the
/// tile engine run it from many threads with bitwise-reproducible output.
/// `scratch` only lends the MLP its hidden-activation buffers, which every
/// evaluation fully overwrites.
///
/// * [`Shader::PerSample`] runs the color MLP on every shaded sample.
///   [`Shader::Deferred`] composites baked diffuse color, accumulates the
///   baked specular feature, and pays one [`DeferredMlp`] evaluation in the
///   epilogue ([`RayStats::pixels_shaded`]).
/// * Under [`SkipMode::Mip`] (and a source carrying an occupancy pyramid)
///   samples in provably-empty macro-blocks are skipped: they are counted
///   in [`RayStats::samples_skipped`] instead of
///   [`RayStats::samples_marched`], and the color is bitwise-identical to
///   [`SkipMode::Off`].
/// * `seed` pre-loads the skipper with an empty region carried from a
///   previous frame ([`SkipCache::EMPTY`] for none). A seed only changes
///   *how* a provably-empty sample is proven empty (cached range vs
///   pyramid descent), never whether it is skipped, so color and stats are
///   bitwise-identical for every seed.
/// * The depth is a pure side accumulation next to the color, so tracking
///   it never changes a composited pixel.
pub fn trace_ray<S: VoxelSource + ?Sized>(
    source: &S,
    shader: Shader<'_>,
    frame: &RenderFrame,
    ray: Ray,
    cfg: &RenderConfig,
    scratch: &mut MlpScratch,
    seed: SkipCache,
) -> TracedRay {
    let dims = source.dims();
    // The MLP input carries the view-direction encoding pre-written;
    // features are overwritten per shaded sample.
    let mut input = [0.0f32; MLP_INPUT_DIM];
    input[FEATURE_DIM..].copy_from_slice(&encode_direction(ray.dir));
    let mut skipper = match cfg.skip_mode {
        SkipMode::Off => None,
        SkipMode::Mip { levels } => {
            source.occupancy_mip().map(|mip| EmptySkipper::new(mip, levels, seed))
        }
    };
    let mut acc = RayAccumulator::new();
    let mut stats = RayStats::default();
    // Alpha-weighted specular feature (the deferred analogue of the color
    // accumulator; all zeros under `PerSample`) and `Σ T·α·t`, the
    // numerator of the reported depth.
    let mut spec = [0.0f32; SPEC_DIM];
    let mut depth = 0.0f32;
    for (t, pos) in UniformSampler::new(ray, &frame.aabb, frame.step) {
        let g = frame.grid.world_to_grid(pos);
        let cell = match &mut skipper {
            Some(skipper) => match skipper.admit(dims, g) {
                Some(cell) => Some(cell),
                None => {
                    stats.samples_skipped += 1;
                    continue;
                }
            },
            None => trilinear_cell(dims, g),
        };
        stats.samples_marched += 1;
        let sample = match cell {
            Some(cell) => interpolate_cell(source, &cell),
            None => InterpSample::empty(),
        };
        if sample.density <= 0.0 {
            continue;
        }
        stats.samples_shaded += 1;
        let alpha = alpha_from_density(sample.density * cfg.density_scale, frame.step);
        // The front-to-back weight `T·α` the color accumulator applies,
        // captured *before* `add_sample` updates the transmittance.
        let w = acc.transmittance() * alpha.clamp(0.0, 1.0);
        depth += w * t;
        match shader {
            Shader::PerSample(mlp) => {
                input[..FEATURE_DIM].copy_from_slice(&sample.features);
                let rgb = mlp.forward_with(&input, scratch);
                acc.add_sample(alpha, Vec3::new(rgb[0], rgb[1], rgb[2]));
            }
            Shader::Deferred(_) => {
                // No per-sample MLP: the baked payload already carries the
                // diffuse color (channels 0..3) and the specular feature
                // (channels 3..12).
                accumulate_weighted(&mut spec, &sample.features[DIFFUSE_DIM..], w);
                let diffuse = Vec3::new(sample.features[0], sample.features[1], sample.features[2]);
                acc.add_sample(alpha, diffuse);
            }
        }
        if acc.is_opaque(cfg.early_stop) {
            stats.terminated_early = true;
            break;
        }
    }

    let mut color = acc.finalize(cfg.background);
    if let Shader::Deferred(deferred) = shader {
        if stats.samples_shaded > 0 {
            // The one deferred-MLP evaluation this pixel pays: view
            // dependence from the accumulated specular feature and the
            // ray's (pre-encoded) view direction, scaled by the ray's
            // opacity so empty pixels stay pure background.
            stats.pixels_shaded += 1;
            let mut deferred_input = [0.0f32; DEFERRED_INPUT_DIM];
            deferred_input[..SPEC_DIM].copy_from_slice(&spec);
            deferred_input[SPEC_DIM..].copy_from_slice(&input[FEATURE_DIM..]);
            let rgb = deferred.forward(&deferred_input);
            color = color + Vec3::new(rgb[0], rgb[1], rgb[2]) * acc.opacity();
        }
    }
    // Normalizing by the accumulated opacity makes the depth a mean over
    // the shaded samples (shaded ⇒ α > 0 ⇒ opacity > 0); rays that shaded
    // nothing have no surface and report +∞.
    let depth = if stats.samples_shaded > 0 { depth / acc.opacity() } else { f32::INFINITY };
    TracedRay { color, depth, stats, skip_cache: SkipCache(skipper.and_then(|s| s.cached)) }
}

/// Renders one view of `source` through `camera`, returning the image and
/// the workload statistics.
///
/// `shader` is a [`Shader`] or a bare `&Mlp` (per-sample shading). The
/// view is cut into [`RenderConfig::tile_size`] tiles that the engine's
/// ordered worker pool traces on [`RenderConfig::parallelism`] threads;
/// tiles are merged back in tile order, so the image and stats are
/// bitwise-identical to [`render_view_serial`] at any thread count and
/// tile size.
///
/// # Panics
///
/// Panics if `cfg.samples_per_ray` or `cfg.tile_size` is zero, or if a
/// worker thread panics.
pub fn render_view<'a, S: VoxelSource + Sync>(
    source: &S,
    shader: impl Into<Shader<'a>>,
    camera: &PinholeCamera,
    aabb: &Aabb,
    cfg: &RenderConfig,
) -> (ImageBuffer, RenderStats) {
    let shader = shader.into();
    let sched = TileScheduler::new(camera.width, camera.height, cfg.tile_size);
    let frame = RenderFrame::new(source.dims(), aabb, cfg);
    let tiles = run_ordered(cfg.parallelism, sched.tile_count(), |i| {
        // One MLP scratch per tile, shared by the tile's rays.
        let mut scratch = MlpScratch::new();
        let mut stats = RenderStats::default();
        let colors: Vec<Vec3> = sched
            .tile(i)
            .pixels()
            .map(|(px, py)| {
                let ray = camera.ray_for_pixel(px, py);
                let traced =
                    trace_ray(source, shader, &frame, ray, cfg, &mut scratch, SkipCache::EMPTY);
                stats.record_ray(&traced.stats);
                traced.color
            })
            .collect();
        (colors, stats)
    });
    let mut img = ImageBuffer::new(camera.width, camera.height);
    let mut stats = RenderStats::default();
    for (tile, (colors, tile_stats)) in sched.tiles().zip(tiles) {
        for ((px, py), color) in tile.pixels().zip(colors) {
            img.set(px, py, color);
        }
        stats += tile_stats;
    }
    (img, stats)
}

/// The single-threaded row-major reference renderer.
///
/// This is the determinism oracle: [`render_view`]'s output must equal it
/// bitwise. It ignores `cfg.parallelism` / `cfg.tile_size` (rays march one
/// at a time in row-major order) and does not require `Sync`, so it also
/// serves trait-object sources.
///
/// # Panics
///
/// Panics if `cfg.samples_per_ray` is zero.
pub fn render_view_serial<'a, S: VoxelSource + ?Sized>(
    source: &S,
    shader: impl Into<Shader<'a>>,
    camera: &PinholeCamera,
    aabb: &Aabb,
    cfg: &RenderConfig,
) -> (ImageBuffer, RenderStats) {
    let shader = shader.into();
    let frame = RenderFrame::new(source.dims(), aabb, cfg);
    let mut stats = RenderStats::default();
    let mut img = ImageBuffer::new(camera.width, camera.height);
    let mut scratch = MlpScratch::new();
    for py in 0..camera.height {
        for px in 0..camera.width {
            let ray = camera.ray_for_pixel(px, py);
            let traced =
                trace_ray(source, shader, &frame, ray, cfg, &mut scratch, SkipCache::EMPTY);
            stats.record_ray(&traced.stats);
            img.set(px, py, traced.color);
        }
    }
    (img, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{build_grid, default_camera, scene_aabb, SceneId};
    use spnerf_voxel::coord::GridDims;
    use spnerf_voxel::grid::DenseGrid;

    fn tiny_cfg() -> RenderConfig {
        RenderConfig { samples_per_ray: 48, ..Default::default() }
    }

    #[test]
    fn empty_grid_renders_background() {
        let grid = DenseGrid::zeros(GridDims::cube(16));
        let mlp = Mlp::random(0);
        let cam = default_camera(8, 8, 0, 4);
        let (img, stats) = render_view(&grid, &mlp, &cam, &scene_aabb(), &tiny_cfg());
        for p in img.pixels() {
            assert_eq!(*p, Vec3::ONE);
        }
        assert_eq!(stats.samples_shaded, 0);
        assert!(stats.samples_marched > 0);
    }

    #[test]
    fn scene_renders_something_not_background() {
        let grid = build_grid(SceneId::Lego, 32);
        let mlp = Mlp::random(0);
        let cam = default_camera(16, 16, 0, 4);
        let (img, stats) = render_view(&grid, &mlp, &cam, &scene_aabb(), &tiny_cfg());
        assert!(stats.samples_shaded > 0, "object must be hit");
        let non_bg = img.pixels().iter().filter(|p| (**p - Vec3::ONE).length() > 0.05).count();
        assert!(non_bg > 10, "object should cover some pixels, got {non_bg}");
    }

    #[test]
    fn deterministic_render() {
        let grid = build_grid(SceneId::Mic, 24);
        let mlp = Mlp::random(1);
        let cam = default_camera(8, 8, 1, 4);
        let (a, _) = render_view(&grid, &mlp, &cam, &scene_aabb(), &tiny_cfg());
        let (b, _) = render_view(&grid, &mlp, &cam, &scene_aabb(), &tiny_cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_matches_serial_reference() {
        let grid = build_grid(SceneId::Lego, 28);
        let mlp = Mlp::random(0);
        let cam = default_camera(13, 11, 0, 4);
        let serial = render_view_serial(&grid, &mlp, &cam, &scene_aabb(), &tiny_cfg());
        for threads in [1, 2, 3, 8] {
            let cfg = RenderConfig { parallelism: threads, tile_size: 5, ..tiny_cfg() };
            let parallel = render_view(&grid, &mlp, &cam, &scene_aabb(), &cfg);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn stats_relationships_hold() {
        let grid = build_grid(SceneId::Chair, 28);
        let mlp = Mlp::random(0);
        let cam = default_camera(12, 12, 2, 4);
        let (_, stats) = render_view(&grid, &mlp, &cam, &scene_aabb(), &tiny_cfg());
        assert_eq!(stats.rays, 144);
        assert!(stats.samples_shaded <= stats.samples_marched);
        assert!(stats.rays_terminated_early <= stats.rays);
        assert!(stats.avg_marched_per_ray() > 1.0);
    }

    #[test]
    fn more_samples_increase_march_count() {
        let grid = build_grid(SceneId::Drums, 24);
        let mlp = Mlp::random(0);
        let cam = default_camera(6, 6, 0, 4);
        let lo = RenderConfig { samples_per_ray: 16, ..Default::default() };
        let hi = RenderConfig { samples_per_ray: 64, ..Default::default() };
        let (_, s_lo) = render_view(&grid, &mlp, &cam, &scene_aabb(), &lo);
        let (_, s_hi) = render_view(&grid, &mlp, &cam, &scene_aabb(), &hi);
        assert!(s_hi.samples_marched > 2 * s_lo.samples_marched);
    }

    #[test]
    fn early_stop_reduces_shading() {
        let grid = build_grid(SceneId::Hotdog, 28);
        let mlp = Mlp::random(0);
        let cam = default_camera(10, 10, 0, 4);
        let eager = RenderConfig { early_stop: 0.5, ..tiny_cfg() };
        let never = RenderConfig { early_stop: 0.0, ..tiny_cfg() };
        let (_, s_eager) = render_view(&grid, &mlp, &cam, &scene_aabb(), &eager);
        let (_, s_never) = render_view(&grid, &mlp, &cam, &scene_aabb(), &never);
        assert!(s_eager.samples_shaded <= s_never.samples_shaded);
        assert!(s_eager.rays_terminated_early > 0);
        assert_eq!(s_never.rays_terminated_early, 0);
    }

    #[test]
    fn diagonal_factor_covers_cube_diagonal() {
        // The named constant must clear √3 (the cube space diagonal) while
        // keeping the historical literal's exact value.
        assert!(RAY_DIAGONAL_FACTOR > 3.0f32.sqrt());
        assert_eq!(RAY_DIAGONAL_FACTOR, 1.74);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = RenderStats {
            rays: 1,
            samples_marched: 2,
            samples_shaded: 3,
            rays_terminated_early: 0,
            samples_skipped: 4,
            pixels_shaded: 1,
            rays_warped: 2,
            rays_remarched: 3,
        };
        let b = RenderStats {
            rays: 10,
            samples_marched: 20,
            samples_shaded: 30,
            rays_terminated_early: 5,
            samples_skipped: 40,
            pixels_shaded: 6,
            rays_warped: 7,
            rays_remarched: 8,
        };
        a.merge(&b);
        assert_eq!(a.rays, 11);
        assert_eq!(a.samples_marched, 22);
        assert_eq!(a.samples_shaded, 33);
        assert_eq!(a.rays_terminated_early, 5);
        assert_eq!(a.samples_skipped, 44);
        assert_eq!(a.pixels_shaded, 7);
        assert_eq!(a.rays_warped, 9);
        assert_eq!(a.rays_remarched, 11);
    }

    #[test]
    fn add_assign_matches_merge() {
        let b = RenderStats {
            rays: 4,
            samples_marched: 40,
            samples_shaded: 14,
            rays_terminated_early: 2,
            samples_skipped: 6,
            pixels_shaded: 3,
            rays_warped: 1,
            rays_remarched: 2,
        };
        let mut via_merge = RenderStats::default();
        via_merge.merge(&b);
        let mut by_value = RenderStats::default();
        by_value += b;
        let mut by_ref = RenderStats::default();
        by_ref += &b;
        assert_eq!(by_value, via_merge);
        assert_eq!(by_ref, via_merge);
    }

    #[test]
    fn record_ray_accumulates() {
        let mut s = RenderStats::default();
        s.record_ray(&RayStats {
            samples_marched: 7,
            samples_shaded: 3,
            terminated_early: true,
            samples_skipped: 2,
            pixels_shaded: 1,
        });
        s.record_ray(&RayStats {
            samples_marched: 5,
            samples_shaded: 0,
            terminated_early: false,
            samples_skipped: 1,
            pixels_shaded: 0,
        });
        assert_eq!(s.rays, 2);
        assert_eq!(s.samples_marched, 12);
        assert_eq!(s.samples_shaded, 3);
        assert_eq!(s.rays_terminated_early, 1);
        assert_eq!(s.samples_skipped, 3);
        assert_eq!(s.pixels_shaded, 1);
    }

    #[test]
    fn avg_marched_per_ray_divides_by_rays() {
        let s =
            RenderStats { rays: 4, samples_marched: 10, samples_shaded: 6, ..Default::default() };
        assert_eq!(s.avg_marched_per_ray(), 2.5);
        assert_eq!(s.avg_shaded_per_ray(), 1.5);
    }

    #[test]
    fn avg_with_zero_rays_is_zero() {
        let s = RenderStats::default();
        assert_eq!(s.avg_marched_per_ray(), 0.0);
        assert_eq!(s.avg_shaded_per_ray(), 0.0);
    }

    #[test]
    fn skip_mode_is_pixel_exact_and_drops_marched_samples() {
        use crate::source::WithOccupancy;
        for id in [SceneId::Lego, SceneId::Mic] {
            let grid = build_grid(id, 28);
            let mlp = Mlp::random(0);
            let cam = default_camera(12, 12, 0, 4);
            let off = render_view(&grid, &mlp, &cam, &scene_aabb(), &tiny_cfg());
            let skippable = WithOccupancy::build(&grid);
            let cfg = RenderConfig { skip_mode: SkipMode::mip(), ..tiny_cfg() };
            let on = render_view(&skippable, &mlp, &cam, &scene_aabb(), &cfg);
            assert_eq!(on.0, off.0, "{id:?}: images must be bitwise-identical");
            assert_eq!(on.1.samples_shaded, off.1.samples_shaded);
            assert_eq!(on.1.rays_terminated_early, off.1.rays_terminated_early);
            assert!(
                on.1.samples_marched < off.1.samples_marched,
                "{id:?}: skipping must remove marched samples"
            );
            assert_eq!(
                on.1.samples_marched + on.1.samples_skipped,
                off.1.samples_marched + off.1.samples_skipped,
                "{id:?}: marched + skipped is invariant"
            );
            assert_eq!(off.1.samples_skipped, 0, "Off never skips");
        }
    }

    #[test]
    fn skip_levels_zero_still_exact() {
        use crate::source::WithOccupancy;
        let grid = build_grid(SceneId::Drums, 24);
        let mlp = Mlp::random(1);
        let cam = default_camera(9, 9, 2, 4);
        let off = render_view(&grid, &mlp, &cam, &scene_aabb(), &tiny_cfg());
        let skippable = WithOccupancy::build(&grid);
        let cfg = RenderConfig { skip_mode: SkipMode::Mip { levels: 0 }, ..tiny_cfg() };
        let on = render_view(&skippable, &mlp, &cam, &scene_aabb(), &cfg);
        assert_eq!(on.0, off.0, "fine-level-only skipping stays exact");
        assert!(on.1.samples_skipped > 0);
    }

    #[test]
    fn skip_without_a_pyramid_is_off() {
        let grid = build_grid(SceneId::Chair, 24);
        let mlp = Mlp::random(0);
        let cam = default_camera(8, 8, 0, 4);
        let cfg = RenderConfig { skip_mode: SkipMode::mip(), ..tiny_cfg() };
        let on = render_view(&grid, &mlp, &cam, &scene_aabb(), &cfg);
        let off = render_view(&grid, &mlp, &cam, &scene_aabb(), &tiny_cfg());
        assert_eq!(on, off, "a bare source has no pyramid, so nothing skips");
        assert_eq!(on.1.samples_skipped, 0);
    }

    #[test]
    fn empty_scene_skips_every_sample() {
        use crate::source::WithOccupancy;
        let grid = DenseGrid::zeros(GridDims::cube(16));
        let mlp = Mlp::random(0);
        let cam = default_camera(8, 8, 0, 4);
        let skippable = WithOccupancy::build(&grid);
        let cfg = RenderConfig { skip_mode: SkipMode::mip(), ..tiny_cfg() };
        let (img, stats) = render_view(&skippable, &mlp, &cam, &scene_aabb(), &cfg);
        for p in img.pixels() {
            assert_eq!(*p, Vec3::ONE);
        }
        assert_eq!(stats.samples_marched, 0, "an empty grid needs no decodes at all");
        assert!(stats.samples_skipped > 0);
    }

    #[test]
    fn traced_ray_matches_shaded_and_reports_depth() {
        let grid = build_grid(SceneId::Lego, 28);
        let mlp = Mlp::random(0);
        let cam = default_camera(10, 10, 0, 4);
        let cfg = tiny_cfg();
        let (img, view_stats) = render_view_serial(&grid, &mlp, &cam, &scene_aabb(), &cfg);
        let frame = RenderFrame::new(grid.dims(), &scene_aabb(), &cfg);
        let mut scratch = MlpScratch::new();
        let mut stats = RenderStats::default();
        let mut hits = 0;
        for py in 0..10 {
            for px in 0..10 {
                let ray = cam.ray_for_pixel(px, py);
                let traced = trace_ray(
                    &grid,
                    (&mlp).into(),
                    &frame,
                    ray,
                    &cfg,
                    &mut scratch,
                    SkipCache::EMPTY,
                );
                assert_eq!(traced.color, img.get(px, py), "kernel color must be the view's pixel");
                stats.record_ray(&traced.stats);
                if traced.stats.samples_shaded > 0 {
                    hits += 1;
                    // Depth sits inside the march range of the 2.8-radius orbit
                    // camera over the [-1, 1]³ box.
                    assert!(
                        traced.depth > 0.5 && traced.depth < 6.0,
                        "depth {} out of range at ({px},{py})",
                        traced.depth
                    );
                } else {
                    assert!(traced.depth.is_infinite(), "background rays have no depth");
                }
            }
        }
        assert_eq!(stats, view_stats, "per-ray stats must sum to the view's");
        assert!(hits > 0, "object must be hit");
    }

    #[test]
    fn skip_cache_seed_is_exactness_preserving() {
        use crate::source::WithOccupancy;
        let grid = build_grid(SceneId::Mic, 28);
        let mlp = Mlp::random(1);
        let cam = default_camera(12, 12, 1, 4);
        let cfg = RenderConfig { skip_mode: SkipMode::mip(), ..tiny_cfg() };
        let skippable = WithOccupancy::build(&grid);
        let frame = RenderFrame::new(skippable.dims(), &scene_aabb(), &cfg);
        let mut scratch = MlpScratch::new();
        let shader = Shader::PerSample(&mlp);
        // March column-adjacent rays, seeding each from its upper neighbor
        // (the temporal carry pattern): colors, stats, and the final cache
        // must match the unseeded march bit for bit.
        let mut carried = 0;
        for px in 0..12 {
            let mut seed = SkipCache::EMPTY;
            for py in 0..12 {
                let ray = cam.ray_for_pixel(px, py);
                let fresh = trace_ray(
                    &skippable,
                    shader,
                    &frame,
                    ray,
                    &cfg,
                    &mut scratch,
                    SkipCache::EMPTY,
                );
                let seeded = trace_ray(&skippable, shader, &frame, ray, &cfg, &mut scratch, seed);
                assert_eq!(seeded.color, fresh.color, "seed must never change a pixel");
                assert_eq!(seeded.stats, fresh.stats, "seed must never change the accounting");
                assert_eq!(seeded.depth.to_bits(), fresh.depth.to_bits());
                if seed.is_hint() {
                    carried += 1;
                }
                seed = seeded.skip_cache;
            }
        }
        assert!(carried > 0, "the cache must actually carry between rays");
    }

    #[test]
    fn deferred_collapses_mlp_work_to_pixels() {
        use crate::bake::bake;
        use crate::mlp::DeferredMlp;
        let grid = build_grid(SceneId::Lego, 28);
        let baked = bake(&grid, &Mlp::random(0));
        let deferred = DeferredMlp::random(0);
        let cam = default_camera(12, 12, 0, 4);
        let (img, stats) =
            render_view(&baked, Shader::Deferred(&deferred), &cam, &scene_aabb(), &tiny_cfg());
        assert!(stats.pixels_shaded > 0, "object must be hit");
        assert!(stats.pixels_shaded <= stats.rays, "at most one deferred eval per ray");
        assert!(
            stats.samples_shaded > stats.pixels_shaded,
            "deferred work ({}) must be below per-sample work ({})",
            stats.pixels_shaded,
            stats.samples_shaded
        );
        // Every ray that shaded nothing stays pure background.
        let non_bg = img.pixels().iter().filter(|p| **p != Vec3::ONE).count();
        assert_eq!(non_bg, stats.pixels_shaded, "exactly the shaded pixels deviate");
        // Marching workload is identical to per-sample rendering of the
        // same baked grid: density (and therefore support) is copied
        // verbatim by the bake.
        let per_sample = render_view(&baked, &Mlp::random(0), &cam, &scene_aabb(), &tiny_cfg());
        assert_eq!(stats.samples_marched, per_sample.1.samples_marched);
        assert_eq!(stats.samples_shaded, per_sample.1.samples_shaded);
        assert_eq!(per_sample.1.pixels_shaded, 0, "no deferred evaluations in per-sample mode");
    }

    #[test]
    fn deferred_parallel_matches_serial_reference() {
        use crate::bake::bake;
        use crate::mlp::DeferredMlp;
        let grid = build_grid(SceneId::Mic, 24);
        let baked = bake(&grid, &Mlp::random(1));
        let deferred = DeferredMlp::random(1);
        let cam = default_camera(13, 11, 1, 4);
        let shader = Shader::Deferred(&deferred);
        let serial = render_view_serial(&baked, shader, &cam, &scene_aabb(), &tiny_cfg());
        for threads in [2usize, 3, 8] {
            let cfg = RenderConfig { parallelism: threads, tile_size: 5, ..tiny_cfg() };
            let parallel = render_view(&baked, shader, &cam, &scene_aabb(), &cfg);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn deferred_skip_mode_is_pixel_exact() {
        use crate::bake::bake;
        use crate::mlp::DeferredMlp;
        use crate::source::WithOccupancy;
        let grid = build_grid(SceneId::Drums, 24);
        let baked = bake(&grid, &Mlp::random(2));
        let deferred = DeferredMlp::random(2);
        let cam = default_camera(10, 10, 2, 4);
        let shader = Shader::Deferred(&deferred);
        let off = render_view(&baked, shader, &cam, &scene_aabb(), &tiny_cfg());
        let skippable = WithOccupancy::build(&baked);
        let cfg = RenderConfig { skip_mode: SkipMode::mip(), ..tiny_cfg() };
        let on = render_view(&skippable, shader, &cam, &scene_aabb(), &cfg);
        assert_eq!(on.0, off.0, "skipping must not change a deferred pixel");
        assert_eq!(on.1.pixels_shaded, off.1.pixels_shaded);
        assert_eq!(on.1.samples_shaded, off.1.samples_shaded);
        assert!(on.1.samples_marched < off.1.samples_marched);
    }
}
