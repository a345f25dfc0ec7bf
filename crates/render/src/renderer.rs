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
//! 1. [`trace_rays`] — the one pure job kernel: march, decode, shade and
//!    composite a list of bare primary rays against a shared read-only
//!    [`RenderFrame`], returning each ray's color, depth and
//!    [`RenderStats`]. Like the accelerator's MLP Unit (Fig. 4), it shades
//!    in batches: every ray of the job is marched first, then the queued
//!    samples run through [`Mlp::forward_batch`] eight at a time, then each
//!    ray composites its own samples in march order. No state passes
//!    between rays or frames, as the SGPU settles each sample from the
//!    on-chip bitmap alone: a ray reads its source's one emptiness query,
//!    [`VoxelSource::occupancy_mip`], once;
//! 2. [`crate::engine`] — the tile scheduler and the ordered worker pool
//!    that fans jobs out over threads and returns results in job order;
//! 3. [`render_view`] — the front door: renders one view honoring
//!    [`RenderConfig::parallelism`] / [`RenderConfig::tile_size`].
//!
//! [`render_view_serial`] is the single-threaded row-major reference the
//! parallel engine is tested against: it traces the whole view as one job,
//! and for every scene and thread count the engine's image and stats are
//! bitwise-identical to it.

use crate::camera::PinholeCamera;
use crate::composite::{accumulate_weighted, alpha_from_density, RayAccumulator};
use crate::engine::{run_ordered, TileScheduler};
use crate::image::ImageBuffer;
use crate::interp::{gather_blend, locate_cell, CellLocation, GridFrame, InterpSample};
use crate::lanes::LANE_WIDTH;
use crate::mlp::{
    encode_direction, DeferredMlp, Mlp, DEFERRED_INPUT_DIM, MLP_INPUT_DIM, VIEW_ENC_DIM,
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

/// Multiplier applied to grid densities before the alpha computation:
/// grids store normalized densities, and this sets shell opacity.
pub const DENSITY_SCALE: f32 = 110.0;

/// Background color composited behind the volume (Synthetic-NeRF uses
/// white).
pub const BACKGROUND: Vec3 = Vec3::ONE;

/// Empty-space skipping policy of the ray marcher.
///
/// Skipping is **provably safe**: a sample is skipped only when the
/// source's occupancy pyramid (its occupied box or a block) proves all 8
/// corners of its interpolation cell are unoccupied — exactly the samples
/// whose interpolated density would be `≤ 0` and contribute nothing. Rendered
/// images are therefore bitwise-identical to [`SkipMode::Off`]; only
/// [`RenderStats::samples_marched`] (and the cycles/DRAM traffic derived
/// from it) drops, mirroring how the paper's pruning removes work without
/// changing output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SkipMode {
    /// March every sample (the historical behaviour, and the default).
    #[default]
    Off,
    /// Skip macro-blocks the source's [`OccupancyMip`] proves empty,
    /// walking the whole pyramid. Requires the source to carry a pyramid
    /// ([`crate::source::VoxelSource::occupancy_mip`]); sources without one
    /// render exactly as [`SkipMode::Off`].
    Mip,
}

impl SkipMode {
    /// [`SkipMode::Mip`].
    pub const fn mip() -> Self {
        SkipMode::Mip
    }

    /// Whether this mode skips at all.
    pub const fn is_on(&self) -> bool {
        matches!(self, SkipMode::Mip)
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
/// evaluations, the workload change [`RenderStats::pixels_shaded`] charges
/// through the accelerator model.
///
/// Both variants give every ray a result that depends on that ray alone,
/// so every determinism guarantee (threads, tiles, job split, skip mode)
/// holds for both.
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
    /// Terminate a ray once transmittance falls below this threshold.
    pub early_stop: f32,
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
            early_stop: 1e-3,
            parallelism: 1,
            tile_size: 32,
            skip_mode: SkipMode::Off,
        }
    }
}

impl RenderConfig {
    /// Checks the fields the renderer cannot run without.
    ///
    /// [`render_view`] panics on a zero `samples_per_ray` or `tile_size`;
    /// callers that want a recoverable error instead (the `spnerf` pipeline
    /// front door) validate first.
    ///
    /// # Errors
    ///
    /// Returns [`RenderConfigError`] when `samples_per_ray` or `tile_size`
    /// is zero.
    pub fn validate(&self) -> Result<(), RenderConfigError> {
        if self.samples_per_ray == 0 {
            return Err(RenderConfigError::ZeroSamplesPerRay);
        }
        if self.tile_size == 0 {
            return Err(RenderConfigError::ZeroTileSize);
        }
        Ok(())
    }
}

/// An invalid [`RenderConfig`], reported by [`RenderConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenderConfigError {
    /// `samples_per_ray` is zero, so a ray has no march step.
    ZeroSamplesPerRay,
    /// `tile_size` is zero, so the view cannot be cut into tiles.
    ZeroTileSize,
}

impl std::fmt::Display for RenderConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RenderConfigError::ZeroSamplesPerRay => write!(f, "samples_per_ray must be non-zero"),
            RenderConfigError::ZeroTileSize => write!(f, "tile_size must be non-zero"),
        }
    }
}

impl std::error::Error for RenderConfigError {}

/// Workload statistics of one rendered view, or of one traced ray
/// ([`TracedRay::stats`], with `rays` = 1); views and rays alike total
/// with `+=`.
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
    /// Sample positions a skipping ray settled empty without decoding:
    /// outside the source's occupied box, or in a block its occupancy
    /// pyramid proves empty (always 0 under [`SkipMode::Off`]). Skipped
    /// samples are charged no GID/MLP work — `samples_marched +
    /// samples_skipped` is invariant across skip modes.
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

    /// Whether the view was rendered bake-and-defer (the MLP work is per
    /// pixel, not per sample).
    pub fn is_deferred(&self) -> bool {
        self.pixels_shaded > 0
    }

    /// MLP-work collapse factor of a deferred view: per-sample evaluations
    /// avoided per deferred evaluation paid
    /// (`samples_shaded / pixels_shaded`). `0` for per-sample views.
    pub fn mlp_collapse(&self) -> f64 {
        if self.pixels_shaded == 0 {
            0.0
        } else {
            self.samples_shaded as f64 / self.pixels_shaded as f64
        }
    }

    /// Whether the view reused any rays from its predecessor (it is a
    /// warped frame of a temporal trajectory).
    pub fn is_warped(&self) -> bool {
        self.rays_warped > 0
    }

    /// Fraction of rays the warp satisfied without marching (`0.0` for
    /// still frames).
    pub fn warp_fraction(&self) -> f64 {
        self.rays_warped as f64 / self.rays.max(1) as f64
    }
}

/// Accumulates another view's (or ray's) statistics, column by column.
impl std::ops::AddAssign<&RenderStats> for RenderStats {
    fn add_assign(&mut self, other: &RenderStats) {
        self.rays += other.rays;
        self.samples_marched += other.samples_marched;
        self.samples_shaded += other.samples_shaded;
        self.rays_terminated_early += other.rays_terminated_early;
        self.samples_skipped += other.samples_skipped;
        self.pixels_shaded += other.pixels_shaded;
        self.rays_warped += other.rays_warped;
        self.rays_remarched += other.rays_remarched;
    }
}

impl std::ops::AddAssign<RenderStats> for RenderStats {
    fn add_assign(&mut self, other: RenderStats) {
        *self += &other;
    }
}

/// Everything [`trace_rays`] learns about one primary ray: the composited
/// color, the opacity-weighted mean march depth (world-space distance
/// along the ray; `+∞` for rays with no opacity) and the ray's workload
/// statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracedRay {
    /// Composited pixel color.
    pub color: Vec3,
    /// Opacity-weighted mean depth of the shaded samples along the ray,
    /// in world units from the ray origin; `f32::INFINITY` when the ray
    /// gathered no opacity — no sample shaded (pure background), or every
    /// shaded sample's alpha rounded to 0. This is the depth the temporal
    /// forward-warp reprojects radiance at.
    pub depth: f32,
    /// The ray's workload statistics: `rays` is 1,
    /// `rays_terminated_early` and `pixels_shaded` are 0 or 1, and the
    /// temporal columns are 0 ([`crate::temporal::advance_frame`] sets
    /// those per frame).
    pub stats: RenderStats,
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

/// The grid-space box one ray clips its samples against: its pyramid's
/// [`OccupancyMip::occupied_bounds`] dilated by 1.5 vertices per axis, or
/// all of space when the source knows no box.
///
/// Dilation bound: a contributing sample has a cell corner on an occupied
/// vertex, so its base ∈ [lo−1, hi] and its (unclamped) grid position ∈
/// [lo−1.5, hi+1.5] per axis ([`locate_cell`] admits positions up to 0.5
/// outside the cell lattice). Small-integer ±1.5 arithmetic is exact in
/// f32, so the test never rounds a contributing sample out.
struct Clip {
    lo: Vec3,
    hi: Vec3,
}

impl Clip {
    fn of(mip: Option<&OccupancyMip>) -> Self {
        match mip.and_then(OccupancyMip::occupied_bounds) {
            Some((lo, hi)) => Self {
                lo: Vec3::new(lo.x as f32, lo.y as f32, lo.z as f32) - Vec3::splat(1.5),
                hi: Vec3::new(hi.x as f32, hi.y as f32, hi.z as f32) + Vec3::splat(1.5),
            },
            None => Self { lo: Vec3::splat(f32::NEG_INFINITY), hi: Vec3::splat(f32::INFINITY) },
        }
    }

    /// Whether grid position `g` lies outside the box, where no cell
    /// corner can reach an occupied vertex. Written as `<`/`>` so that a
    /// NaN coordinate is never excluded: it goes on to [`locate_cell`], as
    /// it would without a box.
    #[inline]
    fn excludes(&self, g: Vec3) -> bool {
        (g.x < self.lo.x)
            | (g.y < self.lo.y)
            | (g.z < self.lo.z)
            | (g.x > self.hi.x)
            | (g.y > self.hi.y)
            | (g.z > self.hi.z)
    }
}

/// Per-ray empty-space skipper: the DDA-style coarse traversal state over a
/// source's [`OccupancyMip`].
///
/// Each sample is located in its interpolation cell with the exact
/// arithmetic `interpolate` uses ([`locate_cell`]), so a skip decision is
/// an *integer* statement about that cell's 8 corners — never a float
/// extrapolation along the ray. That is what makes skipping provably
/// pixel-exact: every skipped sample would have interpolated to density
/// `≤ 0` and hit the `continue` branch anyway. The ray's [`Clip`] has
/// already settled every sample outside the occupied box; on an empty
/// pyramid (no box) the top block is unset, so every in-grid sample skips
/// here.
struct EmptySkipper<'a> {
    mip: &'a OccupancyMip,
    /// Inclusive cell-base range of the last empty macro-block found —
    /// successive samples inside it skip on three integer range checks,
    /// without re-descending the pyramid.
    cached: Option<(GridCoord, GridCoord)>,
}

impl EmptySkipper<'_> {
    /// Decides one sample at continuous grid position `g`: its located cell
    /// when it must be marched, `None` when it is provably empty. Only the
    /// base decides, so a skipped sample never pays for its weights.
    fn admit(&mut self, dims: GridDims, g: Vec3) -> Option<CellLocation> {
        // Outside the grid the interpolated sample is empty by definition.
        let at = locate_cell(dims, g)?;
        let b = at.base;
        if let Some((lo, hi)) = self.cached {
            if (lo.x..=hi.x).contains(&b.x)
                && (lo.y..=hi.y).contains(&b.y)
                && (lo.z..=hi.z).contains(&b.z)
            {
                return None;
            }
        }
        if let Some(region) = self.mip.empty_region(b) {
            self.cached = Some(region);
            return None;
        }
        Some(at)
    }
}

/// What the march phase settles about one ray before any color exists.
struct Marched {
    /// Under [`Shader::Deferred`] the composited diffuse color and the
    /// transmittance; under [`Shader::PerSample`] the transmittance only
    /// ([`RayAccumulator::attenuate`]).
    acc: RayAccumulator,
    stats: RenderStats,
    /// `Σ T·α·t` over the shaded samples, the numerator of the depth.
    depth_sum: f32,
}

impl Marched {
    /// The ray's result with its composited `color`. The depth is the
    /// opacity-weighted mean over the shaded samples; a ray that gathered
    /// no opacity has no surface and reports +∞. That covers rays that
    /// shaded nothing, and rays whose every shaded sample had a density
    /// so small that `1 − exp(−σδ)` rounded to an alpha of 0.
    fn finish(self, color: Vec3) -> TracedRay {
        let opacity = self.acc.opacity();
        let depth = if opacity == 0.0 { f32::INFINITY } else { self.depth_sum / opacity };
        TracedRay { color, depth, stats: self.stats }
    }
}

/// The one march loop behind both shaders: walks the ray's samples, skips
/// what the occupancy pyramid proves empty, decodes and interpolates the
/// rest, and hands each positive-density sample to `shade` with its alpha
/// and front-to-back weight `T·α` (taken before the sample updates `T`).
///
/// Each sample is *clipped, located, skipped or probed, then weighed*, as
/// the SGPU's Bitmap Lookup Unit answers before any per-vertex work, all
/// from the source's one pyramid ([`VoxelSource::occupancy_mip`], read once
/// per ray): the ray's [`Clip`] settles a sample outside the pyramid's box
/// with six compares, [`locate_cell`] finds the cell base of the rest, the
/// skipper (under [`SkipMode::Mip`]) or else [`OccupancyMip::cell_empty`]
/// decides from the base alone, and only a surviving cell gets its 8
/// weights and its gather ([`gather_blend`]). A sample settled before the
/// probe counts in [`RenderStats::samples_skipped`] when the ray has a
/// skipper, and in [`RenderStats::samples_marched`] otherwise, as the
/// hardware model marches it.
///
/// `shade` must update the accumulator's transmittance exactly once
/// ([`RayAccumulator::add_sample`] or [`RayAccumulator::attenuate`]). The
/// loop stops the ray once it is opaque, so where a ray stops depends on
/// densities alone, never on color.
fn march_ray<S: VoxelSource + ?Sized>(
    source: &S,
    frame: &RenderFrame,
    ray: Ray,
    cfg: &RenderConfig,
    mut shade: impl FnMut(&mut RayAccumulator, f32, f32, &InterpSample),
) -> Marched {
    let dims = source.dims();
    let mip = source.occupancy_mip();
    let clip = Clip::of(mip);
    let mut skipper = match cfg.skip_mode {
        SkipMode::Off => None,
        SkipMode::Mip => mip.map(|mip| EmptySkipper { mip, cached: None }),
    };
    // The skipper's `empty_region` already ends in the probe.
    let probe = if skipper.is_some() { None } else { mip };
    let mut acc = RayAccumulator::new();
    let mut stats = RenderStats { rays: 1, ..RenderStats::default() };
    let mut depth_sum = 0.0f32;
    for (t, pos) in UniformSampler::new(ray, &frame.aabb, frame.step) {
        let g = frame.grid.world_to_grid(pos);
        let located = if clip.excludes(g) {
            None
        } else {
            match &mut skipper {
                Some(skipper) => skipper.admit(dims, g),
                None => locate_cell(dims, g),
            }
        };
        let Some(at) = located else {
            // The empty sample, settled before any probe.
            if skipper.is_some() {
                stats.samples_skipped += 1;
            } else {
                stats.samples_marched += 1;
            }
            continue;
        };
        stats.samples_marched += 1;
        if probe.is_some_and(|mip| mip.cell_empty(at.base)) {
            continue;
        }
        let sample = gather_blend(source, &at.weigh());
        if sample.density <= 0.0 {
            continue;
        }
        stats.samples_shaded += 1;
        let alpha = alpha_from_density(sample.density * DENSITY_SCALE, frame.step);
        let w = acc.transmittance() * alpha.clamp(0.0, 1.0);
        depth_sum += w * t;
        shade(&mut acc, alpha, w, &sample);
        if acc.is_opaque(cfg.early_stop) {
            stats.rays_terminated_early = 1;
            break;
        }
    }
    Marched { acc, stats, depth_sum }
}

/// Traces one render job — a list of primary rays — and returns one
/// [`TracedRay`] per ray, in order. This is the one kernel behind still
/// tiles, the serial oracle (one whole-view job) and the temporal re-march
/// chunks.
///
/// Every ray's result depends on that ray alone — never on the job it
/// shares or its place in it — which is what lets the engine split a view
/// into any jobs on any threads with bitwise-reproducible output.
///
/// * [`Shader::PerSample`] runs in three phases, the MLP Unit's batched
///   dataflow (Fig. 4):
///   1. march every ray, queueing each shaded sample's alpha and features
///      and updating only the transmittance. Transmittance, early
///      termination, depth and every counter depend on density alone, so
///      each ray stops exactly where a lone ray would;
///   2. shade the queue through [`Mlp::forward_batch`], [`LANE_WIDTH`]
///      samples per pass. Each lane is bitwise the scalar oracle;
///   3. composite each ray's samples in march order.
/// * [`Shader::Deferred`] composites baked diffuse color, accumulates the
///   baked specular feature, and pays one [`DeferredMlp`] evaluation per
///   ray ([`RenderStats::pixels_shaded`]), ray by ray.
/// * Under [`SkipMode::Mip`] (and a source carrying an occupancy pyramid)
///   samples outside the occupied box or in provably-empty macro-blocks
///   are skipped: they are counted in [`RenderStats::samples_skipped`]
///   instead of [`RenderStats::samples_marched`], and the color is
///   bitwise-identical to [`SkipMode::Off`].
/// * The depth is a pure side accumulation next to the color, so tracking
///   it never changes a composited pixel.
pub fn trace_rays<S: VoxelSource + ?Sized>(
    source: &S,
    shader: Shader<'_>,
    frame: &RenderFrame,
    rays: &[Ray],
    cfg: &RenderConfig,
) -> Vec<TracedRay> {
    match shader {
        Shader::PerSample(mlp) => trace_per_sample(source, mlp, frame, rays, cfg),
        Shader::Deferred(deferred) => {
            rays.iter().map(|&ray| trace_deferred(source, deferred, frame, ray, cfg)).collect()
        }
    }
}

/// A shaded sample the march phase queues for the shade phase.
struct Queued {
    /// Index of the ray's view encoding in the job's encoding list.
    view: usize,
    alpha: f32,
    features: [f32; FEATURE_DIM],
}

/// [`trace_rays`] under [`Shader::PerSample`]: march, shade, composite.
fn trace_per_sample<S: VoxelSource + ?Sized>(
    source: &S,
    mlp: &Mlp,
    frame: &RenderFrame,
    rays: &[Ray],
    cfg: &RenderConfig,
) -> Vec<TracedRay> {
    // March: every ray, its shaded samples queued in march order. Only
    // rays that shaded something pay for a view encoding.
    let mut queue: Vec<Queued> = Vec::new();
    let mut views: Vec<[f32; VIEW_ENC_DIM]> = Vec::new();
    let marched: Vec<Marched> = rays
        .iter()
        .map(|&ray| {
            let view = views.len();
            let marched = march_ray(source, frame, ray, cfg, |acc, alpha, _, sample| {
                queue.push(Queued { view, alpha, features: sample.features });
                acc.attenuate(alpha);
            });
            if marched.stats.samples_shaded > 0 {
                views.push(encode_direction(ray.dir));
            }
            marched
        })
        .collect();

    // Shade: one sample per lane. The spare lanes of a short last group
    // still hold an earlier sample's input; their outputs are dropped.
    let mut rgb: Vec<Vec3> = Vec::with_capacity(queue.len());
    let mut batch = [[0.0f32; LANE_WIDTH]; MLP_INPUT_DIM];
    for group in queue.chunks(LANE_WIDTH) {
        for (lane, q) in group.iter().enumerate() {
            let (features, view) = batch.split_at_mut(FEATURE_DIM);
            for (row, f) in features.iter_mut().zip(q.features) {
                row[lane] = f;
            }
            for (row, e) in view.iter_mut().zip(views[q.view]) {
                row[lane] = e;
            }
        }
        let out = mlp.forward_batch(&batch);
        rgb.extend((0..group.len()).map(|l| Vec3::new(out[0][l], out[1][l], out[2][l])));
    }

    // Composite: each ray replays its alphas with their colors, reaching
    // the march phase's transmittance bit for bit.
    let mut next = 0;
    marched
        .into_iter()
        .map(|marched| {
            let shaded = next..next + marched.stats.samples_shaded;
            next = shaded.end;
            let mut acc = RayAccumulator::new();
            for (q, c) in queue[shaded.clone()].iter().zip(&rgb[shaded]) {
                acc.add_sample(q.alpha, *c);
            }
            marched.finish(acc.finalize(BACKGROUND))
        })
        .collect()
}

/// [`trace_rays`] for one ray under [`Shader::Deferred`].
fn trace_deferred<S: VoxelSource + ?Sized>(
    source: &S,
    deferred: &DeferredMlp,
    frame: &RenderFrame,
    ray: Ray,
    cfg: &RenderConfig,
) -> TracedRay {
    // The alpha-weighted specular feature, accumulated next to the color.
    let mut spec = [0.0f32; SPEC_DIM];
    let mut marched = march_ray(source, frame, ray, cfg, |acc, alpha, w, sample| {
        // No per-sample MLP: the baked payload already carries the diffuse
        // color (channels 0..3) and the specular feature (channels 3..12).
        accumulate_weighted(&mut spec, &sample.features[DIFFUSE_DIM..], w);
        let diffuse = Vec3::new(sample.features[0], sample.features[1], sample.features[2]);
        acc.add_sample(alpha, diffuse);
    });
    let mut color = marched.acc.finalize(BACKGROUND);
    if marched.stats.samples_shaded > 0 {
        // The one deferred-MLP evaluation this pixel pays: view dependence
        // from the accumulated specular feature and the ray's view
        // direction, scaled by the ray's opacity so empty pixels stay pure
        // background.
        marched.stats.pixels_shaded += 1;
        let mut input = [0.0f32; DEFERRED_INPUT_DIM];
        input[..SPEC_DIM].copy_from_slice(&spec);
        input[SPEC_DIM..].copy_from_slice(&encode_direction(ray.dir));
        let rgb = deferred.forward(&input);
        color = color + Vec3::new(rgb[0], rgb[1], rgb[2]) * marched.acc.opacity();
    }
    marched.finish(color)
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
        // One job per tile.
        let rays: Vec<Ray> =
            sched.tile(i).pixels().map(|(px, py)| camera.ray_for_pixel(px, py)).collect();
        let mut stats = RenderStats::default();
        let colors: Vec<Vec3> = trace_rays(source, shader, &frame, &rays, cfg)
            .iter()
            .map(|traced| {
                stats += traced.stats;
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
/// bitwise. It ignores `cfg.parallelism` / `cfg.tile_size` (the whole view
/// is one row-major [`trace_rays`] job) and does not require `Sync`, so it
/// also serves trait-object sources.
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
    let pixels = || (0..camera.height).flat_map(|py| (0..camera.width).map(move |px| (px, py)));
    let rays: Vec<Ray> = pixels().map(|(px, py)| camera.ray_for_pixel(px, py)).collect();
    for ((px, py), traced) in pixels().zip(trace_rays(source, shader, &frame, &rays, cfg)) {
        stats += traced.stats;
        img.set(px, py, traced.color);
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
    fn one_thick_grids_render() {
        // A side of 1 is a valid `GridDims`, and `PipelineBuilder::from_grid`
        // passes such a grid through, so it must render.
        let mlp = Mlp::random(0);
        let cam = default_camera(9, 7, 1, 4);
        for dims in [GridDims::new(1, 8, 8), GridDims::new(8, 8, 1)] {
            let mut grid = DenseGrid::zeros(dims);
            for c in dims.iter() {
                grid.set_density(c, 4.0);
                grid.set_features(c, &[(c.x + c.y + c.z) as f32 * 0.05; FEATURE_DIM]);
            }
            let serial = render_view_serial(&grid, &mlp, &cam, &scene_aabb(), &tiny_cfg());
            let cfg = RenderConfig { parallelism: 2, tile_size: 4, ..tiny_cfg() };
            let parallel = render_view(&grid, &mlp, &cam, &scene_aabb(), &cfg);
            assert_eq!(parallel, serial, "{dims}");
            let (img, stats) = serial;
            assert!(stats.samples_shaded > 0, "{dims}: the plane must be hit");
            assert!(img
                .pixels()
                .iter()
                .all(|p| p.x.is_finite() && p.y.is_finite() && p.z.is_finite()));
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
    fn validate_names_the_zero_field() {
        assert_eq!(RenderConfig::default().validate(), Ok(()));
        let no_samples = RenderConfig { samples_per_ray: 0, ..Default::default() };
        assert_eq!(no_samples.validate(), Err(RenderConfigError::ZeroSamplesPerRay));
        let no_tiles = RenderConfig { tile_size: 0, ..Default::default() };
        assert_eq!(no_tiles.validate(), Err(RenderConfigError::ZeroTileSize));
        assert_eq!(RenderConfigError::ZeroTileSize.to_string(), "tile_size must be non-zero");
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
        a += &b;
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
        // `+= &b` is the column-by-column merge; `+= b` must agree with it.
        let a = RenderStats { rays: 1, samples_marched: 5, ..Default::default() };
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
        let mut via_merge = a;
        via_merge += &b;
        let mut by_value = a;
        by_value += b;
        assert_eq!(by_value, via_merge);
        assert_eq!(via_merge.rays, 5);
        assert_eq!(via_merge.samples_marched, 45);
    }

    #[test]
    fn avg_marched_per_ray_divides_by_rays() {
        let s =
            RenderStats { rays: 4, samples_marched: 10, samples_shaded: 6, ..Default::default() };
        assert_eq!(s.avg_marched_per_ray(), 2.5);
        assert_eq!(s.avg_shaded_per_ray(), 1.5);
    }

    #[test]
    fn still_deferred_and_warped_ratios() {
        let still = RenderStats {
            rays: 1024,
            samples_marched: 30_000,
            samples_shaded: 2_000,
            ..Default::default()
        };
        assert!(!still.is_deferred() && !still.is_warped());
        assert_eq!(still.mlp_collapse(), 0.0);
        assert_eq!(still.warp_fraction(), 0.0);

        let deferred = RenderStats { pixels_shaded: 400, ..still };
        assert!(deferred.is_deferred());
        assert_eq!(deferred.mlp_collapse(), 2_000.0 / 400.0);

        let warped = RenderStats { rays_warped: 768, rays_remarched: 256, ..still };
        assert!(warped.is_warped());
        assert_eq!(warped.warp_fraction(), 768.0 / 1024.0);
        assert_eq!(RenderStats::default().warp_fraction(), 0.0);
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
    fn skipper_locates_the_trilinear_base() {
        // The skipper decides from the located cell alone; wherever it
        // admits a sample, that cell must weigh to `trilinear_cell`'s, bit
        // for bit. On a full grid it admits every in-grid position.
        use crate::interp::{trilinear_cell, TrilinearCell};
        use crate::source::WithOccupancy;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut full = DenseGrid::zeros(GridDims::new(9, 5, 7));
        for c in full.dims().iter() {
            full.set_density(c, 1.0);
        }
        let mut rng = StdRng::seed_from_u64(9);
        for (grid, all) in [(full, true), (build_grid(SceneId::Mic, 24), false)] {
            let skippable = WithOccupancy::build(&grid);
            let dims = grid.dims();
            let mut skipper = EmptySkipper { mip: skippable.mip(), cached: None };
            let around = |rng: &mut StdRng, n: u32| rng.gen::<f32>() * (n as f32 + 3.0) - 2.0;
            let mut admitted = 0;
            for _ in 0..20_000 {
                let g = Vec3::new(
                    around(&mut rng, dims.nx),
                    around(&mut rng, dims.ny),
                    around(&mut rng, dims.nz),
                );
                let want = trilinear_cell(dims, g);
                let bits =
                    |c: Option<TrilinearCell>| c.map(|c| (c.base, c.weights.map(f32::to_bits)));
                match skipper.admit(dims, g) {
                    Some(at) => {
                        admitted += 1;
                        assert_eq!(Some(at.base), want.map(|c| c.base), "{dims} at {g:?}");
                        assert_eq!(bits(Some(at.weigh())), bits(want), "{dims} at {g:?}");
                    }
                    None => assert!(!all || want.is_none(), "{dims}: full grid skipped {g:?}"),
                }
            }
            assert!(admitted > 0, "{dims}: something must be admitted");
        }
    }

    #[test]
    fn the_clip_never_excludes_a_contributing_position() {
        // Positions up to two cells outside the grid. A slab one vertex
        // short of the far x face is where `locate_cell`'s clamp reaches
        // furthest past the box (a position up to 0.5 beyond the last
        // vertex still weighs the slab by about 1e-4), and a 1-thick axis
        // admits positions 0.5 either side of its one plane. Every position
        // the clip excludes must interpolate to the empty sample.
        use crate::interp::{interpolate_cell_scalar, trilinear_cell};
        use crate::source::WithOccupancy;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let fill = |dims: GridDims, occupied: &dyn Fn(GridCoord) -> bool| {
            let mut grid = DenseGrid::zeros(dims);
            for c in dims.iter().filter(|&c| occupied(c)) {
                grid.set_density(c, 1.0);
            }
            grid
        };
        let grids = [
            fill(GridDims::cube(8), &|c| c.x == 6),
            fill(GridDims::new(6, 1, 5), &|c| (2..4).contains(&c.x) && c.z >= 1),
            build_grid(SceneId::Mic, 24),
        ];
        let mut rng = StdRng::seed_from_u64(11);
        for grid in grids {
            let dims = grid.dims();
            let clip = Clip::of(WithOccupancy::build(&grid).occupancy_mip());
            let around = |rng: &mut StdRng, n: u32| rng.gen::<f32>() * (n as f32 + 3.0) - 2.0;
            let (mut excluded, mut kept) = (0, 0);
            for _ in 0..20_000 {
                let g = Vec3::new(
                    around(&mut rng, dims.nx),
                    around(&mut rng, dims.ny),
                    around(&mut rng, dims.nz),
                );
                if !clip.excludes(g) {
                    kept += 1;
                    continue;
                }
                excluded += 1;
                if let Some(cell) = trilinear_cell(dims, g) {
                    let density = interpolate_cell_scalar(&grid, &cell).density;
                    assert!(density <= 0.0, "{dims}: the clip excluded {g:?} of density {density}");
                }
            }
            assert!(excluded > 0 && kept > 0, "{dims}: the clip must cut somewhere");
        }
        // With no box, nothing is excluded, not even a NaN position.
        let clip = Clip::of(None);
        for g in [Vec3::splat(-1e30), Vec3::splat(1e30), Vec3::splat(f32::NAN)] {
            assert!(!clip.excludes(g), "{g:?}");
        }
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
        let mut stats = RenderStats::default();
        let mut hits = 0;
        for py in 0..10 {
            for px in 0..10 {
                // Each pixel as a job of its own.
                let ray = cam.ray_for_pixel(px, py);
                let traced = trace_rays(&grid, (&mlp).into(), &frame, &[ray], &cfg)[0];
                assert_eq!(traced.color, img.get(px, py), "kernel color must be the view's pixel");
                assert_eq!(traced.stats.rays, 1, "a traced ray's stats count that one ray");
                stats += traced.stats;
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
    fn rays_without_opacity_report_infinite_depth() {
        // A density small enough that `1 − exp(−σδ)` rounds to 0: the rays
        // through the block shade samples yet gather no opacity, and must
        // report +∞ rather than 0/0.
        let mut grid = DenseGrid::zeros(GridDims::cube(8));
        for c in GridDims::cube(4).iter() {
            let c = GridCoord::new(c.x + 2, c.y + 2, c.z + 2);
            grid.set_density(c, 1e-12);
            grid.set_features(c, &[0.5; FEATURE_DIM]);
        }
        let mlp = Mlp::random(0);
        let cam = default_camera(8, 8, 0, 4);
        let cfg = tiny_cfg();
        let frame = RenderFrame::new(grid.dims(), &scene_aabb(), &cfg);
        let rays: Vec<Ray> = (0..8)
            .flat_map(|py| (0..8).map(move |px| (px, py)))
            .map(|(px, py)| cam.ray_for_pixel(px, py))
            .collect();
        let traced = trace_rays(&grid, (&mlp).into(), &frame, &rays, &cfg);
        let shaded: Vec<&TracedRay> =
            traced.iter().filter(|t| t.stats.samples_shaded > 0).collect();
        assert_eq!(shaded.len(), 34, "the block must be hit");
        for t in shaded {
            assert_eq!(t.depth, f32::INFINITY, "a ray with no opacity has no surface");
            assert_eq!(t.color, Vec3::ONE, "and stays pure background");
        }
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
