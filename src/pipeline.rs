//! The unified pipeline: one front door from scene to stats.
//!
//! The paper's flow is a fixed five-stage pipeline — sparse grid → VQRF
//! compression → hash-mapping preprocessing → online masked decode →
//! render/eval — and before this module every consumer hand-wired those
//! stages with duplicated config plumbing. [`PipelineBuilder`] builds the
//! whole bundle exactly once into a [`Scene`], and [`RenderSession`] serves
//! typed [`RenderRequest`]s against it:
//!
//! ```text
//! PipelineBuilder ──build()──▶ Scene {grid, VQRF, SpNeRF model, MLP}
//!                                 │ session()
//!                                 ▼
//!                  RenderSession::render(RenderRequest)
//!                                 │
//!                                 ▼
//!      RenderResponse {images, RenderStats, PSNR, FrameWorkload}
//! ```
//!
//! Every render goes through the exact same
//! [`spnerf_render::renderer::render_view`] path the hand-wired code used,
//! so session output is **bitwise-identical** to direct wiring (golden- and
//! property-tested in `tests/session.rs`). Repeated renders of the same
//! `(source, camera)` pair are served from an in-session cache — repeated
//! requests (e.g. the same ground-truth reference for several comparisons)
//! cost one render.
//!
//! Sessions honor [`RenderConfig::skip_mode`]: under
//! [`SkipMode::Mip`] each source renders through its lazily built,
//! `Arc`-shared occupancy pyramid ([`Scene::occupancy_mip`]), skipping
//! provably-empty macro-blocks — images stay bitwise-identical while
//! marched samples (and the cycles derived from them) drop.
//!
//! [`SkipMode::Mip`]: spnerf_render::renderer::SkipMode::Mip
//!
//! [`RenderSource::Baked`] renders bake-and-defer: a deterministic bake
//! pass ([`Scene::baked_grid`], cached and `Arc`-shared) folds the color
//! MLP into per-voxel diffuse RGB plus a compact specular feature, and the
//! marcher defers view dependence to one small-MLP evaluation per pixel
//! ([`Scene::deferred`]) — [`RenderStats::pixels_shaded`] counts those
//! evaluations, collapsing MLP work from per-sample to per-pixel.
//!
//! # Example
//!
//! ```
//! use spnerf::pipeline::{PipelineBuilder, RenderRequest, RenderSource};
//! use spnerf::render::scene::{default_camera, SceneId};
//! use spnerf::voxel::vqrf::VqrfConfig;
//! use spnerf::core::SpNerfConfig;
//!
//! let scene = PipelineBuilder::new(SceneId::Mic)
//!     .grid_side(20)
//!     .vqrf_config(VqrfConfig { codebook_size: 16, kmeans_iters: 1, ..Default::default() })
//!     .spnerf_config(SpNerfConfig { subgrid_count: 4, table_size: 2048, codebook_size: 16 })
//!     .build()?;
//! let session = scene.session();
//! let request = RenderRequest::single(RenderSource::spnerf_masked(), default_camera(8, 8, 0, 4))
//!     .with_reference(RenderSource::GroundTruth);
//! let response = session.render(&request)?;
//! assert_eq!(response.images.len(), 1);
//! assert!(response.psnr.unwrap().mean_db > 0.0);
//! # Ok::<(), spnerf::Error>(())
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use spnerf_accel::frame::FrameWorkload;
use spnerf_core::{MaskMode, PreprocessOptions, SpNerfConfig, SpNerfModel};
use spnerf_render::bake::bake;
use spnerf_render::camera::PinholeCamera;
use spnerf_render::eval::PsnrStats;
use spnerf_render::image::ImageBuffer;
use spnerf_render::mlp::{DeferredMlp, Mlp};
use spnerf_render::renderer::{RenderConfig, RenderStats, Shader};
use spnerf_render::scene::{build_grid, scene_aabb, SceneId};
use spnerf_render::source::{support_bitmap, VoxelSource, WithOccupancy};
use spnerf_render::temporal::{advance_frame, ReuseMode, ReuseState, TemporalFrame};
use spnerf_voxel::baked::BakedGrid;
use spnerf_voxel::fnv::Fnv64;
use spnerf_voxel::grid::DenseGrid;
use spnerf_voxel::mip::OccupancyMip;
use spnerf_voxel::sparse::{FormatKind, FormatSelection, SparseFormat, SparseIndex};
use spnerf_voxel::vqrf::{VqrfConfig, VqrfModel};

use crate::trajectory::TemporalCache;
use crate::Error;

/// Looks a scene up by its dataset name (`"lego"`, `"ship"`, …).
///
/// # Errors
///
/// Returns [`Error::UnknownScene`] when the name matches none of the eight
/// Synthetic-NeRF scenes.
pub fn scene_by_name(name: &str) -> Result<SceneId, Error> {
    SceneId::all()
        .into_iter()
        .find(|id| id.name() == name)
        .ok_or_else(|| Error::UnknownScene(name.to_string()))
}

/// Which data path a request renders through (the three bars of Fig. 6(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RenderSource {
    /// The dense ground-truth grid.
    GroundTruth,
    /// The VQRF gold decode (restored-quality baseline).
    Vqrf,
    /// The SpNeRF online decoder under a chosen mask mode.
    SpNerf {
        /// Bitmap masking on ([`MaskMode::Masked`]) or the ablation.
        mask: MaskMode,
    },
    /// The baked grid rendered bake-and-defer (SNeRG-style): diffuse color
    /// and a compact specular feature accumulate along the ray, and the
    /// small view-dependence MLP ([`Scene::deferred`]) runs **once per
    /// pixel** instead of once per shaded sample. The grid is baked lazily
    /// on first use and `Arc`-shared like every other offline artifact.
    Baked,
}

impl RenderSource {
    /// The full SpNeRF decode (bitmap masking on).
    pub const fn spnerf_masked() -> Self {
        RenderSource::SpNerf { mask: MaskMode::Masked }
    }

    /// The "before bitmap masking" ablation.
    pub const fn spnerf_unmasked() -> Self {
        RenderSource::SpNerf { mask: MaskMode::Unmasked }
    }
}

/// The PSNR reference of a [`RenderRequest`].
#[derive(Debug, Clone, Copy)]
pub enum Reference<'a> {
    /// Render this source over the same cameras (cached in the session, so
    /// e.g. a ground-truth reference is rendered once per camera no matter
    /// how many requests compare against it).
    Source(RenderSource),
    /// Compare against precomputed images, one per camera in order. Useful
    /// when the reference lives in a *different* scene bundle (e.g. sweep
    /// bins comparing respecialized models against one base ground truth).
    Images(&'a [ImageBuffer]),
}

/// A typed render request: one source, one camera or a batch of views, and
/// an optional PSNR reference.
#[derive(Debug, Clone)]
pub struct RenderRequest<'a> {
    /// The data path to render.
    pub source: RenderSource,
    /// The views to render, in order.
    pub cameras: Vec<PinholeCamera>,
    /// What to compute per-view PSNR against (`None`: skip PSNR).
    pub reference: Option<Reference<'a>>,
}

impl<'a> RenderRequest<'a> {
    /// A single-view request.
    pub fn single(source: RenderSource, camera: PinholeCamera) -> Self {
        Self { source, cameras: vec![camera], reference: None }
    }

    /// A batch request over several views.
    pub fn batch(source: RenderSource, cameras: Vec<PinholeCamera>) -> Self {
        Self { source, cameras, reference: None }
    }

    /// Requests per-view PSNR against another source rendered over the same
    /// cameras.
    pub fn with_reference(mut self, reference: RenderSource) -> Self {
        self.reference = Some(Reference::Source(reference));
        self
    }

    /// Requests per-view PSNR against precomputed reference images (one per
    /// camera, in camera order).
    pub fn with_reference_images(mut self, images: &'a [ImageBuffer]) -> Self {
        self.reference = Some(Reference::Images(images));
        self
    }
}

/// Everything a [`RenderSession`] returns for one request.
#[derive(Debug, Clone)]
pub struct RenderResponse {
    /// The source that was rendered.
    pub source: RenderSource,
    /// One image per requested camera, in request order.
    pub images: Vec<ImageBuffer>,
    /// Render statistics merged over every view of the batch.
    pub stats: RenderStats,
    /// Per-view PSNR (dB) vs the reference, in camera order (`None` when no
    /// reference was requested).
    pub per_view_psnr: Option<Vec<f64>>,
    /// Aggregated PSNR summary over the batch (`None` without a reference).
    pub psnr: Option<PsnrStats>,
    /// The frame workload the cycle-level accelerator simulator consumes,
    /// measured at the request's resolution (scale with
    /// [`FrameWorkload::at_paper_resolution`] for the paper's 800×800
    /// frames).
    pub workload: FrameWorkload,
}

impl RenderResponse {
    /// Mean PSNR over the batch.
    ///
    /// # Panics
    ///
    /// Panics if the request carried no reference.
    pub fn mean_psnr(&self) -> f64 {
        self.psnr.expect("request had no PSNR reference").mean_db
    }
}

/// Where a pipeline's stage-one voxel grid comes from.
#[derive(Debug, Clone)]
enum GridSource {
    /// One of the eight procedural Synthetic-NeRF stand-ins, synthesized at
    /// build time.
    Dataset(SceneId),
    /// A caller-provided grid under a free-form label (the testkit corpus,
    /// imported checkpoints, …).
    Custom { label: String, grid: Arc<DenseGrid> },
}

/// Builds a [`Scene`] artifact bundle: the five pipeline stages configured
/// in one place, executed exactly once by [`PipelineBuilder::build`].
#[derive(Debug, Clone)]
pub struct PipelineBuilder {
    source: GridSource,
    grid_side: Option<u32>,
    vqrf: VqrfConfig,
    spnerf: SpNerfConfig,
    mlp_seed: u64,
    render: RenderConfig,
    sparse_format: FormatSelection,
}

impl PipelineBuilder {
    /// Starts a pipeline for `scene` at the paper's defaults: the scene's
    /// paper-scale grid side, a 4096-entry codebook, the K = 64 / T = 32 k
    /// operating point, MLP seed 42, and the default [`RenderConfig`].
    pub fn new(scene: SceneId) -> Self {
        Self::with_source(GridSource::Dataset(scene))
    }

    /// Starts a pipeline over a caller-provided voxel grid instead of a
    /// dataset scene — the entry point for arbitrary workloads (e.g. the
    /// `spnerf-testkit` corpus archetypes). The label takes the scene
    /// name's place in [`FrameWorkload`]s and reports.
    ///
    /// [`PipelineBuilder::grid_side`] does not apply to custom grids: the
    /// grid is used exactly as passed.
    pub fn from_grid(label: impl Into<String>, grid: DenseGrid) -> Self {
        Self::with_source(GridSource::Custom { label: label.into(), grid: Arc::new(grid) })
    }

    fn with_source(source: GridSource) -> Self {
        Self {
            source,
            grid_side: None,
            vqrf: VqrfConfig::default(),
            spnerf: SpNerfConfig::default(),
            mlp_seed: 42,
            render: RenderConfig::default(),
            sparse_format: FormatSelection::Auto,
        }
    }

    /// Overrides the voxel-grid side (default: the scene's paper side).
    /// Ignored for [`PipelineBuilder::from_grid`] pipelines, whose grid
    /// already has its dimensions.
    pub fn grid_side(mut self, side: u32) -> Self {
        self.grid_side = Some(side);
        self
    }

    /// Sets the VQRF compression configuration.
    pub fn vqrf_config(mut self, cfg: VqrfConfig) -> Self {
        self.vqrf = cfg;
        self
    }

    /// Sets the SpNeRF operating point (subgrids, table size, codebook).
    pub fn spnerf_config(mut self, cfg: SpNerfConfig) -> Self {
        self.spnerf = cfg;
        self
    }

    /// Sets the seed of the shared random MLP.
    pub fn mlp_seed(mut self, seed: u64) -> Self {
        self.mlp_seed = seed;
        self
    }

    /// Sets the render configuration sessions inherit.
    pub fn render_config(mut self, cfg: RenderConfig) -> Self {
        self.render = cfg;
        self
    }

    /// Sets how the scene's sparse occupancy index is encoded (default:
    /// [`FormatSelection::Auto`], the occupancy-statistics selector). The
    /// index sits outside the rendering fetch path, so every choice renders
    /// bitwise-identical pixels — it changes per-lookup metadata traffic and
    /// resident bytes, the `--sparse-format` sweep axis.
    pub fn sparse_format(mut self, selection: FormatSelection) -> Self {
        self.sparse_format = selection;
        self
    }

    /// The grid side this pipeline will build at (for a custom grid: its
    /// actual x dimension).
    pub fn side(&self) -> u32 {
        match &self.source {
            GridSource::Dataset(id) => self.grid_side.unwrap_or(id.spec().paper_grid_side),
            GridSource::Custom { grid, .. } => grid.dims().nx,
        }
    }

    /// Runs the offline stages — procedural grid, VQRF compression, SpNeRF
    /// hash-mapping preprocessing, MLP construction — and returns the cached
    /// artifact bundle.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Vqrf`] for an invalid compression configuration,
    /// [`Error::Render`] for a render configuration with a zero
    /// `samples_per_ray` or `tile_size`, and [`Error::Config`] /
    /// [`Error::Build`] when the SpNeRF stage rejects its operating point
    /// (zero fields, codebook mismatch, true-grid overflow).
    pub fn build(self) -> Result<Scene, Error> {
        self.vqrf.validate()?;
        self.spnerf.validate()?;
        self.render.validate()?;
        let side = self.side();
        let (id, label, grid) = match self.source {
            GridSource::Dataset(id) => {
                (Some(id), id.name().to_string(), Arc::new(build_grid(id, side)))
            }
            GridSource::Custom { label, grid } => (None, label, grid),
        };
        let vqrf = Arc::new(VqrfModel::build(&grid, &self.vqrf));
        let model = SpNerfModel::build(&vqrf, &self.spnerf)?;
        let mlp = Arc::new(Mlp::random(self.mlp_seed));
        let deferred = Arc::new(DeferredMlp::random(self.mlp_seed));
        let sparse =
            Arc::new(SparseIndex::from_bitmap_selected(self.sparse_format, model.bitmap()));
        Ok(Scene {
            id,
            label,
            grid,
            vqrf,
            model,
            mlp,
            deferred,
            spnerf_cfg: self.spnerf,
            preprocess: PreprocessOptions::default(),
            render_cfg: self.render,
            mips: Arc::new(MipCache::default()),
            baked: Arc::new(OnceLock::new()),
            sparse_format: self.sparse_format,
            sparse,
            temporal: Arc::new(TemporalCache::default()),
        })
    }
}

/// Lazily built, `Arc`-shared occupancy pyramids — one per render source,
/// because each source must be skipped against its **own** decode support
/// (the unmasked ablation's support exceeds the pruned bitmap, so sharing
/// one pyramid would change its pixels).
///
/// Built on first use by a `SkipMode::Mip` session and reused by every
/// subsequent render of the same scene bundle, mirroring how the grid and
/// MLP are shared.
#[derive(Debug, Default)]
struct MipCache {
    grid: OnceLock<Arc<OccupancyMip>>,
    vqrf: OnceLock<Arc<OccupancyMip>>,
    masked: OnceLock<Arc<OccupancyMip>>,
    unmasked: OnceLock<Arc<OccupancyMip>>,
}

/// The cached artifact bundle of one scene: dense grid, VQRF model, SpNeRF
/// model, and the shared MLP, built exactly once by [`PipelineBuilder`].
///
/// The offline artifacts (grid, VQRF, MLP) are reference-counted, so
/// [`Scene::with_spnerf`] respecializes the SpNeRF stage — the Fig. 7 sweep
/// mechanism — without re-running compression or re-synthesizing geometry.
/// The empty-space-skipping pyramids ([`Scene::occupancy_mip`]) are
/// reference-counted the same way, built lazily on the first
/// [`SkipMode::Mip`] render of each source.
///
/// [`SkipMode::Mip`]: spnerf_render::renderer::SkipMode::Mip
#[derive(Debug, Clone)]
pub struct Scene {
    id: Option<SceneId>,
    label: String,
    grid: Arc<DenseGrid>,
    vqrf: Arc<VqrfModel>,
    model: SpNerfModel,
    mlp: Arc<Mlp>,
    deferred: Arc<DeferredMlp>,
    spnerf_cfg: SpNerfConfig,
    preprocess: PreprocessOptions,
    render_cfg: RenderConfig,
    mips: Arc<MipCache>,
    baked: Arc<OnceLock<Arc<BakedGrid>>>,
    sparse_format: FormatSelection,
    sparse: Arc<SparseIndex>,
    /// Per-source temporal reuse state ([`crate::trajectory`]): the previous
    /// frame's radiance and depth buffers a warped trajectory resumes
    /// from. Shared by plain `Clone` (clones are the same bundle), but
    /// **every respecialization** ([`Scene::with_spnerf_opts`],
    /// [`Scene::with_sparse_format`]) gets a fresh, empty cache — warp
    /// buffers rendered by the old model must never seed frames of the new
    /// one.
    temporal: Arc<TemporalCache>,
}

impl Scene {
    /// Dataset identity, when the bundle came from
    /// [`PipelineBuilder::new`]; `None` for custom-grid bundles.
    pub fn id(&self) -> Option<SceneId> {
        self.id
    }

    /// The bundle's label: the dataset scene name, or the label passed to
    /// [`PipelineBuilder::from_grid`]. Flows into [`FrameWorkload::scene`].
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The dense ground-truth grid.
    pub fn grid(&self) -> &DenseGrid {
        &self.grid
    }

    /// The VQRF compressed model.
    pub fn vqrf(&self) -> &VqrfModel {
        &self.vqrf
    }

    /// The SpNeRF model at this bundle's operating point.
    pub fn model(&self) -> &SpNerfModel {
        &self.model
    }

    /// The shared MLP every per-sample source renders through.
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// The small view-dependence MLP of the bake-and-defer path, evaluated
    /// once per pixel in the ray epilogue. Seeded from the same
    /// [`PipelineBuilder::mlp_seed`] as the color MLP (salted internally),
    /// so one seed pins both networks.
    pub fn deferred(&self) -> &DeferredMlp {
        &self.deferred
    }

    /// The baked grid of [`RenderSource::Baked`]: per-voxel diffuse RGB,
    /// density (copied verbatim from the ground-truth grid) and a compact
    /// specular feature. Baked deterministically on first use and
    /// `Arc`-shared with every clone and respecialization of this bundle —
    /// repeated calls never re-bake.
    pub fn baked_grid(&self) -> Arc<BakedGrid> {
        Arc::clone(self.baked.get_or_init(|| Arc::new(bake(self.grid.as_ref(), &self.mlp))))
    }

    /// The sparse occupancy index built over [`SpNerfModel::bitmap`] in the
    /// encoding [`PipelineBuilder::sparse_format`] selected. Renders never
    /// fetch through it — it is the metadata structure whose per-lookup cost
    /// the accelerator/DRAM models charge ([`FrameWorkload::format_bytes`])
    /// and whose bytes [`Scene::resident_footprint`] carries.
    pub fn sparse_index(&self) -> &SparseIndex {
        &self.sparse
    }

    /// The encoding [`Scene::sparse_index`] actually uses (after `Auto`
    /// resolution).
    pub fn sparse_kind(&self) -> FormatKind {
        self.sparse.kind()
    }

    /// The selection policy this bundle was built with (`Auto` or a fixed
    /// kind), as opposed to the resolved [`Scene::sparse_kind`].
    pub fn sparse_selection(&self) -> FormatSelection {
        self.sparse_format
    }

    /// Rebuilds **only** the sparse occupancy index under a different format
    /// selection, sharing every other artifact (grid, VQRF, SpNeRF model,
    /// MLPs, pyramids, bake) with `self` — the `--sparse-format` sweep and
    /// conformance image-identity checks cost one index build per format,
    /// not a pipeline rebuild. Pixels are bitwise-identical across the
    /// results by construction; only metadata traffic and resident bytes
    /// move.
    pub fn with_sparse_format(&self, selection: FormatSelection) -> Scene {
        let sparse = Arc::new(SparseIndex::from_bitmap_selected(selection, self.model.bitmap()));
        // A fresh temporal cache, not `..self.clone()`'s shared Arc: the
        // respecialized bundle is a *different* scene as far as mid-flight
        // trajectories are concerned, and resuming one from the parent's
        // warp buffers would serve stale state (regression-tested in
        // `crate::trajectory`).
        Scene {
            sparse_format: selection,
            sparse,
            temporal: Arc::new(TemporalCache::default()),
            ..self.clone()
        }
    }

    /// Per-component host-resident footprint of this bundle: every byte a
    /// long-lived process holds to keep the scene servable — dense grid,
    /// VQRF compressed model, SpNeRF model, both MLPs, the sparse occupancy
    /// index, and (only once it has been baked) the bake-and-defer grid.
    /// Each component reuses the
    /// sizing the memory model already reports for it, so the serving
    /// cache and the Fig. 6 memory tables can never disagree on a number.
    ///
    /// The baked-grid component appears lazily: a bundle that has never
    /// rendered [`RenderSource::Baked`] does not pay for the bake, and a
    /// scene cache re-measuring after renders sees the growth.
    pub fn resident_footprint(&self) -> spnerf_voxel::memory::MemoryFootprint {
        let mut fp = spnerf_voxel::memory::MemoryFootprint::new(self.label.clone());
        fp.add("dense grid (f32)", self.grid.restored_bytes_f32());
        fp.add("VQRF compressed", self.vqrf.compressed_footprint().total_bytes());
        fp.add("SpNeRF model", self.model.footprint().total_bytes());
        fp.add("color MLP (f32)", self.mlp.resident_bytes());
        fp.add("deferred MLP (f32)", self.deferred.resident_bytes());
        fp.add("sparse index", self.sparse.footprint().total_bytes());
        if let Some(baked) = self.baked.get() {
            fp.add("baked grid (f32)", baked.baked_bytes_f32());
        }
        fp
    }

    /// Total host-resident bytes ([`Scene::resident_footprint`] summed) —
    /// the size a byte-bounded scene cache charges for this bundle.
    pub fn resident_bytes(&self) -> usize {
        self.resident_footprint().total_bytes()
    }

    /// The SpNeRF operating point this bundle was built at.
    pub fn spnerf_config(&self) -> SpNerfConfig {
        self.spnerf_cfg
    }

    /// The render configuration sessions inherit.
    pub fn render_config(&self) -> RenderConfig {
        self.render_cfg
    }

    /// Rebuilds **only** the SpNeRF stage at a different operating point,
    /// sharing the grid, VQRF model and MLP with `self`. This is the Fig. 7
    /// sweep mechanism: K/T sweeps cost one preprocessing pass per point,
    /// not a full pipeline rebuild.
    ///
    /// # Errors
    ///
    /// Same as [`PipelineBuilder::build`]'s SpNeRF stage.
    pub fn with_spnerf(&self, cfg: SpNerfConfig) -> Result<Scene, Error> {
        self.with_spnerf_opts(cfg, self.preprocess)
    }

    /// Like [`Scene::with_spnerf`], also overriding the preprocessing
    /// policies (the ablation harness's knob).
    ///
    /// # Errors
    ///
    /// Same as [`Scene::with_spnerf`].
    pub fn with_spnerf_opts(
        &self,
        cfg: SpNerfConfig,
        opts: PreprocessOptions,
    ) -> Result<Scene, Error> {
        let model = SpNerfModel::build_with(&self.vqrf, &cfg, opts)?;
        // The grid/VQRF pyramids depend only on the shared offline
        // artifacts, so carry them over; the SpNeRF-model pyramids belong
        // to the old operating point and must be rebuilt on demand. The
        // bake cache depends only on the grid and MLP — both shared — so
        // the whole cell carries over (a bake done before respecializing
        // stays done after).
        let mips = MipCache::default();
        if let Some(m) = self.mips.grid.get() {
            let _ = mips.grid.set(Arc::clone(m));
        }
        if let Some(m) = self.mips.vqrf.get() {
            let _ = mips.vqrf.set(Arc::clone(m));
        }
        // The bitmap (and so the sparse index) belongs to the operating
        // point; re-resolve the same selection over the new model's bitmap.
        let sparse =
            Arc::new(SparseIndex::from_bitmap_selected(self.sparse_format, model.bitmap()));
        Ok(Scene {
            id: self.id,
            label: self.label.clone(),
            grid: Arc::clone(&self.grid),
            vqrf: Arc::clone(&self.vqrf),
            model,
            mlp: Arc::clone(&self.mlp),
            deferred: Arc::clone(&self.deferred),
            spnerf_cfg: cfg,
            preprocess: opts,
            render_cfg: self.render_cfg,
            mips: Arc::new(mips),
            baked: Arc::clone(&self.baked),
            sparse_format: self.sparse_format,
            sparse,
            // Never carried over: warp state rendered by the old operating
            // point must not seed frames of the new model.
            temporal: Arc::new(TemporalCache::default()),
        })
    }

    /// The empty-space-skipping occupancy pyramid of one render source,
    /// built from that source's **exact decode support** on first use and
    /// `Arc`-shared (with every session, worker thread, and clone of this
    /// bundle) afterwards.
    ///
    /// Sessions running [`SkipMode::Mip`] call this internally; it is
    /// public so custom render paths can attach the same pyramid via
    /// [`spnerf_render::source::WithOccupancy::new`].
    ///
    /// [`SkipMode::Mip`]: spnerf_render::renderer::SkipMode::Mip
    pub fn occupancy_mip(&self, source: RenderSource) -> Arc<OccupancyMip> {
        let build = |bitmap| Arc::new(OccupancyMip::build(bitmap));
        match source {
            // The bake pass copies density verbatim, so the baked grid's
            // support — and therefore its occupancy pyramid — is exactly
            // the ground-truth grid's. Sharing the cell keeps skipping
            // decisions (and skipped-sample counts) identical by
            // construction.
            RenderSource::GroundTruth | RenderSource::Baked => {
                Arc::clone(self.mips.grid.get_or_init(|| build(support_bitmap(self.grid.as_ref()))))
            }
            RenderSource::Vqrf => {
                Arc::clone(self.mips.vqrf.get_or_init(|| build(support_bitmap(self.vqrf.as_ref()))))
            }
            RenderSource::SpNerf { mask } => {
                let cell = match mask {
                    MaskMode::Masked => &self.mips.masked,
                    MaskMode::Unmasked => &self.mips.unmasked,
                };
                Arc::clone(cell.get_or_init(|| build(self.model.view(mask).support_bitmap())))
            }
        }
    }

    /// The accelerator workload of rendered `stats` on this bundle: the
    /// measured counters plus the selected sparse index's metadata traffic
    /// — every marched sample pays one occupancy lookup, the
    /// format-dependent stream the accelerator's DRAM column charges on
    /// top of the model bytes. Stills and trajectory frames both derive
    /// their [`FrameWorkload`] here.
    pub(crate) fn workload(&self, stats: &RenderStats) -> FrameWorkload {
        let lookup_bytes = self.sparse.access_cost().bytes_per_lookup;
        FrameWorkload::from_render(&self.label, stats, &self.model)
            .with_format_traffic(stats.samples_marched * lookup_bytes)
    }

    /// The bundle's temporal reuse cache: per-source warp state a
    /// [`crate::trajectory::TrajectoryStream`] persists between frames.
    /// Shared across sessions and clones of this bundle; fresh (empty) on
    /// every respecialization.
    pub fn temporal(&self) -> &TemporalCache {
        &self.temporal
    }

    /// Opens a render session with the bundle's render configuration.
    pub fn session(&self) -> RenderSession<'_> {
        self.session_with(self.render_cfg)
    }

    /// Opens a render session with an overridden render configuration.
    ///
    /// The configuration is not checked here: [`RenderSession::render`] and
    /// [`RenderSession::render_trajectory`] return [`Error::Render`] for an
    /// invalid one, and [`crate::trajectory::TrajectoryStream::advance`]
    /// panics on it.
    pub fn session_with(&self, cfg: RenderConfig) -> RenderSession<'_> {
        RenderSession { scene: self, cfg, cache: RefCell::new(HashMap::new()) }
    }
}

/// One cached render: the camera it was rendered through (collision guard)
/// plus the image and stats. The image is reference-counted so cache hits
/// and reference-PSNR lookups never deep-copy pixels; only assembling an
/// owned [`RenderResponse`] does (once per requested view).
#[derive(Debug, Clone)]
struct CachedRender {
    camera: PinholeCamera,
    image: Arc<ImageBuffer>,
    stats: RenderStats,
}

/// Serves typed [`RenderRequest`]s against a [`Scene`].
///
/// Renders go through [`spnerf_render::renderer::render_view`] — the tile
/// engine honoring [`RenderConfig::parallelism`] — and are memoized per
/// `(source, camera)`, so a reference that several requests compare against
/// is rendered once. Responses are bitwise-identical whether they were
/// served from the cache or rendered fresh.
#[derive(Debug)]
pub struct RenderSession<'a> {
    scene: &'a Scene,
    cfg: RenderConfig,
    cache: RefCell<HashMap<(RenderSource, u64), CachedRender>>,
}

/// Order-sensitive FNV-1a over the camera's exact bit pattern; the cache
/// double-checks full equality on hit, so a collision can never alias two
/// cameras.
fn camera_key(cam: &PinholeCamera) -> u64 {
    let mut h = Fnv64::new();
    h.write_u32(cam.width);
    h.write_u32(cam.height);
    h.write_f32(cam.focal);
    for v in [cam.pose.right, cam.pose.up, cam.pose.forward, cam.pose.position] {
        h.write_f32(v.x);
        h.write_f32(v.y);
        h.write_f32(v.z);
    }
    h.finish()
}

impl RenderSession<'_> {
    /// The scene this session serves.
    pub fn scene(&self) -> &Scene {
        self.scene
    }

    /// The render configuration in effect.
    pub fn render_config(&self) -> RenderConfig {
        self.cfg
    }

    /// Number of memoized `(source, camera)` renders.
    pub fn cache_len(&self) -> usize {
        self.cache.borrow().len()
    }

    /// Drops every memoized render.
    pub fn clear_cache(&self) {
        self.cache.borrow_mut().clear();
    }

    /// Serves one request: renders every camera of the batch (memoized),
    /// merges statistics, computes per-view PSNR against the reference if
    /// one was requested, and derives the accelerator's frame workload.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Render`] when the session's render configuration is
    /// invalid, and [`Error::Request`] for an empty camera batch, a camera
    /// with a zero image width or height, or a reference-image count that
    /// does not match the batch.
    pub fn render(&self, request: &RenderRequest<'_>) -> Result<RenderResponse, Error> {
        self.cfg.validate()?;
        if request.cameras.is_empty() {
            return Err(Error::Request("empty camera batch".into()));
        }
        for (i, cam) in request.cameras.iter().enumerate() {
            if cam.width == 0 || cam.height == 0 {
                return Err(Error::Request(format!(
                    "camera {i} of the batch is {}x{} pixels; a view needs a non-zero width and height",
                    cam.width, cam.height
                )));
            }
        }
        let mut images = Vec::with_capacity(request.cameras.len());
        let mut stats = RenderStats::default();
        for cam in &request.cameras {
            let out = self.rendered(request.source, cam);
            stats += out.stats;
            images.push(out.image.as_ref().clone());
        }
        let per_view_psnr = match &request.reference {
            None => None,
            Some(Reference::Source(reference)) => Some(
                request
                    .cameras
                    .iter()
                    .zip(&images)
                    .map(|(cam, img)| img.psnr(self.rendered(*reference, cam).image.as_ref()))
                    .collect::<Vec<f64>>(),
            ),
            Some(Reference::Images(refs)) => {
                if refs.len() != images.len() {
                    return Err(Error::Request(format!(
                        "{} reference image(s) for {} camera(s)",
                        refs.len(),
                        images.len()
                    )));
                }
                Some(images.iter().zip(refs.iter()).map(|(img, r)| img.psnr(r)).collect())
            }
        };
        let psnr = per_view_psnr.as_deref().map(PsnrStats::from_values);
        let workload = self.scene.workload(&stats);
        Ok(RenderResponse { source: request.source, images, stats, per_view_psnr, psnr, workload })
    }

    /// Renders (or recalls) one `(source, camera)` pair.
    fn rendered(&self, source: RenderSource, cam: &PinholeCamera) -> CachedRender {
        let key = (source, camera_key(cam));
        if let Some(hit) = self.cache.borrow().get(&key) {
            if hit.camera == *cam {
                return hit.clone();
            }
        }
        // A still is one frame without reuse: `ReuseMode::Off` is bitwise
        // per-frame rendering and keeps no state.
        let frame = self.frame(source, cam, ReuseMode::Off, 0, &mut None);
        let entry = CachedRender { camera: *cam, image: Arc::new(frame.image), stats: frame.stats };
        self.cache.borrow_mut().insert(key, entry.clone());
        entry
    }

    /// Renders one frame of `source` — a still, or one step of a
    /// trajectory — through [`advance_frame`]. This is the one place
    /// sources meet the renderer: each source maps to its voxel data and
    /// shader (the per-sample color MLP, or the deferred per-pixel network
    /// for [`RenderSource::Baked`]), with its occupancy pyramid attached
    /// when the session runs with `SkipMode::Mip`, so stills and
    /// trajectory frames dispatch identically.
    pub(crate) fn frame(
        &self,
        source: RenderSource,
        camera: &PinholeCamera,
        mode: ReuseMode,
        frame_idx: usize,
        state: &mut Option<ReuseState>,
    ) -> TemporalFrame {
        let scene = self.scene;
        let per_sample = Shader::PerSample(&scene.mlp);
        match source {
            RenderSource::GroundTruth => {
                let grid = scene.grid.as_ref();
                self.frame_on(source, grid, per_sample, camera, mode, frame_idx, state)
            }
            RenderSource::Vqrf => {
                let vqrf = scene.vqrf.as_ref();
                self.frame_on(source, vqrf, per_sample, camera, mode, frame_idx, state)
            }
            RenderSource::SpNerf { mask } => {
                let view = scene.model.view(mask);
                self.frame_on(source, view, per_sample, camera, mode, frame_idx, state)
            }
            RenderSource::Baked => {
                let baked = scene.baked_grid();
                let deferred = Shader::Deferred(&scene.deferred);
                self.frame_on(source, baked.as_ref(), deferred, camera, mode, frame_idx, state)
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // `frame`'s arguments plus the resolved data and shader
    fn frame_on<S: VoxelSource + Sync>(
        &self,
        source: RenderSource,
        data: S,
        shader: Shader<'_>,
        camera: &PinholeCamera,
        mode: ReuseMode,
        frame_idx: usize,
        state: &mut Option<ReuseState>,
    ) -> TemporalFrame {
        let aabb = scene_aabb();
        if self.cfg.skip_mode.is_on() {
            let data = WithOccupancy::new(data, self.scene.occupancy_mip(source));
            advance_frame(&data, shader, camera, &aabb, &self.cfg, mode, frame_idx, state)
        } else {
            advance_frame(&data, shader, camera, &aabb, &self.cfg, mode, frame_idx, state)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spnerf_render::renderer::SkipMode;
    use spnerf_render::scene::default_camera;
    use spnerf_voxel::vqrf::VqrfConfigError;

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
    fn builder_rejects_invalid_configs_with_typed_errors() {
        let bad_vqrf = PipelineBuilder::new(SceneId::Mic)
            .grid_side(12)
            .vqrf_config(VqrfConfig { codebook_size: 0, ..Default::default() })
            .build();
        assert!(matches!(bad_vqrf, Err(Error::Vqrf(_))));

        // A zero k-means subsample leaves nothing to train on; it is a
        // typed error, not a panic inside the codebook trainer.
        let no_subsample = PipelineBuilder::new(SceneId::Lego)
            .grid_side(16)
            .vqrf_config(VqrfConfig { kmeans_subsample: 0, ..Default::default() })
            .build();
        assert!(matches!(no_subsample, Err(Error::Vqrf(VqrfConfigError::ZeroSubsample))));

        let bad_spnerf = PipelineBuilder::new(SceneId::Mic)
            .grid_side(12)
            .spnerf_config(SpNerfConfig { subgrid_count: 0, ..Default::default() })
            .build();
        assert!(matches!(bad_spnerf, Err(Error::Config(_))));

        // Codebook mismatch between the stages surfaces as a build error.
        let mismatch = PipelineBuilder::new(SceneId::Mic)
            .grid_side(12)
            .vqrf_config(VqrfConfig { codebook_size: 16, kmeans_iters: 1, ..Default::default() })
            .spnerf_config(SpNerfConfig { subgrid_count: 4, table_size: 512, codebook_size: 32 })
            .build();
        assert!(matches!(mismatch, Err(Error::Build(_))));
    }

    #[test]
    fn builder_rejects_zero_render_fields() {
        use spnerf_render::renderer::RenderConfigError;
        for (cfg, want) in [
            (
                RenderConfig { samples_per_ray: 0, ..Default::default() },
                RenderConfigError::ZeroSamplesPerRay,
            ),
            (RenderConfig { tile_size: 0, ..Default::default() }, RenderConfigError::ZeroTileSize),
        ] {
            let built = PipelineBuilder::new(SceneId::Mic).grid_side(12).render_config(cfg).build();
            assert!(matches!(built, Err(Error::Render(e)) if e == want), "{want:?}");
        }
    }

    #[test]
    fn session_render_rejects_zero_render_fields() {
        use spnerf_render::renderer::RenderConfigError;
        let scene = tiny_scene();
        let req = RenderRequest::single(RenderSource::spnerf_masked(), default_camera(6, 6, 0, 4));
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
            let session = scene.session_with(cfg);
            assert!(matches!(session.render(&req), Err(Error::Render(e)) if e == want), "{want:?}");
            assert_eq!(session.cache_len(), 0, "nothing rendered");
        }
    }

    #[test]
    fn zero_size_cameras_are_request_errors() {
        let scene = tiny_scene();
        let session = scene.session();
        for (width, height) in [(0, 8), (8, 0), (0, 0)] {
            let cameras = vec![default_camera(6, 6, 0, 4), default_camera(width, height, 0, 4)];
            let req = RenderRequest::batch(RenderSource::spnerf_masked(), cameras);
            match session.render(&req) {
                Err(Error::Request(msg)) => {
                    assert!(
                        msg.contains(&format!("camera 1 of the batch is {width}x{height}")),
                        "{msg}"
                    )
                }
                other => panic!("{width}x{height}: expected a request error, got {other:?}"),
            }
            assert_eq!(session.cache_len(), 0, "nothing rendered");
        }
    }

    #[test]
    fn with_spnerf_shares_offline_artifacts() {
        let scene = tiny_scene();
        let other = scene
            .with_spnerf(SpNerfConfig { subgrid_count: 2, table_size: 1024, codebook_size: 16 })
            .expect("respecialize");
        assert!(Arc::ptr_eq(&scene.grid, &other.grid), "grid must be shared, not rebuilt");
        assert!(Arc::ptr_eq(&scene.vqrf, &other.vqrf), "VQRF must be shared, not rebuilt");
        assert!(Arc::ptr_eq(&scene.mlp, &other.mlp), "MLP must be shared");
        assert_eq!(other.spnerf_config().subgrid_count, 2);
    }

    #[test]
    fn session_caches_repeated_renders() {
        let scene = tiny_scene();
        let session = scene.session();
        let cam = default_camera(6, 6, 0, 4);
        let req = RenderRequest::single(RenderSource::spnerf_masked(), cam)
            .with_reference(RenderSource::GroundTruth);
        let a = session.render(&req).unwrap();
        assert_eq!(session.cache_len(), 2, "masked + ground-truth reference");
        let b = session.render(&req).unwrap();
        assert_eq!(session.cache_len(), 2, "second request served from cache");
        assert_eq!(a.images, b.images);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.per_view_psnr, b.per_view_psnr);
        session.clear_cache();
        assert_eq!(session.cache_len(), 0);
    }

    #[test]
    fn empty_batch_and_reference_mismatch_are_request_errors() {
        let scene = tiny_scene();
        let session = scene.session();
        let empty = RenderRequest::batch(RenderSource::GroundTruth, Vec::new());
        assert!(matches!(session.render(&empty), Err(Error::Request(_))));

        let cam = default_camera(6, 6, 0, 4);
        let gt = session.render(&RenderRequest::single(RenderSource::GroundTruth, cam)).unwrap();
        let bad = RenderRequest::batch(RenderSource::Vqrf, vec![cam, default_camera(6, 6, 1, 4)])
            .with_reference_images(&gt.images);
        assert!(matches!(session.render(&bad), Err(Error::Request(_))));
    }

    #[test]
    fn reference_images_match_reference_source() {
        let scene = tiny_scene();
        let session = scene.session();
        let cams = vec![default_camera(6, 6, 0, 4), default_camera(6, 6, 2, 4)];
        let gt =
            session.render(&RenderRequest::batch(RenderSource::GroundTruth, cams.clone())).unwrap();
        let by_source = session
            .render(
                &RenderRequest::batch(RenderSource::Vqrf, cams.clone())
                    .with_reference(RenderSource::GroundTruth),
            )
            .unwrap();
        let by_images = session
            .render(
                &RenderRequest::batch(RenderSource::Vqrf, cams).with_reference_images(&gt.images),
            )
            .unwrap();
        assert_eq!(by_source.per_view_psnr, by_images.per_view_psnr);
        assert_eq!(by_source.psnr.unwrap().views, 2);
    }

    #[test]
    fn workload_reflects_merged_stats_and_model_bytes() {
        let scene = tiny_scene();
        let session = scene.session();
        let cams = vec![default_camera(5, 5, 0, 4), default_camera(5, 5, 1, 4)];
        let resp =
            session.render(&RenderRequest::batch(RenderSource::spnerf_masked(), cams)).unwrap();
        assert_eq!(resp.stats.rays, 50);
        assert_eq!(resp.workload.stats, resp.stats);
        assert_eq!(resp.workload.model_bytes, scene.model().footprint().total_bytes());
        assert_eq!(resp.workload.at_paper_resolution().stats.rays, 640_000);
    }

    #[test]
    fn camera_key_distinguishes_nearby_cameras() {
        let a = default_camera(8, 8, 0, 8);
        let b = default_camera(8, 8, 1, 8);
        assert_ne!(camera_key(&a), camera_key(&b));
        let a_copy = a;
        assert_eq!(camera_key(&a), camera_key(&a_copy));
    }

    #[test]
    fn scene_lookup_by_name() {
        assert_eq!(scene_by_name("lego").unwrap(), SceneId::Lego);
        assert!(matches!(scene_by_name("teapot"), Err(Error::UnknownScene(_))));
    }

    #[test]
    fn custom_grid_pipeline_builds_and_labels_the_workload() {
        use spnerf_voxel::coord::{GridCoord, GridDims};
        let mut grid = DenseGrid::zeros(GridDims::cube(12));
        for i in 0..6u32 {
            grid.set_density(GridCoord::new(2 + i, 5, 6), 0.5 + i as f32 * 0.05);
            grid.set_features(GridCoord::new(2 + i, 5, 6), &[0.25; 12]);
        }
        let scene = PipelineBuilder::from_grid("my-workload", grid.clone())
            .vqrf_config(VqrfConfig { codebook_size: 4, kmeans_iters: 1, ..Default::default() })
            .spnerf_config(SpNerfConfig { subgrid_count: 2, table_size: 512, codebook_size: 4 })
            .build()
            .expect("custom pipeline builds");
        assert_eq!(scene.id(), None);
        assert_eq!(scene.label(), "my-workload");
        assert_eq!(scene.grid(), &grid, "custom grid must be used verbatim");

        let session = scene.session();
        let resp = session
            .render(&RenderRequest::single(
                RenderSource::spnerf_masked(),
                default_camera(6, 6, 0, 4),
            ))
            .unwrap();
        assert_eq!(resp.workload.scene, "my-workload");
        assert_eq!(resp.stats.rays, 36);
    }

    #[test]
    fn custom_grid_ignores_grid_side_and_keeps_label_through_respecialization() {
        use spnerf_voxel::coord::{GridCoord, GridDims};
        let mut grid = DenseGrid::zeros(GridDims::cube(10));
        grid.set_density(GridCoord::new(4, 4, 4), 1.0);
        let b = PipelineBuilder::from_grid("tiny", grid)
            .grid_side(99)
            .vqrf_config(VqrfConfig { codebook_size: 4, kmeans_iters: 1, ..Default::default() })
            .spnerf_config(SpNerfConfig { subgrid_count: 2, table_size: 256, codebook_size: 4 });
        assert_eq!(b.side(), 10, "grid_side must not resize a custom grid");
        let scene = b.build().unwrap();
        let re = scene
            .with_spnerf(SpNerfConfig { subgrid_count: 1, table_size: 256, codebook_size: 4 })
            .unwrap();
        assert_eq!(re.label(), "tiny");
        assert_eq!(re.id(), None);
    }

    #[test]
    fn dataset_scene_labels_match_the_scene_name() {
        let scene = tiny_scene();
        assert_eq!(scene.id(), Some(SceneId::Mic));
        assert_eq!(scene.label(), "mic");
    }

    #[test]
    fn skip_sessions_are_pixel_exact_for_every_source() {
        let scene = tiny_scene();
        let off = scene.session();
        let on = scene.session_with(RenderConfig { skip_mode: SkipMode::mip(), ..off.cfg });
        let cam = default_camera(8, 8, 0, 4);
        for source in [
            RenderSource::GroundTruth,
            RenderSource::Vqrf,
            RenderSource::spnerf_masked(),
            RenderSource::spnerf_unmasked(),
            RenderSource::Baked,
        ] {
            let req = RenderRequest::single(source, cam);
            let a = off.render(&req).unwrap();
            let b = on.render(&req).unwrap();
            assert_eq!(a.images, b.images, "{source:?}: skipping must not change pixels");
            assert_eq!(a.stats.samples_shaded, b.stats.samples_shaded);
            assert!(b.stats.samples_skipped > 0, "{source:?}: something must be skipped");
            assert_eq!(
                a.stats.samples_marched,
                b.stats.samples_marched + b.stats.samples_skipped,
                "{source:?}: marched + skipped is invariant"
            );
            assert_eq!(b.workload.stats, b.stats);
        }
    }

    #[test]
    fn occupancy_mips_are_shared_not_rebuilt() {
        let scene = tiny_scene();
        let a = scene.occupancy_mip(RenderSource::GroundTruth);
        let b = scene.occupancy_mip(RenderSource::GroundTruth);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must reuse the cached pyramid");
        // Clones of the bundle share the cache; respecialization keeps the
        // offline-artifact pyramids but drops the model-dependent ones.
        let clone = scene.clone();
        assert!(Arc::ptr_eq(&a, &clone.occupancy_mip(RenderSource::GroundTruth)));
        let masked = scene.occupancy_mip(RenderSource::spnerf_masked());
        let re = scene
            .with_spnerf(SpNerfConfig { subgrid_count: 2, table_size: 1024, codebook_size: 16 })
            .unwrap();
        assert!(Arc::ptr_eq(&a, &re.occupancy_mip(RenderSource::GroundTruth)));
        assert!(
            !Arc::ptr_eq(&masked, &re.occupancy_mip(RenderSource::spnerf_masked())),
            "a respecialized model must get its own decode-support pyramid"
        );
    }

    #[test]
    fn baked_renders_collapse_mlp_work_to_pixels() {
        let scene = tiny_scene();
        let session = scene.session();
        let cam = default_camera(10, 10, 0, 4);
        let baked = session
            .render(
                &RenderRequest::single(RenderSource::Baked, cam)
                    .with_reference(RenderSource::GroundTruth),
            )
            .unwrap();
        assert!(baked.stats.pixels_shaded > 0, "something must be shaded");
        assert!(baked.stats.pixels_shaded <= baked.stats.rays);
        assert!(
            baked.stats.samples_shaded > baked.stats.pixels_shaded,
            "deferred shading must evaluate fewer MLPs than per-sample would"
        );
        assert!(baked.stats.is_deferred());
        assert_eq!(baked.workload.stats, baked.stats);
        assert!(baked.mean_psnr() > 0.0, "baked view must resemble ground truth");

        // The classical paths never report deferred pixels.
        let gt = session.render(&RenderRequest::single(RenderSource::GroundTruth, cam)).unwrap();
        assert_eq!(gt.stats.pixels_shaded, 0);
        assert!(!gt.stats.is_deferred());
        // Density is copied verbatim by the bake, so the marching workload
        // matches the ground-truth render exactly.
        assert_eq!(baked.stats.samples_marched, gt.stats.samples_marched);
        assert_eq!(baked.stats.samples_shaded, gt.stats.samples_shaded);
    }

    #[test]
    fn baked_grid_is_shared_not_rebaked() {
        let scene = tiny_scene();
        let a = scene.baked_grid();
        assert!(Arc::ptr_eq(&a, &scene.baked_grid()), "second lookup must reuse the bake");
        let clone = scene.clone();
        assert!(Arc::ptr_eq(&a, &clone.baked_grid()), "clones share the bake cache");
        let re = scene
            .with_spnerf(SpNerfConfig { subgrid_count: 2, table_size: 1024, codebook_size: 16 })
            .unwrap();
        assert!(
            Arc::ptr_eq(&a, &re.baked_grid()),
            "the bake depends only on shared offline artifacts and must survive respecialization"
        );
        assert!(Arc::ptr_eq(&scene.deferred, &re.deferred), "deferred MLP must be shared");
    }

    #[test]
    fn baked_renders_are_memoized_per_camera() {
        let scene = tiny_scene();
        let session = scene.session();
        let cam = default_camera(6, 6, 0, 4);
        let req = RenderRequest::single(RenderSource::Baked, cam);
        let a = session.render(&req).unwrap();
        assert_eq!(session.cache_len(), 1);
        let b = session.render(&req).unwrap();
        assert_eq!(session.cache_len(), 1, "second baked request served from cache");
        assert_eq!(a.images, b.images);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn resident_footprint_pins_to_the_memory_model() {
        let scene = tiny_scene();
        let fp = scene.resident_footprint();
        assert_eq!(fp.bytes_of("dense grid (f32)"), scene.grid().restored_bytes_f32());
        assert_eq!(
            fp.bytes_of("VQRF compressed"),
            scene.vqrf().compressed_footprint().total_bytes()
        );
        assert_eq!(fp.bytes_of("SpNeRF model"), scene.model().footprint().total_bytes());
        assert_eq!(fp.bytes_of("color MLP (f32)"), scene.mlp().resident_bytes());
        assert_eq!(fp.bytes_of("deferred MLP (f32)"), scene.deferred().resident_bytes());
        assert_eq!(
            fp.bytes_of("sparse index"),
            scene.sparse_index().footprint().total_bytes(),
            "the resident set must charge the selected sparse encoding"
        );
        assert_eq!(fp.bytes_of("baked grid (f32)"), 0, "unbaked bundle must not charge a bake");
        assert_eq!(scene.resident_bytes(), fp.total_bytes());

        // Baking grows the resident set by exactly the baked grid's bytes,
        // and clones (which share the bake cell) see the growth too.
        let before = scene.resident_bytes();
        let clone = scene.clone();
        let baked = scene.baked_grid();
        assert_eq!(scene.resident_bytes(), before + baked.baked_bytes_f32());
        assert_eq!(clone.resident_bytes(), scene.resident_bytes());
        assert_eq!(
            scene.resident_footprint().bytes_of("baked grid (f32)"),
            baked.baked_bytes_f32()
        );
    }

    #[test]
    fn sparse_formats_change_traffic_and_bytes_but_never_pixels() {
        let scene = tiny_scene();
        assert_eq!(scene.sparse_selection(), FormatSelection::Auto);
        let cam = default_camera(8, 8, 0, 4);
        let req = RenderRequest::single(RenderSource::spnerf_masked(), cam);
        let base = scene.session().render(&req).unwrap();
        let mut kinds = Vec::new();
        let mut footprints = Vec::new();
        for kind in FormatKind::ALL {
            let other = scene.with_sparse_format(FormatSelection::Fixed(kind));
            assert_eq!(other.sparse_kind(), kind);
            assert!(
                Arc::ptr_eq(&scene.grid, &other.grid) && Arc::ptr_eq(&scene.vqrf, &other.vqrf),
                "format respecialization must share the offline artifacts"
            );
            let resp = other.session().render(&req).unwrap();
            assert_eq!(resp.images, base.images, "{kind}: pixels must not depend on the format");
            assert_eq!(resp.stats, base.stats, "{kind}: marching must not depend on the format");
            assert_eq!(
                resp.workload.format_bytes,
                resp.stats.samples_marched * other.sparse_index().access_cost().bytes_per_lookup,
                "{kind}: metadata traffic must follow the access-cost descriptor"
            );
            kinds.push(resp.workload.format_bytes);
            footprints.push(other.resident_bytes());
        }
        assert!(
            kinds.iter().collect::<std::collections::HashSet<_>>().len() > 1,
            "formats must differ in lookup traffic: {kinds:?}"
        );
        assert!(
            footprints.iter().collect::<std::collections::HashSet<_>>().len() > 1,
            "formats must differ in resident bytes: {footprints:?}"
        );
    }

    #[test]
    fn auto_selection_matches_the_voxel_selector() {
        use spnerf_voxel::sparse::{select_format, OccupancyStats};
        let scene = tiny_scene();
        let expected = select_format(&OccupancyStats::from_bitmap(scene.model().bitmap()));
        assert_eq!(scene.sparse_kind(), expected);
        // Respecializing the SpNeRF stage re-resolves over the new bitmap.
        let re = scene
            .with_spnerf(SpNerfConfig { subgrid_count: 2, table_size: 1024, codebook_size: 16 })
            .unwrap();
        let re_expected = select_format(&OccupancyStats::from_bitmap(re.model().bitmap()));
        assert_eq!(re.sparse_kind(), re_expected);
    }

    #[test]
    fn builder_skip_mode_flows_into_sessions() {
        let scene = PipelineBuilder::new(SceneId::Mic)
            .grid_side(12)
            .vqrf_config(VqrfConfig { codebook_size: 4, kmeans_iters: 1, ..Default::default() })
            .spnerf_config(SpNerfConfig { subgrid_count: 2, table_size: 512, codebook_size: 4 })
            .render_config(RenderConfig { skip_mode: SkipMode::mip(), ..Default::default() })
            .build()
            .unwrap();
        assert_eq!(scene.render_config().skip_mode, SkipMode::mip());
        assert_eq!(scene.session().render_config().skip_mode, SkipMode::mip());
    }
}
