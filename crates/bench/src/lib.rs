//! # spnerf-bench
//!
//! Shared harness code behind the figure/table regeneration binaries.
//! Each binary in `src/bin/` reproduces one table or figure of the paper
//! (see DESIGN.md §4 for the full index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1_platforms` | Table I (platform specs) |
//! | `fig2_profiling` | Fig. 2(a) runtime split + Fig. 2(b) sparsity |
//! | `fig6_memory_psnr` | Fig. 6(a) memory reduction + Fig. 6(b) PSNR |
//! | `fig7_sweeps` | Fig. 7(a) PSNR vs subgrids + Fig. 7(b) vs table size |
//! | `fig8_speedup_energy` | Fig. 8(a) speedup + Fig. 8(b) energy efficiency |
//! | `fig8_formats` | sparse-format index sizes and metadata traffic (fig8-style) |
//! | `fig9_area_power` | Fig. 9(a) area + Fig. 9(b) power breakdowns |
//! | `fig9_temporal` | trajectory reuse: amortized per-frame cost (fig9-style) |
//! | `table2_comparison` | Table II (accelerator comparison) |
//! | `ablation_preprocess` | preprocessing-policy ablation (not a paper figure) |
//!
//! Each binary declares the [`cli::Flag`]s it reads and accepts only
//! those; `--help` lists them, and any other flag exits 2 with usage text.
//! Every binary accepts `--quick`, which runs a reduced-fidelity preset
//! (small grids, small codebook, small renders) that exercises the
//! identical code path in seconds. Every binary that renders accepts
//! `--threads N` (or the `SPNERF_THREADS` environment variable; `0` = all
//! cores), which renders through the tile-parallel engine — outputs are
//! bitwise-identical at every thread count.
//!
//! Scene construction and rendering go through the `spnerf`
//! [`pipeline`](spnerf::pipeline) layer: a [`Fidelity`] preset maps onto a
//! [`PipelineBuilder`], and every PSNR/workload measurement is served by a
//! [`spnerf::RenderSession`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use spnerf::accel::frame::FrameWorkload;
use spnerf::pipeline::{PipelineBuilder, RenderRequest, RenderSource, Scene};
use spnerf::render::camera::PinholeCamera;
use spnerf::render::renderer::{RenderConfig, RenderStats, SkipMode};
use spnerf::render::scene::{default_camera, SceneId};
use spnerf::voxel::sparse::FormatSelection;
use spnerf::voxel::vqrf::VqrfConfig;
use spnerf_testkit::corpus::{generate, Corpus, CorpusSpec};
use spnerf_testkit::fixtures::MLP_SEED;

pub mod cli;
pub mod snapshot;

pub use cli::SourceMode;
pub use spnerf::core::SpNerfConfig;

/// Fidelity preset for a harness run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    /// Grid side; `None` uses each scene's paper-scale side.
    pub grid_side: Option<u32>,
    /// Rendered image side (square).
    pub image: u32,
    /// Ray-march steps across the scene AABB.
    pub samples_per_ray: usize,
    /// VQRF codebook size.
    pub codebook: usize,
    /// k-means Lloyd iterations.
    pub kmeans_iters: usize,
    /// k-means training subsample.
    pub kmeans_subsample: usize,
    /// SpNeRF operating point (subgrids / table size).
    pub subgrid_count: usize,
    /// Hash-table entries per subgrid.
    pub table_size: usize,
    /// Render worker threads (`0` = all cores); forwarded to
    /// [`RenderConfig::parallelism`].
    pub threads: usize,
    /// Empty-space skipping policy; forwarded to
    /// [`RenderConfig::skip_mode`]. Images (and therefore every PSNR
    /// column) are bitwise-identical in every mode; marched-sample and
    /// cycle columns drop with skipping on.
    pub skip_mode: SkipMode,
    /// Primary data path measurements flow from ([`SourceMode::SpNerf`] is
    /// the paper's pipeline; [`SourceMode::Baked`] swaps the primary
    /// stats/workload to the bake-and-defer render, whose MLP column is
    /// per-pixel).
    pub source: SourceMode,
    /// Sparse occupancy-index encoding; forwarded to
    /// [`PipelineBuilder::sparse_format`]. Images are bitwise-identical in
    /// every format; the metadata-traffic and resident-byte columns move.
    pub sparse_format: FormatSelection,
}

impl Fidelity {
    /// Paper-scale preset: scene-specific grids, 4096-entry codebook, the
    /// K = 64 / T = 32 k operating point.
    pub fn paper() -> Self {
        Self {
            grid_side: None,
            image: 64,
            samples_per_ray: 128,
            codebook: 4096,
            kmeans_iters: 3,
            kmeans_subsample: 8192,
            subgrid_count: 64,
            table_size: 32 * 1024,
            threads: 1,
            skip_mode: SkipMode::Off,
            source: SourceMode::SpNerf,
            sparse_format: FormatSelection::Auto,
        }
    }

    /// Reduced preset for smoke runs (`--quick`). Marching stays at 96
    /// samples per ray — coarser marching saturates opacity in so few
    /// samples that the deferred path's per-sample → per-pixel MLP-work
    /// collapse (the fig2-style headline) would be invisible at smoke
    /// fidelity.
    pub fn quick() -> Self {
        Self {
            grid_side: Some(48),
            image: 24,
            samples_per_ray: 96,
            codebook: 128,
            kmeans_iters: 2,
            kmeans_subsample: 2048,
            subgrid_count: 16,
            table_size: 4096,
            threads: 1,
            skip_mode: SkipMode::Off,
            source: SourceMode::SpNerf,
            sparse_format: FormatSelection::Auto,
        }
    }

    /// Builds the preset a parsed argument set selects: `--quick` selects
    /// the reduced preset, and `--threads`, `--skip-mode`, `--source` and
    /// `--sparse-format` override its knobs. Binaries call it as
    /// `Fidelity::from_cli(&cli::parse_or_exit(FLAGS))`; a flag the binary
    /// does not declare keeps its default here.
    pub fn from_cli(args: &cli::HarnessArgs) -> Self {
        let mut fid = if args.quick { Self::quick() } else { Self::paper() };
        if let Some(threads) = args.threads {
            fid.threads = threads;
        }
        fid.skip_mode = args.skip_mode;
        fid.source = args.source;
        fid.sparse_format = args.sparse_format;
        fid
    }

    /// The VQRF build configuration of this preset.
    pub fn vqrf_config(&self) -> VqrfConfig {
        VqrfConfig {
            codebook_size: self.codebook,
            kmeans_iters: self.kmeans_iters,
            kmeans_subsample: self.kmeans_subsample,
            ..Default::default()
        }
    }

    /// The SpNeRF configuration of this preset.
    pub fn spnerf_config(&self) -> SpNerfConfig {
        SpNerfConfig {
            subgrid_count: self.subgrid_count,
            table_size: self.table_size,
            codebook_size: self.codebook,
        }
    }

    /// The render configuration of this preset.
    pub fn render_config(&self) -> RenderConfig {
        RenderConfig {
            samples_per_ray: self.samples_per_ray,
            parallelism: self.threads,
            skip_mode: self.skip_mode,
            ..Default::default()
        }
    }

    /// Grid side used for `scene` under this preset.
    pub fn side_for(&self, scene: SceneId) -> u32 {
        self.grid_side.unwrap_or(scene.spec().paper_grid_side)
    }

    /// The pipeline this preset configures for `scene` — the single place
    /// harness presets meet the `spnerf` front door.
    pub fn pipeline(&self, id: SceneId) -> PipelineBuilder {
        let mut b = PipelineBuilder::new(id)
            .vqrf_config(self.vqrf_config())
            .spnerf_config(self.spnerf_config())
            .mlp_seed(MLP_SEED)
            .render_config(self.render_config())
            .sparse_format(self.sparse_format);
        if let Some(side) = self.grid_side {
            b = b.grid_side(side);
        }
        b
    }
}

/// Builds the full artifact bundle (grid + VQRF + SpNeRF model + MLP) for a
/// scene through the pipeline front door.
///
/// # Panics
///
/// Panics if the build fails (cannot happen for the provided presets).
pub fn build_scene(id: SceneId, fid: &Fidelity) -> Scene {
    fid.pipeline(id).build().expect("preset configurations are valid")
}

/// One scene of a harness sweep: a Synthetic-NeRF dataset stand-in or a
/// testkit corpus archetype (`--corpus`).
#[derive(Debug, Clone, PartialEq)]
pub enum SweepItem {
    /// One of the eight dataset scenes.
    Dataset(SceneId),
    /// One procedural corpus archetype.
    Corpus(CorpusSpec),
}

impl SweepItem {
    /// The row label figure tables print.
    pub fn label(&self) -> String {
        match self {
            SweepItem::Dataset(id) => id.name().to_string(),
            SweepItem::Corpus(spec) => spec.archetype.name().to_string(),
        }
    }
}

/// Grid side corpus sweeps use when the preset has no explicit side (the
/// corpus has no per-scene paper side to fall back to).
pub const CORPUS_PAPER_SIDE: u32 = 64;

/// The scenes a sweep covers: the eight dataset scenes, or — with
/// `--corpus` — the five testkit archetypes at their designed occupancies.
pub fn sweep_items(fid: &Fidelity, corpus: bool) -> Vec<SweepItem> {
    if corpus {
        let side = fid.grid_side.unwrap_or(CORPUS_PAPER_SIDE);
        Corpus::with_side(side).map(SweepItem::Corpus).collect()
    } else {
        SceneId::all().into_iter().map(SweepItem::Dataset).collect()
    }
}

/// Builds one sweep item's artifact bundle at the preset's fidelity —
/// [`build_scene`] generalized over [`SweepItem`].
///
/// # Panics
///
/// Panics if the build fails (cannot happen for the provided presets).
pub fn build_sweep_scene(item: &SweepItem, fid: &Fidelity) -> Scene {
    match item {
        SweepItem::Dataset(id) => build_scene(*id, fid),
        SweepItem::Corpus(spec) => PipelineBuilder::from_grid(spec.label(), generate(spec))
            .vqrf_config(fid.vqrf_config())
            .spnerf_config(fid.spnerf_config())
            .mlp_seed(MLP_SEED)
            .render_config(fid.render_config())
            .sparse_format(fid.sparse_format)
            .build()
            .expect("corpus preset configurations are valid"),
    }
}

/// The default evaluation camera of a preset.
pub fn camera(fid: &Fidelity) -> PinholeCamera {
    default_camera(fid.image, fid.image, 1, 8)
}

/// Full quality/workload evaluation of one scene.
#[derive(Debug, Clone)]
pub struct SceneEval {
    /// Scene label (dataset name, or a corpus spec label).
    pub label: String,
    /// PSNR of the VQRF gold decode vs the dense ground truth.
    pub psnr_vqrf: f64,
    /// PSNR of SpNeRF with bitmap masking.
    pub psnr_masked: f64,
    /// PSNR of SpNeRF without bitmap masking (the ablation).
    pub psnr_unmasked: f64,
    /// PSNR of the bake-and-defer render vs ground truth; `None` unless the
    /// preset runs with [`SourceMode::Baked`].
    pub psnr_baked: Option<f64>,
    /// Render statistics of the primary pass (masked SpNeRF, or the baked
    /// render under [`SourceMode::Baked`]).
    pub stats: RenderStats,
    /// Frame workload of the primary pass extrapolated to the paper's
    /// 800×800 resolution.
    pub workload: FrameWorkload,
}

/// Renders ground truth, VQRF and both SpNeRF variants of a scene through
/// one cached [`spnerf::RenderSession`] — the ground-truth reference is
/// rendered once and reused across all three comparisons.
pub fn evaluate_scene(scene: &Scene, fid: &Fidelity) -> SceneEval {
    let session = scene.session();
    let cams = vec![camera(fid)];
    let eval = |source: RenderSource| {
        session
            .render(
                &RenderRequest::batch(source, cams.clone())
                    .with_reference(RenderSource::GroundTruth),
            )
            .expect("non-empty batch with a rendered reference")
    };
    let vq = eval(RenderSource::Vqrf);
    let masked = eval(RenderSource::spnerf_masked());
    let unmasked = eval(RenderSource::spnerf_unmasked());
    // Under `--source baked` the primary stats/workload columns come from
    // the bake-and-defer render instead of the masked decode — that is the
    // measurement whose MLP column collapses from samples to pixels.
    let (psnr_baked, stats, workload) = match fid.source {
        SourceMode::SpNerf => (None, masked.stats, masked.workload.at_paper_resolution()),
        SourceMode::Baked => {
            let baked = eval(RenderSource::Baked);
            (Some(baked.mean_psnr()), baked.stats, baked.workload.at_paper_resolution())
        }
    };
    SceneEval {
        label: scene.label().to_string(),
        psnr_vqrf: vq.mean_psnr(),
        psnr_masked: masked.mean_psnr(),
        psnr_unmasked: unmasked.mean_psnr(),
        psnr_baked,
        stats,
        workload,
    }
}

/// Prints an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Geometric-mean helper used by the summary rows.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_preset_pipeline_end_to_end() {
        let fid = Fidelity::quick();
        let scene = build_scene(SceneId::Mic, &fid);
        let eval = evaluate_scene(&scene, &fid);
        // Quality ordering: VQRF ≥ masked SpNeRF > unmasked SpNeRF.
        assert!(eval.psnr_masked > eval.psnr_unmasked, "masking must help");
        assert!(eval.psnr_vqrf >= eval.psnr_masked - 1.0);
        assert_eq!(eval.workload.stats.rays, 640_000);
    }

    #[test]
    fn stats_helpers() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn threads_flow_into_render_config() {
        let mut fid = Fidelity::quick();
        assert_eq!(fid.render_config().parallelism, 1);
        fid.threads = 4;
        assert_eq!(fid.render_config().parallelism, 4);
    }

    #[test]
    fn cli_args_select_the_preset() {
        let quick = Fidelity::from_cli(&cli::HarnessArgs { quick: true, ..Default::default() });
        assert_eq!(quick, Fidelity::quick());
        let threaded =
            Fidelity::from_cli(&cli::HarnessArgs { threads: Some(3), ..Default::default() });
        assert_eq!(threaded.threads, 3);
        assert_eq!(threaded.codebook, Fidelity::paper().codebook);
        let skipping = Fidelity::from_cli(&cli::HarnessArgs {
            quick: true,
            skip_mode: SkipMode::mip(),
            ..Default::default()
        });
        assert_eq!(skipping.skip_mode, SkipMode::mip());
        assert_eq!(skipping.render_config().skip_mode, SkipMode::mip());
    }

    #[test]
    fn sweep_items_cover_scenes_or_archetypes() {
        let fid = Fidelity::quick();
        let scenes = sweep_items(&fid, false);
        assert_eq!(scenes.len(), 8);
        assert_eq!(scenes[0].label(), "chair");

        let corpus = sweep_items(&fid, true);
        assert_eq!(corpus.len(), 5);
        assert_eq!(corpus[0].label(), "dense-blob");
        match &corpus[0] {
            SweepItem::Corpus(spec) => assert_eq!(spec.side, 48, "quick preset side"),
            other => panic!("expected a corpus item, got {other:?}"),
        }
        // Paper preset (no explicit side) falls back to the corpus side.
        match &sweep_items(&Fidelity::paper(), true)[0] {
            SweepItem::Corpus(spec) => assert_eq!(spec.side, CORPUS_PAPER_SIDE),
            other => panic!("expected a corpus item, got {other:?}"),
        }
    }

    #[test]
    fn corpus_sweep_scene_builds_and_evaluates() {
        let fid = Fidelity::quick();
        let item = &sweep_items(&fid, true)[2]; // thin-shell
        let scene = build_sweep_scene(item, &fid);
        assert_eq!(
            scene.label(),
            match item {
                SweepItem::Corpus(spec) => spec.label(),
                SweepItem::Dataset(id) => id.name().to_string(),
            }
        );
        assert_eq!(scene.id(), None);
        let eval = evaluate_scene(&scene, &fid);
        assert!(eval.psnr_masked > eval.psnr_unmasked, "masking must help on corpus scenes too");
        assert_eq!(eval.workload.stats.rays, 640_000);
    }

    #[test]
    fn baked_quick_corpus_collapses_mlp_work_on_dense_blob() {
        let fid = Fidelity { source: SourceMode::Baked, ..Fidelity::quick() };
        let item = &sweep_items(&fid, true)[0];
        assert_eq!(item.label(), "dense-blob");
        let scene = build_sweep_scene(item, &fid);
        let eval = evaluate_scene(&scene, &fid);
        assert!(eval.psnr_baked.is_some(), "baked mode must report its PSNR");
        assert!(eval.workload.stats.is_deferred(), "baked mode must produce a deferred workload");
        let collapse = eval.workload.stats.mlp_collapse();
        assert!(
            collapse >= 5.0,
            "dense-blob at quick fidelity must evaluate ≥5x fewer MLPs deferred, got {collapse:.2}x"
        );
        // The same scene under the default mode keeps the classical column.
        let classic = evaluate_scene(&scene, &Fidelity::quick());
        assert!(!classic.workload.stats.is_deferred());
        assert!(classic.psnr_baked.is_none());
    }

    #[test]
    fn presets_differ() {
        let p = Fidelity::paper();
        let q = Fidelity::quick();
        assert!(p.codebook > q.codebook);
        assert_eq!(p.subgrid_count, 64);
        assert_eq!(p.table_size, 32 * 1024);
        assert_eq!(q.side_for(SceneId::Ship), 48);
        assert_eq!(p.side_for(SceneId::Ship), SceneId::Ship.spec().paper_grid_side);
    }

    #[test]
    fn preset_pipeline_carries_every_knob() {
        let fid = Fidelity::quick();
        let b = fid.pipeline(SceneId::Lego);
        assert_eq!(b.side(), 48);
        let scene = b.build().expect("quick preset builds");
        assert_eq!(scene.spnerf_config(), fid.spnerf_config());
        assert_eq!(scene.render_config(), fid.render_config());
        assert_eq!(scene.grid().dims(), spnerf::voxel::coord::GridDims::cube(48));
    }
}
