//! Per-frame workload descriptors.
//!
//! The cycle-level simulator does not re-render pixels; it consumes the
//! workload a frame generates — how many samples were marched (SGPU work),
//! how many were shaded (MLP work), and how many bytes of model data stream
//! from DRAM. These are measured by the reference renderer
//! ([`spnerf_render::renderer::RenderStats`]) at a convenient resolution and
//! scaled to the paper's 800×800 target.

use spnerf_core::SpNerfModel;
use spnerf_render::renderer::RenderStats;

/// The paper's evaluation render resolution (Synthetic-NeRF, 800×800).
pub const PAPER_WIDTH: u32 = 800;
/// See [`PAPER_WIDTH`].
pub const PAPER_HEIGHT: u32 = 800;

/// Workload of rendering one frame: the renderer's measured counters plus
/// the bytes the frame streams from DRAM.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameWorkload {
    /// Scene label.
    pub scene: String,
    /// The frame's render counters. The simulator charges one SGPU decode
    /// per marched sample and one MLP evaluation per shaded sample, or per
    /// shaded pixel when [`RenderStats::is_deferred`] (the small deferred
    /// network of bake-and-defer rendering). Skipped samples and warped
    /// rays never appear in the marched or shaded counts, so they cost
    /// nothing: the same accounting the paper applies to pruned voxels.
    pub stats: RenderStats,
    /// SpNeRF model bytes streamed from DRAM per frame (hash tables, bitmap,
    /// codebook, true voxel grid).
    pub model_bytes: usize,
    /// Sparse-format metadata bytes streamed from DRAM per frame: the
    /// directory/pointer/coordinate reads the scene's selected
    /// `SparseFormat` performs per marched sample
    /// (`samples_marched × bytes_per_lookup`). `0` reproduces the historical
    /// accounting bit for bit — formats change lookup traffic, never pixels.
    pub format_bytes: usize,
}

impl FrameWorkload {
    /// Builds a workload from measured render statistics and the model that
    /// was rendered.
    pub fn from_render(scene: impl Into<String>, stats: &RenderStats, model: &SpNerfModel) -> Self {
        Self {
            scene: scene.into(),
            stats: *stats,
            model_bytes: model.footprint().total_bytes(),
            format_bytes: 0,
        }
    }

    /// Attaches the per-frame sparse-format metadata traffic (see
    /// [`Self::format_bytes`]).
    pub fn with_format_traffic(mut self, bytes: usize) -> Self {
        self.format_bytes = bytes;
        self
    }

    /// Rescales every counter to a different resolution (ray count),
    /// keeping per-ray rates constant. Used to extrapolate a low-res
    /// measurement to the paper's 800×800 frames.
    pub fn scaled_to(&self, width: u32, height: u32) -> Self {
        let target_rays = width as usize * height as usize;
        let f = target_rays as f64 / self.stats.rays.max(1) as f64;
        let scale = |n: usize| (n as f64 * f).round() as usize;
        let s = &self.stats;
        Self {
            scene: self.scene.clone(),
            stats: RenderStats {
                rays: target_rays,
                samples_marched: scale(s.samples_marched),
                samples_shaded: scale(s.samples_shaded),
                rays_terminated_early: scale(s.rays_terminated_early),
                samples_skipped: scale(s.samples_skipped),
                pixels_shaded: scale(s.pixels_shaded),
                rays_warped: scale(s.rays_warped),
                rays_remarched: scale(s.rays_remarched),
            },
            model_bytes: self.model_bytes,
            // Metadata traffic is per-lookup, so it scales with the samples.
            format_bytes: scale(self.format_bytes),
        }
    }

    /// Convenience: rescale to the paper's 800×800 frames.
    pub fn at_paper_resolution(&self) -> Self {
        self.scaled_to(PAPER_WIDTH, PAPER_HEIGHT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> RenderStats {
        RenderStats {
            rays: 1024,
            samples_marched: 30_000,
            samples_shaded: 2_000,
            rays_terminated_early: 100,
            samples_skipped: 500,
            pixels_shaded: 400,
            rays_warped: 768,
            rays_remarched: 256,
        }
    }

    fn workload() -> FrameWorkload {
        FrameWorkload {
            scene: "test".into(),
            stats: stats(),
            model_bytes: 7 << 20,
            format_bytes: 0,
        }
    }

    #[test]
    fn scaling_preserves_per_ray_ratios() {
        // 1024 → 640 000 rays is exactly 625×, so every counter scales
        // without rounding.
        let w = workload();
        let scaled = w.scaled_to(800, 800);
        assert_eq!(
            scaled.stats,
            RenderStats {
                rays: 640_000,
                samples_marched: 18_750_000,
                samples_shaded: 1_250_000,
                rays_terminated_early: 62_500,
                samples_skipped: 312_500,
                pixels_shaded: 250_000,
                rays_warped: 480_000,
                rays_remarched: 160_000,
            }
        );
        assert_eq!(scaled.stats.avg_marched_per_ray(), w.stats.avg_marched_per_ray());
        assert_eq!(scaled.stats.avg_shaded_per_ray(), w.stats.avg_shaded_per_ray());
        assert_eq!(scaled.stats.mlp_collapse(), w.stats.mlp_collapse());
        assert_eq!(scaled.stats.warp_fraction(), w.stats.warp_fraction());
        assert_eq!(scaled.model_bytes, w.model_bytes); // model size is per scene
    }

    #[test]
    fn paper_resolution_is_640k_rays() {
        let s = workload().at_paper_resolution();
        assert_eq!(s.stats.rays, PAPER_WIDTH as usize * PAPER_HEIGHT as usize);
    }

    #[test]
    fn from_render_copies_stats() {
        // Build a tiny real model to check the byte accounting wire-up.
        use spnerf_core::SpNerfConfig;
        use spnerf_voxel::coord::{GridCoord, GridDims};
        use spnerf_voxel::grid::DenseGrid;
        use spnerf_voxel::vqrf::{VqrfConfig, VqrfModel};

        let mut g = DenseGrid::zeros(GridDims::cube(8));
        g.set_density(GridCoord::new(1, 1, 1), 0.5);
        let vqrf = VqrfModel::build(&g, &VqrfConfig { codebook_size: 4, ..Default::default() });
        let cfg = SpNerfConfig { subgrid_count: 2, table_size: 256, codebook_size: 4 };
        let model = SpNerfModel::build(&vqrf, &cfg).unwrap();
        let w = FrameWorkload::from_render("chair", &stats(), &model);
        assert_eq!(w.scene, "chair");
        assert_eq!(w.stats, stats());
        assert_eq!(w.model_bytes, model.footprint().total_bytes());
        assert_eq!(w.format_bytes, 0, "format traffic is attached explicitly");
        assert_eq!(w.with_format_traffic(1234).format_bytes, 1234);
    }

    #[test]
    fn format_traffic_scales_like_lookups() {
        let w = workload().with_format_traffic(64_000);
        let scaled = w.scaled_to(800, 800);
        let f = scaled.stats.rays as f64 / w.stats.rays as f64;
        assert_eq!(scaled.format_bytes, (64_000.0 * f).round() as usize);
        assert_eq!(scaled.model_bytes, w.model_bytes, "model bytes stay per scene");
    }
}
