//! The complete SpNeRF model: hash tables + codebook + true voxel grid +
//! bitmap, with byte-accurate memory accounting.
//!
//! This is the artifact the accelerator streams from DRAM — the entire
//! replacement for VQRF's restored dense grid. Its footprint versus
//! [`VqrfModel::restored_footprint`] is the paper's Fig. 6(a) (21.07×
//! average reduction). The bitmap is the base of an [`OccupancyMip`] built
//! with the model, the pyramid the masked view hands the renderer; only
//! the base is charged.

use std::sync::Arc;

use spnerf_voxel::bitmap::Bitmap;
use spnerf_voxel::coord::{GridCoord, GridDims};
use spnerf_voxel::kmeans::Codebook;
use spnerf_voxel::memory::MemoryFootprint;
use spnerf_voxel::mip::OccupancyMip;
use spnerf_voxel::quant::QuantizedTensor;
use spnerf_voxel::vqrf::VqrfModel;
use spnerf_voxel::FEATURE_DIM;

use crate::config::SpNerfConfig;
use crate::decode::{MaskMode, SpNerfView};
use crate::error::BuildError;
use crate::partition::SubgridPartition;
use crate::preprocess::{build_tables_with, PreprocessOptions, PreprocessReport};
use crate::table::{HashEntry, HashTable};

/// A built SpNeRF model, ready for online decoding.
///
/// # Examples
///
/// ```
/// use spnerf_core::{SpNerfConfig, SpNerfModel};
/// use spnerf_voxel::coord::{GridCoord, GridDims};
/// use spnerf_voxel::grid::DenseGrid;
/// use spnerf_voxel::vqrf::{VqrfConfig, VqrfModel};
///
/// let mut g = DenseGrid::zeros(GridDims::cube(16));
/// g.set_density(GridCoord::new(3, 4, 5), 0.9);
/// g.set_features(GridCoord::new(3, 4, 5), &[0.5; 12]);
/// let vqrf = VqrfModel::build(&g, &VqrfConfig { codebook_size: 8, ..Default::default() });
///
/// let cfg = SpNerfConfig { subgrid_count: 4, table_size: 1024, codebook_size: 8 };
/// let model = SpNerfModel::build(&vqrf, &cfg)?;
/// assert!(model.footprint().total_bytes() < vqrf.restored_footprint().total_bytes());
/// # Ok::<(), spnerf_core::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SpNerfModel {
    cfg: SpNerfConfig,
    dims: GridDims,
    partition: SubgridPartition,
    tables: Vec<HashTable>,
    codebook: Codebook,
    kept: QuantizedTensor,
    density_scale: f32,
    /// The occupancy bitmap as its pyramid's base, built once.
    occupancy: Arc<OccupancyMip>,
    report: PreprocessReport,
}

impl SpNerfModel {
    /// Runs the preprocessing step on a VQRF model and assembles the full
    /// SpNeRF artifact (default preprocessing policies).
    ///
    /// # Errors
    ///
    /// See [`crate::preprocess::build_tables`].
    pub fn build(vqrf: &VqrfModel, cfg: &SpNerfConfig) -> Result<Self, BuildError> {
        Self::build_with(vqrf, cfg, PreprocessOptions::default())
    }

    /// Like [`Self::build`] but with explicit [`PreprocessOptions`] — used
    /// by the insertion-order / density-merge ablations.
    ///
    /// # Errors
    ///
    /// See [`crate::preprocess::build_tables`].
    pub fn build_with(
        vqrf: &VqrfModel,
        cfg: &SpNerfConfig,
        opts: PreprocessOptions,
    ) -> Result<Self, BuildError> {
        // The pyramid is built before the tables: built after them, its
        // small long-lived levels kept glibc's heap from trimming the
        // tables' freed transients, and `paper-stills` peak RSS rose from
        // 36.5 to 43 MiB.
        let mut bitmap = Bitmap::zeros(vqrf.dims());
        for p in vqrf.points() {
            bitmap.set(p.coord, true);
        }
        let occupancy = Arc::new(OccupancyMip::build(bitmap));
        let (tables, partition, report) = build_tables_with(vqrf, cfg, opts)?;
        Ok(Self {
            cfg: *cfg,
            dims: vqrf.dims(),
            partition,
            tables,
            codebook: vqrf.codebook().clone(),
            kept: vqrf.kept_quant().clone(),
            density_scale: vqrf.density_quant().params().scale(),
            occupancy,
            report,
        })
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &SpNerfConfig {
        &self.cfg
    }

    /// Voxel grid dimensions.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// The subgrid partition.
    pub fn partition(&self) -> &SubgridPartition {
        &self.partition
    }

    /// The per-subgrid hash tables.
    pub fn tables(&self) -> &[HashTable] {
        &self.tables
    }

    /// The occupancy bitmap used for masking: the base of
    /// [`Self::occupancy`].
    pub fn bitmap(&self) -> &Bitmap {
        self.occupancy.base()
    }

    /// The occupancy pyramid over [`Self::bitmap`], built with the model and
    /// `Arc`-shared with every render of its masked view.
    pub fn occupancy(&self) -> &Arc<OccupancyMip> {
        &self.occupancy
    }

    /// Preprocessing statistics (collisions, load factors).
    pub fn report(&self) -> &PreprocessReport {
        &self.report
    }

    /// The color codebook (FP16 buffer contents).
    pub fn codebook(&self) -> &Codebook {
        &self.codebook
    }

    /// The INT8 true voxel grid.
    pub fn kept(&self) -> &QuantizedTensor {
        &self.kept
    }

    /// The density dequantization scale.
    pub fn density_scale(&self) -> f32 {
        self.density_scale
    }

    /// Raw hash-table lookup for vertex `c` (no masking): the HMU step alone.
    pub fn raw_lookup(&self, c: GridCoord) -> Option<HashEntry> {
        if !self.dims.contains(c) {
            return None;
        }
        self.tables[self.partition.subgrid_of(c)].lookup(c)
    }

    /// Resolves an 18-bit unified address to a feature vector: codebook for
    /// `index < codebook_size`, true voxel grid otherwise — the HMU's
    /// address comparison plus the TIU's INT8 dequantization.
    ///
    /// Returns `None` when a true-grid address points past the stored rows
    /// (possible only for corrupted indices; the hardware would read
    /// garbage, software treats it as empty).
    pub fn resolve_features(&self, index: u32) -> Option<[f32; FEATURE_DIM]> {
        let idx = index as usize;
        let mut out = [0.0f32; FEATURE_DIM];
        if idx < self.cfg.codebook_size {
            if idx >= self.codebook.len() {
                return None;
            }
            out.copy_from_slice(self.codebook.centroid(idx));
            Some(out)
        } else {
            let row = idx - self.cfg.codebook_size;
            if (row + 1) * FEATURE_DIM > self.kept.len() {
                return None;
            }
            for (j, slot) in out.iter_mut().enumerate() {
                *slot = self.kept.dequantize_at(row * FEATURE_DIM + j);
            }
            Some(out)
        }
    }

    /// A renderable view with the chosen masking mode.
    pub fn view(&self, mode: MaskMode) -> SpNerfView<'_> {
        SpNerfView::new(self, mode)
    }

    /// Shorthand for [`Self::view`] with [`MaskMode::Masked`] (the full
    /// SpNeRF decode path).
    pub fn masked(&self) -> SpNerfView<'_> {
        self.view(MaskMode::Masked)
    }

    /// Shorthand for [`Self::view`] with [`MaskMode::Unmasked`] (the
    /// "before bitmap masking" ablation).
    pub fn unmasked(&self) -> SpNerfView<'_> {
        self.view(MaskMode::Unmasked)
    }

    /// Itemized memory footprint of everything the accelerator must hold for
    /// this scene — the SpNeRF bar of Fig. 6(a).
    pub fn footprint(&self) -> MemoryFootprint {
        let mut fp = MemoryFootprint::new("SpNeRF model");
        fp.add("hash tables", self.tables.iter().map(HashTable::storage_bytes).sum());
        // The bitmap only: the pyramid's coarse levels are not charged.
        fp.add("bitmap", self.bitmap().storage_bytes());
        fp.add("codebook (FP16)", self.codebook.len() * FEATURE_DIM * 2);
        fp.add("true voxel grid (INT8)", self.kept.storage_bytes());
        fp
    }

    /// Convenience: `VQRF restored bytes / SpNeRF bytes`, the per-scene
    /// reduction factor of Fig. 6(a).
    pub fn memory_reduction_vs(&self, vqrf: &VqrfModel) -> f64 {
        self.footprint().reduction_vs(&vqrf.restored_footprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spnerf_voxel::grid::DenseGrid;
    use spnerf_voxel::vqrf::VqrfConfig;

    fn fixture(side: u32, occ: f64, seed: u64) -> (VqrfModel, SpNerfModel) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = GridDims::cube(side);
        let mut g = DenseGrid::zeros(dims);
        for c in dims.iter() {
            if rng.gen::<f64>() < occ {
                g.set_density(c, 0.2 + rng.gen::<f32>());
                let f: Vec<f32> = (0..FEATURE_DIM).map(|_| rng.gen::<f32>()).collect();
                g.set_features(c, &f);
            }
        }
        let vqrf = VqrfModel::build(
            &g,
            &VqrfConfig { codebook_size: 16, kmeans_iters: 2, ..Default::default() },
        );
        let cfg = SpNerfConfig { subgrid_count: 8, table_size: 8192, codebook_size: 16 };
        let model = SpNerfModel::build(&vqrf, &cfg).unwrap();
        (vqrf, model)
    }

    #[test]
    fn masked_unmasked_shorthands_match_view() {
        let (_, model) = fixture(16, 0.05, 7);
        assert_eq!(model.masked().mode(), MaskMode::Masked);
        assert_eq!(model.unmasked().mode(), MaskMode::Unmasked);
    }

    #[test]
    fn bitmap_matches_point_set() {
        let (vqrf, model) = fixture(20, 0.05, 1);
        assert_eq!(model.bitmap().count_ones(), vqrf.nnz());
        for p in vqrf.points() {
            assert!(model.bitmap().get(p.coord));
        }
    }

    #[test]
    fn raw_lookup_returns_stored_entries() {
        let (vqrf, model) = fixture(16, 0.04, 2);
        let mut hits = 0;
        for p in vqrf.points() {
            if model.raw_lookup(p.coord).is_some() {
                hits += 1;
            }
        }
        assert_eq!(hits, vqrf.nnz(), "every stored point's slot is non-empty");
        assert_eq!(model.raw_lookup(GridCoord::new(200, 0, 0)), None);
    }

    #[test]
    fn resolve_features_splits_address_space() {
        let (vqrf, model) = fixture(16, 0.05, 3);
        // Codebook address.
        let f = model.resolve_features(0).unwrap();
        assert_eq!(&f[..], model.codebook().centroid(0));
        // True-grid address (row 0) if any point was kept.
        if vqrf.kept_count() > 0 {
            let f = model.resolve_features(16).unwrap();
            assert_eq!(f[0], model.kept().dequantize_at(0));
        }
        // Out-of-range true-grid address.
        assert_eq!(model.resolve_features(16 + vqrf.kept_count() as u32), None);
    }

    #[test]
    fn footprint_components_present() {
        let (_, model) = fixture(16, 0.05, 4);
        let fp = model.footprint();
        for name in ["hash tables", "bitmap", "codebook (FP16)", "true voxel grid (INT8)"] {
            assert!(fp.bytes_of(name) > 0, "missing component {name}");
        }
        // Hash tables dominate at this configuration.
        assert_eq!(fp.bytes_of("hash tables"), 8 * HashTable::new(8192).storage_bytes());
    }

    #[test]
    fn memory_reduction_large_for_realistic_grids() {
        let (vqrf, model) = fixture(48, 0.04, 5);
        let r = model.memory_reduction_vs(&vqrf);
        assert!(r > 1.0, "SpNeRF must be smaller than the restored grid, got {r}");
    }

    #[test]
    fn build_respects_18_bit_capacity() {
        // A config whose codebook nearly fills the address space.
        let (vqrf, _) = fixture(16, 0.05, 6);
        let tight = SpNerfConfig {
            subgrid_count: 4,
            table_size: 1024,
            codebook_size: 16, // matches, fine
        };
        assert!(SpNerfModel::build(&vqrf, &tight).is_ok());
    }
}
