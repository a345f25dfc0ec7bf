//! The VQRF compressed voxel-grid model (Li et al., CVPR 2023) — the
//! algorithmic baseline SpNeRF builds on.
//!
//! VQRF compresses a sparse voxel grid by
//! 1. *pruning* the least important non-zero voxels,
//! 2. *vector-quantizing* most remaining voxels' 12-dim color features into a
//!    4096-entry codebook, and
//! 3. keeping the most important voxels' features verbatim (the "true voxel
//!    grid", stored INT8 with an FP scale).
//!
//! At render time the **original VQRF flow restores the full dense voxel
//! grid** from this compressed form (Fig. 1 of the SpNeRF paper) — the very
//! step whose memory traffic SpNeRF eliminates. [`VqrfModel::restore`]
//! reproduces that step; `spnerf-core` replaces it.

use std::collections::HashMap;

use crate::coord::{GridCoord, GridDims};
use crate::grid::{DenseGrid, SparsePoint, FEATURE_DIM};
use crate::kmeans::{Codebook, KMeansConfig};
use crate::memory::MemoryFootprint;
use crate::quant::QuantizedTensor;

/// Configuration for [`VqrfModel::build`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VqrfConfig {
    /// Codebook entries (paper: 4096, giving the low half of the unified
    /// 18-bit address space).
    pub codebook_size: usize,
    /// Fraction of (post-pruning) voxels kept verbatim in the true voxel
    /// grid, chosen by importance.
    pub keep_fraction: f64,
    /// Fraction of non-zero voxels pruned away entirely (lowest importance).
    pub prune_fraction: f64,
    /// Lloyd iterations for codebook training.
    pub kmeans_iters: usize,
    /// Training subsample size for codebook training (non-zero).
    pub kmeans_subsample: usize,
    /// RNG seed for codebook training.
    pub seed: u64,
}

impl Default for VqrfConfig {
    fn default() -> Self {
        Self {
            codebook_size: 4096,
            keep_fraction: 0.05,
            prune_fraction: 0.0,
            kmeans_iters: 4,
            kmeans_subsample: 12_288,
            seed: 0x5b4e_e5f2,
        }
    }
}

impl VqrfConfig {
    /// Checks the configuration without building anything.
    ///
    /// [`VqrfModel::build`] asserts the same conditions; callers that want a
    /// recoverable error instead of a panic (e.g. the `spnerf` pipeline
    /// front door) validate first.
    ///
    /// # Errors
    ///
    /// Returns [`VqrfConfigError`] when the codebook or the k-means
    /// subsample is empty or a fraction lies outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), VqrfConfigError> {
        if self.codebook_size == 0 {
            return Err(VqrfConfigError::ZeroCodebook);
        }
        if self.kmeans_subsample == 0 {
            return Err(VqrfConfigError::ZeroSubsample);
        }
        if !(0.0..=1.0).contains(&self.keep_fraction) {
            return Err(VqrfConfigError::FractionOutOfRange {
                field: "keep_fraction",
                value: self.keep_fraction,
            });
        }
        if !(0.0..=1.0).contains(&self.prune_fraction) {
            return Err(VqrfConfigError::FractionOutOfRange {
                field: "prune_fraction",
                value: self.prune_fraction,
            });
        }
        Ok(())
    }
}

/// An invalid [`VqrfConfig`], reported by [`VqrfConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VqrfConfigError {
    /// `codebook_size` is zero.
    ZeroCodebook,
    /// `kmeans_subsample` is zero, leaving k-means nothing to train on.
    ZeroSubsample,
    /// A fraction field lies outside `[0, 1]`.
    FractionOutOfRange {
        /// Which field (`keep_fraction` / `prune_fraction`).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for VqrfConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VqrfConfigError::ZeroCodebook => write!(f, "codebook size must be non-zero"),
            VqrfConfigError::ZeroSubsample => write!(f, "kmeans_subsample must be non-zero"),
            VqrfConfigError::FractionOutOfRange { field, value } => {
                write!(f, "{field} must be in [0, 1], got {value}")
            }
        }
    }
}

impl std::error::Error for VqrfConfigError {}

/// How one voxel's color features are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointClass {
    /// Features replaced by codebook entry `idx` (`idx < codebook_size`).
    Codeword(u32),
    /// Features kept verbatim at row `idx` of the true voxel grid.
    Kept(u32),
}

/// A built VQRF model: pruned points, codebook, true voxel grid, densities.
///
/// # Examples
///
/// ```
/// use spnerf_voxel::coord::{GridCoord, GridDims};
/// use spnerf_voxel::grid::DenseGrid;
/// use spnerf_voxel::vqrf::{VqrfConfig, VqrfModel};
///
/// let mut g = DenseGrid::zeros(GridDims::cube(8));
/// g.set_density(GridCoord::new(1, 2, 3), 0.8);
/// g.set_features(GridCoord::new(1, 2, 3), &[0.5; 12]);
/// let cfg = VqrfConfig { codebook_size: 4, ..Default::default() };
/// let model = VqrfModel::build(&g, &cfg);
/// assert_eq!(model.nnz(), 1);
/// let (density, _features) = model.decode_at(GridCoord::new(1, 2, 3)).unwrap();
/// assert!((density - 0.8).abs() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct VqrfModel {
    dims: GridDims,
    points: Vec<SparsePoint>,
    classes: Vec<PointClass>,
    /// Codebook features. The hardware stores these FP16 (2 B/element);
    /// software keeps f32 values and accounts 2 B in the footprint.
    codebook: Codebook,
    /// True voxel grid: kept features, INT8 + scale (dequantized by the TIU).
    kept: QuantizedTensor,
    /// Per-point density, INT8 + scale.
    density: QuantizedTensor,
    index: HashMap<GridCoord, u32>,
    codebook_size: usize,
}

impl VqrfModel {
    /// Builds a VQRF model from a dense grid.
    ///
    /// Codebook training and the classification of coded points use every
    /// core the host grants the process; the model is the same at any
    /// worker count.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.codebook_size == 0`, `cfg.kmeans_subsample == 0`,
    /// fractions are outside `[0, 1]`, or the grid has no occupied voxel.
    pub fn build(grid: &DenseGrid, cfg: &VqrfConfig) -> Self {
        Self::build_with_workers(grid, cfg, 0)
    }

    /// [`VqrfModel::build`] on `workers` pool workers (`0` = the host's
    /// parallelism); the model is bitwise the same for every value.
    pub(crate) fn build_with_workers(grid: &DenseGrid, cfg: &VqrfConfig, workers: usize) -> Self {
        assert!(cfg.codebook_size > 0, "codebook size must be non-zero");
        assert!(cfg.kmeans_subsample > 0, "kmeans_subsample must be non-zero");
        assert!((0.0..=1.0).contains(&cfg.keep_fraction), "keep_fraction must be in [0,1]");
        assert!((0.0..=1.0).contains(&cfg.prune_fraction), "prune_fraction must be in [0,1]");
        let mut points = grid.extract_nonzero();
        assert!(!points.is_empty(), "cannot build a VQRF model from an empty grid");

        // Importance-based pruning: density × (1 + ‖feature‖).
        let importance = |p: &SparsePoint| (p.density * (1.0 + p.feature_norm())) as f64;
        points.sort_by(|a, b| {
            importance(b).partial_cmp(&importance(a)).expect("importance is finite")
        });
        let pruned_len =
            ((points.len() as f64) * (1.0 - cfg.prune_fraction)).round().max(1.0) as usize;
        points.truncate(pruned_len.min(points.len()));
        // Restore deterministic spatial order for payload indices.
        points.sort_by_key(|p| grid.dims().linear_index_unchecked(p.coord));

        // Select the keep (true voxel grid) set: top keep_fraction importance.
        let n = points.len();
        let n_keep = ((n as f64) * cfg.keep_fraction).round() as usize;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|a, b| {
            importance(&points[*b]).partial_cmp(&importance(&points[*a])).expect("finite")
        });
        let mut is_kept = vec![false; n];
        for &i in order.iter().take(n_keep) {
            is_kept[i] = true;
        }

        // Train the codebook on the non-kept features.
        let mut train: Vec<f32> = Vec::with_capacity((n - n_keep) * FEATURE_DIM);
        for (i, p) in points.iter().enumerate() {
            if !is_kept[i] {
                train.extend_from_slice(&p.features);
            }
        }
        if train.is_empty() {
            // Degenerate: everything kept. Train on all features so the
            // codebook is still well-formed.
            for p in &points {
                train.extend_from_slice(&p.features);
            }
        }
        let km = KMeansConfig {
            k: cfg.codebook_size,
            max_iters: cfg.kmeans_iters,
            train_subsample: cfg.kmeans_subsample,
            seed: cfg.seed,
        };
        let codebook = Codebook::train_with_workers(&train, FEATURE_DIM, &km, workers);

        // Classify every point and gather kept features / densities. The
        // coded points' codewords come from the pool, in point order.
        let coded: Vec<usize> = (0..n).filter(|i| !is_kept[*i]).collect();
        let mut codewords =
            codebook.assign_rows(coded.len(), |j| &points[coded[j]].features, workers).into_iter();
        let mut classes = Vec::with_capacity(n);
        let mut kept_flat: Vec<f32> = Vec::with_capacity(n_keep * FEATURE_DIM);
        let mut dens: Vec<f32> = Vec::with_capacity(n);
        for (i, p) in points.iter().enumerate() {
            if is_kept[i] {
                let row = (kept_flat.len() / FEATURE_DIM) as u32;
                kept_flat.extend_from_slice(&p.features);
                classes.push(PointClass::Kept(row));
            } else {
                let c = codewords.next().expect("one codeword per coded point");
                classes.push(PointClass::Codeword(c as u32));
            }
            dens.push(p.density);
        }

        let index = points.iter().enumerate().map(|(i, p)| (p.coord, i as u32)).collect();

        Self {
            dims: grid.dims(),
            points,
            classes,
            codebook,
            kept: QuantizedTensor::quantize(&kept_flat),
            density: QuantizedTensor::quantize(&dens),
            index,
            codebook_size: cfg.codebook_size,
        }
    }

    /// Grid dimensions.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Number of stored (post-pruning) non-zero voxels.
    pub fn nnz(&self) -> usize {
        self.points.len()
    }

    /// Number of voxels kept verbatim (true-voxel-grid rows).
    pub fn kept_count(&self) -> usize {
        self.kept.len() / FEATURE_DIM
    }

    /// Configured codebook size.
    pub fn codebook_size(&self) -> usize {
        self.codebook_size
    }

    /// The stored points in payload order.
    pub fn points(&self) -> &[SparsePoint] {
        &self.points
    }

    /// Storage class of payload point `i`.
    pub fn class_of(&self, i: usize) -> PointClass {
        self.classes[i]
    }

    /// The trained codebook (values as the hardware's FP16 buffer holds them).
    pub fn codebook(&self) -> &Codebook {
        &self.codebook
    }

    /// The INT8 true voxel grid (kept features).
    pub fn kept_quant(&self) -> &QuantizedTensor {
        &self.kept
    }

    /// The INT8 per-point densities.
    pub fn density_quant(&self) -> &QuantizedTensor {
        &self.density
    }

    /// Payload index stored at `c`, or `None` if pruned/empty.
    pub fn lookup(&self, c: GridCoord) -> Option<usize> {
        self.index.get(&c).map(|i| *i as usize)
    }

    /// Decodes payload point `i`: `(density, features)` as the compressed
    /// model represents them (INT8 round-trips included).
    ///
    /// # Panics
    ///
    /// Panics if `i >= nnz()`.
    pub fn decode_point(&self, i: usize) -> (f32, [f32; FEATURE_DIM]) {
        let d = self.density.dequantize_at(i);
        let mut f = [0.0f32; FEATURE_DIM];
        match self.classes[i] {
            PointClass::Codeword(c) => {
                f.copy_from_slice(self.codebook.centroid(c as usize));
            }
            PointClass::Kept(r) => {
                for (j, slot) in f.iter_mut().enumerate() {
                    *slot = self.kept.dequantize_at(r as usize * FEATURE_DIM + j);
                }
            }
        }
        (d, f)
    }

    /// Decodes the voxel at `c`, or `None` if pruned/empty.
    pub fn decode_at(&self, c: GridCoord) -> Option<(f32, [f32; FEATURE_DIM])> {
        self.lookup(c).map(|i| self.decode_point(i))
    }

    /// **The step SpNeRF eliminates**: materializes the full dense voxel grid
    /// from the compressed model, exactly as the original VQRF flow does
    /// before rendering.
    pub fn restore(&self) -> DenseGrid {
        let mut g = DenseGrid::zeros(self.dims);
        for i in 0..self.nnz() {
            let (d, f) = self.decode_point(i);
            let c = self.points[i].coord;
            g.set_density(c, d);
            g.set_features(c, &f);
        }
        g
    }

    /// Footprint of the *compressed* artifact (what VQRF ships, ≈1 MB):
    /// codebook (FP16) + true voxel grid (INT8) + densities (INT8) + per-point
    /// class indices + COO coordinates.
    pub fn compressed_footprint(&self) -> MemoryFootprint {
        let mut fp = MemoryFootprint::new("VQRF compressed");
        fp.add("codebook (FP16)", self.codebook.len() * FEATURE_DIM * 2);
        fp.add("true voxel grid (INT8)", self.kept.storage_bytes());
        fp.add("densities (INT8)", self.density.storage_bytes());
        // 18 bits of class index per point, packed.
        fp.add("class indices", (self.nnz() * 18).div_ceil(8));
        fp.add("coordinates (COO)", self.nnz() * 6);
        fp
    }

    /// Footprint of the *restored* dense grid the original VQRF flow touches
    /// during rendering (density + features, f32 as in the reference PyTorch
    /// implementation). This is the "original VQRF" bar of Fig. 6(a).
    pub fn restored_footprint(&self) -> MemoryFootprint {
        let mut fp = MemoryFootprint::new("VQRF restored voxel grid");
        fp.add("density plane (f32)", self.dims.len() * 4);
        fp.add("feature planes (f32)", self.dims.len() * FEATURE_DIM * 4);
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn validate_accepts_defaults_and_rejects_bad_fields() {
        assert_eq!(VqrfConfig::default().validate(), Ok(()));
        let zero = VqrfConfig { codebook_size: 0, ..Default::default() };
        assert_eq!(zero.validate(), Err(VqrfConfigError::ZeroCodebook));
        let no_subsample = VqrfConfig { kmeans_subsample: 0, ..Default::default() };
        assert_eq!(no_subsample.validate(), Err(VqrfConfigError::ZeroSubsample));
        let keep = VqrfConfig { keep_fraction: 1.5, ..Default::default() };
        assert!(matches!(
            keep.validate(),
            Err(VqrfConfigError::FractionOutOfRange { field: "keep_fraction", .. })
        ));
        let prune = VqrfConfig { prune_fraction: -0.1, ..Default::default() };
        assert!(matches!(
            prune.validate(),
            Err(VqrfConfigError::FractionOutOfRange { field: "prune_fraction", .. })
        ));
        // The error renders the offending field by name.
        let msg = prune.validate().unwrap_err().to_string();
        assert!(msg.contains("prune_fraction"), "{msg}");
    }

    fn random_grid(side: u32, occupancy: f64, seed: u64) -> DenseGrid {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = GridDims::cube(side);
        let mut g = DenseGrid::zeros(dims);
        for c in dims.iter() {
            if rng.gen::<f64>() < occupancy {
                g.set_density(c, 0.1 + rng.gen::<f32>());
                let f: Vec<f32> = (0..FEATURE_DIM).map(|_| rng.gen::<f32>() - 0.5).collect();
                g.set_features(c, &f);
            }
        }
        g
    }

    fn small_cfg() -> VqrfConfig {
        VqrfConfig {
            codebook_size: 32,
            kmeans_iters: 3,
            kmeans_subsample: 2048,
            ..Default::default()
        }
    }

    #[test]
    fn build_classifies_every_point() {
        let g = random_grid(12, 0.05, 1);
        let m = VqrfModel::build(&g, &small_cfg());
        assert_eq!(m.nnz(), g.occupied_count());
        let kept = (0..m.nnz()).filter(|i| matches!(m.class_of(*i), PointClass::Kept(_))).count();
        assert_eq!(kept, m.kept_count());
        // keep_fraction 5 % of points, rounded.
        let expect = ((m.nnz() as f64) * 0.05).round() as usize;
        assert_eq!(kept, expect);
    }

    #[test]
    fn kept_points_are_most_important() {
        let mut g = DenseGrid::zeros(GridDims::cube(8));
        g.set_density(GridCoord::new(1, 1, 1), 10.0); // hugely important
        g.set_features(GridCoord::new(1, 1, 1), &[1.0; FEATURE_DIM]);
        for i in 0..10 {
            g.set_density(GridCoord::new(3, i % 8, (i / 8) % 8), 0.01);
        }
        let cfg = VqrfConfig { keep_fraction: 0.1, ..small_cfg() };
        let m = VqrfModel::build(&g, &cfg);
        let idx = m.lookup(GridCoord::new(1, 1, 1)).unwrap();
        assert!(matches!(m.class_of(idx), PointClass::Kept(_)));
    }

    #[test]
    fn decode_error_bounded_for_kept_points() {
        let g = random_grid(10, 0.08, 2);
        let cfg = VqrfConfig { keep_fraction: 1.0, ..small_cfg() }; // keep everything
        let m = VqrfModel::build(&g, &cfg);
        let dens_err = m.density_quant().params().max_rounding_error();
        let feat_err = m.kept_quant().params().max_rounding_error();
        for p in m.points() {
            let (d, f) = m.decode_at(p.coord).unwrap();
            assert!((d - p.density).abs() <= dens_err + 1e-6);
            for (a, b) in f.iter().zip(p.features) {
                assert!((a - b).abs() <= feat_err + 1e-6);
            }
        }
    }

    #[test]
    fn restore_round_trips_support() {
        let g = random_grid(10, 0.05, 3);
        let m = VqrfModel::build(&g, &small_cfg());
        let restored = m.restore();
        assert_eq!(restored.occupied_count(), m.nnz());
        for p in m.points() {
            assert!(restored.is_occupied(p.coord));
        }
        // Empty stays empty.
        for c in g.dims().iter() {
            if !g.is_occupied(c) {
                assert!(!restored.is_occupied(c));
            }
        }
    }

    #[test]
    fn pruning_drops_lowest_importance() {
        let g = random_grid(10, 0.2, 4);
        let cfg = VqrfConfig { prune_fraction: 0.5, ..small_cfg() };
        let m = VqrfModel::build(&g, &cfg);
        let full = g.occupied_count();
        assert_eq!(m.nnz(), ((full as f64) * 0.5).round() as usize);
    }

    #[test]
    fn restored_footprint_dwarfs_compressed() {
        let g = random_grid(24, 0.04, 5);
        let m = VqrfModel::build(&g, &small_cfg());
        let compressed = m.compressed_footprint();
        let restored = m.restored_footprint();
        assert!(restored.total_bytes() > 10 * compressed.total_bytes());
        assert_eq!(restored.total_bytes(), 24usize.pow(3) * 13 * 4);
    }

    #[test]
    fn lookup_miss_on_empty_voxel() {
        let g = random_grid(8, 0.05, 6);
        let m = VqrfModel::build(&g, &small_cfg());
        let empty = g.dims().iter().find(|c| !g.is_occupied(*c)).unwrap();
        assert_eq!(m.lookup(empty), None);
        assert!(m.decode_at(empty).is_none());
    }

    #[test]
    fn build_is_bitwise_equal_at_every_worker_count() {
        // About 1100 coded points against 512 codewords: the Lloyd pass and
        // the classification pass each split into three pool jobs.
        let g = random_grid(16, 0.28, 8);
        let cfg = VqrfConfig { codebook_size: 512, kmeans_iters: 1, ..small_cfg() };
        let fingerprint = |m: &VqrfModel| {
            let centroids: Vec<u32> =
                m.codebook().centroids_raw().iter().map(|v| v.to_bits()).collect();
            let classes: Vec<PointClass> = (0..m.nnz()).map(|i| m.class_of(i)).collect();
            (centroids, classes)
        };
        let reference = fingerprint(&VqrfModel::build_with_workers(&g, &cfg, 1));
        assert!(reference.1.iter().filter(|c| matches!(c, PointClass::Codeword(_))).count() > 1024);
        for workers in [2, 3, 8] {
            let m = VqrfModel::build_with_workers(&g, &cfg, workers);
            assert!(fingerprint(&m) == reference, "workers={workers}");
        }
    }

    #[test]
    #[should_panic(expected = "kmeans_subsample must be non-zero")]
    fn zero_subsample_panics() {
        let g = random_grid(8, 0.2, 9);
        let cfg = VqrfConfig { kmeans_subsample: 0, ..small_cfg() };
        let _ = VqrfModel::build(&g, &cfg);
    }

    #[test]
    #[should_panic(expected = "empty grid")]
    fn empty_grid_panics() {
        let g = DenseGrid::zeros(GridDims::cube(4));
        let _ = VqrfModel::build(&g, &small_cfg());
    }
}
