//! Dense voxel grids and sparse (non-zero) point extraction.
//!
//! A [`DenseGrid`] stores one density scalar and `C` color-feature channels
//! per voxel vertex — the data layout of DVGO/VQRF-style volumetric NeRF
//! models. The SpNeRF preprocessing step starts from the *non-zero points* of
//! such a grid ([`DenseGrid::extract_nonzero`], the `P_nz` set of the paper's
//! Section III-A).

use crate::coord::{GridCoord, GridDims};

/// Number of color-feature channels used throughout the reproduction.
///
/// VQRF stores 12-dimensional color features per voxel; together with the
/// 27-element view-direction encoding this forms the 39×1 MLP input vector
/// of the paper's Fig. 5.
pub const FEATURE_DIM: usize = 12;

/// A dense voxel grid holding per-vertex density and color features.
///
/// Storage is `f32`; quantized and compressed views are produced by
/// [`crate::quant`] and [`crate::vqrf`].
///
/// # Examples
///
/// ```
/// use spnerf_voxel::coord::{GridCoord, GridDims};
/// use spnerf_voxel::grid::DenseGrid;
///
/// let mut g = DenseGrid::zeros(GridDims::cube(8));
/// g.set_density(GridCoord::new(1, 2, 3), 0.5);
/// assert_eq!(g.density(GridCoord::new(1, 2, 3)), 0.5);
/// assert_eq!(g.occupied_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseGrid {
    dims: GridDims,
    density: Vec<f32>,
    /// `len = dims.len() * FEATURE_DIM`, features of voxel `i` at
    /// `i * FEATURE_DIM ..`.
    features: Vec<f32>,
}

impl DenseGrid {
    /// An all-zero grid of the given dimensions.
    pub fn zeros(dims: GridDims) -> Self {
        Self { dims, density: vec![0.0; dims.len()], features: vec![0.0; dims.len() * FEATURE_DIM] }
    }

    /// Grid dimensions.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Density at `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn density(&self, c: GridCoord) -> f32 {
        let i = self.index(c);
        self.density[i]
    }

    /// Sets the density at `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn set_density(&mut self, c: GridCoord, d: f32) {
        let i = self.index(c);
        self.density[i] = d;
    }

    /// The `FEATURE_DIM` color features at `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn features(&self, c: GridCoord) -> &[f32] {
        let i = self.index(c);
        &self.features[i * FEATURE_DIM..(i + 1) * FEATURE_DIM]
    }

    /// Writes the color features at `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds or `f.len() != FEATURE_DIM`.
    pub fn set_features(&mut self, c: GridCoord, f: &[f32]) {
        assert_eq!(f.len(), FEATURE_DIM, "feature vector must have {FEATURE_DIM} channels");
        let i = self.index(c);
        self.features[i * FEATURE_DIM..(i + 1) * FEATURE_DIM].copy_from_slice(f);
    }

    /// Density slice in x-major linear order.
    pub fn density_raw(&self) -> &[f32] {
        &self.density
    }

    /// Feature slice in x-major linear order (`FEATURE_DIM` per voxel).
    pub fn features_raw(&self) -> &[f32] {
        &self.features
    }

    /// Features by linear index.
    pub fn features_at(&self, i: usize) -> &[f32] {
        &self.features[i * FEATURE_DIM..(i + 1) * FEATURE_DIM]
    }

    /// Whether the vertex at `c` is occupied (density strictly positive).
    ///
    /// Zero-density voxels carry no radiance contribution, so "non-zero" in
    /// the paper's sparsity analysis means exactly this predicate.
    pub fn is_occupied(&self, c: GridCoord) -> bool {
        self.density(c) > 0.0
    }

    /// Number of occupied vertices.
    pub fn occupied_count(&self) -> usize {
        self.density.iter().filter(|d| **d > 0.0).count()
    }

    /// Fraction of occupied vertices — the quantity of the paper's Fig. 2(b)
    /// (2.01 % – 6.48 % on Synthetic-NeRF).
    pub fn occupancy(&self) -> f64 {
        self.occupied_count() as f64 / self.dims.len() as f64
    }

    /// Extracts the non-zero point set `P_nz = {p_i}` with its data — stage 1
    /// of the SpNeRF preprocessing step.
    pub fn extract_nonzero(&self) -> Vec<SparsePoint> {
        let mut out = Vec::with_capacity(self.occupied_count());
        for i in 0..self.dims.len() {
            let d = self.density[i];
            if d > 0.0 {
                let mut features = [0.0f32; FEATURE_DIM];
                features.copy_from_slice(self.features_at(i));
                out.push(SparsePoint { coord: self.dims.coord_of(i), density: d, features });
            }
        }
        out
    }

    /// Bytes a full-precision (`f32`) in-memory copy of this grid occupies:
    /// density plane + feature planes. This is the footprint of the *restored*
    /// voxel grid the original VQRF flow materializes before rendering.
    pub fn restored_bytes_f32(&self) -> usize {
        self.dims.len() * (1 + FEATURE_DIM) * std::mem::size_of::<f32>()
    }

    /// Same as [`Self::restored_bytes_f32`] but at FP16 precision.
    pub fn restored_bytes_f16(&self) -> usize {
        self.dims.len() * (1 + FEATURE_DIM) * 2
    }

    fn index(&self, c: GridCoord) -> usize {
        self.dims
            .linear_index(c)
            .unwrap_or_else(|| panic!("coordinate {c} out of bounds for grid {}", self.dims))
    }
}

/// `f32`s in a 4 KiB page.
const PAGE_F32S: usize = 1024;

/// Shrinks both planes to a page before they are freed.
///
/// A grid is mostly zeros. A fresh page mapping leaves zero pages unbacked,
/// so a grid's resident size is the pages its voxels touch. glibc, however,
/// raises its mmap threshold to the size of any mapped buffer of up to
/// 32 MiB that is freed. After that, later grids of the same size come from
/// the brk heap instead. There `calloc` clears reused memory page by page,
/// and one small live chunk above a freed grid keeps that memory resident,
/// so the peak RSS would follow the heap's layout from run to run. A plane
/// shrunk first is freed as a page-sized buffer, which leaves the threshold
/// where it was. The stub is a page rather than one element: a plane in
/// the heap would leave a one-element stub in the allocator's thread cache,
/// where it splits the space the plane frees.
impl Drop for DenseGrid {
    fn drop(&mut self) {
        for plane in [&mut self.density, &mut self.features] {
            plane.clear();
            plane.shrink_to(PAGE_F32S);
        }
    }
}

/// One non-zero voxel vertex extracted from a [`DenseGrid`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsePoint {
    /// Vertex position.
    pub coord: GridCoord,
    /// Volume density (strictly positive by construction).
    pub density: f32,
    /// Color feature vector.
    pub features: [f32; FEATURE_DIM],
}

impl SparsePoint {
    /// L2 norm of the feature vector — used by VQRF-style importance scoring.
    pub fn feature_norm(&self) -> f32 {
        self.features.iter().map(|f| f * f).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_grid() -> DenseGrid {
        let mut g = DenseGrid::zeros(GridDims::cube(4));
        g.set_density(GridCoord::new(0, 0, 0), 1.0);
        g.set_density(GridCoord::new(1, 2, 3), 2.0);
        g.set_features(GridCoord::new(1, 2, 3), &[0.25; FEATURE_DIM]);
        g
    }

    #[test]
    fn set_get_round_trip() {
        let g = sample_grid();
        assert_eq!(g.density(GridCoord::new(1, 2, 3)), 2.0);
        assert_eq!(g.features(GridCoord::new(1, 2, 3)), &[0.25; FEATURE_DIM]);
        assert_eq!(g.features(GridCoord::new(0, 0, 0)), &[0.0; FEATURE_DIM]);
    }

    #[test]
    fn occupancy_counts_positive_density_only() {
        let mut g = sample_grid();
        assert_eq!(g.occupied_count(), 2);
        g.set_density(GridCoord::new(3, 3, 3), -1.0); // negative = empty
        assert_eq!(g.occupied_count(), 2);
        assert!((g.occupancy() - 2.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn extract_nonzero_matches_occupancy() {
        let g = sample_grid();
        let pts = g.extract_nonzero();
        assert_eq!(pts.len(), g.occupied_count());
        assert_eq!(pts[0].coord, GridCoord::new(0, 0, 0));
        assert_eq!(pts[1].coord, GridCoord::new(1, 2, 3));
        assert_eq!(pts[1].density, 2.0);
        assert_eq!(pts[1].features, [0.25; FEATURE_DIM]);
    }

    #[test]
    fn restored_bytes_formula() {
        let g = DenseGrid::zeros(GridDims::cube(8));
        assert_eq!(g.restored_bytes_f32(), 8 * 8 * 8 * 13 * 4);
        assert_eq!(g.restored_bytes_f16(), 8 * 8 * 8 * 13 * 2);
    }

    #[test]
    fn feature_norm() {
        let p = SparsePoint {
            coord: GridCoord::new(0, 0, 0),
            density: 1.0,
            features: [3.0 / (FEATURE_DIM as f32).sqrt(); FEATURE_DIM],
        };
        assert!((p.feature_norm() - 3.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_density_panics() {
        let g = sample_grid();
        let _ = g.density(GridCoord::new(9, 0, 0));
    }
}
