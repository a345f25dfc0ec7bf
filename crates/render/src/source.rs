//! The [`VoxelSource`] abstraction: anything the renderer can fetch voxel
//! data from.
//!
//! The reference renderer is generic over its data source so that the same
//! rendering code measures the dense ground truth, the VQRF gold decode, and
//! SpNeRF's online decoder (with or without bitmap masking, implemented in
//! `spnerf-core`). PSNR differences between variants are then attributable
//! purely to the data path, mirroring the paper's Fig. 6(b) methodology.
//!
//! Three optional queries let a source tell the renderer where it is empty,
//! and all three default to "no information":
//!
//! * [`VoxelSource::occupied_bounds`], an inclusive vertex box the ray
//!   marcher clips every sample against before it locates the sample's
//!   cell — the masked SpNeRF view answers it from its bitmap;
//! * [`VoxelSource::occupancy_mip`], a pyramid the ray marcher skips whole
//!   empty macro-blocks with (under [`crate::renderer::SkipMode::Mip`]);
//! * [`VoxelSource::cell_maybe_occupied`], a per-cell probe the ray marcher
//!   asks from the cell base before it weighs or gathers the cell's 8
//!   corners — the masked SpNeRF view answers it from its bitmap, as the
//!   accelerator's BLU does before the HMU hashes.
//!
//! Each may over-approximate the source's support, which only costs work,
//! but never under-approximate it, which would change pixels.

use std::sync::Arc;

use spnerf_voxel::bitmap::Bitmap;
use spnerf_voxel::coord::{GridCoord, GridDims};
use spnerf_voxel::grid::DenseGrid;
use spnerf_voxel::mip::OccupancyMip;
use spnerf_voxel::vqrf::VqrfModel;
use spnerf_voxel::FEATURE_DIM;

/// Density and color features of one occupied voxel vertex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoxelData {
    /// Volume density.
    pub density: f32,
    /// Color feature vector.
    pub features: [f32; FEATURE_DIM],
}

/// A source of voxel data addressed by integer vertex coordinate.
pub trait VoxelSource {
    /// Grid dimensions this source covers.
    fn dims(&self) -> GridDims;

    /// Fetches the voxel at `c`; `None` when the vertex is empty or out of
    /// bounds.
    fn fetch(&self, c: GridCoord) -> Option<VoxelData>;

    /// An inclusive vertex box `(lo, hi)` holding every vertex where
    /// [`VoxelSource::fetch`] returns `Some`, if the source knows one.
    ///
    /// The ray marcher clips each sample against this box, dilated by the
    /// 1.5-vertex reach of an interpolation cell, before it locates the
    /// cell: a sample outside it is the empty sample. **Contract:** the box
    /// must hold every vertex `fetch` returns data for; `None` (the
    /// default) promises nothing. A box that is too large only costs work,
    /// and one that leaves out a fetched vertex changes pixels.
    fn occupied_bounds(&self) -> Option<(GridCoord, GridCoord)> {
        None
    }

    /// An occupancy pyramid over this source's support, if one is attached.
    ///
    /// The renderer's empty-space skipping
    /// ([`crate::renderer::SkipMode::Mip`]) consults this; `None` (the
    /// default) renders without skipping. **Safety contract:** every vertex
    /// where [`VoxelSource::fetch`] returns `Some` must be set in the
    /// pyramid's base bitmap — an over-approximation only costs skips, an
    /// under-approximation changes pixels. [`WithOccupancy::build`]
    /// constructs the exact support and therefore always satisfies it.
    fn occupancy_mip(&self) -> Option<&OccupancyMip> {
        None
    }

    /// Whether the interpolation cell with lower corner `base` may touch a
    /// vertex this source fetches.
    ///
    /// The ray marcher asks this once per sample, from the located cell
    /// base, before it weighs and gathers the cell's corners, and
    /// [`crate::interp::interpolate_cell`] asks it before its gather; a cell ruled out here is the empty
    /// sample, at the cost of one query instead of eight trilinear weights
    /// and eight [`VoxelSource::fetch`] calls. **Contract:** `false` promises that
    /// `fetch` returns `None` for all 8 vertices `[base, base+1]³`; `true`
    /// (the default) promises nothing. Like [`VoxelSource::occupancy_mip`],
    /// a wrong `true` only costs a gather, and a wrong `false` changes
    /// pixels.
    fn cell_maybe_occupied(&self, _base: GridCoord) -> bool {
        true
    }
}

/// The exact support of a source: one bit per vertex where
/// [`VoxelSource::fetch`] returns `Some`.
///
/// For the dense ground truth this equals [`Bitmap::from_grid`]; for the
/// SpNeRF decoder it is the *decode* support (which differs from the pruned
/// bitmap in the unmasked ablation, where hash collisions add false
/// positives — exactly why skipping must be driven by each source's own
/// support rather than one shared bitmap).
pub fn support_bitmap<S: VoxelSource + ?Sized>(source: &S) -> Bitmap {
    let dims = source.dims();
    let mut bitmap = Bitmap::zeros(dims);
    for c in dims.iter() {
        if source.fetch(c).is_some() {
            bitmap.set(c, true);
        }
    }
    bitmap
}

impl VoxelSource for DenseGrid {
    fn dims(&self) -> GridDims {
        self.dims()
    }

    fn fetch(&self, c: GridCoord) -> Option<VoxelData> {
        if !self.dims().contains(c) {
            return None;
        }
        let d = self.density(c);
        if d <= 0.0 {
            return None;
        }
        let mut features = [0.0f32; FEATURE_DIM];
        features.copy_from_slice(self.features(c));
        Some(VoxelData { density: d, features })
    }
}

impl VoxelSource for spnerf_voxel::baked::BakedGrid {
    fn dims(&self) -> GridDims {
        self.dims()
    }

    /// Fetches the *packed* baked payload: diffuse RGB in channels `0..3`,
    /// the specular feature in channels `3..12`. Reusing the
    /// [`FEATURE_DIM`]-channel layout means trilinear interpolation, support
    /// bitmaps, and occupancy pyramids all work on baked grids unchanged —
    /// and because densities are copied verbatim by the bake pass, the
    /// baked support equals the source support exactly.
    fn fetch(&self, c: GridCoord) -> Option<VoxelData> {
        self.as_grid().fetch(c)
    }
}

impl VoxelSource for VqrfModel {
    fn dims(&self) -> GridDims {
        self.dims()
    }

    fn fetch(&self, c: GridCoord) -> Option<VoxelData> {
        self.decode_at(c).map(|(density, features)| VoxelData { density, features })
    }
}

impl<T: VoxelSource + ?Sized> VoxelSource for &T {
    fn dims(&self) -> GridDims {
        (**self).dims()
    }

    fn fetch(&self, c: GridCoord) -> Option<VoxelData> {
        (**self).fetch(c)
    }

    fn occupied_bounds(&self) -> Option<(GridCoord, GridCoord)> {
        (**self).occupied_bounds()
    }

    fn occupancy_mip(&self) -> Option<&OccupancyMip> {
        (**self).occupancy_mip()
    }

    fn cell_maybe_occupied(&self, base: GridCoord) -> bool {
        (**self).cell_maybe_occupied(base)
    }
}

/// A [`VoxelSource`] with an occupancy pyramid attached, enabling
/// [`crate::renderer::SkipMode::Mip`] empty-space skipping.
///
/// The pyramid is reference-counted so one build serves every render (and
/// every worker thread) of the same source — the `Arc`-shared pattern the
/// pipeline facade uses for the grid and MLP.
///
/// # Examples
///
/// ```
/// use spnerf_render::source::{VoxelSource, WithOccupancy};
/// use spnerf_voxel::coord::{GridCoord, GridDims};
/// use spnerf_voxel::grid::DenseGrid;
///
/// let mut grid = DenseGrid::zeros(GridDims::cube(8));
/// grid.set_density(GridCoord::new(3, 3, 3), 0.5);
/// let skippable = WithOccupancy::build(&grid);
/// assert!(skippable.occupancy_mip().is_some());
/// assert_eq!(skippable.fetch(GridCoord::new(3, 3, 3)), grid.fetch(GridCoord::new(3, 3, 3)));
/// ```
#[derive(Debug, Clone)]
pub struct WithOccupancy<S> {
    source: S,
    mip: Arc<OccupancyMip>,
}

impl<S: VoxelSource> WithOccupancy<S> {
    /// Attaches a prebuilt pyramid to a source.
    ///
    /// The caller vouches for the [`VoxelSource::occupancy_mip`] safety
    /// contract: the pyramid's base bitmap must cover the source's support.
    ///
    /// # Panics
    ///
    /// Panics if the pyramid's dimensions differ from the source's.
    pub fn new(source: S, mip: Arc<OccupancyMip>) -> Self {
        assert_eq!(mip.dims(), source.dims(), "occupancy pyramid dimensions must match the source");
        Self { source, mip }
    }

    /// Scans the source's exact support ([`support_bitmap`]) and builds the
    /// full pyramid over it — always sound, for any source.
    pub fn build(source: S) -> Self {
        let mip = Arc::new(OccupancyMip::build(support_bitmap(&source)));
        Self { source, mip }
    }

    /// The wrapped source.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// The attached pyramid (shareable with further wrappers).
    pub fn mip(&self) -> &Arc<OccupancyMip> {
        &self.mip
    }
}

impl<S: VoxelSource> VoxelSource for WithOccupancy<S> {
    fn dims(&self) -> GridDims {
        self.source.dims()
    }

    fn fetch(&self, c: GridCoord) -> Option<VoxelData> {
        self.source.fetch(c)
    }

    /// The pyramid's bounds: its base covers the source's support, so its
    /// box holds every fetched vertex.
    fn occupied_bounds(&self) -> Option<(GridCoord, GridCoord)> {
        self.mip.occupied_bounds()
    }

    fn occupancy_mip(&self) -> Option<&OccupancyMip> {
        Some(&self.mip)
    }

    fn cell_maybe_occupied(&self, base: GridCoord) -> bool {
        self.source.cell_maybe_occupied(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spnerf_voxel::vqrf::VqrfConfig;

    #[test]
    fn dense_grid_source_skips_empty() {
        let mut g = DenseGrid::zeros(GridDims::cube(4));
        g.set_density(GridCoord::new(1, 1, 1), 0.5);
        assert!(g.fetch(GridCoord::new(1, 1, 1)).is_some());
        assert!(g.fetch(GridCoord::new(0, 0, 0)).is_none());
        assert!(g.fetch(GridCoord::new(9, 9, 9)).is_none());
    }

    #[test]
    fn vqrf_source_matches_decode() {
        let mut g = DenseGrid::zeros(GridDims::cube(6));
        g.set_density(GridCoord::new(2, 3, 4), 0.7);
        g.set_features(GridCoord::new(2, 3, 4), &[0.4; FEATURE_DIM]);
        let m = VqrfModel::build(&g, &VqrfConfig { codebook_size: 2, ..Default::default() });
        let got = m.fetch(GridCoord::new(2, 3, 4)).unwrap();
        let (d, f) = m.decode_at(GridCoord::new(2, 3, 4)).unwrap();
        assert_eq!(got.density, d);
        assert_eq!(got.features, f);
    }

    #[test]
    fn sources_are_thread_shareable() {
        // Compile-time audit: every VoxelSource the tile engine renders must
        // stay `Sync` (no interior mutability), or parallel rendering breaks.
        fn assert_sync<T: VoxelSource + Sync>() {}
        assert_sync::<DenseGrid>();
        assert_sync::<VqrfModel>();
        assert_sync::<&DenseGrid>();
        assert_sync::<WithOccupancy<&DenseGrid>>();
        assert_sync::<spnerf_voxel::baked::BakedGrid>();
        assert_sync::<WithOccupancy<&spnerf_voxel::baked::BakedGrid>>();
    }

    #[test]
    fn baked_grid_source_delegates_to_the_packed_view() {
        use spnerf_voxel::baked::{BakedGrid, SPEC_DIM};
        let mut baked = BakedGrid::zeros(GridDims::cube(4));
        baked.set_voxel(GridCoord::new(1, 2, 3), 0.8, [0.9, 0.5, 0.1], [0.2; SPEC_DIM]);
        let data = baked.fetch(GridCoord::new(1, 2, 3)).expect("occupied vertex");
        assert_eq!(data.density, 0.8);
        assert_eq!(&data.features[..3], &[0.9, 0.5, 0.1]);
        assert_eq!(&data.features[3..], &[0.2; SPEC_DIM]);
        assert!(baked.fetch(GridCoord::new(0, 0, 0)).is_none());
        assert_eq!(support_bitmap(&baked), support_bitmap(baked.as_grid()));
    }

    #[test]
    fn support_bitmap_matches_fetch() {
        let mut g = DenseGrid::zeros(GridDims::cube(5));
        g.set_density(GridCoord::new(1, 2, 3), 0.5);
        g.set_density(GridCoord::new(4, 4, 4), 0.25);
        g.set_density(GridCoord::new(0, 0, 0), -1.0); // fetch() = None
        let b = support_bitmap(&g);
        assert_eq!(b.count_ones(), 2);
        for c in g.dims().iter() {
            assert_eq!(b.get(c), g.fetch(c).is_some(), "support mismatch at {c}");
        }
    }

    #[test]
    fn with_occupancy_delegates_and_exposes_the_mip() {
        let mut g = DenseGrid::zeros(GridDims::cube(6));
        g.set_density(GridCoord::new(2, 2, 2), 0.9);
        let w = WithOccupancy::build(&g);
        assert_eq!(w.dims(), g.dims());
        assert_eq!(w.fetch(GridCoord::new(2, 2, 2)), g.fetch(GridCoord::new(2, 2, 2)));
        let mip = w.occupancy_mip().expect("pyramid attached");
        assert_eq!(mip.base().count_ones(), 1);
        // The wrapper answers its pyramid's box, which the bare grid does
        // not know.
        let at = GridCoord::new(2, 2, 2);
        assert_eq!(w.occupied_bounds(), Some((at, at)));
        assert_eq!(w.occupied_bounds(), mip.occupied_bounds());
        assert_eq!(g.occupied_bounds(), None);
        // The reference forwarding impl must forward the pyramid too, or
        // skipping silently turns off behind `&`-indirection.
        let r = &w;
        assert!(VoxelSource::occupancy_mip(&r).is_some());
        // Bare sources carry no pyramid.
        assert!(g.occupancy_mip().is_none());
    }

    #[test]
    #[should_panic(expected = "dimensions must match")]
    fn mismatched_mip_dims_rejected() {
        use spnerf_voxel::bitmap::Bitmap;
        use spnerf_voxel::mip::OccupancyMip;
        let g = DenseGrid::zeros(GridDims::cube(4));
        let mip = Arc::new(OccupancyMip::build(Bitmap::zeros(GridDims::cube(8))));
        let _ = WithOccupancy::new(&g, mip);
    }

    #[test]
    fn reference_impl_delegates() {
        let mut g = DenseGrid::zeros(GridDims::cube(4));
        g.set_density(GridCoord::new(1, 1, 1), 0.5);
        let r: &DenseGrid = &g;
        assert_eq!(r.dims(), g.dims());
        assert_eq!(r.fetch(GridCoord::new(1, 1, 1)), g.fetch(GridCoord::new(1, 1, 1)));
        // The box is forwarded, or clipping silently turns off behind `&`.
        let w = WithOccupancy::build(&g);
        let r = &w;
        let at = GridCoord::new(1, 1, 1);
        assert_eq!(VoxelSource::occupied_bounds(&r), Some((at, at)));
        assert_eq!(VoxelSource::occupied_bounds(&&g), None);
    }
}
