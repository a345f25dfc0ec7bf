//! The [`VoxelSource`] abstraction: anything the renderer can fetch voxel
//! data from.
//!
//! The reference renderer is generic over its data source so that the same
//! rendering code measures the dense ground truth, the VQRF gold decode, and
//! SpNeRF's online decoder (with or without bitmap masking, implemented in
//! `spnerf-core`). PSNR differences between variants are then attributable
//! purely to the data path, mirroring the paper's Fig. 6(b) methodology.
//!
//! A source tells the renderer where it is empty through one optional
//! query, [`VoxelSource::occupancy_mip`] (default: no information). From
//! that one pyramid the ray marcher takes its clip box, its per-cell probe
//! and, under [`crate::renderer::SkipMode::Mip`], its skipper, as the
//! accelerator's Bitmap Lookup Unit settles a sample before any hash. The
//! masked SpNeRF view answers with its model's bitmap pyramid;
//! [`WithOccupancy`] attaches one to any source. The pyramid may
//! over-approximate the source's support, which only costs work, but never
//! under-approximate it, which would change pixels.

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

    /// An occupancy pyramid over this source's support, if the source
    /// carries one: the renderer's one emptiness query, read once per ray.
    /// The march clips each sample against its
    /// [`OccupancyMip::occupied_bounds`] (dilated by 1.5 vertices), probes
    /// each located cell with [`OccupancyMip::cell_empty`] before the gather
    /// (as [`crate::interp::interpolate_cell`] does), and under
    /// [`crate::renderer::SkipMode::Mip`] skips the blocks
    /// [`OccupancyMip::empty_region`] proves empty. `None` (the default)
    /// clips, probes and skips nothing.
    ///
    /// **Safety contract:** every vertex where [`VoxelSource::fetch`]
    /// returns `Some` must be set in the pyramid's base bitmap — an
    /// over-approximation only costs work, an under-approximation changes
    /// pixels. [`WithOccupancy::build`] constructs the exact support and
    /// therefore always satisfies it.
    fn occupancy_mip(&self) -> Option<&OccupancyMip> {
        None
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

    fn occupancy_mip(&self) -> Option<&OccupancyMip> {
        (**self).occupancy_mip()
    }
}

/// A [`VoxelSource`] with an occupancy pyramid attached, enabling
/// [`crate::renderer::SkipMode::Mip`] empty-space skipping. The attached
/// pyramid replaces any pyramid the wrapped source carries.
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

    fn occupancy_mip(&self) -> Option<&OccupancyMip> {
        Some(&self.mip)
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
        assert!(std::ptr::eq(mip, w.mip().as_ref()));
        assert_eq!(mip.base().count_ones(), 1);
        // The pyramid answers the box and the probe; the bare grid cannot.
        let at = GridCoord::new(2, 2, 2);
        assert_eq!(mip.occupied_bounds(), Some((at, at)));
        assert!(!mip.cell_empty(GridCoord::new(1, 1, 1)));
        assert!(mip.cell_empty(GridCoord::new(3, 3, 3)));
        // A wrapper's pyramid replaces the one its source carries.
        let other = Arc::new(OccupancyMip::build(support_bitmap(&g)));
        let rewrapped = WithOccupancy::new(&w, Arc::clone(&other));
        assert!(std::ptr::eq(rewrapped.occupancy_mip().unwrap(), other.as_ref()));
        // The reference forwarding impl must forward the pyramid too, or
        // clipping, probing and skipping silently turn off behind
        // `&`-indirection.
        let r = &w;
        assert!(std::ptr::eq(VoxelSource::occupancy_mip(&r).unwrap(), mip));
        // Bare sources carry no pyramid.
        assert!(g.occupancy_mip().is_none());
    }

    #[test]
    #[should_panic(expected = "dimensions must match")]
    fn mismatched_mip_dims_rejected() {
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
        // The pyramid is forwarded, or clipping, probing and skipping
        // silently turn off behind `&`.
        let w = WithOccupancy::build(&g);
        let r = &w;
        let at = GridCoord::new(1, 1, 1);
        let mip = VoxelSource::occupancy_mip(&r).expect("the wrapper's pyramid");
        assert_eq!(mip.occupied_bounds(), Some((at, at)));
        assert!(VoxelSource::occupancy_mip(&&g).is_none());
    }
}
