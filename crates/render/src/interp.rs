//! Trilinear interpolation over voxel grids (Eq. (2) of the paper).
//!
//! A continuous sample position is surrounded by 8 voxel vertices; each
//! vertex contributes with weight
//! `w = (1 − |x_p − x_g|)·(1 − |y_p − y_g|)·(1 − |z_p − z_g|)` — the formula
//! the accelerator's Grid ID Unit computes in FP16. The weighted sum over
//! density and color features is what the Trilinear Interpolation Unit
//! produces.

use spnerf_voxel::coord::{GridCoord, GridDims};

use crate::lanes::F32x8;
use crate::source::{VoxelData, VoxelSource};
use crate::vec3::Vec3;
use spnerf_voxel::FEATURE_DIM;

/// Mapping between a world-space AABB and continuous grid coordinates.
///
/// Grid vertex `(i, j, k)` sits at the world position obtained by linearly
/// mapping `[0, n−1]` onto the AABB extent per axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridFrame {
    dims: GridDims,
    origin: Vec3,
    scale: Vec3, // grid units per world unit
}

impl GridFrame {
    /// Creates a frame mapping `aabb` onto grid `dims`.
    pub fn new(dims: GridDims, aabb_min: Vec3, aabb_max: Vec3) -> Self {
        let size = aabb_max - aabb_min;
        let scale = Vec3::new(
            (dims.nx.max(2) - 1) as f32 / size.x.max(1e-9),
            (dims.ny.max(2) - 1) as f32 / size.y.max(1e-9),
            (dims.nz.max(2) - 1) as f32 / size.z.max(1e-9),
        );
        Self { dims, origin: aabb_min, scale }
    }

    /// Grid dimensions.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// World position → continuous grid coordinates.
    pub fn world_to_grid(&self, p: Vec3) -> Vec3 {
        (p - self.origin) * self.scale
    }

    /// Continuous grid coordinates → world position.
    pub fn grid_to_world(&self, g: Vec3) -> Vec3 {
        Vec3::new(g.x / self.scale.x, g.y / self.scale.y, g.z / self.scale.z) + self.origin
    }
}

/// A continuous grid position located in its interpolation cell: the
/// lower-corner vertex plus the fractional offsets inside the cell, before
/// any weight exists. [`locate_cell`] finds it and [`CellLocation::weigh`]
/// turns it into a [`TrilinearCell`]; the ray marcher probes the base in
/// between, so a cell the source rules out never pays for its weights.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellLocation {
    /// Lower corner vertex.
    pub(crate) base: GridCoord,
    /// Offsets from `base` per axis, each in `[0, 1)`.
    pub(crate) frac: Vec3,
}

impl CellLocation {
    /// The 8 corner weights of the located cell, ordered like
    /// [`GridCoord::cell_corners`].
    #[inline]
    pub(crate) fn weigh(&self) -> TrilinearCell {
        let Vec3 { x: fx, y: fy, z: fz } = self.frac;
        let mut weights = [0.0f32; 8];
        for (i, w) in weights.iter_mut().enumerate() {
            let wx = if i & 1 == 1 { fx } else { 1.0 - fx };
            let wy = if (i >> 1) & 1 == 1 { fy } else { 1.0 - fy };
            let wz = if (i >> 2) & 1 == 1 { fz } else { 1.0 - fz };
            *w = wx * wy * wz;
        }
        TrilinearCell { base: self.base, weights }
    }
}

/// The interpolation cell of a continuous grid position: the lower-corner
/// vertex plus the 8 corner weights, ordered like
/// [`GridCoord::cell_corners`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrilinearCell {
    /// Lower corner vertex.
    pub base: GridCoord,
    /// Corner weights; always sums to 1.
    pub weights: [f32; 8],
}

/// The first half of [`trilinear_cell`]: the cell base and the fractional
/// offsets of `g`, or `None` when `g` falls outside the grid.
#[inline]
pub(crate) fn locate_cell(dims: GridDims, g: Vec3) -> Option<CellLocation> {
    let max = Vec3::new((dims.nx - 1) as f32, (dims.ny - 1) as f32, (dims.nz - 1) as f32);
    if g.x < -0.5 || g.y < -0.5 || g.z < -0.5 {
        return None;
    }
    if g.x > max.x + 0.5 || g.y > max.y + 0.5 || g.z > max.z + 0.5 {
        return None;
    }
    // The upper clamp keeps the base one vertex below the far face; on a
    // 1-thick axis (max = 0) there is no such vertex, and the base stays on
    // the one plane with all weight on it. On the clamped range integer
    // truncation is `floor`, without a libm call; adding `+0.0` turns a
    // `−0.0` position into `+0.0`, so the offset is `+0.0` there too, as
    // `floor`'s `−0.0 − −0.0` is.
    let axis = |v: f32, max: f32| {
        let v = v.clamp(0.0, (max - 1e-4).max(0.0)) + 0.0;
        let b = v as u32;
        (b, v - b as f32)
    };
    let (bx, fx) = axis(g.x, max.x);
    let (by, fy) = axis(g.y, max.y);
    let (bz, fz) = axis(g.z, max.z);
    Some(CellLocation { base: GridCoord::new(bx, by, bz), frac: Vec3::new(fx, fy, fz) })
}

/// Computes the interpolation cell for a continuous grid position, or `None`
/// when the position (clamped cell) falls outside the grid.
///
/// Positions within half a voxel outside the boundary are clamped onto it,
/// matching the renderer's behaviour at the AABB faces. The ray marcher
/// splits this in two: it locates the cell base first (integer truncation
/// of the clamped position, bitwise `floor`), and computes the weights only
/// for a cell its probe lets through.
pub fn trilinear_cell(dims: GridDims, g: Vec3) -> Option<TrilinearCell> {
    locate_cell(dims, g).map(|at| at.weigh())
}

/// Result of interpolating a voxel source at one sample position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterpSample {
    /// Interpolated density.
    pub density: f32,
    /// Interpolated color features.
    pub features: [f32; spnerf_voxel::FEATURE_DIM],
    /// How many of the 8 corners were occupied.
    pub occupied_corners: u8,
}

impl InterpSample {
    /// An all-zero sample (empty space).
    pub fn empty() -> Self {
        Self { density: 0.0, features: [0.0; spnerf_voxel::FEATURE_DIM], occupied_corners: 0 }
    }
}

/// Interpolates `source` at continuous grid position `g`.
///
/// Empty corners (where the source returns `None`) contribute zero, exactly
/// as the hardware's masked lookups do. Returns an empty sample when the
/// position is outside the grid.
pub fn interpolate<S: VoxelSource + ?Sized>(source: &S, g: Vec3) -> InterpSample {
    match trilinear_cell(source.dims(), g) {
        Some(cell) => interpolate_cell(source, &cell),
        None => InterpSample::empty(),
    }
}

/// The scalar reference implementation of [`interpolate_cell`]: one corner
/// at a time, one feature channel at a time. This is the test oracle the
/// lane kernel is pinned against.
pub fn interpolate_cell_scalar<S: VoxelSource + ?Sized>(
    source: &S,
    cell: &TrilinearCell,
) -> InterpSample {
    let corners = cell.base.cell_corners();
    let mut out = InterpSample::empty();
    for (corner, w) in corners.iter().zip(cell.weights) {
        if w == 0.0 {
            continue;
        }
        if let Some(VoxelData { density, features }) = source.fetch(*corner) {
            out.density += w * density;
            for (o, f) in out.features.iter_mut().zip(features) {
                *o += w * f;
            }
            out.occupied_corners += 1;
        }
    }
    out
}

/// Interpolates `source` over an already-computed [`TrilinearCell`].
/// Bitwise-identical to [`interpolate`] at the cell's position, and to the
/// scalar oracle [`interpolate_cell_scalar`].
///
/// Structure follows the accelerator's SGPU: *probe* the cell once
/// ([`OccupancyMip::cell_empty`] on the source's
/// [`VoxelSource::occupancy_mip`], the BLU check before any hash), then
/// *gather* the contributing corners (the same `w == 0` and masked
/// occupancy tests as the scalar oracle, in the same corner order), then
/// *blend* all [`FEATURE_DIM`] feature channels in lane form — two [`F32x8`]
/// vectors (channels 0..8 and 8..12 zero-padded) scaled by the splatted
/// corner weight. The lanes hold independent output channels and corners
/// accumulate sequentially, so each channel's float-addition order is
/// exactly the scalar one; see [`crate::lanes`] for the bitwise contract.
/// The oracle never probes, which is what pins the probe as sound.
///
/// [`OccupancyMip::cell_empty`]: spnerf_voxel::mip::OccupancyMip::cell_empty
pub fn interpolate_cell<S: VoxelSource + ?Sized>(source: &S, cell: &TrilinearCell) -> InterpSample {
    // A ruled-out cell has no corner to gather, and the blend of zero
    // corners is exactly the empty sample.
    if source.occupancy_mip().is_some_and(|mip| mip.cell_empty(cell.base)) {
        return InterpSample::empty();
    }
    gather_blend(source, cell)
}

/// The gather and blend phases of [`interpolate_cell`], after its probe;
/// the ray marcher calls it on a cell it has already probed.
pub(crate) fn gather_blend<S: VoxelSource + ?Sized>(
    source: &S,
    cell: &TrilinearCell,
) -> InterpSample {
    const EMPTY: VoxelData = VoxelData { density: 0.0, features: [0.0; FEATURE_DIM] };
    let corners = cell.base.cell_corners();
    // Gather phase: contributing corners in scalar order.
    let mut weights = [0.0f32; 8];
    let mut data = [EMPTY; 8];
    let mut n = 0usize;
    for (corner, w) in corners.iter().zip(cell.weights) {
        if w == 0.0 {
            continue;
        }
        if let Some(vd) = source.fetch(*corner) {
            weights[n] = w;
            data[n] = vd;
            n += 1;
        }
    }
    // Blend phase: density stays scalar (one channel), features run as two
    // 8-wide lanes with an unfused multiply-then-add per corner.
    let mut density = 0.0f32;
    let mut lo = F32x8::ZERO;
    let mut hi = F32x8::ZERO;
    for (w, vd) in weights[..n].iter().zip(&data[..n]) {
        density += w * vd.density;
        let wl = F32x8::splat(*w);
        lo = wl.mul_add(F32x8::load_padded(&vd.features[..8]), lo);
        hi = wl.mul_add(F32x8::load_padded(&vd.features[8..]), hi);
    }
    let mut out = InterpSample::empty();
    out.density = density;
    lo.store_padded(&mut out.features[..8]);
    hi.store_padded(&mut out.features[8..]);
    out.occupied_corners = n as u8;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spnerf_voxel::grid::DenseGrid;
    use spnerf_voxel::FEATURE_DIM;

    #[test]
    fn weights_partition_unity() {
        let dims = GridDims::cube(8);
        for g in
            [Vec3::new(0.0, 0.0, 0.0), Vec3::new(3.25, 4.5, 6.75), Vec3::new(6.999, 0.001, 3.5)]
        {
            let cell = trilinear_cell(dims, g).unwrap();
            let sum: f32 = cell.weights.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "weights sum to {sum} at {g:?}");
        }
    }

    #[test]
    fn exact_at_vertices() {
        let dims = GridDims::cube(4);
        let cell = trilinear_cell(dims, Vec3::new(2.0, 1.0, 1.0)).unwrap();
        // All weight on the base corner.
        assert!(cell.weights[0] > 0.999);
        assert_eq!(cell.base, GridCoord::new(2, 1, 1));
        // At the upper boundary the base shifts down so the cell stays in
        // bounds; the weight mass moves to the +z corner instead.
        let top = trilinear_cell(dims, Vec3::new(2.0, 1.0, 3.0)).unwrap();
        assert_eq!(top.base, GridCoord::new(2, 1, 2));
        assert!(top.weights[4] > 0.999);
    }

    #[test]
    fn midpoint_weights_equal() {
        let dims = GridDims::cube(4);
        let cell = trilinear_cell(dims, Vec3::new(0.5, 0.5, 0.5)).unwrap();
        for w in cell.weights {
            assert!((w - 0.125).abs() < 1e-6);
        }
    }

    #[test]
    fn outside_returns_none() {
        let dims = GridDims::cube(4);
        assert!(trilinear_cell(dims, Vec3::new(-1.0, 0.0, 0.0)).is_none());
        assert!(trilinear_cell(dims, Vec3::new(0.0, 5.0, 0.0)).is_none());
    }

    #[test]
    fn boundary_clamps() {
        let dims = GridDims::cube(4);
        // Half a voxel outside clamps onto the face.
        let cell = trilinear_cell(dims, Vec3::new(3.4, 1.0, 1.0)).unwrap();
        assert_eq!(cell.base.x, 2); // base clamped so the cell stays in bounds
    }

    #[test]
    fn one_thick_axis_interpolates_on_its_plane() {
        // A side of 1 has no vertex below the far face to clamp the base
        // to, so the base and all the weight stay on the one plane.
        let dims = GridDims::new(1, 8, 8);
        for x in [-0.5, 0.0, 0.3, 0.5] {
            let cell = trilinear_cell(dims, Vec3::new(x, 2.25, 7.5)).unwrap();
            assert_eq!(cell.base, GridCoord::new(0, 2, 6));
            // All weight sits on the x = 0 corners (even indices).
            for (i, w) in cell.weights.iter().enumerate() {
                assert!(i % 2 == 0 || *w == 0.0, "x+1 corner {i} weighted {w}");
            }
            let sum: f32 = cell.weights.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert!(trilinear_cell(dims, Vec3::new(0.6, 2.0, 2.0)).is_none());
        let mut g = DenseGrid::zeros(dims);
        g.set_density(GridCoord::new(0, 2, 6), 2.0);
        let s = interpolate(&g, Vec3::new(0.2, 2.0, 6.0));
        assert_eq!((s.density, s.occupied_corners), (2.0, 1));
    }

    #[test]
    fn interpolation_is_linear_along_edge() {
        let mut g = DenseGrid::zeros(GridDims::cube(4));
        g.set_density(GridCoord::new(1, 1, 1), 1.0);
        g.set_density(GridCoord::new(2, 1, 1), 3.0);
        let s = interpolate(&g, Vec3::new(1.25, 1.0, 1.0));
        assert!((s.density - 1.5).abs() < 1e-5);
        assert_eq!(s.occupied_corners, 2);
    }

    #[test]
    fn interpolated_features_blend() {
        let mut g = DenseGrid::zeros(GridDims::cube(4));
        g.set_density(GridCoord::new(1, 1, 1), 1.0);
        g.set_features(GridCoord::new(1, 1, 1), &[1.0; FEATURE_DIM]);
        g.set_density(GridCoord::new(2, 1, 1), 1.0);
        g.set_features(GridCoord::new(2, 1, 1), &[0.0; FEATURE_DIM]);
        let s = interpolate(&g, Vec3::new(1.75, 1.0, 1.0));
        assert!((s.features[0] - 0.25).abs() < 1e-5);
    }

    #[test]
    fn empty_space_interpolates_to_zero() {
        let g = DenseGrid::zeros(GridDims::cube(4));
        let s = interpolate(&g, Vec3::new(1.5, 1.5, 1.5));
        assert_eq!(s.density, 0.0);
        assert_eq!(s.occupied_corners, 0);
    }

    #[test]
    fn lane_kernel_is_bitwise_scalar() {
        // Dense-ish cell, partially occupied cell, boundary-clamped cell:
        // the lane blend must reproduce the scalar result bit for bit,
        // including the occupied-corner count (proptest sweeps the wide
        // input space in tests/lane_equivalence.rs).
        let mut g = DenseGrid::zeros(GridDims::cube(5));
        for (i, c) in [(1u32, 1u32, 1u32), (2, 1, 1), (1, 2, 1), (2, 2, 2), (4, 4, 4)]
            .iter()
            .enumerate()
            .map(|(i, &(x, y, z))| (i, GridCoord::new(x, y, z)))
        {
            g.set_density(c, 0.3 + i as f32 * 0.17);
            let f: Vec<f32> = (0..FEATURE_DIM).map(|k| (i * 7 + k) as f32 * 0.013).collect();
            g.set_features(c, &f);
        }
        for pos in [
            Vec3::new(1.3, 1.6, 1.1),
            Vec3::new(2.0, 2.0, 2.0),
            Vec3::new(4.2, 4.3, 4.4),
            Vec3::new(0.5, 0.5, 0.5),
        ] {
            let cell = trilinear_cell(g.dims(), pos).unwrap();
            let s = interpolate_cell_scalar(&g, &cell);
            let l = interpolate_cell(&g, &cell);
            assert_eq!(s.density.to_bits(), l.density.to_bits(), "density at {pos:?}");
            for (a, b) in s.features.iter().zip(l.features) {
                assert_eq!(a.to_bits(), b.to_bits(), "feature channel at {pos:?}");
            }
            assert_eq!(s.occupied_corners, l.occupied_corners);
        }
    }

    /// The pre-truncation definition of [`trilinear_cell`]: clamp, then
    /// libm `floor`, then the weights.
    fn floor_reference(dims: GridDims, g: Vec3) -> Option<TrilinearCell> {
        let max = Vec3::new((dims.nx - 1) as f32, (dims.ny - 1) as f32, (dims.nz - 1) as f32);
        if g.x < -0.5 || g.y < -0.5 || g.z < -0.5 {
            return None;
        }
        if g.x > max.x + 0.5 || g.y > max.y + 0.5 || g.z > max.z + 0.5 {
            return None;
        }
        let gx = g.x.clamp(0.0, (max.x - 1e-4).max(0.0));
        let gy = g.y.clamp(0.0, (max.y - 1e-4).max(0.0));
        let gz = g.z.clamp(0.0, (max.z - 1e-4).max(0.0));
        let (bx, by, bz) = (gx.floor(), gy.floor(), gz.floor());
        let (fx, fy, fz) = (gx - bx, gy - by, gz - bz);
        let mut weights = [0.0f32; 8];
        for (i, w) in weights.iter_mut().enumerate() {
            let wx = if i & 1 == 1 { fx } else { 1.0 - fx };
            let wy = if (i >> 1) & 1 == 1 { fy } else { 1.0 - fy };
            let wz = if (i >> 2) & 1 == 1 { fz } else { 1.0 - fz };
            *w = wx * wy * wz;
        }
        Some(TrilinearCell { base: GridCoord::new(bx as u32, by as u32, bz as u32), weights })
    }

    /// `trilinear_cell` equals the `floor` reference: the same base and
    /// the same bit pattern in all eight weights (or `None` for both).
    fn assert_matches_floor(dims: GridDims, g: Vec3) {
        let got = trilinear_cell(dims, g);
        let want = floor_reference(dims, g);
        let bits = |c: Option<TrilinearCell>| c.map(|c| (c.base, c.weights.map(f32::to_bits)));
        assert_eq!(bits(got), bits(want), "{dims} at {g:?}");
    }

    /// The next `f32` above `x` (finite `x`).
    fn next_up(x: f32) -> f32 {
        if x == 0.0 {
            f32::from_bits(1)
        } else if x > 0.0 {
            f32::from_bits(x.to_bits() + 1)
        } else {
            f32::from_bits(x.to_bits() - 1)
        }
    }

    /// The next `f32` below `x` (finite `x`).
    fn next_down(x: f32) -> f32 {
        -next_up(-x)
    }

    /// Per-axis probe values for a side of `n`: exact integers, the faces,
    /// ±0.5 outside each face and one step past it, and the far-face clamp
    /// edge `max − 1e-4` with its neighbours.
    fn axis_probes(n: u32) -> Vec<f32> {
        let max = (n - 1) as f32;
        let clamp = (max - 1e-4).max(0.0);
        let mut v = vec![
            next_down(-0.5),
            -0.5,
            -0.25,
            -0.0,
            0.0,
            0.5,
            next_down(clamp),
            clamp,
            next_up(clamp),
            max - 0.5,
            max,
            max + 0.25,
            max + 0.5,
            next_up(max + 0.5),
        ];
        let integers: Vec<u32> =
            if n <= 24 { (0..n).collect() } else { vec![1, 2, n / 2, n - 3, n - 2, n - 1] };
        v.extend(integers.into_iter().map(|i| i as f32));
        v
    }

    #[test]
    fn truncation_is_floor_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut grids: Vec<GridDims> = [1, 2, 3, 24, 128].map(GridDims::cube).to_vec();
        grids.extend([GridDims::new(1, 24, 3), GridDims::new(128, 2, 1)]);
        let mut rng = StdRng::seed_from_u64(0x7e57);
        for dims in grids {
            // Random positions in the grid and up to one voxel around it.
            let around = |rng: &mut StdRng, n: u32| rng.gen::<f32>() * (n as f32 + 1.0) - 1.0;
            for _ in 0..20_000 {
                let g = Vec3::new(
                    around(&mut rng, dims.nx),
                    around(&mut rng, dims.ny),
                    around(&mut rng, dims.nz),
                );
                assert_matches_floor(dims, g);
            }
            // Every combination of the per-axis edge values.
            let (xs, ys, zs) = (axis_probes(dims.nx), axis_probes(dims.ny), axis_probes(dims.nz));
            for &x in &xs {
                for &y in &ys {
                    for &z in &zs {
                        assert_matches_floor(dims, Vec3::new(x, y, z));
                    }
                }
            }
        }
    }

    #[test]
    fn negative_zero_offsets_are_positive_zero() {
        // `floor(−0.0)` is `−0.0` and `−0.0 − −0.0` is `+0.0`; the
        // truncating locate must give the same `+0.0` offset, or the weights
        // of the `+1` corners would carry a `−0.0` sign bit.
        let dims = GridDims::cube(8);
        for axis in 0..3 {
            let mut p = [1.25f32, 2.5, 3.75];
            p[axis] = -0.0;
            let at = locate_cell(dims, Vec3::new(p[0], p[1], p[2])).unwrap();
            let frac = [at.frac.x, at.frac.y, at.frac.z];
            assert_eq!(frac[axis].to_bits(), 0.0f32.to_bits(), "axis {axis}");
            assert_matches_floor(dims, Vec3::new(p[0], p[1], p[2]));
            p[axis] = 0.0;
            let pos = trilinear_cell(dims, Vec3::new(p[0], p[1], p[2])).unwrap();
            assert_eq!(at.weigh(), pos, "axis {axis}: −0.0 and +0.0 weigh alike");
        }
    }

    #[test]
    fn grid_frame_round_trip() {
        let frame = GridFrame::new(GridDims::cube(9), Vec3::splat(-1.0), Vec3::splat(1.0));
        let w = Vec3::new(0.3, -0.6, 0.9);
        let g = frame.world_to_grid(w);
        let back = frame.grid_to_world(g);
        assert!((back - w).length() < 1e-5);
        // AABB min maps to vertex 0, max to vertex n-1.
        assert!((frame.world_to_grid(Vec3::splat(-1.0)) - Vec3::ZERO).length() < 1e-5);
        assert!((frame.world_to_grid(Vec3::splat(1.0)) - Vec3::splat(8.0)).length() < 1e-4);
    }
}
