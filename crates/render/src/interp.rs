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

/// Computes the interpolation cell for a continuous grid position, or `None`
/// when the position (clamped cell) falls outside the grid.
///
/// Positions within half a voxel outside the boundary are clamped onto it,
/// matching the renderer's behaviour at the AABB faces.
pub fn trilinear_cell(dims: GridDims, g: Vec3) -> Option<TrilinearCell> {
    let max = Vec3::new((dims.nx - 1) as f32, (dims.ny - 1) as f32, (dims.nz - 1) as f32);
    if g.x < -0.5 || g.y < -0.5 || g.z < -0.5 {
        return None;
    }
    if g.x > max.x + 0.5 || g.y > max.y + 0.5 || g.z > max.z + 0.5 {
        return None;
    }
    let gx = g.x.clamp(0.0, max.x - 1e-4);
    let gy = g.y.clamp(0.0, max.y - 1e-4);
    let gz = g.z.clamp(0.0, max.z - 1e-4);
    let bx = gx.floor();
    let by = gy.floor();
    let bz = gz.floor();
    let (fx, fy, fz) = (gx - bx, gy - by, gz - bz);
    let base = GridCoord::new(bx as u32, by as u32, bz as u32);
    let mut weights = [0.0f32; 8];
    for (i, w) in weights.iter_mut().enumerate() {
        let wx = if i & 1 == 1 { fx } else { 1.0 - fx };
        let wy = if (i >> 1) & 1 == 1 { fy } else { 1.0 - fy };
        let wz = if (i >> 2) & 1 == 1 { fz } else { 1.0 - fz };
        *w = wx * wy * wz;
    }
    Some(TrilinearCell { base, weights })
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
    let Some(cell) = trilinear_cell(source.dims(), g) else {
        return InterpSample::empty();
    };
    interpolate_cell(source, &cell)
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

/// Interpolates `source` over an already-computed [`TrilinearCell`] — the
/// arithmetic core of [`interpolate`], split out so callers that resolve
/// the cell themselves (the empty-space-skipping ray marcher) don't compute
/// it twice. Bitwise-identical to [`interpolate`] at the cell's position,
/// and to the scalar oracle [`interpolate_cell_scalar`].
///
/// Structure follows the accelerator's Trilinear Interpolation Unit:
/// *gather* the contributing corners first (the same `w == 0` and masked
/// occupancy tests as the scalar oracle, in the same corner order), then
/// *blend* all [`FEATURE_DIM`] feature channels in lane form — two [`F32x8`]
/// vectors (channels 0..8 and 8..12 zero-padded) scaled by the splatted
/// corner weight. The lanes hold independent output channels and corners
/// accumulate sequentially, so each channel's float-addition order is
/// exactly the scalar one; see [`crate::lanes`] for the bitwise contract.
pub fn interpolate_cell<S: VoxelSource + ?Sized>(source: &S, cell: &TrilinearCell) -> InterpSample {
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
