//! Hierarchical occupancy mip-pyramid for empty-space skipping.
//!
//! The pruned occupancy [`Bitmap`] answers "is *this vertex* occupied?" in
//! one bit; the pyramid built here answers "is *any vertex in this whole
//! macro-block* occupied?" in one bit, which is what lets the renderer's
//! ray marcher (and the accelerator's BLU, which holds the same structure
//! on chip) discard entire empty regions without decoding a single sample.
//! RT-NeRF's coarse occupancy hierarchy and Cicero's locality structures
//! make the same move in hardware; SpNeRF's bitmap gives us the exact
//! fine-level set to build it from.
//!
//! # Overlapping block coverage
//!
//! Trilinear interpolation reads the **8 corners** `[b, b+1]³` of a sample's
//! cell, so a skip decision must prove all of them empty — including
//! corners that lie on the far boundary plane of the sample's block. To
//! keep every query a *single* block lookup, level-`k` block `i` covers the
//! **closed** vertex range `[i·2ᵏ, (i+1)·2ᵏ]` per axis: consecutive blocks
//! overlap by exactly one vertex plane. A cell base `b` inside block
//! `i = b >> k` then has all corners `[b, b+1] ⊆ [i·2ᵏ, i·2ᵏ + 2ᵏ]` inside
//! that one block's coverage, so "block empty ⇒ cell empty" holds with no
//! neighbour checks. The overlap composes: a level-`k` block is the OR of
//! its two level-`k−1` children per axis (their closed ranges tile its
//! range exactly), so each set block of level `k−1` sets its parent. Level
//! 1 is set from the bitmap's set vertices: vertex `v` lies in block
//! `v/2`, and an even `v > 0` also on the end plane of block `v/2 − 1`.
//! Only set bits are visited, so the build costs follow the occupancy.
//!
//! The pyramid is the renderer's one emptiness query: its box clips each
//! ray, [`OccupancyMip::cell_empty`] probes each cell, and
//! [`OccupancyMip::empty_region`] skips whole blocks.
//!
//! # Examples
//!
//! ```
//! use spnerf_voxel::bitmap::Bitmap;
//! use spnerf_voxel::coord::{GridCoord, GridDims};
//! use spnerf_voxel::mip::OccupancyMip;
//!
//! let mut b = Bitmap::zeros(GridDims::cube(16));
//! b.set(GridCoord::new(9, 9, 9), true);
//! let mip = OccupancyMip::build(b);
//! // The cell at the origin is provably empty, and the pyramid proves it
//! // with a whole macro-block, not vertex by vertex.
//! let (lo, hi) = mip.empty_region(GridCoord::new(0, 0, 0)).unwrap();
//! assert_eq!(lo, GridCoord::new(0, 0, 0));
//! assert!(hi.x >= 3, "a coarse block covers many cell bases");
//! // The cell touching the occupied vertex is not.
//! assert!(mip.empty_region(GridCoord::new(8, 8, 8)).is_none());
//! ```

use crate::bitmap::Bitmap;
use crate::coord::{GridCoord, GridDims};

/// A hierarchical occupancy pyramid over a fine-level [`Bitmap`].
///
/// Level 0 is the bitmap itself (one bit per vertex). Level `k ≥ 1` stores
/// one bit per `2ᵏ`-sided macro-block with the one-plane overlap described
/// in the [module docs](self): the bit is set iff **any** vertex in the
/// block's closed coverage `[i·2ᵏ, i·2ᵏ + 2ᵏ]³ ∩ grid` is occupied. Levels
/// are built until the whole grid collapses into a single block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancyMip {
    /// `levels[0]` is the fine bitmap; `levels[k]` the level-`k` block map.
    levels: Vec<Bitmap>,
    /// [`Bitmap::occupied_bounds`] of `levels[0]`.
    occupied_bounds: Option<(GridCoord, GridCoord)>,
}

/// Block-map dimensions at pyramid level `k` (`k ≥ 1`): enough blocks of
/// side `2ᵏ` that the last block's coverage `[i·2ᵏ, (i+1)·2ᵏ]` reaches the
/// last vertex `n−1` on every axis.
fn level_dims(base: GridDims, k: u32) -> GridDims {
    let block = |n: u32| ((n as u64 - 1).div_ceil(1u64 << k) as u32).max(1);
    GridDims::new(block(base.nx), block(base.ny), block(base.nz))
}

/// The level-1 blocks whose closed coverage `[2i, 2i + 2]` holds vertex `v`
/// on one axis: block `v/2`, and block `v/2 − 1` when `v` is even and
/// positive (the plane the two share), both clamped to the last block
/// `last`. With one block the pair repeats it.
fn level1_blocks(v: u32, last: u32) -> [u32; 2] {
    let own = (v / 2).min(last);
    let shared = if v % 2 == 0 && v > 0 { (v / 2 - 1).min(last) } else { own };
    [own, shared]
}

impl OccupancyMip {
    /// Builds the full pyramid over `bitmap` (levels until one block spans
    /// the grid), each level from the set bits of the level below.
    pub fn build(bitmap: Bitmap) -> Self {
        let base_dims = bitmap.dims();
        let occupied_bounds = bitmap.occupied_bounds();
        let mut levels = vec![bitmap];
        let mut k = 1u32;
        loop {
            let dims = level_dims(base_dims, k);
            let mut level = Bitmap::zeros(dims);
            let child = &levels[k as usize - 1];
            if k == 1 {
                // A vertex sets every block whose closed coverage holds it:
                // one or two per axis.
                let (lx, ly, lz) = (dims.nx - 1, dims.ny - 1, dims.nz - 1);
                for v in child.ones() {
                    for x in level1_blocks(v.x, lx) {
                        for y in level1_blocks(v.y, ly) {
                            for z in level1_blocks(v.z, lz) {
                                level.set(GridCoord::new(x, y, z), true);
                            }
                        }
                    }
                }
            } else {
                // The two children per axis tile their parent's coverage.
                for j in child.ones() {
                    level.set(GridCoord::new(j.x / 2, j.y / 2, j.z / 2), true);
                }
            }
            let done = dims.nx == 1 && dims.ny == 1 && dims.nz == 1;
            levels.push(level);
            if done {
                break;
            }
            k += 1;
        }
        Self { levels, occupied_bounds }
    }

    /// The fine-level occupancy bitmap (pyramid level 0).
    pub fn base(&self) -> &Bitmap {
        &self.levels[0]
    }

    /// Grid dimensions of the fine level.
    pub fn dims(&self) -> GridDims {
        self.levels[0].dims()
    }

    /// Number of coarse levels above the bitmap (level indices `1..=levels()`
    /// are valid for [`Self::block_occupied`]).
    pub fn levels(&self) -> usize {
        self.levels.len() - 1
    }

    /// Whether the level-`level` block at block coordinate `block` covers
    /// any occupied vertex. Blocks outside the level's map read as empty,
    /// exactly like the BLU's out-of-range addresses.
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or exceeds [`Self::levels`].
    pub fn block_occupied(&self, level: usize, block: GridCoord) -> bool {
        assert!(level >= 1 && level <= self.levels(), "level {level} out of range");
        self.levels[level].get_clamped(block)
    }

    /// Inclusive bounds `(lo, hi)` of the occupied vertex set
    /// ([`Bitmap::occupied_bounds`] of the base, kept from the build), or
    /// `None` when the grid is entirely empty. The renderer clips each ray
    /// against this box.
    pub fn occupied_bounds(&self) -> Option<(GridCoord, GridCoord)> {
        self.occupied_bounds
    }

    /// Whether the interpolation cell with lower corner `base` is provably
    /// empty: all 8 corners `[base, base+1]³` are unoccupied (corners
    /// outside the grid count as empty).
    pub fn cell_empty(&self, base: GridCoord) -> bool {
        !self.levels[0].any_in_cell(base)
    }

    /// The largest provably-empty region of cell bases containing `base`.
    ///
    /// Descends coarsest-first: if the level-`k` block containing `base` is
    /// empty, returns the inclusive cell-base range
    /// `[block·2ᵏ, block·2ᵏ + 2ᵏ − 1]` per axis — **every** cell base in
    /// that range has all 8 corners inside the block's empty closed
    /// coverage, so a ray can skip straight through it. Falls back to the
    /// single-cell check ([`Self::cell_empty`]) when every enclosing block
    /// is occupied, and returns `None` when the cell itself may touch an
    /// occupied vertex (the sample must be marched).
    pub fn empty_region(&self, base: GridCoord) -> Option<(GridCoord, GridCoord)> {
        for level in (1..=self.levels()).rev() {
            let k = level as u32;
            // Clamp to the level's last block: a base on the far grid
            // boundary (b = n−1, beyond every interior block) still lies
            // inside the last block's closed coverage [(n_k−1)·2ᵏ, n_k·2ᵏ],
            // and its out-of-grid +1 corners are empty by definition —
            // without the clamp the out-of-range read would claim "empty"
            // for a block that was never built.
            let d = self.levels[level].dims();
            let block = GridCoord::new(
                (base.x >> k).min(d.nx - 1),
                (base.y >> k).min(d.ny - 1),
                (base.z >> k).min(d.nz - 1),
            );
            if !self.levels[level].get_clamped(block) {
                let lo = GridCoord::new(block.x << k, block.y << k, block.z << k);
                let span = (1u32 << k) - 1;
                // Extend to the queried base on clamped axes so the region
                // always contains it (the documented contract). Sound: the
                // only base past `lo + span` that clamps into this block
                // sits exactly on the block's closed-coverage end plane
                // (empty, since the block is) with its +1 corners outside
                // the grid (empty by definition).
                let hi = GridCoord::new(
                    (lo.x + span).max(base.x),
                    (lo.y + span).max(base.y),
                    (lo.z + span).max(base.z),
                );
                return Some((lo, hi));
            }
        }
        if self.cell_empty(base) {
            Some((base, base))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::DenseGrid;

    /// Ground truth straight from the definition: any occupied vertex in
    /// the closed coverage `[i·2ᵏ, i·2ᵏ + 2ᵏ] ∩ grid`?
    fn coverage_occupied(bitmap: &Bitmap, level: u32, block: GridCoord) -> bool {
        let side = 1u32 << level;
        let lo = GridCoord::new(block.x * side, block.y * side, block.z * side);
        for dz in 0..=side {
            for dy in 0..=side {
                for dx in 0..=side {
                    if bitmap.get_clamped(GridCoord::new(lo.x + dx, lo.y + dy, lo.z + dz)) {
                        return true;
                    }
                }
            }
        }
        false
    }

    fn scattered_bitmap(dims: GridDims, stride: usize) -> Bitmap {
        let mut b = Bitmap::zeros(dims);
        let mut i = 7usize;
        while i < b.len() {
            b.set_index(i, true);
            i += stride;
        }
        b
    }

    #[test]
    fn levels_match_coverage_definition() {
        // Scattered fills (grids of side 1 and 2; 2×3×130 rows straddle u64
        // words), then every single-bit bitmap of three grids: each vertex,
        // shared even plane and far face sets exactly the blocks whose
        // coverage holds it.
        let shapes =
            [(6, 6, 6), (9, 5, 13), (17, 17, 17), (1, 1, 1), (2, 2, 2), (1, 8, 5), (2, 3, 130)];
        let scattered = shapes.map(|(x, y, z)| scattered_bitmap(GridDims::new(x, y, z), 23));
        let singles = [GridDims::cube(1), GridDims::cube(2), GridDims::new(5, 7, 9)]
            .into_iter()
            .flat_map(|dims| {
                (0..dims.len()).map(move |i| {
                    let mut single = Bitmap::zeros(dims);
                    single.set_index(i, true);
                    single
                })
            });
        for bitmap in scattered.into_iter().chain(singles) {
            let (dims, first) = (bitmap.dims(), bitmap.ones().next());
            let mip = OccupancyMip::build(bitmap.clone());
            for level in 1..=mip.levels() {
                for block in level_dims(dims, level as u32).iter() {
                    assert_eq!(
                        mip.block_occupied(level, block),
                        coverage_occupied(&bitmap, level as u32, block),
                        "level {level} block {block} in {dims}, first set bit {first:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn last_level_is_single_block() {
        let mip = OccupancyMip::build(scattered_bitmap(GridDims::cube(24), 100));
        let top = mip.levels();
        assert_eq!(level_dims(GridDims::cube(24), top as u32), GridDims::cube(1));
        assert!(mip.block_occupied(top, GridCoord::new(0, 0, 0)));
    }

    #[test]
    fn coverage_reaches_the_last_vertex() {
        // Regression guard for the level-dims formula: an occupied vertex in
        // the far corner must be visible at every level. (A per-level
        // halving recurrence under-covers, e.g. 6 vertices → 1 block of
        // coverage [0,4] at level 2, losing vertex 5.)
        for n in [2u32, 3, 5, 6, 7, 9, 16, 33] {
            let dims = GridDims::cube(n);
            let mut b = Bitmap::zeros(dims);
            b.set(GridCoord::new(n - 1, n - 1, n - 1), true);
            let mip = OccupancyMip::build(b);
            // The far cell (base n−2) touches the occupied corner n−1; its
            // block's closed coverage must include that vertex at every
            // level, and the descent must not call the cell empty.
            let b = n - 2;
            for level in 1..=mip.levels() {
                let k = level as u32;
                let block = GridCoord::new(b >> k, b >> k, b >> k);
                assert!(mip.block_occupied(level, block), "side {n} level {level}");
            }
            assert!(mip.empty_region(GridCoord::new(b, b, b)).is_none(), "side {n}");
        }
    }

    #[test]
    fn empty_region_is_sound_and_complete_at_fine_level() {
        let dims = GridDims::cube(10);
        let bitmap = scattered_bitmap(dims, 37);
        let mip = OccupancyMip::build(bitmap.clone());
        for base in dims.iter() {
            let truly_empty = base.cell_corners().iter().all(|c| !bitmap.get_clamped(*c));
            match mip.empty_region(base) {
                Some((lo, hi)) => {
                    assert!(truly_empty, "claimed empty at occupied cell {base}");
                    assert!(
                        (lo.x..=hi.x).contains(&base.x)
                            && (lo.y..=hi.y).contains(&base.y)
                            && (lo.z..=hi.z).contains(&base.z),
                        "region must contain the queried base"
                    );
                    // Every base in the returned region is itself empty.
                    for z in lo.z..=hi.z.min(dims.nz - 1) {
                        for y in lo.y..=hi.y.min(dims.ny - 1) {
                            for x in lo.x..=hi.x.min(dims.nx - 1) {
                                assert!(mip.cell_empty(GridCoord::new(x, y, z)));
                            }
                        }
                    }
                }
                None => assert!(!truly_empty, "missed empty cell {base}"),
            }
        }
    }

    #[test]
    fn all_empty_grid_skips_everything() {
        let mip = OccupancyMip::build(Bitmap::zeros(GridDims::cube(9)));
        assert_eq!(mip.occupied_bounds(), None);
        let (lo, hi) = mip.empty_region(GridCoord::new(4, 4, 4)).unwrap();
        assert_eq!(lo, GridCoord::new(0, 0, 0));
        // Every cell base (≤ n−2 = 7) lies inside the top-level block.
        assert!(hi.x >= 7, "top-level block spans the grid, got hi {hi}");
    }

    #[test]
    fn occupied_bounds_track_set_bits() {
        let mut b = Bitmap::zeros(GridDims::cube(8));
        b.set(GridCoord::new(2, 5, 1), true);
        b.set(GridCoord::new(6, 3, 4), true);
        let mip = OccupancyMip::build(b);
        assert_eq!(mip.occupied_bounds(), Some((GridCoord::new(2, 3, 1), GridCoord::new(6, 5, 4))));
    }

    #[test]
    fn from_grid_bitmap_round_trip() {
        let mut g = DenseGrid::zeros(GridDims::cube(8));
        g.set_density(GridCoord::new(3, 3, 3), 0.5);
        let mip = OccupancyMip::build(Bitmap::from_grid(&g));
        assert!(!mip.cell_empty(GridCoord::new(2, 2, 2)), "corner (3,3,3) is occupied");
        assert!(mip.cell_empty(GridCoord::new(5, 5, 5)));
    }

    #[test]
    fn far_boundary_base_never_misreads_occupancy() {
        // Regression: a cell base on the far grid boundary (b = n−1) maps
        // past the interior blocks at coarse levels; the query must clamp
        // into the last block instead of reading out-of-range as "empty".
        for n in [6u32, 9, 12, 17] {
            let dims = GridDims::cube(n);
            let mut b = Bitmap::zeros(dims);
            b.set(GridCoord::new(n - 1, n - 1, n - 1), true);
            let mip = OccupancyMip::build(b);
            let edge = GridCoord::new(n - 1, n - 1, n - 1);
            assert!(
                mip.empty_region(edge).is_none(),
                "side {n}: the cell at the occupied far corner is not empty"
            );

            // And on an all-empty grid the far-boundary query must return a
            // region that contains the queried base (the documented
            // contract), even when the block index clamps.
            let empty = OccupancyMip::build(Bitmap::zeros(dims));
            let (lo, hi) = empty.empty_region(edge).expect("everything is empty");
            assert!(
                lo.x <= edge.x && edge.x <= hi.x && lo.z <= edge.z && edge.z <= hi.z,
                "side {n}: region ({lo}, {hi}) must contain {edge}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn level_zero_block_query_panics() {
        let mip = OccupancyMip::build(Bitmap::zeros(GridDims::cube(4)));
        let _ = mip.block_occupied(0, GridCoord::new(0, 0, 0));
    }
}
