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
//! range exactly), which is how levels ≥ 2 are built; level 1 is reduced
//! directly from the bitmap (3³ vertices per block, the 2³ interior plus
//! the shared boundary planes).
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
//! let (lo, hi) = mip.empty_region(GridCoord::new(0, 0, 0), usize::MAX).unwrap();
//! assert_eq!(lo, GridCoord::new(0, 0, 0));
//! assert!(hi.x >= 3, "a coarse block covers many cell bases");
//! // The cell touching the occupied vertex is not.
//! assert!(mip.empty_region(GridCoord::new(8, 8, 8), usize::MAX).is_none());
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
    /// Inclusive bounds of the set vertices, `None` when the bitmap is
    /// all-zero.
    occupied_bounds: Option<(GridCoord, GridCoord)>,
}

/// Block-map dimensions at pyramid level `k` (`k ≥ 1`): enough blocks of
/// side `2ᵏ` that the last block's coverage `[i·2ᵏ, (i+1)·2ᵏ]` reaches the
/// last vertex `n−1` on every axis.
fn level_dims(base: GridDims, k: u32) -> GridDims {
    let block = |n: u32| ((n as u64 - 1).div_ceil(1u64 << k) as u32).max(1);
    GridDims::new(block(base.nx), block(base.ny), block(base.nz))
}

impl OccupancyMip {
    /// Builds the full pyramid over `bitmap` (levels until one block spans
    /// the grid).
    pub fn build(bitmap: Bitmap) -> Self {
        let base_dims = bitmap.dims();
        let mut occupied_bounds: Option<(GridCoord, GridCoord)> = None;
        for c in base_dims.iter() {
            if bitmap.get(c) {
                occupied_bounds = Some(match occupied_bounds {
                    None => (c, c),
                    Some((lo, hi)) => (
                        GridCoord::new(lo.x.min(c.x), lo.y.min(c.y), lo.z.min(c.z)),
                        GridCoord::new(hi.x.max(c.x), hi.y.max(c.y), hi.z.max(c.z)),
                    ),
                });
            }
        }

        let mut levels = vec![bitmap];
        let mut k = 1u32;
        loop {
            let dims = level_dims(base_dims, k);
            let mut level = Bitmap::zeros(dims);
            // OR-reduce the previous level. Level 1 reads the vertex bitmap
            // directly, where block `i` covers the closed range [2i, 2i+2]
            // per axis (reach 2 — the 2³ interior plus the shared boundary
            // planes); levels ≥ 2 read the two children per axis (reach 1),
            // whose closed coverages tile the parent's exactly.
            let reach = if k == 1 { 2 } else { 1 };
            let child = &levels[k as usize - 1];
            for c in dims.iter() {
                'scan: for dz in 0..=reach {
                    for dy in 0..=reach {
                        for dx in 0..=reach {
                            let j = GridCoord::new(c.x * 2 + dx, c.y * 2 + dy, c.z * 2 + dz);
                            if child.get_clamped(j) {
                                level.set(c, true);
                                break 'scan;
                            }
                        }
                    }
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

    /// Inclusive bounds `(lo, hi)` of the occupied vertex set, or `None`
    /// when the grid is entirely empty. This is the occupied AABB the
    /// renderer clips ray intervals against.
    pub fn occupied_bounds(&self) -> Option<(GridCoord, GridCoord)> {
        self.occupied_bounds
    }

    /// Whether the interpolation cell with lower corner `base` is provably
    /// empty: all 8 corners `[base, base+1]³` are unoccupied (corners
    /// outside the grid count as empty).
    pub fn cell_empty(&self, base: GridCoord) -> bool {
        !self.levels[0].any_in_cell(base)
    }

    /// The largest provably-empty region of cell bases containing `base`,
    /// probing at most `max_level` coarse levels.
    ///
    /// Descends coarsest-first: if the level-`k` block containing `base` is
    /// empty, returns the inclusive cell-base range
    /// `[block·2ᵏ, block·2ᵏ + 2ᵏ − 1]` per axis — **every** cell base in
    /// that range has all 8 corners inside the block's empty closed
    /// coverage, so a ray can skip straight through it. Falls back to the
    /// single-cell check ([`Self::cell_empty`]) when every enclosing block
    /// is occupied, and returns `None` when the cell itself may touch an
    /// occupied vertex (the sample must be marched).
    ///
    /// `max_level` caps the coarsest level probed (`usize::MAX` uses the
    /// whole pyramid; `0` degenerates to the fine-level cell check).
    pub fn empty_region(
        &self,
        base: GridCoord,
        max_level: usize,
    ) -> Option<(GridCoord, GridCoord)> {
        for level in (1..=self.levels().min(max_level)).rev() {
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

    /// Storage footprint of the coarse levels (the fine bitmap is accounted
    /// where it already lives — the model footprint / the BLU).
    pub fn coarse_storage_bytes(&self) -> usize {
        self.levels[1..].iter().map(Bitmap::storage_bytes).sum()
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
        for dims in [GridDims::cube(6), GridDims::new(9, 5, 13), GridDims::cube(17)] {
            let bitmap = scattered_bitmap(dims, 23);
            let mip = OccupancyMip::build(bitmap.clone());
            for level in 1..=mip.levels() {
                let ldims = level_dims(dims, level as u32);
                for block in ldims.iter() {
                    assert_eq!(
                        mip.block_occupied(level, block),
                        coverage_occupied(&bitmap, level as u32, block),
                        "level {level} block {block} in {dims}"
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
            for level in 1..=mip.levels() {
                let k = level as u32;
                // The far cell (base n−2) touches the occupied corner n−1;
                // its block's closed coverage must include that vertex.
                let b = n - 2;
                let block = GridCoord::new(b >> k, b >> k, b >> k);
                assert!(mip.block_occupied(level, block), "side {n} level {level}");
                assert!(mip.empty_region(GridCoord::new(b, b, b), level).is_none());
            }
        }
    }

    #[test]
    fn empty_region_is_sound_and_complete_at_fine_level() {
        let dims = GridDims::cube(10);
        let bitmap = scattered_bitmap(dims, 37);
        let mip = OccupancyMip::build(bitmap.clone());
        for base in dims.iter() {
            let truly_empty = base.cell_corners().iter().all(|c| !bitmap.get_clamped(*c));
            match mip.empty_region(base, usize::MAX) {
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
    fn empty_region_level_cap_still_sound() {
        let dims = GridDims::cube(12);
        let mip = OccupancyMip::build(scattered_bitmap(dims, 51));
        for base in [GridCoord::new(0, 0, 0), GridCoord::new(5, 7, 3)] {
            let capped = mip.empty_region(base, 0);
            let full = mip.empty_region(base, usize::MAX);
            assert_eq!(capped.is_some(), full.is_some(), "cap changes only the region size");
            if let (Some((cl, ch)), Some((fl, fh))) = (capped, full) {
                assert!(fl <= cl && ch <= fh || (cl, ch) == (fl, fh));
            }
        }
    }

    #[test]
    fn all_empty_grid_skips_everything() {
        let mip = OccupancyMip::build(Bitmap::zeros(GridDims::cube(9)));
        assert_eq!(mip.occupied_bounds(), None);
        let (lo, hi) = mip.empty_region(GridCoord::new(4, 4, 4), usize::MAX).unwrap();
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
        assert!(mip.coarse_storage_bytes() > 0);
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
                mip.empty_region(edge, usize::MAX).is_none(),
                "side {n}: the cell at the occupied far corner is not empty"
            );

            // And on an all-empty grid the far-boundary query must return a
            // region that contains the queried base (the documented
            // contract), even when the block index clamps.
            let empty = OccupancyMip::build(Bitmap::zeros(dims));
            let (lo, hi) = empty.empty_region(edge, usize::MAX).expect("everything is empty");
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
