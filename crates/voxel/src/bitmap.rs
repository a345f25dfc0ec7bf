//! Packed 1-bit-per-voxel occupancy bitmap.
//!
//! The bitmap is the structure behind SpNeRF's *bitmap masking*: during
//! online decoding every hash-table hit is filtered through the bitmap so
//! that collisions landing on empty voxels are forced back to zero
//! (Section III-B of the paper). It is also what the accelerator's Bitmap
//! Lookup Unit (BLU) stores on chip.

use crate::coord::{GridCoord, GridDims};
use crate::grid::DenseGrid;

/// A packed occupancy bitmap with one bit per voxel vertex.
///
/// # Examples
///
/// ```
/// use spnerf_voxel::bitmap::Bitmap;
/// use spnerf_voxel::coord::{GridCoord, GridDims};
///
/// let mut b = Bitmap::zeros(GridDims::cube(16));
/// b.set(GridCoord::new(3, 4, 5), true);
/// assert!(b.get(GridCoord::new(3, 4, 5)));
/// assert_eq!(b.count_ones(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    dims: GridDims,
    words: Vec<u64>,
}

impl Bitmap {
    /// An all-zero bitmap for a grid of the given dimensions.
    pub fn zeros(dims: GridDims) -> Self {
        let nwords = dims.len().div_ceil(64);
        Self { dims, words: vec![0; nwords] }
    }

    /// Builds the occupancy bitmap of a dense grid (bit = density > 0).
    pub fn from_grid(grid: &DenseGrid) -> Self {
        let mut b = Self::zeros(grid.dims());
        for (i, d) in grid.density_raw().iter().enumerate() {
            if *d > 0.0 {
                b.set_index(i, true);
            }
        }
        b
    }

    /// Grid dimensions this bitmap covers.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Bit at coordinate `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn get(&self, c: GridCoord) -> bool {
        let i = self
            .dims
            .linear_index(c)
            .unwrap_or_else(|| panic!("coordinate {c} out of bounds for bitmap {}", self.dims));
        self.get_index(i)
    }

    /// Bit at coordinate `c`, or `false` when `c` is out of bounds.
    ///
    /// Out-of-grid vertices are by definition empty; the hardware BLU behaves
    /// the same way (addresses outside the subgrid bit mask read as zero).
    pub fn get_clamped(&self, c: GridCoord) -> bool {
        match self.dims.linear_index(c) {
            Some(i) => self.get_index(i),
            None => false,
        }
    }

    /// Whether any of the 8 vertices `[base, base+1]³` of the interpolation
    /// cell with lower corner `base` is set. Vertices outside the grid read
    /// as unset, as in [`Self::get_clamped`].
    ///
    /// This is the codebase's one definition of "a cell touches a set
    /// vertex": [`crate::mip::OccupancyMip::cell_empty`], the renderer's
    /// per-cell probe, answers with it. Since z is the fastest axis, the
    /// cell is at most four rows of two adjacent bits, so the query reads
    /// four rows (one word each, two where the pair straddles a word) and
    /// allocates nothing.
    pub fn any_in_cell(&self, base: GridCoord) -> bool {
        let d = self.dims;
        // Every corner is `>= base` per axis, so a base outside the grid
        // has no corner inside it. Checking first also keeps each `+ 1`
        // below `u32::MAX`.
        if !d.contains(base) {
            return false;
        }
        let nz = d.nz as usize;
        let i = d.linear_index_unchecked(base);
        // On a far face the +1 row is outside the grid; re-reading the base
        // row in its place leaves the OR unchanged.
        let dy = if base.y + 1 < d.ny { nz } else { 0 };
        let dx = if base.x + 1 < d.nx { d.ny as usize * nz } else { 0 };
        let pair = base.z + 1 < d.nz;
        self.row_any(i, pair)
            || self.row_any(i + dy, pair)
            || self.row_any(i + dx, pair)
            || self.row_any(i + dx + dy, pair)
    }

    /// Whether bit `i`, or with `pair` also bit `i + 1`, is set. The caller
    /// guarantees both indices are in bounds; the pair may straddle a word.
    fn row_any(&self, i: usize, pair: bool) -> bool {
        let (w, b) = (i / 64, i % 64);
        let mask = if pair { 0b11 } else { 0b01 };
        (self.words[w] >> b) & mask != 0 || (pair && b == 63 && self.words[w + 1] & 1 != 0)
    }

    /// Sets the bit at coordinate `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn set(&mut self, c: GridCoord, v: bool) {
        let i = self
            .dims
            .linear_index(c)
            .unwrap_or_else(|| panic!("coordinate {c} out of bounds for bitmap {}", self.dims));
        self.set_index(i, v);
    }

    /// Bit at linear index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dims.len()`.
    pub fn get_index(&self, i: usize) -> bool {
        assert!(i < self.dims.len(), "bit index {i} out of bounds");
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets the bit at linear index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dims.len()`.
    pub fn set_index(&mut self, i: usize, v: bool) {
        assert!(i < self.dims.len(), "bit index {i} out of bounds");
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// The set vertices, in linear (z-fastest) order.
    ///
    /// This is the codebase's one walk over set bits: it scans the packed
    /// words once, skips zero words whole, and locates only the set bits of
    /// the others. [`Self::occupied_bounds`] folds over it, and
    /// [`crate::mip::OccupancyMip::build`] sets each level from it.
    pub fn ones(&self) -> impl Iterator<Item = GridCoord> + '_ {
        self.words.iter().enumerate().flat_map(move |(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(self.dims.coord_of(i))
            })
        })
    }

    /// Inclusive bounds `(lo, hi)` of the set vertices, or `None` when no
    /// bit is set.
    ///
    /// This is the codebase's one computation of an occupied box, a fold
    /// over [`Self::ones`]; the occupancy pyramid keeps its base's.
    pub fn occupied_bounds(&self) -> Option<(GridCoord, GridCoord)> {
        self.ones().fold(None, |bounds, c| {
            let (lo, hi) = bounds.unwrap_or((c, c));
            Some((
                GridCoord::new(lo.x.min(c.x), lo.y.min(c.y), lo.z.min(c.z)),
                GridCoord::new(hi.x.max(c.x), hi.y.max(c.y), hi.z.max(c.z)),
            ))
        })
    }

    /// Number of set bits (occupied voxels).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of bits (total voxels).
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// Whether the bitmap covers zero voxels (never true for constructed
    /// dims).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// On-chip/off-chip storage footprint: one bit per voxel, rounded up to
    /// whole 64-bit words — the memory-efficiency claim of Section III-B.
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Raw packed words (little-endian bit order within each word).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_round_trip() {
        let mut b = Bitmap::zeros(GridDims::new(5, 7, 9));
        let c = GridCoord::new(4, 6, 8);
        assert!(!b.get(c));
        b.set(c, true);
        assert!(b.get(c));
        b.set(c, false);
        assert!(!b.get(c));
    }

    #[test]
    fn count_ones_tracks_sets() {
        let mut b = Bitmap::zeros(GridDims::cube(8));
        for i in 0..100 {
            b.set_index(i * 5 % b.len(), true);
        }
        let expect = (0..100).map(|i| i * 5 % 512).collect::<std::collections::HashSet<_>>();
        assert_eq!(b.count_ones(), expect.len());
    }

    #[test]
    fn from_grid_matches_occupancy() {
        let mut g = DenseGrid::zeros(GridDims::cube(6));
        g.set_density(GridCoord::new(1, 1, 1), 0.7);
        g.set_density(GridCoord::new(5, 5, 5), 0.1);
        g.set_density(GridCoord::new(2, 2, 2), -0.5); // empty
        let b = Bitmap::from_grid(&g);
        assert_eq!(b.count_ones(), 2);
        assert!(b.get(GridCoord::new(1, 1, 1)));
        assert!(!b.get(GridCoord::new(2, 2, 2)));
    }

    #[test]
    fn clamped_reads_false_outside() {
        let b = Bitmap::zeros(GridDims::cube(4));
        assert!(!b.get_clamped(GridCoord::new(100, 0, 0)));
    }

    #[test]
    fn storage_is_one_bit_per_voxel() {
        let b = Bitmap::zeros(GridDims::cube(160));
        // 160^3 bits = 512 KB exactly (the figure quoted for a 160-cube grid).
        assert_eq!(b.storage_bytes(), 160 * 160 * 160 / 8);
    }

    #[test]
    fn word_boundary_bits() {
        let mut b = Bitmap::zeros(GridDims::new(1, 1, 130));
        b.set_index(63, true);
        b.set_index(64, true);
        b.set_index(129, true);
        assert!(b.get_index(63) && b.get_index(64) && b.get_index(129));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn any_in_cell_is_the_or_of_eight_clamped_reads() {
        // The 130-long z axis puts vertex pairs across u64 word boundaries.
        // Each grid is checked with every single-bit bitmap (so each
        // straddling pair is seen with only its high half set) and one
        // random fill, at every base up to one past the far face.
        for dims in [GridDims::new(5, 7, 9), GridDims::new(2, 3, 130), GridDims::new(1, 1, 130)] {
            let mut random = Bitmap::zeros(dims);
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..random.len() {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                random.set_index(i, state >> 61 == 0);
            }
            let singles = (0..dims.len()).map(|i| {
                let mut b = Bitmap::zeros(dims);
                b.set_index(i, true);
                b
            });
            for b in singles.chain([random]) {
                for x in 0..=dims.nx {
                    for y in 0..=dims.ny {
                        for z in 0..=dims.nz {
                            let base = GridCoord::new(x, y, z);
                            let expect = base.cell_corners().iter().any(|&c| b.get_clamped(c));
                            assert_eq!(b.any_in_cell(base), expect, "cell {base} in {dims}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn occupied_bounds_is_the_box_of_the_set_vertices() {
        // `ones` and the box it folds into, against a per-vertex filter, on
        // the grids `any_in_cell` is checked on: every single-bit bitmap
        // (each word boundary of the 130-long z axis with only one side
        // set), one random fill, and the all-zero bitmap.
        let filter = |b: &Bitmap| b.dims().iter().filter(|&c| b.get(c)).collect::<Vec<_>>();
        let reference = |b: &Bitmap| {
            let set = filter(b);
            let min = |f: fn(&GridCoord) -> u32| set.iter().map(f).min();
            let max = |f: fn(&GridCoord) -> u32| set.iter().map(f).max();
            Some((
                GridCoord::new(min(|c| c.x)?, min(|c| c.y)?, min(|c| c.z)?),
                GridCoord::new(max(|c| c.x)?, max(|c| c.y)?, max(|c| c.z)?),
            ))
        };
        for dims in [GridDims::new(5, 7, 9), GridDims::new(2, 3, 130), GridDims::new(1, 1, 130)] {
            let mut random = Bitmap::zeros(dims);
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..random.len() {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                random.set_index(i, state >> 61 == 0);
            }
            assert!(random.count_ones() > 1, "{dims}: the random fill sets bits");
            for i in 0..dims.len() {
                let mut single = Bitmap::zeros(dims);
                single.set_index(i, true);
                let c = dims.coord_of(i);
                assert_eq!(single.ones().collect::<Vec<_>>(), [c], "bit {c} in {dims}");
                assert_eq!(single.occupied_bounds(), Some((c, c)), "bit {c} in {dims}");
            }
            assert_eq!(random.ones().collect::<Vec<_>>(), filter(&random), "random fill in {dims}");
            assert_eq!(random.occupied_bounds(), reference(&random), "random fill in {dims}");
            assert_eq!(Bitmap::zeros(dims).ones().next(), None, "all-zero {dims}");
            assert_eq!(Bitmap::zeros(dims).occupied_bounds(), None, "all-zero {dims}");
        }
    }

    #[test]
    fn any_in_cell_rejects_far_bases_without_overflow() {
        let mut b = Bitmap::zeros(GridDims::new(2, 2, 2));
        b.set(GridCoord::new(1, 1, 1), true);
        assert!(b.any_in_cell(GridCoord::new(0, 0, 0)));
        assert!(b.any_in_cell(GridCoord::new(1, 1, 1)));
        assert!(!b.any_in_cell(GridCoord::new(u32::MAX, 0, 0)));
        assert!(!b.any_in_cell(GridCoord::new(0, u32::MAX, u32::MAX)));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_get_panics() {
        let b = Bitmap::zeros(GridDims::cube(2));
        let _ = b.get(GridCoord::new(2, 0, 0));
    }
}
