//! The unified [`SparseFormat`] abstraction and adaptive format selection.
//!
//! Section II-B of the paper surveys classical sparse encodings and argues
//! none of them fits neural rendering; FlexNeRFer's answer is to *pick* the
//! encoding from the measured sparsity instead of fixing one. This module
//! provides that machinery:
//!
//! * the [`SparseFormat`] trait — one lookup/footprint/access-cost surface
//!   over every encoding in the workspace,
//! * two encodings beyond the [`formats`](crate::formats) baselines: a
//!   [`RankSelectGrid`] (bitmap + two-level rank directory, `O(1)` payload
//!   lookup) and a [`BlockGrid`] (per-macro-block micro-bitmaps, a
//!   block-compressed CSR-ish layout),
//! * a [`BitmapIndex`] wrapper giving the plain [`Bitmap`] the same surface
//!   (its implicit payload rank costs a linear word scan — the degenerate
//!   baseline),
//! * byte-exact [`predicted_index_bytes`] and the occupancy-statistics
//!   selector [`select_format`],
//! * [`SparseIndex`], an enum dispatcher the pipeline layer stores.
//!
//! The format never sits in the rendering fetch path — it changes *lookup
//! traffic* (metadata bytes per decode), not values — so rendered images are
//! bitwise identical across formats; the conformance suite pins this.
//!
//! # Examples
//!
//! ```
//! use spnerf_voxel::coord::{GridCoord, GridDims};
//! use spnerf_voxel::grid::{DenseGrid, SparsePoint};
//! use spnerf_voxel::sparse::{select_format, FormatKind, OccupancyStats, SparseFormat, SparseIndex};
//!
//! let mut g = DenseGrid::zeros(GridDims::cube(8));
//! g.set_density(GridCoord::new(1, 2, 3), 1.0);
//! let pts = g.extract_nonzero();
//! let stats = OccupancyStats::from_points(GridDims::cube(8), &pts);
//! let idx = SparseIndex::build(select_format(&stats), GridDims::cube(8), &pts);
//! assert_eq!(idx.lookup(GridCoord::new(1, 2, 3)), Some(0));
//! assert_eq!(idx.lookup(GridCoord::new(0, 0, 0)), None);
//! assert!(idx.footprint().total_bytes() > 0);
//! assert_ne!(idx.kind(), FormatKind::Bitmap); // auto never picks the scan baseline
//! ```

use crate::bitmap::Bitmap;
use crate::coord::{GridCoord, GridDims};
use crate::formats::{CooGrid, CscGrid, CsrGrid};
use crate::grid::SparsePoint;
use crate::memory::MemoryFootprint;
use std::fmt;

/// Macro-block side of the block-compressed format: `4³ = 64` cells per
/// block, exactly one `u64` micro-bitmap.
pub const BLOCK_SIDE: u32 = 4;

/// Words per rank superblock in [`RankSelectGrid`] (8 × 64 = 512 bits).
pub const RANK_SUPERBLOCK_WORDS: usize = 8;

/// Identifies one sparse encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormatKind {
    /// Plain occupancy bitmap; payload rank by linear word scan.
    Bitmap,
    /// Coordinate list ([`CooGrid`]).
    Coo,
    /// Compressed sparse row ([`CsrGrid`]).
    Csr,
    /// Compressed sparse column ([`CscGrid`]).
    Csc,
    /// Rank-select bitmap ([`RankSelectGrid`]): `O(1)` popcount lookup.
    Rank,
    /// Block-compressed micro-bitmaps ([`BlockGrid`]).
    Block,
}

impl FormatKind {
    /// Every encoding, in selector precedence order.
    pub const ALL: [FormatKind; 6] = [
        FormatKind::Coo,
        FormatKind::Csr,
        FormatKind::Csc,
        FormatKind::Rank,
        FormatKind::Block,
        FormatKind::Bitmap,
    ];

    /// Candidates the automatic selector considers. The plain bitmap is
    /// excluded: its implicit payload rank costs a word scan linear in grid
    /// size, so it is only ever a forced baseline.
    pub const AUTO_CANDIDATES: [FormatKind; 5] =
        [FormatKind::Coo, FormatKind::Csr, FormatKind::Csc, FormatKind::Rank, FormatKind::Block];

    /// Stable lower-case name (the CLI token).
    pub fn name(self) -> &'static str {
        match self {
            FormatKind::Bitmap => "bitmap",
            FormatKind::Coo => "coo",
            FormatKind::Csr => "csr",
            FormatKind::Csc => "csc",
            FormatKind::Rank => "rank",
            FormatKind::Block => "block",
        }
    }

    /// Parses a [`Self::name`] token. Case-sensitive; `None` on no match.
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl fmt::Display for FormatKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How the pipeline chooses the encoding: automatically from occupancy
/// statistics, or forced to one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FormatSelection {
    /// Pick by [`select_format`] over the scene's occupancy statistics.
    #[default]
    Auto,
    /// Always use the given encoding.
    Fixed(FormatKind),
}

impl FormatSelection {
    /// Resolves the selection against measured statistics.
    pub fn resolve(self, stats: &OccupancyStats) -> FormatKind {
        match self {
            FormatSelection::Auto => select_format(stats),
            FormatSelection::Fixed(kind) => kind,
        }
    }

    /// Stable lower-case name (`"auto"` or the kind's name).
    pub fn name(self) -> &'static str {
        match self {
            FormatSelection::Auto => "auto",
            FormatSelection::Fixed(kind) => kind.name(),
        }
    }
}

/// Per-lookup access-cost descriptor of one encoding — the metadata traffic
/// a single coordinate query generates, independent of the queried value.
///
/// The accelerator/DRAM models multiply [`Self::bytes_per_lookup`] by the
/// frame's marched-sample count to charge format-dependent metadata traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessCost {
    /// Metadata bytes one lookup touches (directory entries, pointers,
    /// coordinates, explicit payload indices). Implicit-payload formats
    /// (bitmap family) pay no per-entry payload read.
    pub bytes_per_lookup: usize,
    /// Dependent memory probes per lookup (the pointer-chase depth).
    pub probes: usize,
    /// Whether probe addresses depend on loaded data (binary search /
    /// indirection) rather than being directly computable from the
    /// coordinate.
    pub data_dependent: bool,
}

/// Occupancy statistics driving format selection — everything the selector
/// and the byte predictors need, gathered in one pass over the point set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancyStats {
    /// Grid dimensions.
    pub dims: GridDims,
    /// Stored non-zeros.
    pub nnz: usize,
    /// [`BLOCK_SIDE`]-sided macro blocks containing at least one non-zero.
    pub occupied_blocks: usize,
}

impl OccupancyStats {
    /// Gathers statistics from a point set.
    ///
    /// # Panics
    ///
    /// Panics if a point is out of bounds.
    pub fn from_points(dims: GridDims, points: &[SparsePoint]) -> Self {
        let (bx, by, bz) = block_counts(dims);
        let mut seen = vec![false; bx as usize * by as usize * bz as usize];
        let mut occupied_blocks = 0;
        for p in points {
            assert!(dims.contains(p.coord), "point {} out of bounds for {dims}", p.coord);
            let b = block_linear(p.coord, by, bz);
            if !seen[b] {
                seen[b] = true;
                occupied_blocks += 1;
            }
        }
        Self { dims, nnz: points.len(), occupied_blocks }
    }

    /// Gathers statistics from an occupancy bitmap's set bits.
    pub fn from_bitmap(bitmap: &Bitmap) -> Self {
        Self::from_points(bitmap.dims(), &bitmap_points(bitmap))
    }

    /// Occupied fraction of the grid.
    pub fn occupancy(&self) -> f64 {
        self.nnz as f64 / self.dims.len().max(1) as f64
    }
}

/// Materializes a bitmap's set bits as coordinate-only points in ascending
/// linear-index order — the payload-index order every encoding's constructor
/// accepts (payload index = occupancy rank).
fn bitmap_points(bitmap: &Bitmap) -> Vec<SparsePoint> {
    bitmap
        .dims()
        .iter()
        .filter(|c| bitmap.get(*c))
        .map(|coord| SparsePoint { coord, density: 1.0, features: [0.0; crate::grid::FEATURE_DIM] })
        .collect()
}

fn block_counts(dims: GridDims) -> (u32, u32, u32) {
    (dims.nx.div_ceil(BLOCK_SIDE), dims.ny.div_ceil(BLOCK_SIDE), dims.nz.div_ceil(BLOCK_SIDE))
}

fn block_linear(c: GridCoord, by: u32, bz: u32) -> usize {
    let (x, y, z) = (c.x / BLOCK_SIDE, c.y / BLOCK_SIDE, c.z / BLOCK_SIDE);
    (x as usize * by as usize + y as usize) * bz as usize + z as usize
}

/// Exact total index bytes the given encoding would occupy for `stats` —
/// byte-identical to building it and summing
/// [`SparseFormat::footprint`], so the selector never has to construct the
/// losers. Property-tested against the real structures.
pub fn predicted_index_bytes(kind: FormatKind, stats: &OccupancyStats) -> usize {
    let dims = stats.dims;
    let nnz = stats.nnz;
    let words = dims.len().div_ceil(64);
    match kind {
        FormatKind::Bitmap => words * 8,
        FormatKind::Rank => words * 8 + words.div_ceil(RANK_SUPERBLOCK_WORDS) * 4 + words * 2,
        FormatKind::Coo => nnz * 6 + nnz * 4,
        FormatKind::Csr => (dims.nx as usize * dims.ny as usize + 1) * 4 + nnz * 2 + nnz * 4,
        FormatKind::Csc => (dims.ny as usize * dims.nz as usize + 1) * 4 + nnz * 2 + nnz * 4,
        FormatKind::Block => {
            let (bx, by, bz) = block_counts(dims);
            let nblocks = bx as usize * by as usize * bz as usize;
            nblocks * 4 + stats.occupied_blocks * (8 + 4) + nnz * 4
        }
    }
}

/// Occupancy-statistics-driven selection: the smallest predicted index among
/// [`FormatKind::AUTO_CANDIDATES`], byte ties broken by cheaper per-lookup
/// access (candidate order). Across the corpus's 0.5 %–20 % occupancy band
/// this crosses over from COO (very sparse: 10 B/nnz beats any per-cell
/// structure) to the rank-select bitmap (fixed ~1.3 bits/cell beats per-nnz
/// storage once occupancy passes ≈1.6 %).
pub fn select_format(stats: &OccupancyStats) -> FormatKind {
    let mut best = FormatKind::AUTO_CANDIDATES[0];
    let mut best_bytes = predicted_index_bytes(best, stats);
    for kind in &FormatKind::AUTO_CANDIDATES[1..] {
        let bytes = predicted_index_bytes(*kind, stats);
        if bytes < best_bytes {
            best = *kind;
            best_bytes = bytes;
        }
    }
    best
}

/// One lookup/footprint/access-cost surface over every sparse encoding.
///
/// The lookup contract is shared with [`crate::formats`]: an occupied
/// coordinate maps to its stable *payload index* — the position of the voxel
/// in the original point list — and an empty or out-of-range coordinate maps
/// to `None`. Formats with implicit payload indices (the bitmap family)
/// require the point list in ascending linear-index order (what
/// [`crate::grid::DenseGrid::extract_nonzero`] produces), because their
/// payload index *is* the occupancy rank.
pub trait SparseFormat {
    /// Which encoding this is.
    fn kind(&self) -> FormatKind;
    /// Grid dimensions the encoding covers.
    fn dims(&self) -> GridDims;
    /// Stored non-zeros.
    fn nnz(&self) -> usize;
    /// Payload index stored at `c`, or `None` if empty / out of range.
    fn lookup(&self, c: GridCoord) -> Option<usize>;
    /// Byte-accurate itemized storage footprint.
    fn footprint(&self) -> MemoryFootprint;
    /// Per-lookup access-cost descriptor.
    fn access_cost(&self) -> AccessCost;
}

/// Builds the occupancy bitmap of a linear-index-ordered point set, the
/// shared constructor step of the bitmap-family formats.
///
/// # Panics
///
/// Panics if a point is out of bounds, points are not in ascending
/// linear-index order, or two points share a coordinate.
fn bitmap_from_sorted_points(dims: GridDims, points: &[SparsePoint]) -> Bitmap {
    let mut bitmap = Bitmap::zeros(dims);
    let mut prev: Option<usize> = None;
    for p in points {
        let li = dims
            .linear_index(p.coord)
            .unwrap_or_else(|| panic!("point {} out of bounds for {dims}", p.coord));
        if let Some(prev) = prev {
            assert!(prev != li, "duplicate coordinate {} in point set", p.coord);
            assert!(
                prev < li,
                "points must be in ascending linear-index order for implicit payload \
                 indices (got {} after index {prev})",
                p.coord
            );
        }
        bitmap.set_index(li, true);
        prev = Some(li);
    }
    bitmap
}

/// Number of probes a binary search over `n` entries performs (⌈log₂⌉ + 1,
/// at least 1).
pub(crate) fn search_probes(n: usize) -> usize {
    (usize::BITS - n.leading_zeros()).max(1) as usize
}

/// The plain occupancy bitmap as a [`SparseFormat`]: 1 bit/cell of storage,
/// but the implicit payload index (occupancy rank) costs a word scan linear
/// in grid size per lookup. This is the degenerate baseline the rank
/// directory of [`RankSelectGrid`] exists to fix.
///
/// # Examples
///
/// ```
/// use spnerf_voxel::coord::{GridCoord, GridDims};
/// use spnerf_voxel::grid::{DenseGrid, SparsePoint};
/// use spnerf_voxel::sparse::{BitmapIndex, SparseFormat};
///
/// let mut g = DenseGrid::zeros(GridDims::cube(8));
/// g.set_density(GridCoord::new(0, 0, 1), 1.0);
/// g.set_density(GridCoord::new(0, 0, 5), 1.0);
/// let idx = BitmapIndex::from_points(GridDims::cube(8), &g.extract_nonzero());
/// assert_eq!(idx.lookup(GridCoord::new(0, 0, 5)), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitmapIndex {
    bitmap: Bitmap,
    nnz: usize,
}

impl BitmapIndex {
    /// Builds the index from points in ascending linear-index order.
    ///
    /// # Panics
    ///
    /// Panics if a point is out of bounds, points are out of order, or two
    /// points share a coordinate.
    pub fn from_points(dims: GridDims, points: &[SparsePoint]) -> Self {
        Self { bitmap: bitmap_from_sorted_points(dims, points), nnz: points.len() }
    }

    /// The underlying packed bitmap.
    pub fn bitmap(&self) -> &Bitmap {
        &self.bitmap
    }
}

/// Set bits strictly below linear index `i` (shared rank kernel).
fn scan_rank(words: &[u64], i: usize) -> usize {
    let w = i / 64;
    let below: usize = words[..w].iter().map(|x| x.count_ones() as usize).sum();
    below + (words[w] & ((1u64 << (i % 64)) - 1)).count_ones() as usize
}

impl SparseFormat for BitmapIndex {
    fn kind(&self) -> FormatKind {
        FormatKind::Bitmap
    }

    fn dims(&self) -> GridDims {
        self.bitmap.dims()
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    fn lookup(&self, c: GridCoord) -> Option<usize> {
        let i = self.bitmap.dims().linear_index(c)?;
        if !self.bitmap.get_index(i) {
            return None;
        }
        Some(scan_rank(self.bitmap.words(), i))
    }

    fn footprint(&self) -> MemoryFootprint {
        let mut fp = MemoryFootprint::new("bitmap index");
        fp.add("bitmap words", self.bitmap.storage_bytes());
        fp
    }

    fn access_cost(&self) -> AccessCost {
        // The rank scan touches half the words on average.
        let probes = (self.bitmap.words().len() / 2).max(1);
        AccessCost { bytes_per_lookup: probes * 8, probes, data_dependent: false }
    }
}

/// Rank-select bitmap: the packed occupancy bitmap plus a two-level rank
/// directory (absolute `u32` rank per [`RANK_SUPERBLOCK_WORDS`]-word
/// superblock, relative `u16` rank per word), making the payload index an
/// `O(1)` lookup — superblock entry + word entry + one popcount.
///
/// This is the encoding FlexNeRFer-style selection prefers at mid-to-high
/// occupancy: storage is a fixed ≈1.3 bits/cell regardless of `nnz`.
///
/// # Examples
///
/// ```
/// use spnerf_voxel::coord::{GridCoord, GridDims};
/// use spnerf_voxel::grid::DenseGrid;
/// use spnerf_voxel::sparse::{RankSelectGrid, SparseFormat};
///
/// let mut g = DenseGrid::zeros(GridDims::cube(8));
/// g.set_density(GridCoord::new(0, 0, 1), 1.0);
/// g.set_density(GridCoord::new(7, 7, 7), 1.0);
/// let idx = RankSelectGrid::from_points(GridDims::cube(8), &g.extract_nonzero());
/// assert_eq!(idx.lookup(GridCoord::new(7, 7, 7)), Some(1));
/// assert_eq!(idx.access_cost().probes, 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankSelectGrid {
    bitmap: Bitmap,
    /// Absolute rank at the start of each superblock.
    superblocks: Vec<u32>,
    /// Rank within the superblock at the start of each word.
    subranks: Vec<u16>,
    nnz: usize,
}

impl RankSelectGrid {
    /// Builds the index from points in ascending linear-index order.
    ///
    /// # Panics
    ///
    /// Panics if a point is out of bounds, points are out of order, or two
    /// points share a coordinate.
    pub fn from_points(dims: GridDims, points: &[SparsePoint]) -> Self {
        let bitmap = bitmap_from_sorted_points(dims, points);
        let words = bitmap.words();
        let mut superblocks = Vec::with_capacity(words.len().div_ceil(RANK_SUPERBLOCK_WORDS));
        let mut subranks = Vec::with_capacity(words.len());
        let mut absolute = 0u32;
        let mut within = 0u16;
        for (w, word) in words.iter().enumerate() {
            if w % RANK_SUPERBLOCK_WORDS == 0 {
                superblocks.push(absolute);
                within = 0;
            }
            subranks.push(within);
            absolute += word.count_ones();
            within += word.count_ones() as u16;
        }
        Self { bitmap, superblocks, subranks, nnz: points.len() }
    }

    /// The underlying packed bitmap.
    pub fn bitmap(&self) -> &Bitmap {
        &self.bitmap
    }
}

impl SparseFormat for RankSelectGrid {
    fn kind(&self) -> FormatKind {
        FormatKind::Rank
    }

    fn dims(&self) -> GridDims {
        self.bitmap.dims()
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    fn lookup(&self, c: GridCoord) -> Option<usize> {
        let i = self.bitmap.dims().linear_index(c)?;
        let word = self.bitmap.words()[i / 64];
        if (word >> (i % 64)) & 1 == 0 {
            return None;
        }
        let w = i / 64;
        let rank = self.superblocks[w / RANK_SUPERBLOCK_WORDS] as usize
            + self.subranks[w] as usize
            + (word & ((1u64 << (i % 64)) - 1)).count_ones() as usize;
        Some(rank)
    }

    fn footprint(&self) -> MemoryFootprint {
        let mut fp = MemoryFootprint::new("rank-select encoding");
        fp.add("bitmap words", self.bitmap.storage_bytes());
        fp.add("superblock ranks", self.superblocks.len() * 4);
        fp.add("word ranks", self.subranks.len() * 2);
        fp
    }

    fn access_cost(&self) -> AccessCost {
        // Superblock entry (4 B) + word rank (2 B) + bitmap word (8 B).
        AccessCost { bytes_per_lookup: 4 + 2 + 8, probes: 3, data_dependent: false }
    }
}

/// Block-compressed encoding: the grid is tiled into [`BLOCK_SIDE`]³ macro
/// blocks; a dense directory maps each block to either "empty" or a compact
/// record (one `u64` micro-bitmap + a base payload offset), and per-entry
/// payload indices complete the CSR-ish layout. Lookup is `O(1)` — directory
/// entry, micro-bitmap popcount, payload read — and empty blocks cost 4
/// directory bytes total, so coherent emptiness compresses the way the
/// occupancy mip-pyramid exploits it.
///
/// # Examples
///
/// ```
/// use spnerf_voxel::coord::{GridCoord, GridDims};
/// use spnerf_voxel::grid::{DenseGrid, SparsePoint};
/// use spnerf_voxel::sparse::{BlockGrid, SparseFormat};
///
/// let mut g = DenseGrid::zeros(GridDims::cube(8));
/// g.set_density(GridCoord::new(6, 1, 2), 1.0);
/// let idx = BlockGrid::from_points(GridDims::cube(8), &g.extract_nonzero());
/// assert_eq!(idx.lookup(GridCoord::new(6, 1, 2)), Some(0));
/// assert_eq!(idx.lookup(GridCoord::new(0, 0, 0)), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockGrid {
    dims: GridDims,
    by: u32,
    bz: u32,
    /// Dense per-block directory; `u32::MAX` marks an empty block, any other
    /// value indexes `words` / `base`.
    directory: Vec<u32>,
    /// One micro-bitmap per non-empty block (local x-major bit order).
    words: Vec<u64>,
    /// Payload base offset per non-empty block.
    base: Vec<u32>,
    /// Payload index per entry, block-major then local-bit order.
    payload: Vec<u32>,
}

/// Bit position of a coordinate inside its macro block (local x-major).
fn local_bit(c: GridCoord) -> u32 {
    ((c.x % BLOCK_SIDE) * BLOCK_SIDE + (c.y % BLOCK_SIDE)) * BLOCK_SIDE + (c.z % BLOCK_SIDE)
}

impl BlockGrid {
    /// Builds a block-compressed encoding of `points` (any order) over grid
    /// `dims`.
    ///
    /// # Panics
    ///
    /// Panics if a point is out of bounds or two points share a coordinate.
    pub fn from_points(dims: GridDims, points: &[SparsePoint]) -> Self {
        let (bx, by, bz) = block_counts(dims);
        let nblocks = bx as usize * by as usize * bz as usize;
        let mut dense_words = vec![0u64; nblocks];
        let mut entries: Vec<(usize, u32, u32)> = Vec::with_capacity(points.len());
        for (i, p) in points.iter().enumerate() {
            assert!(dims.contains(p.coord), "point {} out of bounds for {dims}", p.coord);
            let b = block_linear(p.coord, by, bz);
            let bit = local_bit(p.coord);
            assert!(
                dense_words[b] & (1u64 << bit) == 0,
                "duplicate coordinate {} in point set",
                p.coord
            );
            dense_words[b] |= 1u64 << bit;
            entries.push((b, bit, i as u32));
        }
        entries.sort_unstable_by_key(|e| (e.0, e.1));
        let mut directory = vec![u32::MAX; nblocks];
        let mut words = Vec::new();
        let mut base = Vec::new();
        let mut running = 0u32;
        for (b, word) in dense_words.iter().enumerate() {
            if *word != 0 {
                directory[b] = words.len() as u32;
                words.push(*word);
                base.push(running);
                running += word.count_ones();
            }
        }
        Self {
            dims,
            by,
            bz,
            directory,
            words,
            base,
            payload: entries.iter().map(|e| e.2).collect(),
        }
    }

    /// Number of non-empty macro blocks.
    pub fn occupied_blocks(&self) -> usize {
        self.words.len()
    }
}

impl SparseFormat for BlockGrid {
    fn kind(&self) -> FormatKind {
        FormatKind::Block
    }

    fn dims(&self) -> GridDims {
        self.dims
    }

    fn nnz(&self) -> usize {
        self.payload.len()
    }

    fn lookup(&self, c: GridCoord) -> Option<usize> {
        if !self.dims.contains(c) {
            return None;
        }
        let e = self.directory[block_linear(c, self.by, self.bz)];
        if e == u32::MAX {
            return None;
        }
        let word = self.words[e as usize];
        let bit = local_bit(c);
        if (word >> bit) & 1 == 0 {
            return None;
        }
        let slot =
            self.base[e as usize] as usize + (word & ((1u64 << bit) - 1)).count_ones() as usize;
        Some(self.payload[slot] as usize)
    }

    fn footprint(&self) -> MemoryFootprint {
        let mut fp = MemoryFootprint::new("block-compressed encoding");
        fp.add("block directory", self.directory.len() * 4);
        fp.add("block bitmaps", self.words.len() * 8);
        fp.add("block bases", self.base.len() * 4);
        fp.add("payload indices", self.payload.len() * 4);
        fp
    }

    fn access_cost(&self) -> AccessCost {
        // Directory entry (4 B) + micro-bitmap (8 B) + base (4 B) + payload
        // index (4 B); the word/base reads indirect through the directory.
        AccessCost { bytes_per_lookup: 4 + 8 + 4 + 4, probes: 4, data_dependent: true }
    }
}

/// Enum dispatcher over every encoding — what the pipeline layer stores on a
/// `Scene` so one field covers all formats without trait objects.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseIndex {
    /// Plain bitmap baseline.
    Bitmap(BitmapIndex),
    /// Coordinate list.
    Coo(CooGrid),
    /// Compressed sparse row.
    Csr(CsrGrid),
    /// Compressed sparse column.
    Csc(CscGrid),
    /// Rank-select bitmap.
    Rank(RankSelectGrid),
    /// Block-compressed micro-bitmaps.
    Block(BlockGrid),
}

impl SparseIndex {
    /// Builds the requested encoding over `points`.
    ///
    /// # Panics
    ///
    /// Panics under each encoding's constructor conditions (out-of-bounds or
    /// duplicate points; the bitmap family additionally requires ascending
    /// linear-index order).
    pub fn build(kind: FormatKind, dims: GridDims, points: &[SparsePoint]) -> Self {
        match kind {
            FormatKind::Bitmap => Self::Bitmap(BitmapIndex::from_points(dims, points)),
            FormatKind::Coo => Self::Coo(CooGrid::from_points(dims, points)),
            FormatKind::Csr => Self::Csr(CsrGrid::from_points(dims, points)),
            FormatKind::Csc => Self::Csc(CscGrid::from_points(dims, points)),
            FormatKind::Rank => Self::Rank(RankSelectGrid::from_points(dims, points)),
            FormatKind::Block => Self::Block(BlockGrid::from_points(dims, points)),
        }
    }

    /// Builds the automatically selected encoding (see [`select_format`]).
    pub fn auto(dims: GridDims, points: &[SparsePoint]) -> Self {
        let stats = OccupancyStats::from_points(dims, points);
        Self::build(select_format(&stats), dims, points)
    }

    /// Builds the requested encoding over a bitmap's set bits (ascending
    /// linear-index order by construction, so every encoding — including the
    /// implicit-payload bitmap family — accepts it). Payload index `i` is
    /// the bitmap's `i`-th set bit.
    pub fn from_bitmap(kind: FormatKind, bitmap: &Bitmap) -> Self {
        Self::build(kind, bitmap.dims(), &bitmap_points(bitmap))
    }

    /// Resolves `selection` against the bitmap's occupancy statistics and
    /// builds the winner — the facade's one-stop constructor.
    pub fn from_bitmap_selected(selection: FormatSelection, bitmap: &Bitmap) -> Self {
        let points = bitmap_points(bitmap);
        let stats = OccupancyStats::from_points(bitmap.dims(), &points);
        Self::build(selection.resolve(&stats), bitmap.dims(), &points)
    }

    fn as_format(&self) -> &dyn SparseFormat {
        match self {
            SparseIndex::Bitmap(f) => f,
            SparseIndex::Coo(f) => f,
            SparseIndex::Csr(f) => f,
            SparseIndex::Csc(f) => f,
            SparseIndex::Rank(f) => f,
            SparseIndex::Block(f) => f,
        }
    }
}

impl SparseFormat for SparseIndex {
    fn kind(&self) -> FormatKind {
        self.as_format().kind()
    }

    fn dims(&self) -> GridDims {
        self.as_format().dims()
    }

    fn nnz(&self) -> usize {
        self.as_format().nnz()
    }

    fn lookup(&self, c: GridCoord) -> Option<usize> {
        self.as_format().lookup(c)
    }

    fn footprint(&self) -> MemoryFootprint {
        self.as_format().footprint()
    }

    fn access_cost(&self) -> AccessCost {
        self.as_format().access_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::DenseGrid;

    fn fixture(side: u32, fill: &[(u32, u32, u32)]) -> (GridDims, Vec<SparsePoint>) {
        let dims = GridDims::cube(side);
        let mut g = DenseGrid::zeros(dims);
        for (i, c) in fill.iter().enumerate() {
            g.set_density(GridCoord::new(c.0, c.1, c.2), 1.0 + i as f32);
        }
        (dims, g.extract_nonzero())
    }

    const FILL: [(u32, u32, u32); 6] =
        [(0, 0, 0), (0, 0, 1), (3, 4, 5), (7, 7, 7), (4, 0, 3), (2, 6, 1)];

    #[test]
    fn every_kind_agrees_with_extraction_order() {
        let (dims, pts) = fixture(8, &FILL);
        for kind in FormatKind::ALL {
            let idx = SparseIndex::build(kind, dims, &pts);
            assert_eq!(idx.kind(), kind);
            assert_eq!(idx.nnz(), pts.len());
            assert_eq!(idx.dims(), dims);
            for (i, p) in pts.iter().enumerate() {
                assert_eq!(idx.lookup(p.coord), Some(i), "{kind} at {}", p.coord);
            }
            assert_eq!(idx.lookup(GridCoord::new(1, 1, 1)), None, "{kind}");
            assert_eq!(idx.lookup(GridCoord::new(99, 0, 0)), None, "{kind}");
        }
    }

    #[test]
    fn bitmap_constructors_match_point_constructors() {
        let (dims, pts) = fixture(8, &FILL);
        let mut bitmap = Bitmap::zeros(dims);
        for p in &pts {
            bitmap.set(p.coord, true);
        }
        assert_eq!(OccupancyStats::from_bitmap(&bitmap), OccupancyStats::from_points(dims, &pts));
        for kind in FormatKind::ALL {
            assert_eq!(
                SparseIndex::from_bitmap(kind, &bitmap),
                SparseIndex::build(kind, dims, &pts),
                "{kind}"
            );
        }
        let auto = SparseIndex::from_bitmap_selected(FormatSelection::Auto, &bitmap);
        assert_eq!(auto, SparseIndex::auto(dims, &pts));
        let fixed =
            SparseIndex::from_bitmap_selected(FormatSelection::Fixed(FormatKind::Block), &bitmap);
        assert_eq!(fixed.kind(), FormatKind::Block);
    }

    #[test]
    fn footprints_match_predictions() {
        let (dims, pts) = fixture(9, &FILL);
        let stats = OccupancyStats::from_points(dims, &pts);
        for kind in FormatKind::ALL {
            let idx = SparseIndex::build(kind, dims, &pts);
            assert_eq!(
                idx.footprint().total_bytes(),
                predicted_index_bytes(kind, &stats),
                "{kind} prediction drifted from the built structure"
            );
        }
    }

    #[test]
    fn rank_select_is_constant_cost_and_bitmap_is_not() {
        let (dims, pts) = fixture(16, &FILL);
        let rank = SparseIndex::build(FormatKind::Rank, dims, &pts);
        assert_eq!(rank.access_cost().bytes_per_lookup, 14);
        assert!(!rank.access_cost().data_dependent);
        let bitmap = SparseIndex::build(FormatKind::Bitmap, dims, &pts);
        // 16³ = 64 words: the scan baseline pays half of them per lookup.
        assert_eq!(bitmap.access_cost().bytes_per_lookup, 32 * 8);
    }

    #[test]
    fn block_grid_counts_occupied_blocks() {
        let (dims, pts) = fixture(8, &FILL);
        let stats = OccupancyStats::from_points(dims, &pts);
        let idx = BlockGrid::from_points(dims, &pts);
        // (0,0,0)+(0,0,1) share a block; the other four are alone.
        assert_eq!(idx.occupied_blocks(), 5);
        assert_eq!(stats.occupied_blocks, 5);
    }

    #[test]
    fn selector_crosses_over_with_occupancy() {
        // Very sparse: COO's 10 B/nnz beats any per-cell structure.
        let (dims, sparse_pts) = fixture(16, &[(1, 2, 3), (10, 11, 12)]);
        let sparse_stats = OccupancyStats::from_points(dims, &sparse_pts);
        assert_eq!(select_format(&sparse_stats), FormatKind::Coo);

        // Dense: per-nnz storage loses to the fixed-rate rank bitmap.
        let dims = GridDims::cube(12);
        let mut g = DenseGrid::zeros(dims);
        for c in dims.iter() {
            if (c.x + c.y + c.z) % 3 == 0 {
                g.set_density(c, 1.0);
            }
        }
        let dense_pts = g.extract_nonzero();
        let dense_stats = OccupancyStats::from_points(dims, &dense_pts);
        assert_eq!(select_format(&dense_stats), FormatKind::Rank);
    }

    #[test]
    fn selection_names_round_trip() {
        for kind in FormatKind::ALL {
            assert_eq!(FormatKind::from_name(kind.name()), Some(kind));
            assert_eq!(FormatSelection::Fixed(kind).name(), kind.name());
        }
        assert_eq!(FormatKind::from_name("auto"), None);
        assert_eq!(FormatKind::from_name("COO"), None);
        assert_eq!(FormatSelection::Auto.name(), "auto");
        assert_eq!(FormatSelection::default(), FormatSelection::Auto);
    }

    #[test]
    fn fixed_selection_overrides_auto() {
        let (dims, pts) = fixture(8, &FILL);
        let stats = OccupancyStats::from_points(dims, &pts);
        assert_eq!(FormatSelection::Auto.resolve(&stats), select_format(&stats));
        for kind in FormatKind::ALL {
            assert_eq!(FormatSelection::Fixed(kind).resolve(&stats), kind);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate coordinate")]
    fn bitmap_family_rejects_duplicates() {
        let dims = GridDims::cube(4);
        let p = SparsePoint { coord: GridCoord::new(1, 1, 1), density: 1.0, features: [0.0; 12] };
        let _ = RankSelectGrid::from_points(dims, &[p, p]);
    }

    #[test]
    #[should_panic(expected = "duplicate coordinate")]
    fn block_grid_rejects_duplicates() {
        let dims = GridDims::cube(4);
        let p = SparsePoint { coord: GridCoord::new(1, 1, 1), density: 1.0, features: [0.0; 12] };
        let _ = BlockGrid::from_points(dims, &[p, p]);
    }

    #[test]
    #[should_panic(expected = "ascending linear-index order")]
    fn bitmap_family_rejects_unsorted_points() {
        let dims = GridDims::cube(4);
        let mk =
            |x| SparsePoint { coord: GridCoord::new(x, 0, 0), density: 1.0, features: [0.0; 12] };
        let _ = BitmapIndex::from_points(dims, &[mk(2), mk(1)]);
    }

    #[test]
    fn empty_point_set_on_every_kind() {
        let dims = GridDims::cube(4);
        for kind in FormatKind::ALL {
            let idx = SparseIndex::build(kind, dims, &[]);
            assert_eq!(idx.nnz(), 0);
            assert_eq!(idx.lookup(GridCoord::new(0, 0, 0)), None);
            assert!(idx.access_cost().bytes_per_lookup > 0);
        }
    }

    #[test]
    fn word_boundary_ranks_are_exact() {
        // Straddle the 64-bit word and 8-word superblock boundaries.
        let dims = GridDims::new(1, 1, 1200);
        let mut g = DenseGrid::zeros(dims);
        for z in (0..1200).step_by(7) {
            g.set_density(GridCoord::new(0, 0, z), 1.0);
        }
        let pts = g.extract_nonzero();
        let rank = RankSelectGrid::from_points(dims, &pts);
        let plain = BitmapIndex::from_points(dims, &pts);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(rank.lookup(p.coord), Some(i));
            assert_eq!(plain.lookup(p.coord), Some(i));
        }
    }
}
