//! Tile-parallel render engine: a [`TileScheduler`] that partitions the
//! image into rectangular tiles, run concurrently on the workspace's one
//! ordered scoped worker pool (`spnerf_voxel::pool::run_ordered`, which the
//! k-means trainer shares).
//!
//! This mirrors how the accelerator literature scales the workload —
//! Potamoi streams rays through independently scheduled chunks and RT-NeRF
//! balances tiles across on-device units — applied to the CPU reference so
//! every figure bin and PSNR sweep saturates a many-core host instead of
//! one core. The same pool serves still frames
//! ([`crate::renderer::render_view`] submits one job per tile) and the
//! temporal warp pass ([`crate::temporal`] submits one job per chunk of
//! re-marched pixels).
//!
//! # Determinism guarantee
//!
//! Every ray's result from [`crate::renderer::trace_rays`] depends on that
//! ray alone — not on the job it shares or the thread that runs it — so
//! neither the job split nor parallelism can change any pixel. Workers pull jobs from an
//! atomic counter (dynamic load balancing), but results are handed back
//! **in job index order** on the calling thread, where pixels are written
//! and [`crate::renderer::RenderStats`] merged; the produced image and
//! stats are therefore bitwise-identical to
//! [`crate::renderer::render_view_serial`] for every tile size and thread
//! count, including `parallelism: 0` (all cores).
//!
//! # Example
//!
//! ```
//! use spnerf_render::mlp::Mlp;
//! use spnerf_render::renderer::{render_view, render_view_serial, RenderConfig};
//! use spnerf_render::scene::{build_grid, default_camera, scene_aabb, SceneId};
//!
//! let grid = build_grid(SceneId::Lego, 24);
//! let mlp = Mlp::random(0);
//! let camera = default_camera(16, 16, 0, 8);
//! let cfg = RenderConfig { samples_per_ray: 32, parallelism: 4, tile_size: 8, ..Default::default() };
//! let parallel = render_view(&grid, &mlp, &camera, &scene_aabb(), &cfg);
//! let serial = render_view_serial(&grid, &mlp, &camera, &scene_aabb(), &cfg);
//! assert_eq!(parallel, serial);
//! ```

pub use spnerf_voxel::pool::resolve_parallelism;
pub(crate) use spnerf_voxel::pool::run_ordered;

/// A rectangular region of the output image (pixel coordinates, inclusive
/// origin, exclusive extent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Leftmost pixel column.
    pub x0: u32,
    /// Topmost pixel row.
    pub y0: u32,
    /// Width in pixels (non-zero).
    pub width: u32,
    /// Height in pixels (non-zero).
    pub height: u32,
}

impl Tile {
    /// Pixels covered by this tile.
    pub fn pixel_count(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Pixel coordinates of this tile in row-major order.
    pub fn pixels(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (x0, y0, w) = (self.x0, self.y0, self.width);
        (0..self.height).flat_map(move |dy| (0..w).map(move |dx| (x0 + dx, y0 + dy)))
    }
}

/// Partitions a `width × height` image into square tiles of side
/// `tile_size` (edge tiles are clipped), enumerated in row-major order.
///
/// The enumeration order is the engine's determinism anchor: results are
/// merged back in exactly this order regardless of which worker rendered
/// which tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileScheduler {
    width: u32,
    height: u32,
    tile_size: u32,
}

impl TileScheduler {
    /// Creates a scheduler for an image.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the tile size is zero.
    pub fn new(width: u32, height: u32, tile_size: u32) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        assert!(tile_size > 0, "tile_size must be non-zero");
        Self { width, height, tile_size }
    }

    /// Tiles along the x axis.
    pub fn tiles_x(&self) -> u32 {
        self.width.div_ceil(self.tile_size)
    }

    /// Tiles along the y axis.
    pub fn tiles_y(&self) -> u32 {
        self.height.div_ceil(self.tile_size)
    }

    /// Total number of tiles.
    pub fn tile_count(&self) -> usize {
        self.tiles_x() as usize * self.tiles_y() as usize
    }

    /// The `index`-th tile in row-major order, clipped to the image.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ tile_count()`.
    pub fn tile(&self, index: usize) -> Tile {
        assert!(index < self.tile_count(), "tile index {index} out of range");
        let tx = (index % self.tiles_x() as usize) as u32;
        let ty = (index / self.tiles_x() as usize) as u32;
        let x0 = tx * self.tile_size;
        let y0 = ty * self.tile_size;
        Tile {
            x0,
            y0,
            width: self.tile_size.min(self.width - x0),
            height: self.tile_size.min(self.height - y0),
        }
    }

    /// All tiles in row-major order.
    pub fn tiles(&self) -> impl Iterator<Item = Tile> + '_ {
        (0..self.tile_count()).map(|i| self.tile(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Mlp;
    use crate::renderer::{render_view, render_view_serial, RenderConfig};
    use crate::scene::{build_grid, default_camera, scene_aabb, SceneId};

    #[test]
    fn scheduler_covers_image_exactly_once() {
        for (w, h, t) in [(7u32, 5u32, 3u32), (8, 8, 8), (1, 9, 2), (16, 4, 32)] {
            let sched = TileScheduler::new(w, h, t);
            let mut seen = vec![0u32; (w * h) as usize];
            for tile in sched.tiles() {
                assert!(tile.width > 0 && tile.height > 0);
                for (px, py) in tile.pixels() {
                    assert!(px < w && py < h, "pixel ({px},{py}) outside {w}x{h}");
                    seen[(py * w + px) as usize] += 1;
                }
            }
            assert!(seen.iter().all(|c| *c == 1), "{w}x{h}/{t}: tiles must partition the image");
        }
    }

    #[test]
    fn scheduler_clips_ragged_edges() {
        let sched = TileScheduler::new(10, 6, 4);
        assert_eq!(sched.tiles_x(), 3);
        assert_eq!(sched.tiles_y(), 2);
        assert_eq!(sched.tile_count(), 6);
        // Rightmost column and bottom row are clipped.
        assert_eq!(sched.tile(2), Tile { x0: 8, y0: 0, width: 2, height: 4 });
        assert_eq!(sched.tile(5), Tile { x0: 8, y0: 4, width: 2, height: 2 });
    }

    #[test]
    #[should_panic(expected = "tile_size must be non-zero")]
    fn zero_tile_size_panics() {
        let _ = TileScheduler::new(8, 8, 0);
    }

    #[test]
    fn tile_pixels_are_row_major() {
        let t = Tile { x0: 2, y0: 1, width: 2, height: 2 };
        let px: Vec<_> = t.pixels().collect();
        assert_eq!(px, vec![(2, 1), (3, 1), (2, 2), (3, 2)]);
        assert_eq!(t.pixel_count(), 4);
    }

    #[test]
    fn resolve_parallelism_handles_auto() {
        assert_eq!(resolve_parallelism(3), 3);
        assert!(resolve_parallelism(0) >= 1);
    }

    #[test]
    fn engine_matches_serial_at_many_shapes() {
        let grid = build_grid(SceneId::Ficus, 24);
        let mlp = Mlp::random(3);
        let base = RenderConfig { samples_per_ray: 24, ..Default::default() };
        for (w, h) in [(9u32, 7u32), (16, 16)] {
            let cam = default_camera(w, h, 0, 4);
            let serial = render_view_serial(&grid, &mlp, &cam, &scene_aabb(), &base);
            for (tile_size, threads) in [(1, 2), (3, 4), (32, 8), (4, 0)] {
                let cfg = RenderConfig { tile_size, parallelism: threads, ..base };
                let got = render_view(&grid, &mlp, &cam, &scene_aabb(), &cfg);
                assert_eq!(got, serial, "{w}x{h} tile={tile_size} threads={threads}");
            }
        }
    }
}
