//! # spnerf-voxel
//!
//! Sparse voxel-grid substrate for the SpNeRF reproduction (DATE 2025,
//! "SpNeRF: Memory Efficient Sparse Volumetric Neural Rendering Accelerator
//! for Edge Devices").
//!
//! This crate provides everything below the rendering algorithm:
//!
//! * [`coord`] — grid coordinates and x-major linearization,
//! * [`grid`] — dense density/feature grids and non-zero extraction,
//! * [`baked`] — the baked (diffuse RGB + density + specular feature)
//!   grid produced by the deferred-shading bake pass,
//! * [`bitmap`] — the 1-bit-per-voxel occupancy bitmap used by SpNeRF's
//!   bitmap masking,
//! * [`mip`] — the hierarchical occupancy pyramid OR-reduced above the
//!   bitmap, which the renderer's empty-space skipping traverses,
//! * [`formats`] — COO/CSR/CSC sparse encodings with byte-accurate
//!   footprints (the Section II-B baselines),
//! * [`sparse`] — the unified [`SparseFormat`] trait
//!   over every encoding (plus rank-select and block-compressed formats) and
//!   the FlexNeRFer-style occupancy-driven format selector,
//! * [`quant`] — symmetric INT8 quantization with FP scale,
//! * [`kmeans`] — the vector-quantization codebook trainer,
//! * [`lanes`] — [`lanes::F32x8`], the workspace's one explicit-width lane
//!   type, shared by the k-means kernel and the renderer's hot paths, and
//!   [`wide!`], which runs a lane kernel in an AVX clone on hosts that
//!   have AVX,
//! * [`pool`] — the one ordered worker pool ([`pool::run_ordered`]),
//!   shared by k-means, VQRF classification and the renderer,
//! * [`vqrf`] — the VQRF compressed model incl. the full-grid `restore()`
//!   step that SpNeRF eliminates,
//! * [`memory`] — itemized memory accounting shared by all representations,
//! * [`fnv`] — [`fnv::Fnv64`], the workspace's one FNV-1a hasher, behind
//!   every stable digest (baked grids, render-cache keys, goldens).
//!
//! # Examples
//!
//! Compress a grid with VQRF and compare footprints:
//!
//! ```
//! use spnerf_voxel::coord::{GridCoord, GridDims};
//! use spnerf_voxel::grid::DenseGrid;
//! use spnerf_voxel::vqrf::{VqrfConfig, VqrfModel};
//!
//! let mut grid = DenseGrid::zeros(GridDims::cube(16));
//! grid.set_density(GridCoord::new(3, 4, 5), 1.0);
//! grid.set_features(GridCoord::new(3, 4, 5), &[0.25; 12]);
//!
//! let cfg = VqrfConfig { codebook_size: 8, ..Default::default() };
//! let model = VqrfModel::build(&grid, &cfg);
//! let compressed = model.compressed_footprint();
//! let restored = model.restored_footprint();
//! assert!(compressed.total_bytes() < restored.total_bytes());
//! ```

// `lanes::wide` holds the workspace's one `unsafe` call (its AVX clone);
// everything else in this crate stays safe code.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod baked;
pub mod bitmap;
pub mod coord;
pub mod fnv;
pub mod formats;
pub mod grid;
pub mod kmeans;
pub mod lanes;
pub mod memory;
pub mod mip;
pub mod pool;
pub mod quant;
pub mod sparse;
pub mod vqrf;

pub use baked::BakedGrid;
pub use bitmap::Bitmap;
pub use coord::{GridCoord, GridDims};
pub use grid::{DenseGrid, SparsePoint, FEATURE_DIM};
pub use memory::MemoryFootprint;
pub use mip::OccupancyMip;
pub use sparse::{FormatKind, FormatSelection, OccupancyStats, SparseFormat, SparseIndex};
pub use vqrf::{VqrfConfig, VqrfConfigError, VqrfModel};
