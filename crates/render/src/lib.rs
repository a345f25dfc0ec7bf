//! # spnerf-render
//!
//! Neural-rendering substrate for the SpNeRF reproduction (DATE 2025): the
//! CPU reference implementation of everything the accelerator pipelines.
//!
//! * [`mod@bake`] — the deterministic bake pass feeding the deferred
//!   (SNeRG-style) render path,
//! * [`fp16`] — software IEEE 754 binary16 (the accelerator's on-chip
//!   number format),
//! * [`vec3`] — 3-D vector math,
//! * [`camera`] / [`ray`] — pinhole cameras, orbit poses, AABB clipping and
//!   uniform ray sampling,
//! * [`interp`] — Eq. (2) trilinear interpolation and world↔grid frames,
//! * [`mlp`] — the 3-layer color MLP (128/128/3) with the 39-element input
//!   vector of the paper's Fig. 5,
//! * [`composite`] — the volume-rendering equation,
//! * [`image`] — image buffers, PSNR and PPM output,
//! * [`scene`] — procedural Synthetic-NeRF-like scenes with calibrated
//!   sparsity,
//! * [`source`] / [`renderer`] — the [`source::VoxelSource`]-generic
//!   renderer whose [`renderer::RenderStats`] feed the accelerator
//!   simulator, with hierarchical empty-space skipping
//!   ([`renderer::SkipMode`] over a [`source::WithOccupancy`] source) that
//!   drops marched samples without changing a single pixel,
//! * [`engine`] — the tile-parallel render engine: a
//!   [`engine::TileScheduler`] partitions each view into rectangular tiles
//!   and one ordered scoped worker pool traces them concurrently over any
//!   `VoxelSource + Sync` (the temporal warp pass shares the same pool),
//! * [`temporal`] — deterministic camera trajectories (orbit, dolly,
//!   handheld jitter) rendered as frame sequences with Cicero-style
//!   forward-warp reuse: [`temporal::ReuseMode::Off`] stays
//!   bitwise-identical to per-frame rendering while
//!   [`temporal::ReuseMode::Warp`] re-marches only disoccluded, depth-edge
//!   and validation rays.
//!
//! # Render engine architecture
//!
//! Rendering is layered: [`renderer::trace_rays`] is the one pure job
//! kernel (march → decode → interpolate → MLP → composite) over a
//! read-only [`renderer::RenderFrame`], for either [`renderer::Shader`]: it
//! takes bare rays and reports each ray's color, depth and
//! [`renderer::RenderStats`].
//! Like the accelerator's MLP Unit, it shades in batches: a job marches
//! all its rays, runs the queued samples through
//! [`mlp::Mlp::forward_batch`] eight at a time, then composites. The
//! [`engine`]'s ordered worker pool fans jobs out across threads tile by
//! tile; [`renderer::render_view`] is the front door that honors
//! [`renderer::RenderConfig::parallelism`] (`0` = all cores) and
//! [`renderer::RenderConfig::tile_size`]. Because every ray's result depends
//! on that ray alone and tile results are merged back in deterministic tile
//! order, the engine's
//! images and stats are **bitwise-identical** to the serial reference
//! ([`renderer::render_view_serial`]) at every thread count and tile size.
//!
//! # Examples
//!
//! Render the ground truth of a scene:
//!
//! ```
//! use spnerf_render::mlp::Mlp;
//! use spnerf_render::renderer::{render_view, RenderConfig};
//! use spnerf_render::scene::{build_grid, default_camera, scene_aabb, SceneId};
//!
//! let grid = build_grid(SceneId::Lego, 24);
//! let mlp = Mlp::random(0);
//! let camera = default_camera(16, 16, 0, 8);
//! let cfg = RenderConfig { samples_per_ray: 32, ..Default::default() };
//! let (image, stats) = render_view(&grid, &mlp, &camera, &scene_aabb(), &cfg);
//! assert_eq!(image.width(), 16);
//! assert!(stats.samples_marched > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bake;
pub mod camera;
pub mod composite;
pub mod engine;
pub mod eval;
pub mod fp16;
pub mod image;
pub mod interp;
pub mod mlp;
pub mod ray;
pub mod renderer;
pub mod scene;
pub mod source;
pub mod temporal;
pub mod vec3;

/// The workspace's one lane type, [`F32x8`], defined in
/// [`spnerf_voxel::lanes`] next to the k-means kernel that shares it.
pub use spnerf_voxel::lanes;

pub use bake::bake;
pub use camera::PinholeCamera;
pub use engine::{resolve_parallelism, Tile, TileScheduler};
pub use fp16::F16;
pub use image::ImageBuffer;
pub use lanes::F32x8;
pub use mlp::{DeferredMlp, Mlp};
pub use ray::{Aabb, Ray};
pub use renderer::{
    render_view, render_view_serial, trace_rays, RenderConfig, RenderStats, Shader, SkipMode,
    TracedRay,
};
pub use scene::SceneId;
pub use source::{support_bitmap, VoxelData, VoxelSource, WithOccupancy};
pub use temporal::{
    advance_frame, render_trajectory, PathKind, ReuseMode, ReuseState, TemporalFrame,
    TrajectorySpec, WarpConfig,
};
pub use vec3::Vec3;
