//! # spnerf-accel
//!
//! Cycle-level simulator and ASIC area/power model of the SpNeRF
//! accelerator (DATE 2025): the Sparse Grid Processing Unit (GID, BLU, HMU,
//! TIU), the output-stationary systolic MLP Unit with its block-circulant
//! input buffer, double-buffered SRAMs, and the calibrated 28 nm area/power
//! tables behind Fig. 9 and Table II.
//!
//! * [`frame`] — per-frame workload descriptors (measured by the reference
//!   renderer, scaled to 800×800),
//! * [`sim`] — functional + cycle models of every hardware unit,
//! * [`asic`] — SRAM inventory (571 KB SGPU + 58 KB MLP), area model
//!   (≈7.7 mm²), power model (≈3 W, systolic-dominant).
//!
//! # Examples
//!
//! Simulate a paper-scale frame:
//!
//! ```
//! use spnerf_accel::frame::FrameWorkload;
//! use spnerf_accel::sim::pipeline::{simulate_frame, ArchConfig};
//! use spnerf_render::renderer::RenderStats;
//!
//! let stats = RenderStats {
//!     rays: 640_000,
//!     samples_marched: 25_000_000,
//!     samples_shaded: 1_200_000,
//!     ..Default::default()
//! };
//! let workload =
//!     FrameWorkload { scene: "lego".into(), stats, model_bytes: 7 << 20, format_bytes: 0 };
//! let result = simulate_frame(&workload, &ArchConfig::default());
//! assert!(result.fps > 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asic;
pub mod frame;
pub mod sim;

pub use asic::{AreaModel, AsicSummary, EnergyParams};
pub use frame::FrameWorkload;
pub use sim::pipeline::{
    simulate_frame, simulate_path, ArchConfig, Bottleneck, FrameSimResult, PathSimResult, SgpuModel,
};
pub use sim::systolic::SystolicArray;
