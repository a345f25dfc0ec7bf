//! Whole-accelerator models: the functional SGPU pipeline, the analytic
//! frame performance model, and a cycle-stepping simulator that validates
//! the analytic formulas.
//!
//! The dataflow (Fig. 4): position buffer → GID → {BLU, HMU} → TIU →
//! input buffer (block-circulant) → systolic MLP → output. Everything is
//! fully pipelined and all buffers are double-buffered, so a frame's cycle
//! count is the *maximum* of the SGPU stream time, the MLP stream time and
//! the DRAM stream time, plus pipeline fill.

use spnerf_core::decode::MaskMode;
use spnerf_core::model::SpNerfModel;
use spnerf_dram::timing::DramTimings;
use spnerf_render::mlp::{DeferredMlp, Mlp, DEFERRED_INPUT_DIM};
use spnerf_render::source::VoxelData;
use spnerf_render::vec3::Vec3;
use spnerf_voxel::FEATURE_DIM;

use crate::frame::FrameWorkload;
use crate::sim::blu::{BitmapLookupUnit, BLU_LATENCY};
use crate::sim::gid::{GridIdUnit, GID_LATENCY};
use crate::sim::hmu::{HashMappingUnit, LookupTarget, HMU_LATENCY};
use crate::sim::systolic::SystolicArray;
use crate::sim::tiu::{CornerInput, TrilinearInterpUnit, TIU_LATENCY};

/// Hardware configuration of the accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchConfig {
    /// Core clock in GHz (paper: 1 GHz).
    pub clock_ghz: f64,
    /// Parallel SGPU sample lanes (each decodes one sample per cycle).
    pub sgpu_lanes: usize,
    /// The MLP Unit's systolic array.
    pub systolic: SystolicArray,
    /// MLP batch size (paper: 64).
    pub batch_size: usize,
    /// DRAM device.
    pub dram: DramTimings,
    /// Fraction of peak DRAM bandwidth achieved by the double-buffered
    /// sequential model streams.
    pub dram_stream_efficiency: f64,
}

impl Default for ArchConfig {
    fn default() -> Self {
        Self {
            clock_ghz: 1.0,
            sgpu_lanes: 2,
            systolic: SystolicArray::new(64, 64),
            batch_size: 64,
            dram: DramTimings::lpddr4_3200(),
            dram_stream_efficiency: 0.85,
        }
    }
}

impl ArchConfig {
    /// Core clock in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_ghz * 1e9
    }

    /// DRAM bytes deliverable per core cycle.
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram.peak_bandwidth_bps() * self.dram_stream_efficiency / self.clock_hz()
    }

    /// Total pipeline fill latency (all stage latencies + one MLP batch).
    pub fn pipeline_fill_cycles(&self) -> u64 {
        GID_LATENCY
            + BLU_LATENCY
            + HMU_LATENCY
            + TIU_LATENCY
            + self.systolic.mlp_batch_cycles(self.batch_size)
    }
}

/// The functional SGPU: composes GID → BLU/HMU → TIU over a built model.
///
/// Produces the same `(density, features)` stream as the software decoder
/// (modulo FP16 rounding) while accumulating per-unit activity counters.
#[derive(Debug)]
pub struct SgpuModel<'a> {
    model: &'a SpNerfModel,
    mode: MaskMode,
    /// Grid ID Unit.
    pub gid: GridIdUnit,
    /// Bitmap Lookup Unit.
    pub blu: BitmapLookupUnit,
    /// Hash Mapping Unit.
    pub hmu: HashMappingUnit,
    /// Trilinear Interpolation Unit.
    pub tiu: TrilinearInterpUnit,
    codebook_bits: u64,
    true_grid_bits: u64,
}

impl<'a> SgpuModel<'a> {
    /// Creates an SGPU over `model`.
    pub fn new(model: &'a SpNerfModel, mode: MaskMode) -> Self {
        Self {
            model,
            mode,
            gid: GridIdUnit::new(),
            blu: BitmapLookupUnit::new(),
            hmu: HashMappingUnit::new(),
            tiu: TrilinearInterpUnit::new(),
            codebook_bits: 0,
            true_grid_bits: 0,
        }
    }

    /// The model this SGPU decodes from.
    pub fn model(&self) -> &'a SpNerfModel {
        self.model
    }

    /// Decodes one continuous grid-space sample position through the full
    /// SGPU pipeline.
    pub fn decode_sample(&mut self, g: Vec3) -> (f32, [f32; FEATURE_DIM]) {
        let Some(gid_out) = self.gid.process(self.model.dims(), g) else {
            return (0.0, [0.0; FEATURE_DIM]);
        };
        let mut corners = [CornerInput { data: None, weight: 0.0, needs_dequant: false }; 8];
        for (i, &corner) in gid_out.corners.iter().enumerate() {
            corners[i].weight = gid_out.weights[i];
            if !self.model.dims().contains(corner) {
                continue;
            }
            // BLU gate (masked mode only — the ablation bypasses it).
            let occupied = self.blu.lookup(self.model.bitmap(), corner);
            if self.mode == MaskMode::Masked && !occupied {
                continue;
            }
            // HMU lookup in the corner's subgrid table.
            let sub = self.model.partition().subgrid_of(corner);
            let table = &self.model.tables()[sub];
            let Some((entry, target)) =
                self.hmu.lookup(table, corner, self.model.config().codebook_size)
            else {
                continue;
            };
            let Some(features) = self.model.resolve_features(entry.index) else {
                continue;
            };
            match target {
                LookupTarget::Codebook => self.codebook_bits += FEATURE_DIM as u64 * 16,
                LookupTarget::TrueGrid => self.true_grid_bits += FEATURE_DIM as u64 * 8,
            }
            let density = entry.density_q as f32 * self.model.density_scale();
            if density <= 0.0 {
                continue;
            }
            corners[i].data = Some(VoxelData { density, features });
            corners[i].needs_dequant = target == LookupTarget::TrueGrid;
        }
        self.tiu.interpolate(&corners)
    }

    /// Total SRAM bits read across all units (bitmap + tables + codebook +
    /// true voxel grid).
    pub fn sram_bits(&self) -> u64 {
        self.blu.sram_bits() + self.hmu.sram_bits() + self.codebook_bits + self.true_grid_bits
    }
}

/// Where a frame's cycles were spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// Sample decoding limits throughput.
    Sgpu,
    /// MLP evaluation limits throughput.
    Mlp,
    /// DRAM streaming limits throughput.
    Dram,
}

/// Per-frame activity counters consumed by the power model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Activity {
    /// Samples decoded by the SGPU.
    pub samples_marched: u64,
    /// Samples evaluated by the MLP.
    pub samples_shaded: u64,
    /// MAC operations on the systolic array.
    pub macs: u64,
    /// On-chip SRAM bits moved (all buffers).
    pub sram_bits: u64,
    /// Bytes streamed from DRAM.
    pub dram_bytes: u64,
}

/// Result of simulating one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameSimResult {
    /// Scene label.
    pub scene: String,
    /// Total frame cycles.
    pub cycles: u64,
    /// Frames per second at the configured clock.
    pub fps: f64,
    /// SGPU stream cycles.
    pub sgpu_cycles: u64,
    /// MLP stream cycles.
    pub mlp_cycles: u64,
    /// DRAM stream cycles.
    pub dram_cycles: u64,
    /// Which engine bounded the frame.
    pub bottleneck: Bottleneck,
    /// Systolic-array MAC utilization while the MLP streams.
    pub systolic_utilization: f64,
    /// Activity counters for the power model.
    pub activity: Activity,
}

/// Analytic frame performance model (fully pipelined + double buffering ⇒
/// engines overlap; the slowest stream dominates).
///
/// Frames with `stats.pixels_shaded > 0` were rendered bake-and-defer
/// ([`RenderStats::is_deferred`]): the MLP column charges the small deferred
/// view-dependence network once per shaded *pixel* instead of the full
/// color MLP once per shaded *sample* (cycles, MACs, and SRAM weight/IO
/// traffic alike). Frames with `pixels_shaded == 0` simulate exactly as
/// before, bit for bit.
///
/// [`RenderStats::is_deferred`]: spnerf_render::renderer::RenderStats::is_deferred
pub fn simulate_frame(w: &FrameWorkload, arch: &ArchConfig) -> FrameSimResult {
    assert!(arch.sgpu_lanes > 0, "need at least one SGPU lane");
    let s = &w.stats;
    let deferred = s.is_deferred();
    let sgpu_cycles = (s.samples_marched as u64).div_ceil(arch.sgpu_lanes as u64);
    let mlp_cycles = if deferred {
        arch.systolic.deferred_mlp_cycles(s.pixels_shaded, arch.batch_size)
    } else {
        arch.systolic.mlp_cycles(s.samples_shaded, arch.batch_size)
    };
    // The DRAM stream carries the model plus the selected sparse format's
    // per-lookup metadata traffic; `format_bytes == 0` (the historical
    // accounting) simulates bit-identically.
    let stream_bytes = w.model_bytes as u64 + w.format_bytes as u64;
    let dram_cycles = (stream_bytes as f64 / arch.dram_bytes_per_cycle()).ceil() as u64;

    let body = sgpu_cycles.max(mlp_cycles).max(dram_cycles);
    let cycles = body + arch.pipeline_fill_cycles();
    let bottleneck = if body == sgpu_cycles {
        Bottleneck::Sgpu
    } else if body == mlp_cycles {
        Bottleneck::Mlp
    } else {
        Bottleneck::Dram
    };

    let macs = if deferred {
        s.pixels_shaded as u64 * DeferredMlp::macs_per_pixel() as u64
    } else {
        s.samples_shaded as u64 * Mlp::macs_per_sample() as u64
    };
    let systolic_utilization = if mlp_cycles == 0 {
        0.0
    } else {
        macs as f64 / (mlp_cycles as f64 * arch.systolic.macs() as f64)
    };

    // SRAM traffic: per marched sample the SGPU touches 8 corners ×
    // (bitmap 8 b + entry 26 b) plus ~8 feature fetches (≈128 b each);
    // the MLP streams weights once per batch plus its input/output buffers.
    let sgpu_bits = s.samples_marched as u64 * 8 * (8 + 26 + 128);
    let mlp_evals = if deferred { s.pixels_shaded } else { s.samples_shaded };
    let batches = (mlp_evals as u64).div_ceil(arch.batch_size as u64);
    let (weight_bits, in_dim) = if deferred {
        (DeferredMlp::weight_bytes_f16() as u64 * 8, DEFERRED_INPUT_DIM)
    } else {
        (Mlp::weight_bytes_f16() as u64 * 8, 40)
    };
    let io_bits = (arch.batch_size * in_dim * 2 * 8) as u64 + (arch.batch_size * 3 * 2 * 8) as u64;
    let mlp_bits = batches * (weight_bits + io_bits);

    let fps = arch.clock_hz() / cycles as f64;
    FrameSimResult {
        scene: w.scene.clone(),
        cycles,
        fps,
        sgpu_cycles,
        mlp_cycles,
        dram_cycles,
        bottleneck,
        systolic_utilization,
        activity: Activity {
            samples_marched: s.samples_marched as u64,
            samples_shaded: s.samples_shaded as u64,
            macs,
            sram_bits: sgpu_bits + mlp_bits,
            dram_bytes: stream_bytes,
        },
    }
}

/// Result of simulating a whole camera path (a temporal frame sequence).
#[derive(Debug, Clone, PartialEq)]
pub struct PathSimResult {
    /// Per-frame simulation results, in path order.
    pub frames: Vec<FrameSimResult>,
    /// Total cycles across the path.
    pub total_cycles: u64,
    /// Total DRAM bytes streamed across the path.
    pub total_dram_bytes: u64,
    /// Total samples decoded by the SGPU across the path.
    pub total_samples_marched: u64,
    /// Total rays the warp satisfied without marching across the path.
    pub total_rays_warped: u64,
    /// Amortized samples marched per frame — the headline number of
    /// temporal reuse: on a warped trajectory it sits far below frame 0's
    /// standalone cost.
    pub amortized_samples_per_frame: f64,
    /// Amortized cycles per frame over the path.
    pub amortized_cycles_per_frame: f64,
    /// Amortized DRAM bytes per frame over the path.
    pub amortized_dram_bytes_per_frame: f64,
}

impl PathSimResult {
    /// Average frames per second over the whole path at the configured
    /// clock.
    pub fn path_fps(&self, arch: &ArchConfig) -> f64 {
        if self.frames.is_empty() {
            0.0
        } else {
            arch.clock_hz() / self.amortized_cycles_per_frame
        }
    }
}

/// Simulates every frame of a camera path through [`simulate_frame`] and
/// reports path totals and per-frame amortized costs.
///
/// Each frame is simulated independently (double-buffered model streams
/// re-fetch per frame, as in the single-frame model); reuse shows up purely
/// through the workloads — warped frames arrive with fewer marched samples,
/// so the amortized per-frame columns report what the trajectory actually
/// cost. An empty path returns all zeros.
pub fn simulate_path(workloads: &[FrameWorkload], arch: &ArchConfig) -> PathSimResult {
    let frames: Vec<FrameSimResult> = workloads.iter().map(|w| simulate_frame(w, arch)).collect();
    let total_cycles: u64 = frames.iter().map(|f| f.cycles).sum();
    let total_dram_bytes: u64 = frames.iter().map(|f| f.activity.dram_bytes).sum();
    let total_samples_marched: u64 = frames.iter().map(|f| f.activity.samples_marched).sum();
    let total_rays_warped: u64 = workloads.iter().map(|w| w.stats.rays_warped as u64).sum();
    let n = frames.len().max(1) as f64;
    PathSimResult {
        amortized_samples_per_frame: total_samples_marched as f64 / n,
        amortized_cycles_per_frame: total_cycles as f64 / n,
        amortized_dram_bytes_per_frame: total_dram_bytes as f64 / n,
        frames,
        total_cycles,
        total_dram_bytes,
        total_samples_marched,
        total_rays_warped,
    }
}

/// A cycle-stepping simulator of the same pipeline: SGPU lanes issue one
/// sample per cycle each, shaded samples queue into batches, and the MLP
/// drains batches back-to-back. Used to validate [`simulate_frame`]'s closed
/// form (the role the authors' RTL-verified simulator plays).
#[derive(Debug, Clone, Copy)]
pub struct CycleSimulator {
    arch: ArchConfig,
}

impl CycleSimulator {
    /// Creates a simulator for `arch`.
    pub fn new(arch: ArchConfig) -> Self {
        Self { arch }
    }

    /// Steps through a frame in which every `shade_every`-th marched sample
    /// is shaded, returning total cycles.
    pub fn run(&self, samples_marched: usize, samples_shaded: usize) -> u64 {
        let arch = &self.arch;
        let batch_cycles = arch.systolic.mlp_batch_cycles(arch.batch_size);
        let lanes = arch.sgpu_lanes as u64;

        // Distribute shaded samples evenly through the march stream.
        let mut shaded_emitted = 0usize;
        let mut queue = 0usize;
        let mut mlp_free_at = 0u64;
        let mut sgpu_cycle = 0u64;
        let mut issued = 0usize;

        while issued < samples_marched {
            // One cycle: lanes samples issue.
            let batch_now = (samples_marched - issued).min(lanes as usize);
            issued += batch_now;
            sgpu_cycle += 1;
            // Which of these are shaded? Keep the global ratio.
            let target_shaded =
                (issued as u128 * samples_shaded as u128 / samples_marched.max(1) as u128) as usize;
            let newly_shaded = target_shaded - shaded_emitted;
            shaded_emitted = target_shaded;
            queue += newly_shaded;
            while queue >= arch.batch_size {
                queue -= arch.batch_size;
                let sample_ready =
                    sgpu_cycle + GID_LATENCY + BLU_LATENCY.max(HMU_LATENCY) + TIU_LATENCY;
                let start = mlp_free_at.max(sample_ready);
                mlp_free_at = start + batch_cycles;
            }
        }
        // Drain the partial batch.
        if queue > 0 {
            let start = mlp_free_at.max(sgpu_cycle);
            mlp_free_at = start + batch_cycles;
        }
        sgpu_cycle.max(mlp_free_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spnerf_core::SpNerfConfig;
    use spnerf_render::interp::interpolate;
    use spnerf_render::renderer::RenderStats;
    use spnerf_render::scene::{build_grid, SceneId};
    use spnerf_voxel::vqrf::{VqrfConfig, VqrfModel};

    fn model() -> SpNerfModel {
        let grid = build_grid(SceneId::Lego, 24);
        let vqrf = VqrfModel::build(
            &grid,
            &VqrfConfig { codebook_size: 32, kmeans_iters: 2, ..Default::default() },
        );
        let cfg = SpNerfConfig { subgrid_count: 8, table_size: 8192, codebook_size: 32 };
        SpNerfModel::build(&vqrf, &cfg).unwrap()
    }

    fn workload() -> FrameWorkload {
        frame(640_000, 25_000_000, 1_200_000, 7 << 20)
    }

    /// A per-sample frame with only the counters the simulator reads set.
    fn frame(rays: usize, marched: usize, shaded: usize, model_bytes: usize) -> FrameWorkload {
        let stats = RenderStats {
            rays,
            samples_marched: marched,
            samples_shaded: shaded,
            ..Default::default()
        };
        FrameWorkload { scene: "lego".into(), stats, model_bytes, format_bytes: 0 }
    }

    /// `base` with `edit` applied to its counters.
    fn with_stats(base: &FrameWorkload, edit: impl FnOnce(&mut RenderStats)) -> FrameWorkload {
        let mut w = base.clone();
        edit(&mut w.stats);
        w
    }

    #[test]
    fn sgpu_matches_software_decoder_within_fp16() {
        let m = model();
        let mut sgpu = SgpuModel::new(&m, MaskMode::Masked);
        let view = m.view(MaskMode::Masked);
        let mut checked = 0;
        for i in 0..200 {
            let g = Vec3::new(
                3.0 + (i as f32 * 0.13) % 18.0,
                2.0 + (i as f32 * 0.29) % 18.0,
                1.0 + (i as f32 * 0.41) % 18.0,
            );
            let (d_hw, f_hw) = sgpu.decode_sample(g);
            let sw = interpolate(&view, g);
            assert!(
                (d_hw - sw.density).abs() < 0.02 + sw.density.abs() * 0.02,
                "density hw {d_hw} vs sw {} at {g:?}",
                sw.density
            );
            for (a, b) in f_hw.iter().zip(sw.features) {
                assert!((a - b).abs() < 0.02 + b.abs() * 0.02, "feature hw {a} vs sw {b}");
            }
            if sw.density > 0.0 {
                checked += 1;
            }
        }
        assert!(checked > 0, "test must hit occupied samples");
    }

    #[test]
    fn sgpu_counters_populate() {
        let m = model();
        let mut sgpu = SgpuModel::new(&m, MaskMode::Masked);
        for i in 0..50 {
            sgpu.decode_sample(Vec3::new(5.0 + i as f32 * 0.1, 8.0, 9.0));
        }
        assert_eq!(sgpu.gid.samples(), 50);
        assert_eq!(sgpu.blu.lookups(), 400);
        assert!(sgpu.sram_bits() > 0);
        // HMU only sees corners that pass the bitmap gate.
        assert!(sgpu.hmu.lookups() <= sgpu.blu.lookups());
    }

    #[test]
    fn unmasked_sgpu_issues_more_hmu_lookups() {
        let m = model();
        let mut masked = SgpuModel::new(&m, MaskMode::Masked);
        let mut unmasked = SgpuModel::new(&m, MaskMode::Unmasked);
        for i in 0..100 {
            let g = Vec3::new(2.0 + (i as f32 * 0.37) % 20.0, 11.0, 12.0);
            masked.decode_sample(g);
            unmasked.decode_sample(g);
        }
        assert!(unmasked.hmu.lookups() >= masked.hmu.lookups());
    }

    #[test]
    fn frame_model_basic_relations() {
        let r = simulate_frame(&workload(), &ArchConfig::default());
        assert!(r.fps > 1.0 && r.fps < 1000.0, "fps {}", r.fps);
        assert_eq!(
            r.cycles,
            r.sgpu_cycles.max(r.mlp_cycles).max(r.dram_cycles)
                + ArchConfig::default().pipeline_fill_cycles()
        );
        assert!(r.systolic_utilization > 0.0 && r.systolic_utilization <= 1.0);
        assert!(r.activity.macs > 0);
    }

    #[test]
    fn dram_not_the_bottleneck_at_paper_operating_point() {
        // The entire point of SpNeRF: model streaming is cheap.
        let r = simulate_frame(&workload(), &ArchConfig::default());
        assert_ne!(r.bottleneck, Bottleneck::Dram);
        assert!(r.dram_cycles * 10 < r.cycles, "DRAM must be far from critical");
    }

    #[test]
    fn fps_scales_with_clock() {
        let w = workload();
        let base = simulate_frame(&w, &ArchConfig::default());
        let fast = simulate_frame(&w, &ArchConfig { clock_ghz: 2.0, ..ArchConfig::default() });
        assert!((fast.fps / base.fps - 2.0).abs() < 0.01);
    }

    #[test]
    fn more_lanes_help_sgpu_bound_frames() {
        let w = with_stats(&workload(), |s| s.samples_shaded = 100_000); // SGPU-bound
        let two = simulate_frame(&w, &ArchConfig { sgpu_lanes: 2, ..Default::default() });
        let four = simulate_frame(&w, &ArchConfig { sgpu_lanes: 4, ..Default::default() });
        assert_eq!(two.bottleneck, Bottleneck::Sgpu);
        assert!(four.fps > 1.5 * two.fps);
    }

    #[test]
    fn cycle_simulator_validates_analytic_model() {
        let arch = ArchConfig::default();
        let sim = CycleSimulator::new(arch);
        for (marched, shaded) in [(1_000_000, 60_000), (2_000_000, 40_000), (500_000, 45_000)] {
            let w = frame(10_000, marched, shaded, 0);
            let analytic = simulate_frame(&w, &arch);
            let stepped = sim.run(marched, shaded);
            let err = (stepped as f64 - analytic.cycles as f64).abs() / analytic.cycles as f64;
            assert!(
                err < 0.05,
                "cycle sim {} vs analytic {} ({:.1}% off) for {marched}/{shaded}",
                stepped,
                analytic.cycles,
                err * 100.0
            );
        }
    }

    #[test]
    fn skipped_samples_are_charged_no_cycles() {
        // The paper's pruning accounting, extended to empty-space skipping:
        // samples the occupancy pyramid removed appear in `samples_skipped`
        // and must cost exactly nothing — the frame simulates identically
        // to one that never generated them.
        let arch = ArchConfig::default();
        let unskipped = workload();
        let marched = unskipped.stats.samples_marched;
        let skipped = with_stats(&unskipped, |s| {
            s.samples_marched = marched / 10;
            s.samples_skipped = marched - marched / 10;
        });
        let r_full = simulate_frame(&unskipped, &arch);
        let r_skip = simulate_frame(&skipped, &arch);
        assert!(r_skip.sgpu_cycles < r_full.sgpu_cycles / 5, "SGPU stream must shrink");
        assert_eq!(r_skip.mlp_cycles, r_full.mlp_cycles, "shaded work is unchanged");
        // A frame that never had the skipped samples at all is identical.
        let absent = with_stats(&skipped, |s| s.samples_skipped = 0);
        assert_eq!(simulate_frame(&absent, &arch).cycles, r_skip.cycles);
    }

    #[test]
    fn deferred_frames_charge_the_small_per_pixel_mlp() {
        // Bake-and-defer accounting: with pixels_shaded set, the MLP column
        // bills the deferred network once per pixel — cycles, MACs, and
        // utilization all derive from the small network.
        let arch = ArchConfig::default();
        let per_sample = workload();
        let deferred = with_stats(&per_sample, |s| s.pixels_shaded = s.rays / 2);
        let r_ps = simulate_frame(&per_sample, &arch);
        let r_df = simulate_frame(&deferred, &arch);
        assert!(
            r_df.mlp_cycles * 4 < r_ps.mlp_cycles,
            "deferred MLP stream {} must collapse vs per-sample {}",
            r_df.mlp_cycles,
            r_ps.mlp_cycles
        );
        assert_eq!(
            r_df.activity.macs,
            deferred.stats.pixels_shaded as u64 * DeferredMlp::macs_per_pixel() as u64
        );
        assert_eq!(
            r_df.mlp_cycles,
            arch.systolic.deferred_mlp_cycles(deferred.stats.pixels_shaded, arch.batch_size)
        );
        // SGPU and DRAM streams are untouched — only the shading collapses.
        assert_eq!(r_df.sgpu_cycles, r_ps.sgpu_cycles);
        assert_eq!(r_df.dram_cycles, r_ps.dram_cycles);
        assert!(r_df.activity.sram_bits < r_ps.activity.sram_bits);
        assert!(r_df.systolic_utilization > 0.0 && r_df.systolic_utilization <= 1.0);
    }

    #[test]
    fn empty_frame_costs_only_fill() {
        let w = frame(100, 0, 0, 0);
        let arch = ArchConfig::default();
        let r = simulate_frame(&w, &arch);
        assert_eq!(r.cycles, arch.pipeline_fill_cycles());
    }

    #[test]
    fn path_simulation_reports_amortized_reuse() {
        // An 8-frame path: frame 0 marches everything, frames 1+ arrive
        // warped with a quarter of the samples. Amortized per-frame cost
        // must land well below the standalone frame cost, and totals must
        // be the plain sums of the per-frame results.
        let arch = ArchConfig::default();
        let full = workload();
        let warped = with_stats(&full, |s| {
            s.samples_marched /= 4;
            s.samples_shaded /= 4;
            s.rays_warped = s.rays * 3 / 4;
            s.rays_remarched = s.rays / 4;
        });
        let mut path = vec![full.clone()];
        path.extend(std::iter::repeat_n(warped.clone(), 7));
        let r = simulate_path(&path, &arch);
        let standalone = simulate_frame(&full, &arch);
        assert_eq!(r.frames.len(), 8);
        assert_eq!(r.frames[0], standalone);
        assert_eq!(r.total_cycles, r.frames.iter().map(|f| f.cycles).sum::<u64>());
        assert_eq!(r.total_rays_warped, 7 * warped.stats.rays_warped as u64);
        assert!(
            r.amortized_samples_per_frame < 0.4 * standalone.activity.samples_marched as f64,
            "amortized {} vs standalone {}",
            r.amortized_samples_per_frame,
            standalone.activity.samples_marched
        );
        assert!(r.amortized_cycles_per_frame < standalone.cycles as f64);
        assert!(r.path_fps(&arch) > standalone.fps);
        // Degenerate path.
        let empty = simulate_path(&[], &arch);
        assert_eq!(empty.total_cycles, 0);
        assert_eq!(empty.amortized_samples_per_frame, 0.0);
    }

    #[test]
    fn format_metadata_traffic_charges_the_dram_stream() {
        // Sparse-format metadata rides the same double-buffered DRAM stream
        // as the model; zero metadata reproduces the historical numbers.
        let arch = ArchConfig::default();
        let plain = workload();
        let with_format = plain.clone().with_format_traffic(48 << 20);
        let r_plain = simulate_frame(&plain, &arch);
        let r_fmt = simulate_frame(&with_format, &arch);
        assert!(r_fmt.dram_cycles > r_plain.dram_cycles);
        assert_eq!(
            r_fmt.activity.dram_bytes,
            plain.model_bytes as u64 + with_format.format_bytes as u64
        );
        // SGPU and MLP streams are untouched — only the DRAM column moves.
        assert_eq!(r_fmt.sgpu_cycles, r_plain.sgpu_cycles);
        assert_eq!(r_fmt.mlp_cycles, r_plain.mlp_cycles);
        let zeroed = with_format.with_format_traffic(0);
        assert_eq!(simulate_frame(&zeroed, &arch), r_plain);
    }
}
