//! ASIC area and power model (28 nm, 1 GHz) — reproduces Fig. 9 and the
//! SpNeRF column of Table II.
//!
//! The paper synthesizes RTL with Design Compiler on TSMC 28 nm and
//! generates SRAMs with a memory compiler. Offline we replace both with a
//! calibrated component model:
//!
//! * **SRAM inventory** — itemizes the 571 KB SGPU + 58 KB MLP buffers
//!   (Section V-C's area discussion);
//! * **area** — per-component mm² constants calibrated to the published
//!   7.7 mm² total, with SRAM a minority share (the paper's key contrast
//!   with prior accelerators);
//! * **power** — activity × energy-per-op coefficients calibrated to the
//!   published 3 W with the systolic array dominant (Fig. 9(b)).

use crate::sim::pipeline::{ArchConfig, FrameSimResult};

/// One named on-chip SRAM macro.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SramMacro {
    /// Buffer name.
    pub name: &'static str,
    /// Size in bytes (double-buffered macros count both copies).
    pub bytes: usize,
    /// Which top-level module owns it.
    pub module: Module,
}

/// Top-level accelerator module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Module {
    /// Sparse Grid Processing Unit.
    Sgpu,
    /// MLP Unit.
    Mlp,
}

/// The on-chip SRAM inventory of the paper's design point.
///
/// Matches Section V-C: "the MLP buffer accounts for 58 KB SRAM … and the
/// SGPU contains 571 KB SRAM".
pub fn sram_inventory() -> Vec<SramMacro> {
    vec![
        // --- SGPU: 571 KB total -------------------------------------------
        // One 32k-entry table is 104 KB packed; double-buffered.
        SramMacro { name: "index & density buffer (2x)", bytes: 208 * 1024, module: Module::Sgpu },
        // 4096 × 12 × FP16.
        SramMacro { name: "color codebook", bytes: 96 * 1024, module: Module::Sgpu },
        SramMacro { name: "true voxel grid buffer", bytes: 192 * 1024, module: Module::Sgpu },
        SramMacro { name: "bitmap buffer (2x)", bytes: 24 * 1024, module: Module::Sgpu },
        SramMacro { name: "position buffer (2x)", bytes: 32 * 1024, module: Module::Sgpu },
        SramMacro { name: "interpolation FIFO", bytes: 19 * 1024, module: Module::Sgpu },
        // --- MLP Unit: 58 KB total ----------------------------------------
        SramMacro { name: "weight buffer", bytes: 44 * 1024, module: Module::Mlp },
        SramMacro {
            name: "input buffer (block-circulant, 2x)",
            bytes: 10 * 1024,
            module: Module::Mlp,
        },
        SramMacro { name: "output buffer", bytes: 4 * 1024, module: Module::Mlp },
    ]
}

/// Total SRAM bytes of a module.
pub fn sram_bytes(module: Module) -> usize {
    sram_inventory().iter().filter(|m| m.module == module).map(|m| m.bytes).sum()
}

/// Total on-chip SRAM in bytes.
pub fn total_sram_bytes() -> usize {
    sram_inventory().iter().map(|m| m.bytes).sum()
}

/// One named breakdown component (area or power).
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Component name as it appears in Fig. 9.
    pub name: &'static str,
    /// Value (mm² for area, W for power).
    pub value: f64,
}

/// Area model calibrated to the published totals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// mm² per FP16 MAC (PE) including local registers, 28 nm.
    pub mm2_per_mac: f64,
    /// mm² per SRAM megabyte (compiled macros, 28 nm).
    pub mm2_per_sram_mb: f64,
    /// SGPU datapath logic (GID + HMU + TIU + BLU), mm².
    pub sgpu_logic_mm2: f64,
    /// Controller, NoC, activation unit, I/O ring, mm².
    pub other_mm2: f64,
}

impl Default for AreaModel {
    fn default() -> Self {
        Self { mm2_per_mac: 0.00078, mm2_per_sram_mb: 1.85, sgpu_logic_mm2: 1.55, other_mm2: 1.81 }
    }
}

impl AreaModel {
    /// Fig. 9(a): per-component area for an architecture.
    pub fn breakdown(&self, arch: &ArchConfig) -> Vec<Component> {
        let sram_mb = total_sram_bytes() as f64 / (1024.0 * 1024.0);
        vec![
            Component {
                name: "systolic array",
                value: arch.systolic.macs() as f64 * self.mm2_per_mac,
            },
            Component { name: "SGPU logic", value: self.sgpu_logic_mm2 },
            Component { name: "on-chip SRAM", value: sram_mb * self.mm2_per_sram_mb },
            Component { name: "control & I/O", value: self.other_mm2 },
        ]
    }

    /// Total die area in mm².
    pub fn total_mm2(&self, arch: &ArchConfig) -> f64 {
        self.breakdown(arch).iter().map(|c| c.value).sum()
    }
}

/// Energy coefficients (28 nm, 1 GHz) calibrated so the default workload
/// dissipates ≈3 W with the systolic array dominant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// pJ per FP16 MAC including operand movement inside the array.
    pub pj_per_mac: f64,
    /// pJ per marched sample through the SGPU datapath (all 8 corners).
    pub pj_per_sgpu_sample: f64,
    /// pJ per on-chip SRAM bit moved.
    pub pj_per_sram_bit: f64,
    /// DRAM controller + PHY power per GB/s streamed, W.
    pub dram_ctrl_w_per_gbps: f64,
    /// Leakage + clock-tree power, W.
    pub static_w: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self {
            pj_per_mac: 1.3,
            pj_per_sgpu_sample: 350.0,
            pj_per_sram_bit: 0.18,
            dram_ctrl_w_per_gbps: 0.25,
            static_w: 0.45,
        }
    }
}

/// Power report for a simulated frame stream.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    /// Fig. 9(b) components.
    pub components: Vec<Component>,
    /// Total power in W.
    pub total_w: f64,
}

impl EnergyParams {
    /// Fig. 9(b): power breakdown while rendering `result` frames
    /// back-to-back.
    pub fn power(&self, result: &FrameSimResult, arch: &ArchConfig) -> PowerReport {
        let frame_s = result.cycles as f64 / arch.clock_hz();
        let a = &result.activity;
        let systolic_w = a.macs as f64 * self.pj_per_mac * 1e-12 / frame_s;
        let sgpu_w = a.samples_marched as f64 * self.pj_per_sgpu_sample * 1e-12 / frame_s;
        let sram_w = a.sram_bits as f64 * self.pj_per_sram_bit * 1e-12 / frame_s;
        let stream_gbps = a.dram_bytes as f64 / frame_s / 1e9;
        let dram_w = stream_gbps * self.dram_ctrl_w_per_gbps;
        let components = vec![
            Component { name: "systolic array", value: systolic_w },
            Component { name: "SGPU logic", value: sgpu_w },
            Component { name: "on-chip SRAM", value: sram_w },
            Component { name: "DRAM interface", value: dram_w },
            Component { name: "static & clock", value: self.static_w },
        ];
        let total_w = components.iter().map(|c| c.value).sum();
        PowerReport { components, total_w }
    }
}

/// The SpNeRF row of Table II, fully derived from the models.
#[derive(Debug, Clone, PartialEq)]
pub struct AsicSummary {
    /// Average frames per second across the evaluated scenes.
    pub fps: f64,
    /// Total power in W.
    pub power_w: f64,
    /// Die area in mm².
    pub area_mm2: f64,
    /// On-chip SRAM in MB.
    pub sram_mb: f64,
    /// Energy efficiency, FPS/W.
    pub energy_eff: f64,
    /// Area efficiency, FPS/mm².
    pub area_eff: f64,
}

/// Builds the Table II summary from per-scene simulation results.
///
/// # Panics
///
/// Panics if `results` is empty.
pub fn summarize(
    results: &[FrameSimResult],
    arch: &ArchConfig,
    area: &AreaModel,
    energy: &EnergyParams,
) -> AsicSummary {
    assert!(!results.is_empty(), "need at least one simulated scene");
    let fps = results.iter().map(|r| r.fps).sum::<f64>() / results.len() as f64;
    let power_w =
        results.iter().map(|r| energy.power(r, arch).total_w).sum::<f64>() / results.len() as f64;
    let area_mm2 = area.total_mm2(arch);
    let sram_mb = total_sram_bytes() as f64 / (1024.0 * 1024.0);
    AsicSummary {
        fps,
        power_w,
        area_mm2,
        sram_mb,
        energy_eff: fps / power_w,
        area_eff: fps / area_mm2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameWorkload;
    use crate::sim::pipeline::simulate_frame;
    use spnerf_render::mlp::Mlp;
    use spnerf_render::renderer::RenderStats;

    /// An 800×800 per-sample frame streaming a 7 MiB model.
    fn workload(scene: &str, marched: usize, shaded: usize) -> FrameWorkload {
        let stats = RenderStats {
            rays: 640_000,
            samples_marched: marched,
            samples_shaded: shaded,
            ..Default::default()
        };
        FrameWorkload { scene: scene.into(), stats, model_bytes: 7 << 20, format_bytes: 0 }
    }

    fn paper_like_result() -> FrameSimResult {
        simulate_frame(&workload("avg", 26_000_000, 1_250_000), &ArchConfig::default())
    }

    #[test]
    fn sram_totals_match_paper() {
        // 571 KB SGPU + 58 KB MLP = 0.61 MB (Table II).
        assert_eq!(sram_bytes(Module::Sgpu), 571 * 1024);
        assert_eq!(sram_bytes(Module::Mlp), 58 * 1024);
        let mb = total_sram_bytes() as f64 / (1024.0 * 1024.0);
        assert!((mb - 0.614).abs() < 0.01, "total {mb} MB");
    }

    #[test]
    fn weight_buffer_fits_actual_mlp() {
        let need = Mlp::weight_bytes_f16();
        let have = sram_inventory().iter().find(|m| m.name == "weight buffer").unwrap().bytes;
        assert!(need <= have, "weights {need} B exceed buffer {have} B");
    }

    #[test]
    fn area_totals_near_7_7_mm2() {
        let arch = ArchConfig::default();
        let total = AreaModel::default().total_mm2(&arch);
        assert!((total - 7.7).abs() < 0.4, "area {total} mm²");
    }

    #[test]
    fn sram_is_minor_area_share() {
        // Section V-C: "on-chip SRAM occupies only a small fraction".
        let arch = ArchConfig::default();
        let model = AreaModel::default();
        let breakdown = model.breakdown(&arch);
        let sram = breakdown.iter().find(|c| c.name == "on-chip SRAM").unwrap().value;
        assert!(sram / model.total_mm2(&arch) < 0.25, "SRAM share too large");
    }

    #[test]
    fn power_near_3w_with_systolic_dominant() {
        let arch = ArchConfig::default();
        let report = EnergyParams::default().power(&paper_like_result(), &arch);
        assert!(
            (2.0..4.2).contains(&report.total_w),
            "total power {} W out of band",
            report.total_w
        );
        let systolic = report.components.iter().find(|c| c.name == "systolic array").unwrap();
        for c in &report.components {
            assert!(systolic.value >= c.value, "{} exceeds systolic array", c.name);
        }
    }

    #[test]
    fn summary_derives_efficiencies() {
        let arch = ArchConfig::default();
        let res = vec![paper_like_result()];
        let s = summarize(&res, &arch, &AreaModel::default(), &EnergyParams::default());
        assert!((s.energy_eff - s.fps / s.power_w).abs() < 1e-9);
        assert!((s.area_eff - s.fps / s.area_mm2).abs() < 1e-9);
        assert!((s.sram_mb - 0.614).abs() < 0.01);
    }

    #[test]
    fn power_scales_with_activity() {
        let arch = ArchConfig::default();
        let light = workload("light", 5_000_000, 200_000);
        let heavy = workload("heavy", 40_000_000, 2_500_000);
        let p_light = EnergyParams::default().power(&simulate_frame(&light, &arch), &arch).total_w;
        let p_heavy = EnergyParams::default().power(&simulate_frame(&heavy, &arch), &arch).total_w;
        // Dynamic power per frame grows, but power (energy/time) stays in a
        // sane band because heavier frames also take longer.
        assert!(p_light > 0.5 && p_heavy > 0.5);
        assert!(p_heavy < 6.0 && p_light < 6.0);
    }
}
