//! Regenerates **Table II**: the comparison between RT-NeRF.Edge,
//! NeuRex.Edge and SpNeRF.
//!
//! Baseline rows reproduce the published operating points; the SpNeRF row
//! is fully derived from this reproduction's models (cycle-level FPS,
//! power/area models, SRAM inventory). Paper targets: 67.56 FPS, 3 W,
//! 7.7 mm², 0.61 MB SRAM, 22.52 FPS/W; speedups 1.5× (RT-NeRF) and 10.3×
//! (NeuRex); energy-efficiency gains 4× and 4.4×.
//!
//! ```text
//! cargo run --release -p spnerf-bench --bin table2_comparison [--quick] [--threads N]
//!     [--skip-mode MODE] [--source MODE] [--sparse-format F]
//! ```

use spnerf::accel::asic::{summarize, AreaModel, EnergyParams};
use spnerf::accel::sim::pipeline::{simulate_frame, ArchConfig};
use spnerf::platforms::accelerators::AcceleratorSpec;
use spnerf::render::scene::SceneId;
use spnerf_bench::cli::{self, Flag};
use spnerf_bench::{build_scene, evaluate_scene, print_table, Fidelity};

const FLAGS: &[Flag] =
    &[Flag::Quick, Flag::Threads, Flag::SkipMode, Flag::Source, Flag::SparseFormat];

fn main() {
    let fid = Fidelity::from_cli(&cli::parse_or_exit(FLAGS));
    let arch = ArchConfig::default();

    // Simulate all scenes to get the average operating point.
    let mut results = Vec::new();
    for id in SceneId::all() {
        let scene = build_scene(id, &fid);
        let eval = evaluate_scene(&scene, &fid);
        results.push(simulate_frame(&eval.workload, &arch));
    }
    let ours = summarize(&results, &arch, &AreaModel::default(), &EnergyParams::default());

    println!("Table II: comparison between related work and SpNeRF\n");
    let rt = AcceleratorSpec::rt_nerf_edge();
    let nx = AcceleratorSpec::neurex_edge();
    let rows = vec![
        row(
            rt.name,
            rt.sram_mb,
            rt.area_mm2,
            rt.tech_nm,
            rt.power_w,
            rt.dram,
            rt.fps,
            rt.energy_efficiency(),
            rt.area_efficiency(),
        ),
        row(
            nx.name,
            nx.sram_mb,
            nx.area_mm2,
            nx.tech_nm,
            nx.power_w,
            nx.dram,
            nx.fps,
            nx.energy_efficiency(),
            nx.area_efficiency(),
        ),
        row(
            "SpNeRF (ours)",
            ours.sram_mb,
            ours.area_mm2,
            28,
            ours.power_w,
            "LPDDR4-3200 59.7 GB/s",
            ours.fps,
            ours.energy_eff,
            ours.area_eff,
        ),
    ];
    print_table(
        &[
            "Accelerator",
            "SRAM (MB)",
            "Area (mm2)",
            "Tech",
            "Power (W)",
            "DRAM",
            "FPS",
            "FPS/W",
            "FPS/mm2",
        ],
        &rows,
    );

    println!("\nDerived comparisons (measured | paper):");
    println!("  speedup vs RT-NeRF.Edge : {:.2}x | 1.5x", ours.fps / rt.fps);
    println!("  speedup vs NeuRex.Edge  : {:.2}x | 10.3x", ours.fps / nx.fps);
    println!("  energy eff vs RT-NeRF   : {:.2}x | 4.0x", ours.energy_eff / rt.energy_efficiency());
    println!("  energy eff vs NeuRex    : {:.2}x | 4.4x", ours.energy_eff / nx.energy_efficiency());
    println!(
        "\nPaper SpNeRF row: 0.61 MB, 7.7 mm2, 28 nm, 3 W, 67.56 FPS, 22.52 FPS/W, 6.36 FPS/mm2."
    );
    println!(
        "Note: the paper's 6.36 FPS/mm2 is inconsistent with 67.56/7.7 = 8.77; we report\n\
         the straight quotient."
    );
}

#[allow(clippy::too_many_arguments)]
fn row(
    name: &str,
    sram: f64,
    area: f64,
    tech: u32,
    power: f64,
    dram: &str,
    fps: f64,
    eeff: f64,
    aeff: f64,
) -> Vec<String> {
    vec![
        name.to_string(),
        format!("{sram:.2}"),
        format!("{area:.2}"),
        format!("{tech} nm"),
        format!("{power:.2}"),
        dram.to_string(),
        format!("{fps:.2}"),
        format!("{eeff:.2}"),
        format!("{aeff:.2}"),
    ]
}
