//! Regenerates **Fig. 9**: (a) the area breakdown and (b) the power
//! breakdown of the SpNeRF accelerator.
//!
//! Targets: ≈7.7 mm² total at 28 nm with on-chip SRAM a minority share,
//! and ≈3 W total with the systolic array dominant.
//!
//! ```text
//! cargo run --release -p spnerf-bench --bin fig9_area_power [--quick] [--threads N]
//!     [--skip-mode MODE] [--source MODE] [--sparse-format F]
//! ```

use spnerf::accel::asic::{sram_bytes, sram_inventory, AreaModel, EnergyParams, Module};
use spnerf::accel::sim::pipeline::{simulate_frame, ArchConfig};
use spnerf::render::scene::SceneId;
use spnerf::voxel::memory::format_bytes;
use spnerf_bench::cli::{self, Flag};
use spnerf_bench::{build_scene, evaluate_scene, print_table, Fidelity};

const FLAGS: &[Flag] =
    &[Flag::Quick, Flag::Threads, Flag::SkipMode, Flag::Source, Flag::SparseFormat];

fn main() {
    let fid = Fidelity::from_cli(&cli::parse_or_exit(FLAGS));
    let arch = ArchConfig::default();

    println!("Fig. 9 — area and power of SpNeRF\n");

    // Representative workload: the lego scene (mid-density).
    let scene = build_scene(SceneId::Lego, &fid);
    let eval = evaluate_scene(&scene, &fid);
    let sim = simulate_frame(&eval.workload, &arch);

    println!("On-chip SRAM inventory:\n");
    let rows: Vec<Vec<String>> = sram_inventory()
        .iter()
        .map(|m| vec![m.name.to_string(), format!("{:?}", m.module), format_bytes(m.bytes)])
        .collect();
    print_table(&["Buffer", "Module", "Size"], &rows);
    println!("\nSGPU SRAM: {}   (paper: 571 KB)", format_bytes(sram_bytes(Module::Sgpu)));
    println!("MLP buffer SRAM: {}   (paper: 58 KB)", format_bytes(sram_bytes(Module::Mlp)));

    let area = AreaModel::default();
    let breakdown = area.breakdown(&arch);
    let total_area = area.total_mm2(&arch);
    println!("\n(a) Area breakdown (total {total_area:.2} mm², paper: 7.7 mm²)\n");
    let rows: Vec<Vec<String>> = breakdown
        .iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                format!("{:.2} mm²", c.value),
                format!("{:.1} %", c.value / total_area * 100.0),
            ]
        })
        .collect();
    print_table(&["Component", "Area", "Share"], &rows);

    let power = EnergyParams::default().power(&sim, &arch);
    println!(
        "\n(b) Power breakdown (total {:.2} W, paper: 3 W; workload: {})\n",
        power.total_w, eval.workload.scene
    );
    let rows: Vec<Vec<String>> = power
        .components
        .iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                format!("{:.3} W", c.value),
                format!("{:.1} %", c.value / power.total_w * 100.0),
            ]
        })
        .collect();
    print_table(&["Component", "Power", "Share"], &rows);

    println!(
        "\nPaper observations reproduced: SRAM is a minority of area; the systolic\n\
         array dominates power (unlike prior designs where SRAM dominated)."
    );
}
