//! Regenerates **Fig. 8**: per-scene (a) speedup and (b) energy-efficiency
//! improvement of the SpNeRF accelerator over the Jetson XNX and ONX.
//!
//! SpNeRF FPS comes from the cycle-level frame model at 1 GHz; Jetson FPS
//! from the calibrated VQRF roofline. Paper bands: speedup 52.4×–157.1×
//! (XNX, avg 95.1×) and 34.9×–112.2× (ONX, avg 63.5×); energy efficiency
//! 346.4×–1030.9× (XNX, avg 625.6×) and 288.7×–937.2× (ONX, avg 529.1×).
//!
//! ```text
//! cargo run --release -p spnerf-bench --bin fig8_speedup_energy [--quick] [--threads N]
//!     [--skip-mode MODE] [--source MODE] [--sparse-format F]
//! ```

use spnerf::accel::asic::EnergyParams;
use spnerf::accel::sim::pipeline::{simulate_frame, ArchConfig};
use spnerf::platforms::roofline::estimate_frame;
use spnerf::platforms::spec::PlatformSpec;
use spnerf::platforms::vqrf_workload::VqrfGpuWorkload;
use spnerf::render::scene::SceneId;
use spnerf_bench::cli::{self, Flag};
use spnerf_bench::{build_scene, evaluate_scene, mean, print_table, Fidelity};

const FLAGS: &[Flag] =
    &[Flag::Quick, Flag::Threads, Flag::SkipMode, Flag::Source, Flag::SparseFormat];

fn main() {
    let fid = Fidelity::from_cli(&cli::parse_or_exit(FLAGS));
    let arch = ArchConfig::default();
    let energy = EnergyParams::default();
    let xnx = PlatformSpec::xnx();
    let onx = PlatformSpec::onx();

    println!("Fig. 8 — normalized speedup and energy efficiency vs edge GPUs\n");

    let mut rows = Vec::new();
    let mut sp_x = Vec::new();
    let mut sp_o = Vec::new();
    let mut ee_x = Vec::new();
    let mut ee_o = Vec::new();
    let mut fps_all = Vec::new();

    for id in SceneId::all() {
        let scene = build_scene(id, &fid);
        let eval = evaluate_scene(&scene, &fid);
        let sim = simulate_frame(&eval.workload, &arch);
        let power = energy.power(&sim, &arch).total_w;
        fps_all.push(sim.fps);

        let gpu_w = VqrfGpuWorkload::new(
            scene.grid().dims().len(),
            eval.workload.stats.samples_marched as u64,
            eval.workload.stats.samples_shaded as u64,
            scene.vqrf().compressed_footprint().total_bytes(),
        );
        let fx = estimate_frame(&xnx, &gpu_w).fps();
        let fo = estimate_frame(&onx, &gpu_w).fps();

        let speed_x = sim.fps / fx;
        let speed_o = sim.fps / fo;
        let eff_sp = sim.fps / power;
        let eff_x = eff_sp / (fx / xnx.power_w);
        let eff_o = eff_sp / (fo / onx.power_w);
        sp_x.push(speed_x);
        sp_o.push(speed_o);
        ee_x.push(eff_x);
        ee_o.push(eff_o);

        rows.push(vec![
            id.name().to_string(),
            format!("{:.1}", sim.fps),
            format!("{:.2}", fx),
            format!("{:.2}", fo),
            format!("{:.1}x", speed_x),
            format!("{:.1}x", speed_o),
            format!("{:.0}x", eff_x),
            format!("{:.0}x", eff_o),
        ]);
    }

    print_table(
        &[
            "Scene",
            "SpNeRF FPS",
            "XNX FPS",
            "ONX FPS",
            "speedup/XNX",
            "speedup/ONX",
            "energy-eff/XNX",
            "energy-eff/ONX",
        ],
        &rows,
    );

    let fmt_band = |v: &Vec<f64>| {
        let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = v.iter().cloned().fold(0.0f64, f64::max);
        format!("{:.1}x – {:.1}x (avg {:.1}x)", min, max, mean(v))
    };
    println!("\n(a) Speedup");
    println!("  vs XNX: {}   (paper: 52.4x – 157.1x, avg 95.1x)", fmt_band(&sp_x));
    println!("  vs ONX: {}   (paper: 34.9x – 112.2x, avg 63.5x)", fmt_band(&sp_o));
    println!("\n(b) Energy efficiency");
    println!("  vs XNX: {}   (paper: 346.4x – 1030.9x, avg 625.6x)", fmt_band(&ee_x));
    println!("  vs ONX: {}   (paper: 288.7x – 937.2x, avg 529.1x)", fmt_band(&ee_o));
    println!("\nAverage SpNeRF FPS: {:.2}   (paper: 67.56)", mean(&fps_all));
}
