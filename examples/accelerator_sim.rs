//! Runs the cycle-level accelerator simulation for one scene: measures the
//! frame workload with the reference renderer, extrapolates to 800×800,
//! simulates the pipeline, and prints FPS, bottleneck, utilization and the
//! area/power breakdowns.
//!
//! ```text
//! cargo run --release --example accelerator_sim [scene]
//! ```

use spnerf::accel::asic::{AreaModel, EnergyParams};
use spnerf::accel::sim::pipeline::{simulate_frame, ArchConfig, SgpuModel};
use spnerf::accel::Bottleneck;
use spnerf::core::{MaskMode, SpNerfConfig};
use spnerf::pipeline::{scene_by_name, PipelineBuilder, RenderRequest, RenderSource};
use spnerf::render::renderer::RenderConfig;
use spnerf::render::scene::{default_camera, SceneId};
use spnerf::render::vec3::Vec3;
use spnerf::voxel::vqrf::VqrfConfig;

fn main() -> Result<(), spnerf::Error> {
    let args: Vec<String> = std::env::args().collect();
    let scene_id = args.get(1).map(|s| scene_by_name(s)).transpose()?.unwrap_or(SceneId::Hotdog);

    // Build the model at a mid resolution for quick measurement.
    println!("building '{scene_id}' and measuring its frame workload…");
    let scene = PipelineBuilder::new(scene_id)
        .grid_side(72)
        .vqrf_config(VqrfConfig { codebook_size: 512, kmeans_iters: 3, ..Default::default() })
        .spnerf_config(SpNerfConfig {
            subgrid_count: 32,
            table_size: 16 * 1024,
            codebook_size: 512,
        })
        .mlp_seed(42)
        .render_config(RenderConfig { samples_per_ray: 128, ..Default::default() })
        .build()?;

    let session = scene.session();
    let camera = default_camera(48, 48, 1, 8);
    let resp = session.render(&RenderRequest::single(RenderSource::spnerf_masked(), camera))?;
    let workload = resp.workload.at_paper_resolution();
    println!(
        "workload @800×800: {:.1}M samples marched, {:.2}M shaded, model {:.1} MiB",
        workload.stats.samples_marched as f64 / 1e6,
        workload.stats.samples_shaded as f64 / 1e6,
        workload.model_bytes as f64 / (1024.0 * 1024.0)
    );

    // Exercise the functional SGPU on a few samples (hardware-faithful path).
    let mut sgpu = SgpuModel::new(scene.model(), MaskMode::Masked);
    for i in 0..1000 {
        let g =
            Vec3::new((i as f32 * 0.61) % 70.0, (i as f32 * 0.37) % 70.0, (i as f32 * 0.83) % 70.0);
        let _ = sgpu.decode_sample(g);
    }
    println!(
        "functional SGPU: {} GID samples, {} BLU lookups ({:.1}% occupied), {} HMU lookups",
        sgpu.gid.samples(),
        sgpu.blu.lookups(),
        sgpu.blu.hit_rate() * 100.0,
        sgpu.hmu.lookups()
    );

    // Cycle-level frame simulation at the paper's 1 GHz operating point.
    let arch = ArchConfig::default();
    let result = simulate_frame(&workload, &arch);
    println!("\ncycle simulation @1 GHz:");
    println!("  frame cycles : {:.2}M", result.cycles as f64 / 1e6);
    println!("  FPS          : {:.2}", result.fps);
    println!(
        "  bottleneck   : {}",
        match result.bottleneck {
            Bottleneck::Sgpu => "SGPU sample stream",
            Bottleneck::Mlp => "MLP systolic array",
            Bottleneck::Dram => "DRAM model streaming",
        }
    );
    println!(
        "  engine cycles: SGPU {:.2}M | MLP {:.2}M | DRAM {:.2}M",
        result.sgpu_cycles as f64 / 1e6,
        result.mlp_cycles as f64 / 1e6,
        result.dram_cycles as f64 / 1e6
    );
    println!("  systolic util: {:.1} %", result.systolic_utilization * 100.0);

    let area = AreaModel::default();
    println!("\narea breakdown ({:.2} mm² total):", area.total_mm2(&arch));
    for c in area.breakdown(&arch) {
        println!("  {:<16} {:>6.2} mm²", c.name, c.value);
    }
    let power = EnergyParams::default().power(&result, &arch);
    println!("\npower breakdown ({:.2} W total):", power.total_w);
    for c in power.components {
        println!("  {:<16} {:>6.3} W", c.name, c.value);
    }
    Ok(())
}
