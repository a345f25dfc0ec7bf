//! Quickstart: the whole SpNeRF flow in one page, through the unified
//! pipeline front door.
//!
//! [`PipelineBuilder`] runs the offline stages exactly once — procedural
//! scene, VQRF compression, SpNeRF hash-mapping preprocessing, MLP — and
//! a [`RenderSession`] serves every render/PSNR request against the cached
//! bundle.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use spnerf::core::SpNerfConfig;
use spnerf::pipeline::{PipelineBuilder, RenderRequest, RenderSource};
use spnerf::render::scene::{default_camera, SceneId};
use spnerf::voxel::memory::format_bytes;
use spnerf::voxel::vqrf::VqrfConfig;

fn main() -> Result<(), spnerf::Error> {
    // 1. Configure the five-stage pipeline in one place and build the
    //    artifact bundle (sparse grid → VQRF → hash tables + bitmap → MLP).
    let scene = PipelineBuilder::new(SceneId::Lego)
        .grid_side(64)
        .vqrf_config(VqrfConfig { codebook_size: 256, kmeans_iters: 3, ..Default::default() })
        .spnerf_config(SpNerfConfig { subgrid_count: 16, table_size: 8192, codebook_size: 256 })
        .mlp_seed(42)
        .build()?;

    let grid = scene.grid();
    println!(
        "scene: {} 64³, occupancy {:.2} % ({} non-zero voxels)",
        scene.label(),
        grid.occupancy() * 100.0,
        grid.occupied_count()
    );
    println!(
        "VQRF: compressed {}, restored-for-rendering {}",
        format_bytes(scene.vqrf().compressed_footprint().total_bytes()),
        format_bytes(scene.vqrf().restored_footprint().total_bytes()),
    );
    println!(
        "SpNeRF: model {} → {:.1}x smaller than the restored grid; {} build collisions",
        format_bytes(scene.model().footprint().total_bytes()),
        scene.model().memory_reduction_vs(scene.vqrf()),
        scene.model().report().collisions,
    );

    // 2. Serve typed render requests against the bundle. The ground-truth
    //    reference is rendered once and cached across both comparisons.
    let session = scene.session_with(spnerf::render::renderer::RenderConfig {
        samples_per_ray: 64,
        ..Default::default()
    });
    let camera = default_camera(48, 48, 0, 8);

    let masked = session.render(
        &RenderRequest::single(RenderSource::spnerf_masked(), camera)
            .with_reference(RenderSource::GroundTruth),
    )?;
    println!(
        "render: {} rays, {:.1} samples marched/ray, {:.2} shaded/ray",
        masked.stats.rays,
        masked.stats.avg_marched_per_ray(),
        masked.stats.avg_shaded_per_ray()
    );
    println!("PSNR (SpNeRF masked vs dense ground truth): {:.2} dB", masked.mean_psnr());

    let unmasked = session.render(
        &RenderRequest::single(RenderSource::spnerf_unmasked(), camera)
            .with_reference(RenderSource::GroundTruth),
    )?;
    println!("PSNR without bitmap masking (ablation):     {:.2} dB", unmasked.mean_psnr());

    // 3. The same response carries the workload the accelerator simulator
    //    consumes, extrapolated to the paper's 800×800 frames.
    let workload = masked.workload.at_paper_resolution();
    println!(
        "workload @800×800: {:.1}M samples marched, {:.2}M shaded",
        workload.stats.samples_marched as f64 / 1e6,
        workload.stats.samples_shaded as f64 / 1e6,
    );
    Ok(())
}
