//! Renders one scene through all three data paths (dense ground truth,
//! VQRF gold decode, SpNeRF online decode) and writes PPM images.
//!
//! ```text
//! cargo run --release --example render_scene [scene] [side] [image] [threads]
//! cargo run --release --example render_scene ship 96 128 4
//! ```
//!
//! `threads` (default 1; `0` = all cores) renders through the tile-parallel
//! engine — the images are bitwise-identical at every thread count.
//!
//! Output files: `target/render_<scene>_{gt,vqrf,spnerf,unmasked}.ppm`.

use std::fs::File;
use std::io::BufWriter;

use spnerf::core::SpNerfConfig;
use spnerf::pipeline::{scene_by_name, PipelineBuilder, RenderRequest, RenderSource};
use spnerf::render::image::ImageBuffer;
use spnerf::render::renderer::RenderConfig;
use spnerf::render::scene::{default_camera, SceneId};
use spnerf::voxel::vqrf::VqrfConfig;

fn main() -> Result<(), spnerf::Error> {
    let args: Vec<String> = std::env::args().collect();
    let scene_id = args.get(1).map(|s| scene_by_name(s)).transpose()?.unwrap_or(SceneId::Lego);
    let side: u32 = args.get(2).map(|s| s.parse()).transpose()?.unwrap_or(72);
    let image: u32 = args.get(3).map(|s| s.parse()).transpose()?.unwrap_or(96);
    let threads: usize = args.get(4).map(|s| s.parse()).transpose()?.unwrap_or(1);

    println!("rendering '{scene_id}' at grid {side}³, image {image}×{image}, {threads} thread(s)…");
    let scene = PipelineBuilder::new(scene_id)
        .grid_side(side)
        .vqrf_config(VqrfConfig { codebook_size: 512, kmeans_iters: 3, ..Default::default() })
        .spnerf_config(SpNerfConfig {
            subgrid_count: 32,
            table_size: 16 * 1024,
            codebook_size: 512,
        })
        .mlp_seed(42)
        .render_config(RenderConfig {
            samples_per_ray: 128,
            parallelism: threads,
            ..Default::default()
        })
        .build()?;

    let session = scene.session();
    let camera = default_camera(image, image, 1, 8);

    let gt = session.render(&RenderRequest::single(RenderSource::GroundTruth, camera))?;
    println!(
        "  ground truth: {:.1} samples/ray marched, {:.2} shaded",
        gt.stats.avg_marched_per_ray(),
        gt.stats.avg_shaded_per_ray()
    );
    save(&gt.images[0], &format!("target/render_{scene_id}_gt.ppm"))?;

    for (source, tag, label) in [
        (RenderSource::Vqrf, "vqrf", "VQRF gold decode:      "),
        (RenderSource::spnerf_masked(), "spnerf", "SpNeRF online decode:  "),
        (RenderSource::spnerf_unmasked(), "unmasked", "without bitmap masking:"),
    ] {
        let resp = session.render(
            &RenderRequest::single(source, camera).with_reference(RenderSource::GroundTruth),
        )?;
        println!("  {label} PSNR {:.2} dB", resp.mean_psnr());
        save(&resp.images[0], &format!("target/render_{scene_id}_{tag}.ppm"))?;
    }

    println!("PPM images written under target/.");
    Ok(())
}

fn save(img: &ImageBuffer, path: &str) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    img.write_ppm(&mut w)
}
