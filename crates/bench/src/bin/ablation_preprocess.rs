//! Ablation study of the preprocessing design choices (DESIGN.md §5):
//! insertion order (importance-descending vs natural) and collision density
//! merging. Not a paper figure — this quantifies the offline policies this
//! reproduction adds to keep the masked PSNR close to VQRF, so their
//! contribution is visible rather than silent.
//!
//! Each policy variant respecializes only the preprocessing stage
//! ([`spnerf::Scene::with_spnerf_opts`]); grids, VQRF models and the
//! ground-truth renders are built once per scene.
//!
//! ```text
//! cargo run --release -p spnerf-bench --bin ablation_preprocess [--quick] [--threads N]
//!     [--skip-mode MODE]
//! ```

use spnerf::core::{InsertionOrder, PreprocessOptions};
use spnerf::pipeline::{RenderRequest, RenderSource};
use spnerf::render::image::ImageBuffer;
use spnerf::render::scene::SceneId;
use spnerf::Scene;
use spnerf_bench::cli::{self, Flag};
use spnerf_bench::{build_scene, camera, mean, print_table, Fidelity};

const FLAGS: &[Flag] = &[Flag::Quick, Flag::Threads, Flag::SkipMode];

fn main() -> Result<(), spnerf::Error> {
    let fid = Fidelity::from_cli(&cli::parse_or_exit(FLAGS));
    println!("Ablation — preprocessing policies (insertion order, density merge)\n");

    let variants: [(&str, PreprocessOptions); 4] = [
        ("importance + merge (default)", PreprocessOptions::default()),
        (
            "importance, no merge",
            PreprocessOptions { skip_density_merge: true, ..Default::default() },
        ),
        (
            "natural + merge",
            PreprocessOptions { order: InsertionOrder::Natural, ..Default::default() },
        ),
        (
            "natural, no merge",
            PreprocessOptions { order: InsertionOrder::Natural, skip_density_merge: true },
        ),
    ];

    let scenes = [SceneId::Lego, SceneId::Ship, SceneId::Chair];
    let cam = camera(&fid);

    // Use a deliberately tight table so collisions are frequent enough for
    // the policies to matter (quarter of the preset size).
    let mut sp_cfg = fid.spnerf_config();
    sp_cfg.table_size = (sp_cfg.table_size / 4).max(64);

    // Offline stages + ground truth, once per scene.
    let mut prepared: Vec<(Scene, Vec<ImageBuffer>)> = Vec::new();
    for id in scenes {
        let scene = build_scene(id, &fid);
        let gt = scene.session().render(&RenderRequest::single(RenderSource::GroundTruth, cam))?;
        prepared.push((scene, gt.images));
    }

    let mut rows = Vec::new();
    for (name, opts) in variants {
        let mut psnrs = Vec::new();
        let mut collisions = 0usize;
        for (scene, gt_images) in &prepared {
            let variant = scene.with_spnerf_opts(sp_cfg, opts)?;
            collisions += variant.model().report().collisions;
            let resp = variant.session().render(
                &RenderRequest::single(RenderSource::spnerf_masked(), cam)
                    .with_reference_images(gt_images),
            )?;
            psnrs.push(resp.mean_psnr());
        }
        rows.push(vec![
            name.to_string(),
            format!("{:.2} dB", mean(&psnrs)),
            collisions.to_string(),
        ]);
    }

    print_table(&["Policy", "mean masked PSNR", "collisions"], &rows);
    println!(
        "\nReading: density merging is the dominant lever (≈1–2 dB under collision\n\
         pressure); insertion order redistributes *which* points lose and is\n\
         roughly PSNR-neutral on average while bounding the worst case (the\n\
         brightest voxels never alias). Collision counts are order-invariant."
    );
    Ok(())
}
