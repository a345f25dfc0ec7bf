//! Regenerates **Fig. 7**: PSNR vs (a) subgrid number at a fixed 16 k hash
//! table and (b) hash-table size at the fixed 64-subgrid partition.
//!
//! The paper's knee is the reproduction target: PSNR rises steeply and then
//! saturates, motivating the K = 64 / T = 32 k operating point.
//!
//! Each sweep point respecializes only the SpNeRF stage
//! ([`spnerf::Scene::with_spnerf`]) against the scene's shared grid, VQRF
//! model and ground-truth render — compression and geometry are built once
//! per scene, not once per point.
//!
//! ```text
//! cargo run --release -p spnerf-bench --bin fig7_sweeps [--quick] [--threads N] [--skip-mode MODE]
//! ```

use spnerf::pipeline::{RenderRequest, RenderSource};
use spnerf::render::image::ImageBuffer;
use spnerf::render::scene::SceneId;
use spnerf::Scene;
use spnerf_bench::cli::{self, Flag};
use spnerf_bench::{build_scene, camera, mean, print_table, Fidelity, SpNerfConfig};

const FLAGS: &[Flag] = &[Flag::Quick, Flag::Threads, Flag::SkipMode];

fn main() -> Result<(), spnerf::Error> {
    let fid = Fidelity::from_cli(&cli::parse_or_exit(FLAGS));
    let quick = fid.grid_side.is_some();
    println!("Fig. 7 — PSNR vs subgrid number and hash-table size\n");

    // Evaluate on a subset of scenes (the sweeps are averaged in the paper).
    let scenes: &[SceneId] = if quick {
        &[SceneId::Mic, SceneId::Lego]
    } else {
        &[SceneId::Mic, SceneId::Lego, SceneId::Chair, SceneId::Ship]
    };

    let cam = camera(&fid);

    // Build each scene bundle and its ground-truth reference once.
    let mut prepared: Vec<(Scene, Vec<ImageBuffer>)> = Vec::new();
    for &id in scenes {
        let scene = build_scene(id, &fid);
        let gt = scene.session().render(&RenderRequest::single(RenderSource::GroundTruth, cam))?;
        prepared.push((scene, gt.images));
    }

    let psnr_for = |k: usize, t: usize| -> Result<f64, spnerf::Error> {
        let mut values = Vec::new();
        for (scene, gt_images) in &prepared {
            let sp_cfg =
                SpNerfConfig { subgrid_count: k, table_size: t, codebook_size: fid.codebook };
            let point = scene.with_spnerf(sp_cfg)?;
            let resp = point.session().render(
                &RenderRequest::single(RenderSource::spnerf_masked(), cam)
                    .with_reference_images(gt_images),
            )?;
            values.push(resp.mean_psnr());
        }
        Ok(mean(&values))
    };

    // (a) Subgrid sweep at T = 16 k (paper's panel (a) setting).
    let t_fixed = if quick { 1024 } else { 16 * 1024 };
    let subgrids: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128];
    println!("(a) PSNR vs subgrid number (hash table size = {t_fixed})\n");
    let mut rows = Vec::new();
    for &k in subgrids {
        rows.push(vec![k.to_string(), format!("{:.2} dB", psnr_for(k, t_fixed)?)]);
    }
    print_table(&["Subgrids K", "PSNR"], &rows);

    // (b) Table-size sweep at K = 64.
    let k_fixed = if quick { 16 } else { 64 };
    let tables: &[usize] =
        if quick { &[64, 256, 1024, 4096] } else { &[1024, 2048, 4096, 8192, 16384, 32768, 65536] };
    println!("\n(b) PSNR vs hash table size (subgrid number = {k_fixed})\n");
    let mut rows = Vec::new();
    for &t in tables {
        rows.push(vec![
            if t % 1024 == 0 { format!("{}k", t / 1024) } else { t.to_string() },
            format!("{:.2} dB", psnr_for(k_fixed, t)?),
        ]);
    }
    print_table(&["Table size T", "PSNR"], &rows);

    println!(
        "\nPaper: PSNR increases rapidly then saturates; K = 64 and T = 32k are chosen\n\
         because larger values yield only marginal improvements."
    );
    Ok(())
}
