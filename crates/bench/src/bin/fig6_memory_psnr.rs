//! Regenerates **Fig. 6**: (a) per-scene memory-size reduction of SpNeRF
//! over the restored VQRF grid (paper: 21.07× average) and (b) PSNR of
//! VQRF vs SpNeRF before/after bitmap masking.
//!
//! With `--corpus` the sweep runs over the testkit's five procedural
//! archetypes instead of the eight scenes, so the reduction factor and the
//! masking gain can be read across the whole sparsity/structure space.
//!
//! ```text
//! cargo run --release -p spnerf-bench --bin fig6_memory_psnr [--quick] [--threads N] [--corpus]
//!     [--skip-mode MODE]
//! ```

use spnerf::voxel::memory::format_bytes;
use spnerf_bench::cli::{self, Flag};
use spnerf_bench::{build_sweep_scene, evaluate_scene, mean, print_table, sweep_items, Fidelity};

const FLAGS: &[Flag] = &[Flag::Quick, Flag::Threads, Flag::Corpus, Flag::SkipMode];

fn main() {
    let args = cli::parse_or_exit(FLAGS);
    let fid = Fidelity::from_cli(&args);
    let sweep = if args.corpus { "corpus archetypes" } else { "Synthetic-NeRF scenes" };
    println!("Fig. 6 — memory size reduction and PSNR ({sweep})\n");

    let mut mem_rows = Vec::new();
    let mut psnr_rows = Vec::new();
    let mut reductions = Vec::new();
    let mut psnr_gaps = Vec::new();
    let mut mask_gains = Vec::new();

    for item in sweep_items(&fid, args.corpus) {
        let scene = build_sweep_scene(&item, &fid);
        let eval = evaluate_scene(&scene, &fid);

        let restored = scene.vqrf().restored_footprint();
        let sp = scene.model().footprint();
        let reduction = scene.model().memory_reduction_vs(scene.vqrf());
        reductions.push(reduction);
        mem_rows.push(vec![
            item.label(),
            format_bytes(restored.total_bytes()),
            format_bytes(sp.total_bytes()),
            format!("{reduction:.1}x"),
        ]);

        psnr_gaps.push(eval.psnr_vqrf - eval.psnr_masked);
        mask_gains.push(eval.psnr_masked - eval.psnr_unmasked);
        psnr_rows.push(vec![
            item.label(),
            format!("{:.2} dB", eval.psnr_vqrf),
            format!("{:.2} dB", eval.psnr_unmasked),
            format!("{:.2} dB", eval.psnr_masked),
        ]);
    }

    println!("(a) Voxel grid memory size (VQRF restored vs SpNeRF model)\n");
    print_table(&["Scene", "VQRF", "SpNeRF", "Reduction"], &mem_rows);
    println!("\nAverage reduction: {:.2}x   (paper: 21.07x average)", mean(&reductions));

    println!("\n(b) PSNR (reference: dense-grid render)\n");
    print_table(&["Scene", "VQRF", "SpNeRF before mask", "SpNeRF after mask"], &psnr_rows);
    println!(
        "\nAverage PSNR gap vs VQRF after masking: {:.2} dB (paper: comparable)",
        mean(&psnr_gaps)
    );
    println!(
        "Average PSNR recovered by bitmap masking: {:.2} dB (paper: masking is crucial)",
        mean(&mask_gains)
    );
}
