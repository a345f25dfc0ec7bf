//! Regenerates **Fig. 2**: (a) the VQRF runtime split on A100/ONX/XNX and
//! (b) the voxel-grid sparsity of each scene.
//!
//! The paper profiles VQRF with PyTorch on real hardware; offline we model
//! the same workload (restore + gather + compute) on the Table I rooflines.
//! The reproduction target is the *shape*: edge platforms spend
//! 4.79×–5.14× more of their time on memory access than the A100, and
//! non-zero voxels occupy 2.01 %–6.48 % of the grid.
//!
//! With `--corpus` the sweep runs over the testkit's five procedural
//! archetypes (0.5 %–20 % occupancy) instead of the eight scenes, showing
//! how the runtime split shifts across the sparsity/structure space.
//!
//! ```text
//! cargo run --release -p spnerf-bench --bin fig2_profiling [--quick] [--threads N] [--corpus]
//!     [--skip-mode MODE] [--source MODE]
//! ```

use spnerf::platforms::roofline::estimate_frame;
use spnerf::platforms::spec::PlatformSpec;
use spnerf::platforms::vqrf_workload::VqrfGpuWorkload;
use spnerf_bench::cli::{self, Flag};
use spnerf_bench::{
    build_sweep_scene, evaluate_scene, mean, print_table, sweep_items, Fidelity, SourceMode,
};

const FLAGS: &[Flag] = &[Flag::Quick, Flag::Threads, Flag::Corpus, Flag::SkipMode, Flag::Source];

fn main() {
    let args = cli::parse_or_exit(FLAGS);
    let fid = Fidelity::from_cli(&args);
    let sweep = if args.corpus { "corpus archetypes" } else { "Synthetic-NeRF scenes" };
    println!(
        "Fig. 2 — profiling VQRF ({} preset, {sweep}, {} source)\n",
        preset_name(&fid),
        fid.source.name()
    );

    let mut sparsity_rows = Vec::new();
    let mut baked_rows = Vec::new();
    let mut fractions: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let platforms = [PlatformSpec::a100(), PlatformSpec::onx(), PlatformSpec::xnx()];

    for item in sweep_items(&fid, args.corpus) {
        let scene = build_sweep_scene(&item, &fid);
        let eval = evaluate_scene(&scene, &fid);
        if fid.source == SourceMode::Baked {
            // The bake-and-defer headline: the view-dependence MLP runs once
            // per pixel instead of once per shaded sample.
            baked_rows.push(vec![
                item.label(),
                eval.workload.samples_shaded.to_string(),
                eval.workload.pixels_shaded.to_string(),
                format!("{:.1}x", eval.workload.mlp_collapse()),
                format!("{:.2} dB", eval.psnr_baked.unwrap_or(f64::NAN)),
            ]);
        }
        let occ = scene.grid().occupancy();
        sparsity_rows.push(vec![
            item.label(),
            format!("{:.2} %", occ * 100.0),
            format!("{:.2} %", (1.0 - occ) * 100.0),
        ]);
        let w = VqrfGpuWorkload::new(
            scene.grid().dims().len(),
            eval.workload.samples_marched as u64,
            eval.workload.samples_shaded as u64,
            scene.vqrf().compressed_footprint().total_bytes(),
        );
        for (i, p) in platforms.iter().enumerate() {
            fractions[i].push(estimate_frame(p, &w).memory_fraction());
        }
    }

    println!("(a) Time distribution (memory-access share of frame time)\n");
    let mem_rows: Vec<Vec<String>> = platforms
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let f = mean(&fractions[i]);
            vec![
                p.name.to_string(),
                format!("{:.1} %", f * 100.0),
                format!("{:.1} %", (1.0 - f) * 100.0),
            ]
        })
        .collect();
    print_table(&["Platform", "Memory access", "Computation"], &mem_rows);

    let a100 = mean(&fractions[0]);
    let onx = mean(&fractions[1]);
    let xnx = mean(&fractions[2]);
    println!();
    println!(
        "Edge/A100 memory-share ratio: ONX {:.2}x, XNX {:.2}x  (paper: 4.79x–5.14x)",
        onx / a100,
        xnx / a100
    );

    println!("\n(b) Voxel grid data sparsity\n");
    print_table(&["Scene", "Non-zero", "Zero"], &sparsity_rows);
    println!("\nPaper: non-zero points occupy 2.01 % – 6.48 % of the voxel grid.");

    if !baked_rows.is_empty() {
        println!("\n(c) Deferred shading: MLP evaluations per frame (baked source)\n");
        print_table(
            &["Scene", "Samples shaded", "Pixels shaded", "Collapse", "PSNR vs GT"],
            &baked_rows,
        );
        println!("\nThe deferred view MLP runs once per pixel; the per-sample path runs once");
        println!("per shaded sample. \"Collapse\" is the ratio between the two.");
    }
}

fn preset_name(fid: &Fidelity) -> &'static str {
    if fid.grid_side.is_some() {
        "quick"
    } else {
        "paper"
    }
}
