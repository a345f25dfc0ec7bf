//! Regenerates the **fig8-style sparse-format sweep**: occupancy-vs-format
//! index-size crossover across the sweep, and the format-dependent DRAM
//! metadata traffic the accelerator's cycle model charges for each encoding.
//!
//! Rendered pixels are bitwise-identical in every format (the index sits
//! outside the rendering fetch path — the conformance suite pins this), so
//! this binary renders each scene **once** and replays the measured
//! workload under every encoding's per-lookup access cost.
//!
//! With `--corpus` the sweep runs the five procedural archetypes
//! (0.5 %–20 % occupancy), which is where the `auto` selector's COO ↔
//! rank-select crossover is visible.
//!
//! ```text
//! cargo run --release -p spnerf-bench --bin fig8_formats [--quick] [--threads N] [--corpus]
//!     [--skip-mode MODE] [--sparse-format F]
//! ```

use spnerf::accel::sim::pipeline::{simulate_frame, ArchConfig};
use spnerf::pipeline::{RenderRequest, RenderSource};
use spnerf::voxel::memory::format_bytes;
use spnerf::voxel::sparse::{
    predicted_index_bytes, select_format, FormatKind, OccupancyStats, SparseFormat, SparseIndex,
};
use spnerf_bench::cli::{self, Flag};
use spnerf_bench::{build_sweep_scene, camera, print_table, sweep_items, Fidelity};

const FLAGS: &[Flag] =
    &[Flag::Quick, Flag::Threads, Flag::Corpus, Flag::SkipMode, Flag::SparseFormat];

fn main() {
    let args = cli::parse_or_exit(FLAGS);
    let fid = Fidelity::from_cli(&args);
    let arch = ArchConfig::default();
    let sweep = if args.corpus { "corpus archetypes" } else { "Synthetic-NeRF scenes" };
    println!("Fig. 8 (formats) — sparse-format index sizes and metadata traffic ({sweep})\n");

    let mut size_rows = Vec::new();
    let mut traffic_rows = Vec::new();
    let mut picked = Vec::new();

    for item in sweep_items(&fid, args.corpus) {
        let scene = build_sweep_scene(&item, &fid);
        let stats = OccupancyStats::from_bitmap(scene.model().bitmap());
        let auto_pick = select_format(&stats);
        picked.push(auto_pick);

        let mut row = vec![item.label(), format!("{:.2}%", stats.occupancy() * 100.0)];
        for kind in FormatKind::ALL {
            let bytes = predicted_index_bytes(kind, &stats);
            let marker = if kind == auto_pick { " *" } else { "" };
            row.push(format!("{}{marker}", format_bytes(bytes)));
        }
        row.push(scene.sparse_kind().name().to_string());
        size_rows.push(row);

        // One render measures the lookup count; every encoding then replays
        // the same workload under its own per-lookup cost (pixels and
        // marching are format-independent by construction).
        let resp = scene
            .session()
            .render(&RenderRequest::single(RenderSource::spnerf_masked(), camera(&fid)))
            .expect("primary render succeeds");
        let base = resp.workload.clone().with_format_traffic(0).at_paper_resolution();
        let base_sim = simulate_frame(&base, &arch);
        for kind in FormatKind::ALL {
            let index = SparseIndex::from_bitmap(kind, scene.model().bitmap());
            let cost = index.access_cost();
            let w = resp
                .workload
                .clone()
                .with_format_traffic(resp.stats.samples_marched * cost.bytes_per_lookup)
                .at_paper_resolution();
            let sim = simulate_frame(&w, &arch);
            let dram_delta = 100.0 * (sim.dram_cycles as f64 - base_sim.dram_cycles as f64)
                / base_sim.dram_cycles.max(1) as f64;
            traffic_rows.push(vec![
                item.label(),
                kind.name().to_string(),
                format!("{} B", cost.bytes_per_lookup),
                format_bytes(w.format_bytes),
                format!("+{dram_delta:.1}%"),
                format!("{:.1}", sim.fps),
            ]);
        }
    }

    println!("(a) Index bytes by encoding (* = auto's pick from occupancy stats)\n");
    let mut headers = vec!["Scene", "Occupancy"];
    let names: Vec<&str> = FormatKind::ALL.iter().map(|k| k.name()).collect();
    headers.extend(names.iter().copied());
    headers.push("built");
    print_table(&headers, &size_rows);

    let distinct: std::collections::HashSet<_> = picked.iter().collect();
    println!(
        "\nauto picked {} distinct format(s) across the sweep: {}",
        distinct.len(),
        picked.iter().map(|k| k.name()).collect::<Vec<_>>().join(", ")
    );

    println!("\n(b) Per-frame metadata traffic at 800x800 (DRAM delta vs no-metadata model)\n");
    print_table(
        &["Scene", "Format", "B/lookup", "Metadata/frame", "DRAM cycles", "FPS"],
        &traffic_rows,
    );
    println!("\nPixels are bitwise-identical across every format (conformance-pinned).");
}
