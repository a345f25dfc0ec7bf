//! Regenerates the **fig9-style temporal-reuse figure**: the amortized
//! per-frame cost of a camera path when frame *N* forward-warps frame
//! *N−1*'s radiance and re-marches only disoccluded, depth-edge, and
//! validation rays, versus rendering every frame independently.
//!
//! Each sweep scene renders an 8-frame deterministic path (orbit, dolly,
//! and seeded handheld jitter; `--trajectory` picks one) in both reuse
//! modes (`--reuse-mode` picks one), and the cycle/DRAM models report
//! amortized samples, cycles, and DRAM bytes per frame over the whole path.
//! Frame 0 always pays a full render, so the headline ratio compares
//! frames 1.. only. Both modes render through `render_trajectory` and
//! simulate through [`simulate_path`].
//!
//! With `--corpus` the sweep runs the five procedural archetypes instead
//! of the eight scenes; CI greps the machine-readable `REUSE` lines to
//! assert the clusters archetype's ≥ 2× floor.
//!
//! ```text
//! cargo run --release -p spnerf-bench --bin fig9_temporal [--quick] [--threads N] [--corpus]
//!     [--skip-mode MODE] [--source MODE] [--sparse-format F]
//!     [--trajectory orbit|dolly|jitter] [--reuse-mode off|warp]
//! ```

use spnerf::accel::sim::pipeline::{simulate_path, ArchConfig, PathSimResult};
use spnerf::pipeline::RenderSource;
use spnerf::trajectory::{ReuseMode, TrajectoryRequest, TrajectoryResponse};
use spnerf_bench::cli::{self, Flag, TrajectoryKind};
use spnerf_bench::{build_sweep_scene, print_table, sweep_items, Fidelity, SourceMode};

/// Frames per path — frame 0 pays a full render, frames 1.. amortize.
const FRAMES: usize = 8;

const FLAGS: &[Flag] = &[
    Flag::Quick,
    Flag::Threads,
    Flag::Corpus,
    Flag::SkipMode,
    Flag::Source,
    Flag::SparseFormat,
    Flag::Trajectory,
    Flag::ReuseMode,
];

fn main() {
    let args = cli::parse_or_exit(FLAGS);
    let fid = Fidelity::from_cli(&args);
    let arch = ArchConfig::default();
    let source = match fid.source {
        SourceMode::SpNerf => RenderSource::spnerf_masked(),
        SourceMode::Baked => RenderSource::Baked,
    };
    let paths: Vec<TrajectoryKind> =
        args.trajectory.map_or_else(|| TrajectoryKind::ALL.to_vec(), |k| vec![k]);
    let modes: Vec<ReuseMode> =
        args.reuse_mode.map_or_else(|| vec![ReuseMode::Off, ReuseMode::warp()], |m| vec![m]);
    let sweep = if args.corpus { "corpus archetypes" } else { "Synthetic-NeRF scenes" };
    println!(
        "Fig. 9 (temporal) — {FRAMES}-frame trajectory reuse ({sweep}, {} source)\n",
        fid.source.name()
    );

    let mut rows = Vec::new();
    let mut reuse_lines = Vec::new();
    for item in sweep_items(&fid, args.corpus) {
        let scene = build_sweep_scene(&item, &fid);
        let session = scene.session();
        for kind in &paths {
            let spec = kind.spec(FRAMES, fid.image);
            let mut by_mode: Vec<(ReuseMode, TrajectoryResponse, PathSimResult)> = Vec::new();
            for mode in &modes {
                let request = TrajectoryRequest::new(source, spec).with_mode(*mode);
                let resp = session.render_trajectory(&request).expect("non-empty path");
                let path = simulate_path(&resp.workloads, &arch);
                rows.push(vec![
                    item.label(),
                    kind.name().to_string(),
                    mode.name().to_string(),
                    resp.stats.samples_marched.to_string(),
                    resp.samples_marched_after_first().to_string(),
                    resp.stats.rays_warped.to_string(),
                    resp.stats.rays_remarched.to_string(),
                    format!("{:.0}", path.amortized_samples_per_frame),
                    format!("{:.0}", path.amortized_cycles_per_frame),
                    format!("{:.0}", path.amortized_dram_bytes_per_frame),
                    format!("{:.4}", resp.max_validation_error()),
                ]);
                by_mode.push((*mode, resp, path));
            }
            // The frames-1.. amortization headline, also emitted as a
            // machine-readable line for the CI floor assertion.
            if let (Some(off), Some(warp)) = (
                by_mode.iter().find(|(m, _, _)| !m.is_on()),
                by_mode.iter().find(|(m, _, _)| m.is_on()),
            ) {
                let off_after = off.1.samples_marched_after_first();
                let warp_after = warp.1.samples_marched_after_first();
                let ratio = off_after as f64 / (warp_after as f64).max(1.0);
                reuse_lines.push(format!(
                    "REUSE scene={} path={} off_after={off_after} warp_after={warp_after} \
                     ratio={ratio:.2}",
                    item.label(),
                    kind.name(),
                ));
            }
        }
    }

    print_table(
        &[
            "Scene",
            "Path",
            "Mode",
            "Samples",
            "After-f0",
            "Warped",
            "Remarched",
            "Samp/f",
            "Cyc/f",
            "DRAM/f",
            "MaxErr",
        ],
        &rows,
    );

    if !reuse_lines.is_empty() {
        println!("\nFrames 1.. amortization (off / warp marched samples):\n");
        for line in &reuse_lines {
            println!("{line}");
        }
    }
    println!(
        "\nFrame 0 of both modes is bitwise-identical (conformance-pinned); off mode is\n\
         bitwise a loop of independent per-frame renders at every thread count."
    );
}
