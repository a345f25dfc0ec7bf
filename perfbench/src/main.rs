//! `perfbench` — the SpNeRF workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-stills|orbit-warp|serve-churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each invocation runs one workload in its
//! own process through the public API (the `spnerf` facade, the layer
//! crates and `spnerf_serve::server::run`):
//!
//! 1. **Set-up**, repeated three to nine times (the median is `setup_s`):
//!    scene builds, forced lazy set-up (mip pyramids), PSNR references,
//!    trace synthesis and one untimed warm-up operation.
//! 2. **Timed phase** of `--seconds`: a closed loop of one client. Every
//!    operation's outputs are checked; a failed check or a shed serve
//!    request counts as a failed operation.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics
//! (host time, tracing off). With `--trace 1` the set-up stages are called
//! one by one in `PipelineBuilder::build` order, spans are recorded around
//! every call into a layer, alternate rounds of the timed phase run with
//! recording on and off (their difference is the tracing overhead), and the
//! last line carries the per-layer metrics. Spans are written to
//! `.bench_trace/` as Chrome trace-event JSON when the run ends.
//!
//! Deterministic counters (render stats, modelled accelerator and DRAM
//! outputs, resident bytes, serve report counters) are pinned in a ledger
//! under `.bench_trace/`, keyed by a digest of the executable: every run of
//! the same build must reproduce them exactly, and a mismatch is a failure.

mod harness;
mod layers;
mod orbit;
mod probes;
mod serve;
mod stills;

use std::path::Path;
use std::process::ExitCode;

use spnerf::accel::{Bottleneck, FrameSimResult};
use spnerf_testkit::digest::Fnv64;

use crate::harness::{Checks, Metrics, Tracer, OUT_DIR};
use crate::layers::Layers;

/// Render worker threads for every workload (the benchmark host's core
/// count); the benchmark starts no other threads.
pub const PARALLELISM: usize = 2;

/// Tile side of the render engine: small tiles keep both workers busy to
/// the end of a 64×64 frame.
pub const TILE_SIZE: u32 = 8;

/// Set-up repetitions of an untraced run: at least three, and up to nine
/// while the set-ups so far took under three seconds, so that a short
/// set-up still gets a steady median.
const MIN_SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 9;
const SETUP_BUDGET_S: f64 = 3.0;

/// Everything one workload run shares.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tracer: Tracer,
    pub checks: Checks,
    pub layers: Layers,
}

/// Runs a workload's set-up repeatedly (once when traced), reports the
/// median as `setup_s`, and returns the last set-up's state.
pub fn repeated_setup<T>(ctx: &mut Ctx, m: &mut Metrics, setup: fn(&mut Ctx) -> T) -> T {
    let mut times: Vec<f64> = Vec::new();
    loop {
        let (state, t) = harness::timed(|| setup(ctx));
        times.push(t.as_secs_f64());
        let spent: f64 = times.iter().sum();
        let more =
            times.len() < MIN_SETUP_REPS || times.len() < MAX_SETUP_REPS && spent < SETUP_BUDGET_S;
        if ctx.traced || !more {
            m.push("setup_s", harness::median(&times), "s");
            return state;
        }
        // Dropped before the next set-up, so the peak holds one set-up.
        drop(state);
    }
}

const WORKLOADS: [&str; 3] = ["paper-stills", "orbit-warp", "serve-churn"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload paper-stills|orbit-warp|serve-churn \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| **w == value);
                workload = Some(*w.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let build_id = build_id();
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        tracer: Tracer::new(args.trace),
        checks: Checks::new(build_id),
        layers: Layers::default(),
    };
    let mut end_to_end = match args.workload {
        "paper-stills" => stills::run(&mut ctx),
        "orbit-warp" => orbit::run(&mut ctx),
        _ => serve::run(&mut ctx),
    };
    end_to_end.push("peak_rss_mb", harness::peak_rss_mb(), "MiB");

    if let Err(e) = ctx.checks.save() {
        eprintln!("perfbench: cannot write the determinism ledger: {e}");
    }
    if ctx.traced {
        let path =
            Path::new(OUT_DIR).join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(OUT_DIR).and_then(|()| ctx.tracer.write(&path)) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
        }
    }
    let metrics: Metrics = if ctx.traced { ctx.layers.report(&ctx.tracer) } else { end_to_end };

    // The package enables no feature of the workspace crates.
    println!(
        "{{\"fingerprint\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"features\": \"default\", \"render_parallelism\": {PARALLELISM}, \
         \"git_commit\": \"{}\", \"rustc\": \"{}\", \"build_id\": \"{}\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_commit(),
        env!("PERFBENCH_RUSTC_VERSION"),
        build_id.map_or("unknown".to_string(), |id| format!("{id:016x}")),
    );
    let c = &ctx.checks;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        c.incorrect == 0,
        c.attempted.max(1),
        c.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}

/// Digest of the running executable: runs of one build share a ledger.
fn build_id() -> Option<u64> {
    let bytes = std::fs::read(std::env::current_exe().ok()?).ok()?;
    let mut h = Fnv64::new();
    h.write(&bytes);
    Some(h.finish())
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it (`unknown` outside a git checkout).
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".to_string() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(hash) = read(reference) {
        return hash.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `accel.bottleneck` as a number: 1 SGPU, 2 MLP, 3 DRAM.
pub fn bottleneck_code(b: Bottleneck) -> f64 {
    match b {
        Bottleneck::Sgpu => 1.0,
        Bottleneck::Mlp => 2.0,
        Bottleneck::Dram => 3.0,
    }
}

/// Ledger value of one simulated frame.
pub fn sim_digest(sim: &FrameSimResult) -> u64 {
    let a = &sim.activity;
    harness::digest_u64s(&[
        sim.cycles,
        sim.sgpu_cycles,
        sim.mlp_cycles,
        sim.dram_cycles,
        bottleneck_code(sim.bottleneck) as u64,
        sim.fps.to_bits(),
        sim.systolic_utilization.to_bits(),
        a.samples_marched,
        a.samples_shaded,
        a.macs,
        a.sram_bits,
        a.dram_bytes,
    ])
}

/// Records the modelled accelerator outputs of one frame as per-layer
/// metrics.
pub fn report_sim(layers: &mut Layers, sim: &FrameSimResult) {
    layers.set("accel.cycles", sim.cycles as f64);
    layers.set("accel.fps", sim.fps);
    layers.set("accel.sgpu_cycles", sim.sgpu_cycles as f64);
    layers.set("accel.mlp_cycles", sim.mlp_cycles as f64);
    layers.set("accel.dram_cycles", sim.dram_cycles as f64);
    layers.set("accel.bottleneck", bottleneck_code(sim.bottleneck));
}
