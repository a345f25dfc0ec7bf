//! `paper-stills`: the paper's own path at paper VQRF fidelity.
//!
//! Set-up builds `mic` at its paper side 128 with a 4096-entry codebook
//! (3 Lloyd iterations on an 8192-vector subsample) at K = 64 / T = 32768,
//! so k-means dominates `setup_s`. The timed phase renders 64×64
//! masked-decode stills at 128 samples per ray with skipping off and the
//! per-sample MLP, over a seed-ordered cycle of orbit views: march, decode,
//! interpolation and MLP do nearly all the work; skipping, warp, bake and
//! serve do none.

use std::time::Instant;

use spnerf::accel::{simulate_frame, ArchConfig, FrameSimResult};
use spnerf::core::SpNerfConfig;
use spnerf::dram::energy::EnergyModel;
use spnerf::dram::timing::DramTimings;
use spnerf::dram::trace::sequential;
use spnerf::dram::MemoryController;
use spnerf::pipeline::{PipelineBuilder, RenderRequest, RenderResponse, RenderSource, Scene};
use spnerf::render::camera::PinholeCamera;
use spnerf::render::image::ImageBuffer;
use spnerf::render::renderer::{RenderConfig, RenderStats, SkipMode};
use spnerf::render::scene::{build_grid, default_camera, SceneId};
use spnerf::voxel::vqrf::VqrfConfig;
use spnerf_testkit::digest::{digest_image, digest_stats};
use spnerf_testkit::fixtures::MLP_SEED;

use crate::harness::{all_finite, digest_u64s, median, ms, percentile, timed, Metrics, Rng};
use crate::layers::run_stages;
use crate::{probes, repeated_setup, report_sim, sim_digest, Ctx, PARALLELISM, TILE_SIZE};

const SCENE: SceneId = SceneId::Mic;
const SIDE: u32 = 128;
const CODEBOOK: usize = 4096;
const LLOYD_ITERS: usize = 3;
const SUBSAMPLE: usize = 8192;
const PX: u32 = 64;
const SAMPLES_PER_RAY: usize = 128;
/// Orbit views in the cycle the timed phase walks.
const VIEWS: usize = 16;
/// Views whose masked PSNR against ground truth is checked on every render.
const PSNR_VIEWS: [usize; 4] = [0, 4, 8, 12];
/// Masked-vs-ground-truth PSNR floor of those views, dB (they measured
/// 44.24 to 45.65 dB when the benchmark was written).
const PSNR_FLOOR_DB: f64 = 43.0;

fn vqrf_config() -> VqrfConfig {
    VqrfConfig {
        codebook_size: CODEBOOK,
        kmeans_iters: LLOYD_ITERS,
        kmeans_subsample: SUBSAMPLE,
        ..Default::default()
    }
}

fn render_config() -> RenderConfig {
    RenderConfig {
        samples_per_ray: SAMPLES_PER_RAY,
        parallelism: PARALLELISM,
        tile_size: TILE_SIZE,
        skip_mode: SkipMode::Off,
        ..Default::default()
    }
}

fn camera(view: usize) -> PinholeCamera {
    default_camera(PX, PX, view, VIEWS)
}

/// One still through a fresh session, so no memoized render is reused.
fn still(scene: &Scene, source: RenderSource, view: usize) -> RenderResponse {
    scene
        .session_with(render_config())
        .render(&RenderRequest::single(source, camera(view)))
        .expect("a single-camera request renders")
}

struct Prepared {
    scene: Scene,
    /// Ground truth of [`PSNR_VIEWS`], in order.
    references: Vec<ImageBuffer>,
}

pub fn run(ctx: &mut Ctx) -> Metrics {
    let mut m = Metrics::default();
    let prepared = repeated_setup(ctx, &mut m, setup);
    measure(ctx, &prepared, &mut m);
    if ctx.traced {
        probes::idle_layers(ctx, &prepared.scene);
    }
    m
}

fn setup(ctx: &mut Ctx) -> Prepared {
    ctx.tracer.set_op(0);
    let open = ctx.tracer.begin("setup");
    let spnerf_cfg = SpNerfConfig::default();
    let scene = if ctx.traced {
        let grid = run_stages(
            &mut ctx.tracer,
            &mut ctx.layers,
            || build_grid(SCENE, SIDE),
            &vqrf_config(),
            &spnerf_cfg,
            MLP_SEED,
        );
        let builder = PipelineBuilder::from_grid(SCENE.name(), grid)
            .vqrf_config(vqrf_config())
            .spnerf_config(spnerf_cfg)
            .mlp_seed(MLP_SEED)
            .render_config(render_config());
        let (scene, t) = timed(|| ctx.tracer.span("pipeline.build", || builder.build()));
        ctx.layers.add("setup.builder_s", t.as_secs_f64());
        scene
    } else {
        PipelineBuilder::new(SCENE)
            .grid_side(SIDE)
            .vqrf_config(vqrf_config())
            .spnerf_config(spnerf_cfg)
            .mlp_seed(MLP_SEED)
            .render_config(render_config())
            .build()
    }
    .expect("paper-stills pipeline builds");

    let references: Vec<ImageBuffer> = PSNR_VIEWS
        .iter()
        .map(|&v| {
            let gt = ctx
                .tracer
                .span("pipeline.reference", || still(&scene, RenderSource::GroundTruth, v));
            gt.images.into_iter().next().expect("one image per camera")
        })
        .collect();

    // Warm-up: one untimed operation, also the source of the per-scene
    // accelerator and DRAM model inputs.
    let warm =
        ctx.tracer.span("pipeline.render", || still(&scene, RenderSource::spnerf_masked(), 0));
    let sim = ctx.tracer.span("accel", || {
        simulate_frame(&warm.workload.at_paper_resolution(), &ArchConfig::default())
    });
    for problem in pin_view(ctx, 0, &warm, &sim) {
        ctx.checks.fail(problem);
    }
    dram_model(ctx, &warm);

    let model = scene.model();
    let report = model.report();
    let checks = &mut ctx.checks;
    checks.pin("stills/resident_bytes", scene.resident_bytes() as u64);
    checks.pin(
        "stills/model",
        digest_u64s(&[
            scene.vqrf().nnz() as u64,
            scene.vqrf().kept_count() as u64,
            report.points as u64,
            report.stored as u64,
            report.collisions as u64,
            report.max_load_factor.to_bits(),
        ]),
    );
    let layers = &mut ctx.layers;
    layers.set("pipeline.resident_bytes", scene.resident_bytes() as f64);
    layers.set("core.memory_reduction", model.memory_reduction_vs(scene.vqrf()));
    report_sim(layers, &sim);
    ctx.tracer.end(open);
    Prepared { scene, references }
}

/// The DRAM conformance model over this scene's per-frame streams: the
/// SpNeRF model stream and the sparse-format metadata stream.
fn dram_model(ctx: &mut Ctx, warm: &RenderResponse) {
    let timings = DramTimings::lpddr4_3200();
    let energy = EnergyModel::lpddr4();
    let ((seq, fmt), t) = timed(|| {
        ctx.tracer.span("dram", || {
            let seq_trace = sequential(0, warm.workload.model_bytes as u64, 256);
            let fmt_trace = sequential(0, warm.workload.format_bytes as u64, 256);
            (
                MemoryController::new(timings).run_trace(&seq_trace),
                MemoryController::new(timings).run_trace(&fmt_trace),
            )
        })
    });
    let energy_pj = ((energy.energy_j(&seq) + energy.energy_j(&fmt)) * 1e12).round();
    ctx.checks.pin(
        "stills/dram",
        digest_u64s(&[
            seq.cycles,
            seq.row_hits,
            seq.row_misses,
            fmt.cycles,
            fmt.row_hits,
            fmt.row_misses,
            energy_pj as u64,
        ]),
    );
    let layers = &mut ctx.layers;
    layers.set("dram.run_trace_ms", ms(t));
    layers.set("dram.seq.row_hits", seq.row_hits as f64);
    layers.set("dram.seq.row_misses", seq.row_misses as f64);
    layers.set("dram.format.cycles", fmt.cycles as f64);
    layers.set("dram.energy_pj", energy_pj);
}

/// Pins one view's deterministic outputs — pixels, render stats and the
/// modelled paper-resolution frame — and returns the mismatches.
fn pin_view(
    ctx: &mut Ctx,
    view: usize,
    resp: &RenderResponse,
    sim: &FrameSimResult,
) -> Vec<String> {
    let checks = &mut ctx.checks;
    [
        checks.verify(format!("stills/view{view}/image"), digest_image(&resp.images[0])),
        checks.verify(format!("stills/view{view}/stats"), digest_stats(&resp.stats)),
        checks.verify(format!("stills/view{view}/accel"), sim_digest(sim)),
    ]
    .into_iter()
    .filter_map(Result::err)
    .collect()
}

fn measure(ctx: &mut Ctx, prepared: &Prepared, m: &mut Metrics) {
    let Prepared { scene, references } = prepared;
    let arch = ArchConfig::default();
    let order = Rng::new(ctx.seed).permutation(VIEWS);
    // The traced run alternates untraced and traced cycles of views.
    let min_ops = if ctx.traced { 2 * VIEWS } else { VIEWS };
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut sim_us = Vec::new();
    let mut first_cycle = RenderStats::default();
    let mut total = RenderStats::default();
    let start = Instant::now();
    let mut i = 0;
    while i < min_ops || start.elapsed().as_secs_f64() < ctx.seconds {
        let recording = ctx.traced && (i / VIEWS) % 2 == 1;
        if ctx.traced {
            ctx.tracer.set_recording(recording);
        }
        ctx.tracer.set_op(i as u64 + 1);
        let view = order[i % VIEWS];
        let open = ctx.tracer.begin("op");
        let (resp, dt) = timed(|| {
            ctx.tracer.span("pipeline.render", || still(scene, RenderSource::spnerf_masked(), view))
        });
        let (sim, st) = timed(|| {
            ctx.tracer.span("accel", || simulate_frame(&resp.workload.at_paper_resolution(), &arch))
        });
        ctx.tracer.end(open);

        let image = &resp.images[0];
        let mut problems = pin_view(ctx, view, &resp, &sim);
        if !all_finite(image) {
            problems.push(format!("view {view}: non-finite pixels"));
        }
        if let Some(k) = PSNR_VIEWS.iter().position(|&v| v == view) {
            let psnr = image.psnr(&references[k]);
            if psnr < PSNR_FLOOR_DB {
                problems.push(format!(
                    "view {view}: masked PSNR {psnr:.3} dB below the {PSNR_FLOOR_DB} dB floor"
                ));
            }
        }
        ctx.checks.op(&problems);

        if recording {
            traced_ms.push(ms(dt));
        } else {
            untraced_ms.push(ms(dt));
        }
        sim_us.push(st.as_secs_f64() * 1e6);
        if i < VIEWS {
            first_cycle += resp.stats;
        }
        total += resp.stats;
        i += 1;
    }

    let all_ms: Vec<f64> = untraced_ms.iter().chain(&traced_ms).copied().collect();
    let busy_s: f64 = all_ms.iter().sum::<f64>() / 1e3;
    if ctx.traced {
        let layers = &mut ctx.layers;
        layers.set("trace.overhead_ms", median(&traced_ms) - median(&untraced_ms));
        layers.set("pipeline.render.ms", median(&all_ms));
        let frames = VIEWS as f64;
        layers.set("render.samples_marched", first_cycle.samples_marched as f64 / frames);
        layers.set("render.samples_shaded", first_cycle.samples_shaded as f64 / frames);
        layers.set("render.samples_skipped", first_cycle.samples_skipped as f64 / frames);
        layers.set("render.ns_per_marched_sample", busy_s * 1e9 / total.samples_marched as f64);
        layers.set(
            "render.shaded_per_marched",
            first_cycle.samples_shaded as f64 / first_cycle.samples_marched as f64,
        );
        layers.set("accel.simulate_us", median(&sim_us));
    }
    let frames_per_s = all_ms.len() as f64 / busy_s;
    m.push("frames_per_s", frames_per_s, "frames/s");
    m.push("frame_ms_p50", median(&all_ms), "ms");
    m.push("frame_ms_p90", percentile(&all_ms, 90.0), "ms");
    // One still is one request.
    m.push("requests_per_s", frames_per_s, "req/s");
}
