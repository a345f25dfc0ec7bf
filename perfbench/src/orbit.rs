//! `orbit-warp`: the temporal path.
//!
//! Set-up builds the five `spnerf_testkit` corpus archetypes at side 48
//! with a 128-entry codebook and forces each scene's occupancy pyramid. The
//! timed phase advances 8-frame 64×64 orbits through `TrajectoryStream`
//! (`ReuseMode::warp()`, masked source, `SkipMode::mip()`) from seed-drawn
//! start azimuths, in rounds of one orbit per scene: warp splat,
//! disocclusion and selective re-march dominate, k-means barely registers.

use std::time::{Duration, Instant};

use spnerf::accel::frame::FrameWorkload;
use spnerf::accel::{simulate_path, ArchConfig, PathSimResult};
use spnerf::pipeline::{PipelineBuilder, RenderRequest, RenderSource, Scene};
use spnerf::render::camera::PinholeCamera;
use spnerf::render::renderer::{RenderConfig, RenderStats, SkipMode};
use spnerf::render::temporal::TemporalFrame;
use spnerf::trajectory::{PathKind, ReuseMode, TrajectorySpec};
use spnerf_testkit::corpus::{generate, Archetype, CorpusSpec, CORPUS_SEED};
use spnerf_testkit::digest::{digest_image, digest_stats, Fnv64};
use spnerf_testkit::fixtures::{test_spnerf_config, test_vqrf_config, MLP_SEED};

use crate::harness::{all_finite, digest_u64s, median, ms, percentile, timed, Metrics, Rng};
use crate::layers::run_stages;
use crate::{probes, repeated_setup, report_sim, sim_digest, Ctx, PARALLELISM, TILE_SIZE};

const SIDE: u32 = 48;
const CODEBOOK: usize = 128;
const SUBGRIDS: usize = 16;
const TABLE_SIZE: usize = 4096;
const PX: u32 = 64;
const FRAMES: usize = 8;
const SAMPLES_PER_RAY: usize = 96;
/// Azimuth advanced per frame, radians (the standard test orbit's step).
const AZIMUTH_STEP: f32 = 0.045;
/// Start azimuth of the probe orbit each scene renders during set-up.
const PROBE_AZIMUTH: f32 = 0.35;
/// Start-azimuth advance per round: the golden angle spreads any number of
/// rounds evenly around each scene.
const GOLDEN_ANGLE: f64 = 2.399_963_229_728_653;

fn specs() -> Vec<CorpusSpec> {
    Archetype::ALL
        .iter()
        .enumerate()
        .map(|(i, a)| CorpusSpec::archetype_default(*a, SIDE, CORPUS_SEED + i as u64))
        .collect()
}

fn render_config() -> RenderConfig {
    RenderConfig {
        samples_per_ray: SAMPLES_PER_RAY,
        parallelism: PARALLELISM,
        tile_size: TILE_SIZE,
        skip_mode: SkipMode::mip(),
        ..Default::default()
    }
}

fn cameras(start_azimuth: f32) -> Vec<PinholeCamera> {
    let sweep = AZIMUTH_STEP * (FRAMES - 1) as f32;
    let kind = PathKind::Orbit { radius: 2.8, elevation: 0.45, start_azimuth, sweep };
    TrajectorySpec::new(kind, FRAMES, PX, PX).cameras()
}

/// One orbit advanced frame by frame, with each advance's host time.
struct Orbit {
    frames: Vec<TemporalFrame>,
    workloads: Vec<FrameWorkload>,
    latency: Vec<Duration>,
}

fn advance_orbit(ctx: &mut Ctx, scene: &Scene, cams: &[PinholeCamera], first_op: u64) -> Orbit {
    let session = scene.session();
    let mut stream = session.trajectory_stream(RenderSource::spnerf_masked(), ReuseMode::warp());
    stream.reset();
    let mut orbit = Orbit { frames: Vec::new(), workloads: Vec::new(), latency: Vec::new() };
    for (i, cam) in cams.iter().enumerate() {
        ctx.tracer.set_op(first_op + i as u64);
        let ((frame, workload), dt) =
            timed(|| ctx.tracer.span("trajectory", || stream.advance(cam)));
        orbit.frames.push(frame);
        orbit.workloads.push(workload);
        orbit.latency.push(dt);
    }
    stream.reset();
    orbit
}

/// Ledger value of an orbit: every frame's pixels and stats, and the
/// modelled path.
fn orbit_digest(orbit: &Orbit, path: &PathSimResult) -> u64 {
    let mut h = Fnv64::new();
    for f in &orbit.frames {
        h.write_u64(digest_image(&f.image));
        h.write_u64(digest_stats(&f.stats));
    }
    for f in &path.frames {
        h.write_u64(sim_digest(f));
    }
    h.write_u64(path.total_cycles);
    h.write_u64(path.total_dram_bytes);
    h.finish()
}

pub fn run(ctx: &mut Ctx) -> Metrics {
    let mut m = Metrics::default();
    let scenes = repeated_setup(ctx, &mut m, setup);
    measure(ctx, &scenes, &mut m);
    if ctx.traced {
        probes::idle_layers(ctx, &scenes[0]);
    }
    m
}

fn setup(ctx: &mut Ctx) -> Vec<Scene> {
    ctx.tracer.set_op(0);
    let open = ctx.tracer.begin("setup");
    let vqrf_cfg = test_vqrf_config(CODEBOOK);
    let spnerf_cfg = test_spnerf_config(SUBGRIDS, TABLE_SIZE, CODEBOOK);
    let arch = ArchConfig::default();
    let mut scenes = Vec::new();
    let mut reduction = 0.0;
    for (k, spec) in specs().iter().enumerate() {
        let grid = if ctx.traced {
            let gen = || generate(spec);
            run_stages(&mut ctx.tracer, &mut ctx.layers, gen, &vqrf_cfg, &spnerf_cfg, MLP_SEED)
        } else {
            generate(spec)
        };
        let builder = PipelineBuilder::from_grid(spec.label(), grid)
            .vqrf_config(vqrf_cfg)
            .spnerf_config(spnerf_cfg)
            .mlp_seed(MLP_SEED)
            .render_config(render_config());
        let (scene, t) = timed(|| ctx.tracer.span("pipeline.build", || builder.build()));
        let scene = scene.expect("orbit-warp corpus pipeline builds");
        let (_, t_mip) = timed(|| {
            ctx.tracer.span("voxel.mip", || scene.occupancy_mip(RenderSource::spnerf_masked()))
        });

        // Warm-up: one probe orbit per scene, pinned like every orbit.
        let probe = advance_orbit(ctx, &scene, &cameras(PROBE_AZIMUTH), 0);
        ctx.tracer.set_op(0);
        let path = ctx.tracer.span("accel", || simulate_path(&probe.workloads, &arch));
        ctx.checks.pin(format!("orbit/scene{k}/probe"), orbit_digest(&probe, &path));
        let report = scene.model().report();
        ctx.checks.pin(
            format!("orbit/scene{k}/model"),
            digest_u64s(&[
                scene.resident_bytes() as u64,
                scene.vqrf().nnz() as u64,
                report.stored as u64,
                report.collisions as u64,
            ]),
        );
        if k == 0 {
            report_sim(&mut ctx.layers, &path.frames[0]);
            ctx.layers
                .set("accel.path.amortized_cycles_per_frame", path.amortized_cycles_per_frame);
        }
        let layers = &mut ctx.layers;
        layers.add("setup.builder_s", t.as_secs_f64());
        layers.add("voxel.mip.build_ms", ms(t_mip));
        layers.add("pipeline.resident_bytes", scene.resident_bytes() as f64);
        reduction += scene.model().memory_reduction_vs(scene.vqrf());
        scenes.push(scene);
    }
    ctx.layers.set("core.memory_reduction", reduction / scenes.len() as f64);
    ctx.tracer.end(open);
    scenes
}

fn measure(ctx: &mut Ctx, scenes: &[Scene], m: &mut Metrics) {
    let arch = ArchConfig::default();
    let mut rng = Rng::new(ctx.seed);
    let offsets: Vec<f64> = scenes.iter().map(|_| rng.unit() * std::f64::consts::TAU).collect();
    let min_rounds = if ctx.traced { 2 } else { 1 };
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let (mut frame0_ms, mut warp_ms, mut still_ms, mut sim_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Counters of round 0, the same orbits on every run with this seed.
    let mut first_round = RenderStats::default();
    let mut first_round_later_rays = 0; // rays of frames 1.., which can warp
    let mut total_marched = 0;
    let mut orbits = 0;
    let start = Instant::now();
    let mut round = 0;
    while round < min_rounds || start.elapsed().as_secs_f64() < ctx.seconds {
        let recording = ctx.traced && round % 2 == 1;
        if ctx.traced {
            ctx.tracer.set_recording(recording);
        }
        for k in rng.permutation(scenes.len()) {
            let azimuth = offsets[k] + GOLDEN_ANGLE * round as f64;
            let cams = cameras((azimuth % std::f64::consts::TAU) as f32);
            let first_op = (orbits * FRAMES) as u64 + 1;
            let orbit = advance_orbit(ctx, &scenes[k], &cams, first_op);
            let (path, t_sim) =
                timed(|| ctx.tracer.span("accel", || simulate_path(&orbit.workloads, &arch)));
            sim_us.push(t_sim.as_secs_f64() * 1e6);
            let (still, t_still) = timed(|| {
                ctx.tracer.span("pipeline.render", || {
                    scenes[k]
                        .session()
                        .render(&RenderRequest::single(RenderSource::spnerf_masked(), cams[0]))
                })
            });
            still_ms.push(ms(t_still));
            let still = still.expect("a single-camera request renders");

            let key = format!("orbit/seed{}/orbit{orbits}", ctx.seed);
            let pinned = ctx.checks.verify(key, orbit_digest(&orbit, &path));
            for (i, frame) in orbit.frames.iter().enumerate() {
                let s = &frame.stats;
                let mut problems = Vec::new();
                if !all_finite(&frame.image) {
                    problems.push(format!("orbit {orbits} frame {i}: non-finite pixels"));
                }
                if s.rays_warped + s.rays_remarched != s.rays {
                    problems.push(format!(
                        "orbit {orbits} frame {i}: {} warped + {} re-marched != {} rays",
                        s.rays_warped, s.rays_remarched, s.rays
                    ));
                }
                if i == 0 {
                    if frame.image != still.images[0] {
                        problems.push(format!("orbit {orbits}: frame 0 differs from the still"));
                    }
                    if let Err(e) = &pinned {
                        problems.push(e.clone());
                    }
                }
                ctx.checks.op(&problems);

                let lat = ms(orbit.latency[i]);
                if recording { &mut traced_ms } else { &mut untraced_ms }.push(lat);
                if i == 0 { &mut frame0_ms } else { &mut warp_ms }.push(lat);
                total_marched += s.samples_marched;
                if round == 0 {
                    first_round += *s;
                    if i > 0 {
                        first_round_later_rays += s.rays;
                    }
                }
            }
            orbits += 1;
        }
        round += 1;
    }

    let all_ms: Vec<f64> = untraced_ms.iter().chain(&traced_ms).copied().collect();
    let busy_s: f64 = all_ms.iter().sum::<f64>() / 1e3;
    if ctx.traced {
        let per_frame = (scenes.len() * FRAMES) as f64;
        let per_orbit = scenes.len() as f64;
        let r = &first_round;
        let layers = &mut ctx.layers;
        layers.set("trace.overhead_ms", median(&traced_ms) - median(&untraced_ms));
        layers.set("pipeline.render.ms", median(&still_ms));
        layers.set("render.samples_marched", r.samples_marched as f64 / per_frame);
        layers.set("render.samples_shaded", r.samples_shaded as f64 / per_frame);
        layers.set("render.samples_skipped", r.samples_skipped as f64 / per_frame);
        layers.set("render.ns_per_marched_sample", busy_s * 1e9 / total_marched as f64);
        layers.set("render.shaded_per_marched", r.samples_shaded as f64 / r.samples_marched as f64);
        layers.set(
            "render.skip_ratio",
            r.samples_skipped as f64 / (r.samples_marched + r.samples_skipped) as f64,
        );
        layers.set("trajectory.frame0_ms", median(&frame0_ms));
        layers.set("trajectory.warp_frame_ms", median(&warp_ms));
        layers.set("trajectory.rays_warped", r.rays_warped as f64 / per_orbit);
        layers.set("trajectory.rays_remarched", r.rays_remarched as f64 / per_orbit);
        layers.set("trajectory.warp_ratio", r.rays_warped as f64 / first_round_later_rays as f64);
        layers.set("accel.simulate_us", median(&sim_us));
    }
    m.push("frames_per_s", all_ms.len() as f64 / busy_s, "frames/s");
    m.push("frame_ms_p50", median(&all_ms), "ms");
    m.push("frame_ms_p90", percentile(&all_ms, 90.0), "ms");
    // One orbit is one request.
    m.push("requests_per_s", orbits as f64 / busy_s, "req/s");
}
