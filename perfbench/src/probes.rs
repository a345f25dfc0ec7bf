//! Layer probes of the traced run.
//!
//! A workload's timed phase leaves some layers idle (paper-stills never
//! bakes, orbit-warp never serves). The traced run still gives each idle
//! layer one timed call, on the workload's own scene where the layer takes
//! one, so every per-layer time is a measurement on every workload. Probes
//! run after the timed phase and move no end-to-end metric.

use spnerf::accel::{simulate_frame, ArchConfig};
use spnerf::dram::timing::DramTimings;
use spnerf::dram::trace::sequential;
use spnerf::dram::MemoryController;
use spnerf::pipeline::{RenderRequest, RenderSource, Scene};
use spnerf::render::bake::bake;
use spnerf::render::scene::default_camera;
use spnerf::trajectory::{ReuseMode, TrajectorySpec};
use spnerf::voxel::mip::OccupancyMip;

use crate::harness::{median, ms, timed};
use crate::{serve, Ctx};

const PX: u32 = 64;
const ORBIT_FRAMES: usize = 8;

/// Probes every layer whose per-layer time the workload left at 0.
pub fn idle_layers(ctx: &mut Ctx, scene: &Scene) {
    ctx.tracer.set_recording(true);
    ctx.tracer.set_op(0);
    let open = ctx.tracer.begin("probe");
    let idle = |ctx: &Ctx, name| ctx.layers.get(name) == 0.0;
    let masked = RenderSource::spnerf_masked();

    if idle(ctx, "voxel.mip.build_ms") {
        let support = scene.model().masked().support_bitmap();
        let (_, t) = timed(|| ctx.tracer.span("voxel.mip", || OccupancyMip::build(support)));
        ctx.layers.set("voxel.mip.build_ms", ms(t));
    }
    if idle(ctx, "render.bake.ms") {
        let (_, t) = timed(|| ctx.tracer.span("render.bake", || bake(scene.grid(), scene.mlp())));
        ctx.layers.set("render.bake.ms", ms(t));
    }
    if idle(ctx, "pipeline.render.ms") {
        let request = RenderRequest::single(masked, default_camera(PX, PX, 0, 16));
        let (resp, t) =
            timed(|| ctx.tracer.span("pipeline.render", || scene.session().render(&request)));
        let resp = resp.expect("a single-camera request renders");
        let (_, t_sim) = timed(|| {
            ctx.tracer.span("accel", || simulate_frame(&resp.workload, &ArchConfig::default()))
        });
        let layers = &mut ctx.layers;
        layers.set("pipeline.render.ms", ms(t));
        let per_sample = t.as_secs_f64() * 1e9 / resp.stats.samples_marched.max(1) as f64;
        layers.set("render.ns_per_marched_sample", per_sample);
        if layers.get("accel.simulate_us") == 0.0 {
            layers.set("accel.simulate_us", t_sim.as_secs_f64() * 1e6);
        }
    }
    if idle(ctx, "trajectory.frame0_ms") {
        let session = scene.session();
        let mut stream = session.trajectory_stream(masked, ReuseMode::warp());
        stream.reset();
        let mut frame_ms = Vec::new();
        for cam in TrajectorySpec::orbit(ORBIT_FRAMES, PX, PX).cameras() {
            let (_, t) = timed(|| ctx.tracer.span("trajectory", || stream.advance(&cam)));
            frame_ms.push(ms(t));
        }
        stream.reset();
        ctx.layers.set("trajectory.frame0_ms", frame_ms[0]);
        ctx.layers.set("trajectory.warp_frame_ms", median(&frame_ms[1..]));
    }
    if idle(ctx, "dram.run_trace_ms") {
        let stream = sequential(0, scene.model().footprint().total_bytes() as u64, 256);
        let mut controller = MemoryController::new(DramTimings::lpddr4_3200());
        let (_, t) = timed(|| ctx.tracer.span("dram", || controller.run_trace(&stream)));
        ctx.layers.set("dram.run_trace_ms", ms(t));
    }
    if idle(ctx, "serve.run_s") {
        serve::probe(ctx);
    }
    ctx.tracer.end(open);
}
