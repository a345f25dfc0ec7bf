//! `serve-churn`: scene builds (writes) beside renders (reads).
//!
//! `server::run` serves a seed-synthesized trace — Zipf s = 1.1 over the
//! five `ServeConfig::standard()` catalog scenes, a mean inter-arrival of
//! 128 ticks, a 32k-tick horizon — through the standard 4 MB scene cache,
//! which holds about two of the five scenes, so every miss re-runs the
//! scene build and bake in the request path. Arrivals are an open loop in
//! virtual time, replayed as fast as the host allows; each timed operation
//! is one whole run over the trace.

use std::time::Instant;

use spnerf_serve::report::validate_report_json;
use spnerf_serve::server::{run as serve, Catalog, RunMeta, ServeConfig, ServeOutcome};
use spnerf_serve::traffic::{Trace, TrafficConfig};
use spnerf_testkit::corpus::{generate, Archetype, CorpusSpec, CORPUS_SEED};
use spnerf_testkit::fixtures::{test_spnerf_config, test_vqrf_config, MLP_SEED};

use crate::harness::{digest_u64s, median, ms, percentile, timed, Metrics};
use crate::layers::run_stages;
use crate::{probes, repeated_setup, Ctx, PARALLELISM};

const DURATION_TICKS: u64 = 32_000;
const ZIPF_S: f64 = 1.1;
/// At a 96-tick mean, 7 of 40 seeds shed requests; at 128 none of 120 did.
const MEAN_INTERARRIVAL: u64 = 128;
/// Seed and horizon of the fixed warm-up trace (independent of `--seed`).
const WARMUP_SEED: u64 = 0;
const WARMUP_TICKS: u64 = 3_000;

fn config() -> ServeConfig {
    let mut cfg = ServeConfig::standard();
    cfg.render.parallelism = PARALLELISM;
    cfg
}

fn traffic(seed: u64, duration_ticks: u64) -> (Trace, RunMeta) {
    let cfg = TrafficConfig {
        seed,
        duration_ticks,
        zipf_s: ZIPF_S,
        mean_interarrival: MEAN_INTERARRIVAL,
        ..TrafficConfig::default()
    };
    let meta =
        RunMeta { trace_source: "synthetic".to_string(), seed, zipf_s: ZIPF_S, duration_ticks };
    (Trace::synthesize(&cfg), meta)
}

/// Ledger value of a run's report counters and response digest.
fn outcome_digest(out: &ServeOutcome) -> u64 {
    let r = &out.report;
    let c = &r.cache;
    let responses =
        u64::from_str_radix(r.responses_digest.trim_start_matches("0x"), 16).unwrap_or(0);
    digest_u64s(&[
        r.requests,
        r.served,
        r.shed,
        r.final_tick,
        c.hits,
        c.misses,
        c.evictions,
        c.peak_resident_bytes,
        c.final_resident_bytes,
        r.latency_ticks.p50.to_bits(),
        r.latency_ticks.p99.to_bits(),
        responses,
    ])
}

/// The output checks of one run: a valid report whose accounting adds up.
fn problems(out: &ServeOutcome) -> Vec<String> {
    let r = &out.report;
    let mut problems = Vec::new();
    if let Err(errors) = validate_report_json(&r.to_json()) {
        problems.push(format!("report fails its schema: {}", errors.join("; ")));
    }
    if r.served + r.shed != r.requests {
        problems.push(format!("{} served + {} shed != {} requests", r.served, r.shed, r.requests));
    }
    problems
}

pub fn run(ctx: &mut Ctx) -> Metrics {
    let mut m = Metrics::default();
    let (trace, meta) = repeated_setup(ctx, &mut m, setup);
    measure(ctx, &trace, &meta, &mut m);
    if ctx.traced {
        let cfg = config();
        let scene = Catalog::corpus(trace.scenes, cfg.catalog).build(0, cfg.render.samples_per_ray);
        probes::idle_layers(ctx, &scene);
    }
    m
}

/// The serve layers' probe for workloads that do not serve: trace
/// synthesis, one catalog build and one run over the short warm-up trace.
pub fn probe(ctx: &mut Ctx) {
    let cfg = config();
    let ((trace, meta), t_trace) =
        timed(|| ctx.tracer.span("serve.trace", || traffic(WARMUP_SEED, WARMUP_TICKS)));
    let catalog = Catalog::corpus(trace.scenes, cfg.catalog);
    let (_, t_build) =
        timed(|| ctx.tracer.span("serve.catalog", || catalog.build(0, cfg.render.samples_per_ray)));
    let (_, t_run) = timed(|| ctx.tracer.span("serve", || serve(&trace, &cfg, &meta)));
    let layers = &mut ctx.layers;
    layers.set("serve.trace.synthesize_ms", ms(t_trace));
    layers.set("serve.catalog.build_ms", ms(t_build));
    layers.set("serve.run_s", t_run.as_secs_f64());
}

fn setup(ctx: &mut Ctx) -> (Trace, RunMeta) {
    ctx.tracer.set_op(0);
    let open = ctx.tracer.begin("setup");
    let cfg = config();
    let (synthesized, t) =
        timed(|| ctx.tracer.span("serve.trace", || traffic(ctx.seed, DURATION_TICKS)));
    ctx.layers.set("serve.trace.synthesize_ms", ms(t));
    if ctx.traced {
        catalog_layers(ctx, &synthesized.0, &cfg);
    }

    // Warm-up: one untimed run over a short fixed trace.
    let (warm_trace, warm_meta) = traffic(WARMUP_SEED, WARMUP_TICKS);
    let warm = ctx.tracer.span("serve", || serve(&warm_trace, &cfg, &warm_meta));
    for p in problems(&warm) {
        ctx.checks.fail(format!("warm-up: {p}"));
    }
    ctx.checks.pin("serve/warmup", outcome_digest(&warm));
    ctx.tracer.end(open);
    synthesized
}

/// The traced run's catalog layers: every catalog scene's set-up stages
/// called one by one, its `Catalog::build`, and its bake.
fn catalog_layers(ctx: &mut Ctx, trace: &Trace, cfg: &ServeConfig) {
    let cat = cfg.catalog;
    let catalog = Catalog::corpus(trace.scenes, cat);
    let vqrf_cfg = test_vqrf_config(cat.codebook);
    let spnerf_cfg = test_spnerf_config(cat.subgrids, cat.table_size, cat.codebook);
    for i in 0..catalog.len() {
        // The same spec `Catalog::corpus` derives for scene `i`.
        let archetype = Archetype::ALL[i % Archetype::ALL.len()];
        let spec = CorpusSpec::archetype_default(archetype, cat.side, CORPUS_SEED + i as u64);
        let gen = || generate(&spec);
        run_stages(&mut ctx.tracer, &mut ctx.layers, gen, &vqrf_cfg, &spnerf_cfg, MLP_SEED);
        let (scene, t_build) = timed(|| {
            ctx.tracer.span("serve.catalog", || catalog.build(i, cfg.render.samples_per_ray))
        });
        let (_, t_bake) = timed(|| ctx.tracer.span("render.bake", || scene.baked_grid()));
        let layers = &mut ctx.layers;
        layers.add("serve.catalog.build_ms", ms(t_build));
        layers.add("setup.builder_s", t_build.as_secs_f64());
        layers.add("render.bake.ms", ms(t_bake));
        layers.add("pipeline.resident_bytes", scene.resident_bytes() as f64);
        layers.add("core.memory_reduction", scene.model().memory_reduction_vs(scene.vqrf()));
        ctx.checks.pin(format!("serve/catalog{i}/resident_bytes"), scene.resident_bytes() as u64);
    }
    let mean = ctx.layers.get("core.memory_reduction") / catalog.len() as f64;
    ctx.layers.set("core.memory_reduction", mean);
}

fn measure(ctx: &mut Ctx, trace: &Trace, meta: &RunMeta, m: &mut Metrics) {
    let cfg = config();
    let min_runs = if ctx.traced { 4 } else { 3 };
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut requests_per_s, mut frames_per_s, mut frame_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    let start = Instant::now();
    let mut runs = 0;
    while runs < min_runs || start.elapsed().as_secs_f64() < ctx.seconds {
        let recording = ctx.traced && runs % 2 == 1;
        if ctx.traced {
            ctx.tracer.set_recording(recording);
        }
        ctx.tracer.set_op(runs as u64 + 1);
        let (out, dt) = timed(|| ctx.tracer.span("serve", || serve(trace, &cfg, meta)));
        let secs = dt.as_secs_f64();
        let r = &out.report;

        let mut problems = problems(&out);
        let key = format!("serve/seed{}/run", ctx.seed);
        if let Err(e) = ctx.checks.verify(key, outcome_digest(&out)) {
            problems.push(e);
        }
        ctx.checks.ops(r.requests, &problems);
        if problems.is_empty() {
            ctx.checks.shed(r.shed);
        }

        let frames: usize =
            out.responses.iter().map(|resp| trace.requests[resp.seq as usize].kind.frames()).sum();
        requests_per_s.push(r.served as f64 / secs);
        frames_per_s.push(frames as f64 / secs);
        frame_ms.push(secs * 1e3 / frames as f64);
        if recording { &mut traced_s } else { &mut untraced_s }.push(secs);
        if first.is_none() {
            first = Some(out);
        }
        runs += 1;
    }

    if ctx.traced {
        let r = &first.expect("at least one run").report;
        let c = &r.cache;
        let layers = &mut ctx.layers;
        layers.set("trace.overhead_ms", (median(&traced_s) - median(&untraced_s)) * 1e3);
        let all_s: Vec<f64> = untraced_s.iter().chain(&traced_s).copied().collect();
        layers.set("serve.run_s", median(&all_s));
        layers.set("serve.cache.hits", c.hits as f64);
        layers.set("serve.cache.misses", c.misses as f64);
        layers.set("serve.cache.evictions", c.evictions as f64);
        layers.set("serve.cache.hit_ratio", c.hits as f64 / (c.hits + c.misses).max(1) as f64);
        layers.set("serve.shed", r.shed as f64);
        layers.set("serve.latency_ticks_p50", r.latency_ticks.p50);
        layers.set("serve.latency_ticks_p99", r.latency_ticks.p99);
        layers.set("serve.final_tick", r.final_tick as f64);
    }
    m.push("frames_per_s", median(&frames_per_s), "frames/s");
    // Host time per served frame of each whole run.
    m.push("frame_ms_p50", median(&frame_ms), "ms");
    m.push("frame_ms_p90", percentile(&frame_ms, 90.0), "ms");
    m.push("requests_per_s", median(&requests_per_s), "req/s");
}
