//! The serve engine: a discrete-event simulation of a multi-scene render
//! service.
//!
//! One engine drains one [`Trace`] against a scene catalog through the
//! byte-bounded [`SceneLru`] and the coalescing [`RequestQueue`]. Service
//! time is an **integer** function of the work the renderer reports
//! ([`service_ticks`]), so every latency — and therefore the whole report —
//! is a pure function of `(trace, config)`. The actual pixel rendering runs
//! through [`spnerf::RenderSession`] at whatever
//! [`RenderConfig::parallelism`] the caller configured; because the tile
//! renderer is bitwise-identical at any worker count, the response digests
//! and the report are too. That invariance is the subsystem's core claim
//! and `tests/determinism.rs` pins it.
//!
//! ## Event loop
//!
//! The virtual clock doubles as the engine-free time. Each iteration:
//!
//! 1. If the queue is empty, jump the clock to the next arrival.
//! 2. Admit every arrival at or before the clock (shedding past the depth
//!    bound), in trace order.
//! 3. Dispatch one batch (oldest-head scene, FIFO, coalesced), render it,
//!    and advance the clock by its service time.
//! 4. [`SceneLru::reconcile`] — rendering the baked path grows a scene's
//!    resident bytes lazily; accounting is eventual, enforced at the next
//!    reconcile point, and the **post-reconcile** peak is what the report's
//!    `peak_resident_bytes` tracks (and the schema bounds by the budget).
//!
//! Even view indices render the full SpNeRF masked decode; odd ones take
//! the bake-and-defer path, which is what exercises lazy residency growth
//! under a live cache. Requests of [`RequestKind::Trajectory`] render a
//! short orbit through the facade's temporal-reuse path instead
//! ([`trajectory_spec`] starts the orbit at the request's still view, so
//! frame 0 is bitwise the still render of that view); the whole path's
//! marched/shaded work is charged to the batch's service time, which is
//! where the warp amortization becomes visible in tail latency.

use std::sync::Arc;

use spnerf::pipeline::{RenderRequest, RenderSource};
use spnerf::render::eval::{percentile, SummaryStats};
use spnerf::render::renderer::{RenderConfig, RenderStats};
use spnerf::render::scene::default_camera;
use spnerf::trajectory::{PathKind, ReuseMode, TrajectoryRequest, TrajectorySpec};
use spnerf::Scene;
use spnerf_testkit::corpus::{Archetype, CorpusSpec, CORPUS_SEED};
use spnerf_testkit::digest::{digest_image, hex, Fnv64};
use spnerf_testkit::fixtures;

use crate::cache::SceneLru;
use crate::clock::{Ticks, VirtualClock};
use crate::queue::{QueueConfig, RequestQueue};
use crate::report::{CacheReport, LatencySummary, Report, TenantReport};
use crate::traffic::{RequestKind, Trace};

/// Bytes of scene state "paged in" per tick when a cache miss rebuilds a
/// scene — the load penalty that makes eviction decisions visible in tail
/// latency.
pub const LOAD_BYTES_PER_TICK: usize = 8192;

/// Marched samples (SGPU decodes) per tick.
pub const MARCH_PER_TICK: usize = 64;

/// Shaded samples (per-sample MLP evaluations) per tick.
pub const SHADE_PER_TICK: usize = 16;

/// Deferred per-pixel MLP evaluations per tick.
pub const PIXELS_PER_TICK: usize = 4;

/// How the scene catalog is built (fidelity of the serving corpus).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogConfig {
    /// Cubic grid side of every catalog scene.
    pub side: u32,
    /// VQRF codebook size.
    pub codebook: usize,
    /// SpNeRF subgrid count.
    pub subgrids: usize,
    /// SpNeRF hash-table size per subgrid.
    pub table_size: usize,
    /// Square render resolution (pixels per side) of served views.
    pub image_px: u32,
}

/// Full serve-run configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Byte budget of the scene cache.
    pub cache_bytes: usize,
    /// Queue bounds (depth for admission control, batch for coalescing).
    pub queue: QueueConfig,
    /// Catalog fidelity.
    pub catalog: CatalogConfig,
    /// Renderer configuration (parallelism, tiles, skipping — none of
    /// which may change any serialized output).
    pub render: RenderConfig,
}

impl ServeConfig {
    /// The CI-speed preset: small scenes, a budget tight enough that five
    /// scenes cannot all stay resident (so eviction actually happens).
    pub fn quick() -> Self {
        Self {
            cache_bytes: 1_500_000,
            queue: QueueConfig::default(),
            catalog: CatalogConfig {
                side: 16,
                codebook: 16,
                subgrids: 4,
                table_size: 2048,
                image_px: 12,
            },
            render: fixtures::test_render_config(16),
        }
    }

    /// The default preset: moderate fidelity, still minutes-not-hours.
    pub fn standard() -> Self {
        Self {
            cache_bytes: 4_000_000,
            queue: QueueConfig::default(),
            catalog: CatalogConfig {
                side: 24,
                codebook: 32,
                subgrids: 4,
                table_size: 4096,
                image_px: 16,
            },
            render: fixtures::test_render_config(24),
        }
    }
}

/// The scene catalog: one [`CorpusSpec`] per trace scene index, cycling
/// the five archetypes with distinct seeds (`CORPUS_SEED + index`), so any
/// catalog size yields distinct labels and distinct content.
#[derive(Debug, Clone)]
pub struct Catalog {
    cfg: CatalogConfig,
    specs: Vec<CorpusSpec>,
}

impl Catalog {
    /// A catalog of `scene_count` corpus scenes at `cfg` fidelity.
    pub fn corpus(scene_count: usize, cfg: CatalogConfig) -> Self {
        let specs = (0..scene_count)
            .map(|i| {
                CorpusSpec::archetype_default(
                    Archetype::ALL[i % Archetype::ALL.len()],
                    cfg.side,
                    CORPUS_SEED + i as u64,
                )
            })
            .collect();
        Self { cfg, specs }
    }

    /// Number of catalog scenes.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The cache key / pipeline label of scene `index`.
    pub fn label(&self, index: usize) -> String {
        self.specs[index].label()
    }

    /// Builds scene `index` from scratch (the cache-miss path).
    pub fn build(&self, index: usize, samples_per_ray: usize) -> Scene {
        fixtures::corpus_scene(
            &self.specs[index],
            self.cfg.codebook,
            self.cfg.subgrids,
            self.cfg.table_size,
            samples_per_ray,
        )
    }
}

/// Azimuth advanced per trajectory frame, radians — the same step
/// [`TrajectorySpec::orbit`] uses, small enough that successive frames
/// warp well at any serve fidelity.
pub const TRAJECTORY_AZIMUTH_STEP: f32 = 0.045;

/// The orbit a [`RequestKind::Trajectory`] request renders: it starts at
/// the request's still view (the [`default_camera`] ring — radius 2.8,
/// elevation 0.45, azimuth `view / views` of a turn, focal `width · 1.1`),
/// so frame 0 is bitwise the still render of `view`, then sweeps
/// [`TRAJECTORY_AZIMUTH_STEP`] of azimuth per frame.
pub fn trajectory_spec(view: usize, views: usize, frames: usize, px: u32) -> TrajectorySpec {
    let start_azimuth = view as f32 / views.max(1) as f32 * std::f32::consts::TAU;
    let sweep = TRAJECTORY_AZIMUTH_STEP * frames.saturating_sub(1) as f32;
    TrajectorySpec::new(
        PathKind::Orbit { radius: 2.8, elevation: 0.45, start_azimuth, sweep },
        frames,
        px,
        px,
    )
}

/// Integer service-time model: one base tick, plus paging the scene in on
/// a miss, plus the renderer-reported work of the batch.
pub fn service_ticks(stats: &RenderStats, load_bytes: usize) -> Ticks {
    (1 + load_bytes / LOAD_BYTES_PER_TICK
        + stats.samples_marched / MARCH_PER_TICK
        + stats.samples_shaded / SHADE_PER_TICK
        + stats.pixels_shaded / PIXELS_PER_TICK) as Ticks
}

/// One served request, in completion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedResponse {
    /// Global arrival sequence number.
    pub seq: u64,
    /// Requesting tenant.
    pub tenant: usize,
    /// Catalog scene index.
    pub scene: usize,
    /// Orbit view index.
    pub view: usize,
    /// Tick the batch started service.
    pub start: Ticks,
    /// Tick the batch completed.
    pub complete: Ticks,
    /// `complete - arrival tick`.
    pub latency: Ticks,
    /// FNV-1a digest of the rendered image.
    pub image_digest: u64,
}

/// Provenance of the trace, echoed into the report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// `"synthetic"` or `"replay"`.
    pub trace_source: String,
    /// Traffic seed (synthesis seed; informational for replays).
    pub seed: u64,
    /// Zipf exponent (0.0 for replays of unknown provenance).
    pub zipf_s: f64,
    /// Arrival horizon in ticks.
    pub duration_ticks: Ticks,
}

/// Everything one run produces: the report plus every served response (the
/// latter is what the determinism tests digest-compare).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// The schema-versioned report.
    pub report: Report,
    /// Every served response, in completion order.
    pub responses: Vec<ServedResponse>,
}

/// Runs the trace to completion and returns the report.
///
/// # Panics
///
/// Panics if the trace is empty of structure (zero scenes/tenants) or a
/// render fails — both are harness bugs, not load conditions.
pub fn run(trace: &Trace, cfg: &ServeConfig, meta: &RunMeta) -> ServeOutcome {
    assert!(trace.scenes > 0 && trace.tenants > 0, "trace must declare scenes and tenants");
    let catalog = Catalog::corpus(trace.scenes, cfg.catalog);
    let mut clock = VirtualClock::new();
    let mut cache: SceneLru<Scene> = SceneLru::new(cfg.cache_bytes);
    let mut queue = RequestQueue::new(trace.scenes, cfg.queue);
    let mut tenants = vec![TenantReport::default(); trace.tenants];
    let mut responses: Vec<ServedResponse> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut digest = Fnv64::new();
    let mut peak_resident = 0usize;
    let mut next = 0usize;

    while next < trace.requests.len() || !queue.is_empty() {
        if queue.is_empty() {
            // Idle engine: jump straight to the next arrival.
            clock.advance_to(trace.requests[next].tick);
        }
        // Admit everything that has arrived while the engine was busy (or
        // that just arrived), in trace order.
        while next < trace.requests.len() && trace.requests[next].tick <= clock.now() {
            let r = trace.requests[next];
            tenants[r.tenant].arrived += 1;
            if !queue.offer(r) {
                tenants[r.tenant].shed += 1;
            }
            next += 1;
        }
        let Some(batch) = queue.next_batch() else { continue };

        // Fetch (or rebuild) the batch's scene; a miss pays a paging
        // penalty proportional to the scene's resident footprint.
        let scene_idx = batch[0].scene;
        let label = catalog.label(scene_idx);
        let misses_before = cache.stats().misses;
        let scene: Arc<Scene> = cache
            .get_or_insert_with(&label, || catalog.build(scene_idx, cfg.render.samples_per_ray));
        let load_bytes =
            if cache.stats().misses > misses_before { scene.resident_bytes() } else { 0 };

        // Render the batch through one session: still requests with even
        // views take the full SpNeRF masked decode, odd views the
        // bake-and-defer path. Each source group goes down as one
        // coalesced batch request.
        let session = scene.session_with(cfg.render);
        let px = cfg.catalog.image_px;
        let mut stats = RenderStats::default();
        let mut image_digests = vec![0u64; batch.len()];
        for pass in 0..2 {
            let picks: Vec<usize> = (0..batch.len())
                .filter(|&i| {
                    batch[i].kind == RequestKind::Still && (batch[i].view % 2 == 0) == (pass == 0)
                })
                .collect();
            if picks.is_empty() {
                continue;
            }
            let source =
                if pass == 0 { RenderSource::spnerf_masked() } else { RenderSource::Baked };
            let cameras =
                picks.iter().map(|&i| default_camera(px, px, batch[i].view, trace.views)).collect();
            let resp = session
                .render(&RenderRequest::batch(source, cameras))
                .expect("serve render must not fail");
            stats += &resp.stats;
            for (slot, img) in picks.iter().zip(&resp.images) {
                image_digests[*slot] = digest_image(img);
            }
        }

        // Trajectory requests march the masked decode along a short orbit
        // with forward-warp reuse; the whole path's work lands in the
        // batch's service time and the response digest folds every frame.
        for (i, r) in batch.iter().enumerate() {
            let RequestKind::Trajectory { frames } = r.kind else { continue };
            let spec = trajectory_spec(r.view, trace.views, frames, px);
            let request = TrajectoryRequest::new(RenderSource::spnerf_masked(), spec)
                .with_mode(ReuseMode::warp());
            let resp = session.render_trajectory(&request).expect("serve trajectory must not fail");
            stats += &resp.stats;
            let mut fold = Fnv64::new();
            for frame in &resp.frames {
                fold.write_u64(digest_image(&frame.image));
            }
            image_digests[i] = fold.finish();
        }

        // Advance time and settle the books.
        let service = service_ticks(&stats, load_bytes);
        let start = clock.now();
        let complete = start + service;
        let share = service / batch.len() as Ticks;
        let remainder = service % batch.len() as Ticks;
        for (i, r) in batch.iter().enumerate() {
            let work = share + u64::from((i as Ticks) < remainder);
            tenants[r.tenant].served += 1;
            tenants[r.tenant].work_ticks += work;
            let latency = complete - r.tick;
            latencies.push(latency as f64);
            let served = ServedResponse {
                seq: r.seq,
                tenant: r.tenant,
                scene: r.scene,
                view: r.view,
                start,
                complete,
                latency,
                image_digest: image_digests[i],
            };
            digest.write_u64(served.seq);
            digest.write_u64(served.complete);
            digest.write_u64(served.latency);
            digest.write_u64(served.image_digest);
            responses.push(served);
        }
        clock.advance_to(complete);
        // Rendering the baked path may have grown the scene's resident
        // bytes; reconcile re-charges and evicts until the budget holds.
        cache.reconcile();
        peak_resident = peak_resident.max(cache.resident_bytes());
    }

    let served = responses.len() as u64;
    let shed = queue.shed_count();
    let final_tick = clock.now();
    let latency_ticks = if latencies.is_empty() {
        LatencySummary::idle()
    } else {
        let s = SummaryStats::from_values(&latencies);
        LatencySummary {
            mean: s.mean,
            min: s.min,
            max: s.max,
            p50: percentile(&latencies, 50.0),
            p95: percentile(&latencies, 95.0),
            p99: percentile(&latencies, 99.0),
        }
    };
    let cache_stats = cache.stats();
    let report = Report {
        trace_source: meta.trace_source.clone(),
        seed: meta.seed,
        zipf_s: meta.zipf_s,
        duration_ticks: meta.duration_ticks,
        final_tick,
        requests: trace.requests.len() as u64,
        served,
        shed,
        throughput_per_kilotick: served as f64 * 1000.0 / final_tick.max(1) as f64,
        latency_ticks,
        cache: CacheReport {
            budget_bytes: cfg.cache_bytes as u64,
            hits: cache_stats.hits,
            misses: cache_stats.misses,
            evictions: cache_stats.evictions,
            uncacheable: cache_stats.uncacheable,
            peak_resident_bytes: peak_resident as u64,
            final_resident_bytes: cache.resident_bytes() as u64,
        },
        tenants,
        responses_digest: hex(digest.finish()),
    };
    ServeOutcome { report, responses }
}

/// Rolling digest over served responses — the same fold [`run`] uses, so
/// tests can digest a response list independently.
pub fn responses_digest(responses: &[ServedResponse]) -> String {
    let mut h = Fnv64::new();
    for r in responses {
        h.write_u64(r.seq);
        h.write_u64(r.complete);
        h.write_u64(r.latency);
        h.write_u64(r.image_digest);
    }
    hex(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::validate_report_json;
    use crate::traffic::{Request, TrafficConfig};

    fn tiny_trace() -> (Trace, RunMeta) {
        let cfg = TrafficConfig {
            seed: 7,
            duration_ticks: 600,
            scenes: 3,
            tenants: 2,
            views: 4,
            zipf_s: 1.1,
            mean_interarrival: 40,
        };
        let trace = Trace::synthesize(&cfg);
        let meta = RunMeta {
            trace_source: "synthetic".to_string(),
            seed: cfg.seed,
            zipf_s: cfg.zipf_s,
            duration_ticks: cfg.duration_ticks,
        };
        (trace, meta)
    }

    #[test]
    fn serve_run_is_deterministic_and_validates() {
        let (trace, meta) = tiny_trace();
        let cfg = ServeConfig::quick();
        let a = run(&trace, &cfg, &meta);
        let b = run(&trace, &cfg, &meta);
        assert_eq!(a, b, "same trace + config must reproduce bit-for-bit");
        assert!(a.report.served > 0, "the tiny trace must serve something");
        assert_eq!(a.report.responses_digest, responses_digest(&a.responses));
        validate_report_json(&a.report.to_json()).expect("report validates");
    }

    #[test]
    fn accounting_adds_up() {
        let (trace, meta) = tiny_trace();
        let out = run(&trace, &ServeConfig::quick(), &meta);
        let r = &out.report;
        assert_eq!(r.requests, r.served + r.shed);
        assert_eq!(r.served, out.responses.len() as u64);
        let tenant_served: u64 = r.tenants.iter().map(|t| t.served).sum();
        let tenant_shed: u64 = r.tenants.iter().map(|t| t.shed).sum();
        assert_eq!((tenant_served, tenant_shed), (r.served, r.shed));
        // Work conservation: per-tenant splits re-assemble every batch's
        // full service time, which can never exceed the clock horizon.
        let total_work: u64 = r.tenants.iter().map(|t| t.work_ticks).sum();
        assert!(total_work <= r.final_tick, "engine work cannot exceed elapsed time");
        // Latencies are causal: completion never precedes arrival.
        for resp in &out.responses {
            assert!(resp.complete >= resp.start);
            assert_eq!(resp.latency, resp.complete - trace.requests[resp.seq as usize].tick);
        }
    }

    #[test]
    fn service_ticks_charges_all_three_work_terms() {
        let stats = RenderStats {
            samples_marched: 640,
            samples_shaded: 160,
            pixels_shaded: 40,
            ..RenderStats::default()
        };
        assert_eq!(service_ticks(&stats, 0), 1 + 10 + 10 + 10);
        assert_eq!(
            service_ticks(&stats, LOAD_BYTES_PER_TICK * 5),
            1 + 5 + 30,
            "a cache miss adds the paging term"
        );
    }

    #[test]
    fn trajectory_frame0_is_bitwise_the_still_view() {
        let cfg = ServeConfig::quick();
        let catalog = Catalog::corpus(1, cfg.catalog);
        let scene = catalog.build(0, cfg.render.samples_per_ray);
        let session = scene.session_with(cfg.render);
        let px = cfg.catalog.image_px;
        let (view, views) = (3, 8);
        let still = session
            .render(&RenderRequest::batch(
                RenderSource::spnerf_masked(),
                vec![default_camera(px, px, view, views)],
            ))
            .expect("still renders");
        let spec = trajectory_spec(view, views, 4, px);
        let request = TrajectoryRequest::new(RenderSource::spnerf_masked(), spec)
            .with_mode(ReuseMode::warp());
        let traj = session.render_trajectory(&request).expect("trajectory renders");
        assert_eq!(traj.frames.len(), 4);
        assert_eq!(
            digest_image(&traj.frames[0].image),
            digest_image(&still.images[0]),
            "the orbit must start exactly at the request's still view"
        );
        assert!(
            traj.frames[1..].iter().all(|f| f.stats.rays_warped > 0),
            "frames 1.. must actually reuse"
        );
    }

    #[test]
    fn trajectory_requests_serve_and_charge_more_work_than_stills() {
        // Two single-request runs over the same scene and view: the only
        // difference is the kind, so the service-time gap is the
        // trajectory's extra frames (and its digest must differ, since it
        // folds every frame).
        let mk = |kind: RequestKind| Trace {
            scenes: 1,
            tenants: 1,
            views: 4,
            requests: vec![Request { tick: 0, seq: 0, tenant: 0, scene: 0, view: 2, kind }],
        };
        let meta = RunMeta {
            trace_source: "synthetic".to_string(),
            seed: 0,
            zipf_s: 0.0,
            duration_ticks: 0,
        };
        let cfg = ServeConfig::quick();
        let still = run(&mk(RequestKind::Still), &cfg, &meta);
        let traj = run(&mk(RequestKind::Trajectory { frames: 4 }), &cfg, &meta);
        assert_eq!((still.report.served, traj.report.served), (1, 1));
        let (s, t) = (&still.responses[0], &traj.responses[0]);
        assert!(
            t.latency > s.latency,
            "4 frames must outweigh 1 still even with reuse ({} vs {})",
            t.latency,
            s.latency
        );
        assert!(
            (t.latency as f64) < 4.0 * s.latency as f64,
            "warp reuse must amortize below 4 independent stills ({} vs {})",
            t.latency,
            s.latency
        );
        assert_ne!(t.image_digest, s.image_digest);
        validate_report_json(&traj.report.to_json()).expect("trajectory report validates");
    }

    #[test]
    fn catalog_cycles_archetypes_with_distinct_labels() {
        let catalog = Catalog::corpus(7, ServeConfig::quick().catalog);
        assert_eq!(catalog.len(), 7);
        let labels: Vec<String> = (0..7).map(|i| catalog.label(i)).collect();
        for (i, l) in labels.iter().enumerate() {
            for later in &labels[i + 1..] {
                assert_ne!(l, later, "labels must be distinct cache keys");
            }
        }
        // Index 5 reuses archetype 0 but with a different seed.
        assert!(labels[5].starts_with("dense-blob"));
        assert_ne!(labels[0], labels[5]);
    }
}
