//! Per-layer metrics of the traced run, and the set-up stages it calls one
//! by one so each layer gets its own span.

use std::collections::BTreeMap;

use spnerf::core::{PreprocessOptions, SpNerfConfig, SpNerfModel};
use spnerf::render::mlp::{DeferredMlp, Mlp};
use spnerf::voxel::grid::DenseGrid;
use spnerf::voxel::sparse::{FormatSelection, SparseFormat, SparseIndex};
use spnerf::voxel::vqrf::{VqrfConfig, VqrfModel};

use crate::harness::{ms, timed, Metrics, Tracer};

/// Every per-layer metric a traced run reports, in report order. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.stage_sum_s", "s"),
    ("setup.builder_s", "s"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
    ("render.scene.build_grid_ms", "ms"),
    ("voxel.vqrf.build_ms", "ms"),
    ("voxel.vqrf.points", "count"),
    ("voxel.kmeans.distance_evals", "count"),
    ("core.preprocess.build_ms", "ms"),
    ("core.preprocess.collision_rate", "ratio"),
    ("core.preprocess.max_load_factor", "ratio"),
    ("voxel.sparse.index_ms", "ms"),
    ("voxel.sparse.index_bytes", "bytes"),
    ("voxel.mip.build_ms", "ms"),
    ("render.bake.ms", "ms"),
    ("pipeline.render.ms", "ms"),
    ("render.samples_marched", "count"),
    ("render.samples_shaded", "count"),
    ("render.samples_skipped", "count"),
    ("render.ns_per_marched_sample", "ns"),
    ("render.shaded_per_marched", "ratio"),
    ("render.skip_ratio", "ratio"),
    ("trajectory.frame0_ms", "ms"),
    ("trajectory.warp_frame_ms", "ms"),
    ("trajectory.rays_warped", "count"),
    ("trajectory.rays_remarched", "count"),
    ("trajectory.warp_ratio", "ratio"),
    ("serve.run_s", "s"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.latency_ticks_p50", "ticks"),
    ("serve.latency_ticks_p99", "ticks"),
    ("serve.final_tick", "ticks"),
    ("serve.trace.synthesize_ms", "ms"),
    ("serve.catalog.build_ms", "ms"),
    ("pipeline.resident_bytes", "bytes"),
    ("core.memory_reduction", "x"),
    ("accel.simulate_us", "us"),
    ("accel.cycles", "cycles"),
    ("accel.fps", "frames/s"),
    ("accel.sgpu_cycles", "cycles"),
    ("accel.mlp_cycles", "cycles"),
    ("accel.dram_cycles", "cycles"),
    ("accel.bottleneck", "enum"),
    ("accel.path.amortized_cycles_per_frame", "cycles"),
    ("dram.run_trace_ms", "ms"),
    ("dram.seq.row_hits", "count"),
    ("dram.seq.row_misses", "count"),
    ("dram.format.cycles", "cycles"),
    ("dram.energy_pj", "pJ"),
];

/// Span names whose self time is reported as `self_ms.<layer>`.
pub const SELF_TIMED: &[&str] = &[
    "render.scene",
    "voxel.vqrf",
    "core.preprocess",
    "voxel.sparse",
    "voxel.mip",
    "render.bake",
    "pipeline.render",
    "trajectory",
    "accel",
    "dram",
    "serve",
];

/// Per-layer values a workload fills in.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// Hash-preprocessing points offered and lost, over every scene built.
    offered: usize,
    collisions: usize,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &'static str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        self.set(name, self.get(name) + value);
    }

    /// Reports every per-layer metric plus per-layer self times.
    pub fn report(&self, tracer: &Tracer) -> Metrics {
        let mut m = Metrics::default();
        for (name, unit) in PER_LAYER {
            let value = if *name == "trace.spans" {
                tracer.spans().len() as f64
            } else {
                self.values.get(name).copied().unwrap_or(0.0)
            };
            m.push(name, value, unit);
        }
        let own = tracer.self_ms();
        for layer in SELF_TIMED {
            m.push(&format!("self_ms.{layer}"), own.get(layer).copied().unwrap_or(0.0), "ms");
        }
        m
    }
}

/// VQRF k-means distance evaluations implied by the configuration: the
/// k-means++ seeding pass, every configured Lloyd iteration over the
/// training subsample, and the final assignment of every non-kept point.
pub fn kmeans_distance_evals(vqrf: &VqrfModel, cfg: &VqrfConfig) -> f64 {
    let (n, kept) = (vqrf.nnz(), vqrf.kept_count());
    let train = if n > kept { n - kept } else { n };
    let t = train.min(cfg.kmeans_subsample) as f64;
    let k = cfg.codebook_size as f64;
    let seeded = k.min(t).max(1.0) * t;
    seeded + cfg.kmeans_iters as f64 * t * k + (n - kept) as f64 * k
}

/// The offline stages of `PipelineBuilder::build`, called one by one in its
/// order — grid, VQRF, hash preprocessing, MLPs, sparse index —
/// each inside its own span. Returns the grid so the caller can hand it to
/// `PipelineBuilder::from_grid`.
pub fn run_stages(
    tracer: &mut Tracer,
    layers: &mut Layers,
    grid: impl FnOnce() -> DenseGrid,
    vqrf_cfg: &VqrfConfig,
    spnerf_cfg: &SpNerfConfig,
    mlp_seed: u64,
) -> DenseGrid {
    let (grid, t_grid) = timed(|| tracer.span("render.scene", grid));
    let (vqrf, t_vqrf) = timed(|| tracer.span("voxel.vqrf", || VqrfModel::build(&grid, vqrf_cfg)));
    let (model, t_pre) = timed(|| {
        tracer.span("core.preprocess", || {
            SpNerfModel::build_with(&vqrf, spnerf_cfg, PreprocessOptions::default())
                .expect("benchmark operating point builds")
        })
    });
    let (_, t_mlp) = timed(|| {
        tracer.span("render.mlp", || (Mlp::random(mlp_seed), DeferredMlp::random(mlp_seed)))
    });
    let (index, t_index) = timed(|| {
        tracer.span("voxel.sparse", || {
            SparseIndex::from_bitmap_selected(FormatSelection::Auto, model.bitmap())
        })
    });

    let report = model.report();
    layers.offered += report.points;
    layers.collisions += report.collisions;
    layers.add("render.scene.build_grid_ms", ms(t_grid));
    layers.add("voxel.vqrf.build_ms", ms(t_vqrf));
    layers.add("voxel.vqrf.points", vqrf.nnz() as f64);
    layers.add("voxel.kmeans.distance_evals", kmeans_distance_evals(&vqrf, vqrf_cfg));
    layers.add("core.preprocess.build_ms", ms(t_pre));
    let rate = layers.collisions as f64 / layers.offered.max(1) as f64;
    layers.set("core.preprocess.collision_rate", rate);
    let load = layers.get("core.preprocess.max_load_factor").max(report.max_load_factor);
    layers.set("core.preprocess.max_load_factor", load);
    layers.add("voxel.sparse.index_ms", ms(t_index));
    layers.add("voxel.sparse.index_bytes", index.footprint().total_bytes() as f64);
    let stage_s = [t_grid, t_vqrf, t_pre, t_mlp, t_index].iter().map(|t| t.as_secs_f64()).sum();
    layers.add("setup.stage_sum_s", stage_s);
    grid
}
