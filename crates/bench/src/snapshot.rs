//! Schema-versioned kernel benchmark snapshots — the `BENCH_*.json` perf
//! trajectory.
//!
//! perfbench (`perfbench/`) times the workspace end to end; the
//! `bench_snapshot` binary times its kernels in isolation, each with one
//! calibrated `Instant` loop, and serializes a [`Snapshot`]: one
//! [`KernelResult`] per kernel variant plus a [`Fingerprint`] of the
//! configuration that produced it. One snapshot per PR is checked into the
//! repo root (`BENCH_pr6.json`, `BENCH_pr7.json`, …) so the performance
//! story is diffable; CI re-validates every file against
//! [`SCHEMA_VERSION`] on each push (see `docs/benchmarking.md`).
//!
//! Wall-clock numbers are environment-specific by nature — correctness is
//! never judged by them. The schema, the kernel inventory, and the
//! fingerprint are what CI enforces; the timings are a recorded trajectory,
//! not a gate.
//!
//! No serde exists in this workspace, so this module hand-rolls both the
//! JSON emitter ([`Snapshot::to_json`], stable key order) and the strict
//! recursive-descent parser ([`parse_json`]) behind
//! [`validate_snapshot_json`].

use std::hint::black_box;
use std::time::{Duration, Instant};

use spnerf::accel::sim::block_circulant::BlockCirculantBuffer;
use spnerf::accel::sim::systolic::SystolicArray;
use spnerf::core::hash::spatial_hash;
use spnerf::core::table::HashTable;
use spnerf::core::MaskMode;
use spnerf::dram::controller::MemoryController;
use spnerf::dram::timing::DramTimings;
use spnerf::dram::trace::{gather, sequential};
use spnerf::render::bake::bake;
use spnerf::render::camera::PinholeCamera;
use spnerf::render::composite::accumulate_weighted;
use spnerf::render::fp16::{f16_bits_to_f32, f32_to_f16_bits};
use spnerf::render::interp::{
    interpolate_cell, interpolate_cell_scalar, trilinear_cell, TrilinearCell,
};
use spnerf::render::lanes::LANE_WIDTH;
use spnerf::render::mlp::{
    DeferredMlp, Mlp, DEFERRED_INPUT_DIM, MLP_HIDDEN_DIM, MLP_INPUT_DIM, MLP_OUTPUT_DIM,
};
use spnerf::render::ray::{Ray, UniformSampler};
use spnerf::render::renderer::{render_view_serial, trace_rays, RenderConfig, RenderFrame, Shader};
use spnerf::render::scene::{build_grid, default_camera, scene_aabb, SceneId};
use spnerf::render::source::VoxelSource;
use spnerf::render::temporal::{
    advance_frame, disocclusion_mask, warp_splat, ReuseMode, TrajectorySpec,
};
use spnerf::render::vec3::Vec3;
use spnerf::voxel::baked::SPEC_DIM;
use spnerf::voxel::coord::GridCoord;
use spnerf::voxel::grid::DenseGrid;
use spnerf::voxel::kmeans::Codebook;
use spnerf::voxel::FEATURE_DIM;
use spnerf_testkit::fixtures::{dataset_fixture, MLP_SEED};

/// Version of the `BENCH_*.json` schema this code emits and validates.
/// Bump it (and `docs/benchmarking.md`) when a field changes meaning; CI
/// fails on any checked-in snapshot whose version differs.
pub const SCHEMA_VERSION: u64 = 1;

/// File-name prefix snapshots are discovered by (`BENCH_<label>.json` in
/// the repo root).
pub const SNAPSHOT_PREFIX: &str = "BENCH_";

/// Kernel names every valid snapshot must report: both hot-path kernels in
/// scalar + lane form, and the fp16 conversions.
///
/// Snapshots may report *more* kernels than these — the [`EXTRA_KERNELS`]
/// rows, and in older snapshots an `mlp_gemv.fp16` row timed on a
/// since-deleted fp16-storage MLP — but only this set is enforced, so every
/// historical `BENCH_*.json` keeps validating.
pub const REQUIRED_KERNELS: [&str; 7] = [
    "trilinear.scalar",
    "trilinear.lanes",
    "mlp_gemv.scalar",
    "mlp_gemv.lanes",
    "fp16.encode",
    "fp16.decode",
    "fp16.round_trip",
];

/// Kernel rows measured on top of [`REQUIRED_KERNELS`], each with the
/// elementary operation its `ns_per_op` counts:
///
/// * `mlp_batch.lanes`: one sample (lane) of [`Mlp::forward_batch`], over
///   the same 64 inputs as `mlp_gemv.lanes`, eight per pass.
/// * `bake.pass`: one color-MLP forward per occupied vertex of a bake pass,
///   which runs eight vertices per [`Mlp::forward_batch`].
/// * `deferred_mlp.pixel`: one deferred per-pixel view-MLP forward.
/// * `composite.scalar`: one [`accumulate_weighted`] of a 9-channel sample.
/// * `warp.splat`: one pixel of a forward-warp splat into the next camera.
/// * `disocclusion.test`: one pixel of the disocclusion test.
/// * `decode.masked_cell`: one [`interpolate_cell`] on a masked SpNeRF view
///   per in-grid sample a 32×32 still marches (each ray stopped where the
///   still stops it), its per-cell bitmap probe included.
/// * `march.masked_still`: one marched sample of a [`render_view_serial`]
///   of that 32×32 masked still at 128 samples per ray, skipping off: the
///   whole march (sampler, locate, probe, gather, MLP and composite) per
///   sample it marches.
/// * `kmeans.assign.scalar` / `kmeans.assign.lanes`: one
///   [`Codebook::assign_scalar`] or [`Codebook::assign`] of a 12-dim row
///   against a 4096-entry codebook (1024 under `--quick`).
/// * `hash.spatial_eq1`: one Eq. 1 [`spatial_hash`] of a grid coordinate.
/// * `table.keyless_lookup`: one keyless [`HashTable::lookup`].
/// * `block_circulant.write_read`: one 39-wide vector written to and read
///   back from a [`BlockCirculantBuffer`].
/// * `systolic.gemm`: one multiply-accumulate of a 64×39×128
///   [`SystolicArray::gemm`] on a 16×16 array.
/// * `dram.stream` / `dram.gather`: one DRAM request of a 1 MiB sequential
///   stream or a 4096-read gather replayed by [`MemoryController::run_trace`].
///
/// Older snapshots also carry a `composite.lanes` row (a since-deleted
/// lane-blocked twin of the accumulator) and lack the newer rows; only
/// [`REQUIRED_KERNELS`] is enforced, so they still validate.
pub const EXTRA_KERNELS: [&str; 16] = [
    "mlp_batch.lanes",
    "bake.pass",
    "deferred_mlp.pixel",
    "composite.scalar",
    "warp.splat",
    "disocclusion.test",
    "decode.masked_cell",
    "march.masked_still",
    "kmeans.assign.scalar",
    "kmeans.assign.lanes",
    "hash.spatial_eq1",
    "table.keyless_lookup",
    "block_circulant.write_read",
    "systolic.gemm",
    "dram.stream",
    "dram.gather",
];

/// Timing of one kernel variant.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelResult {
    /// Kernel identifier (see [`REQUIRED_KERNELS`]).
    pub name: String,
    /// Nanoseconds per elementary operation (one cell interpolation, one
    /// MLP forward, one f16 conversion).
    pub ns_per_op: f64,
    /// Elementary operations per second (`1e9 / ns_per_op`).
    pub ops_per_s: f64,
    /// Elementary operations per timed iteration.
    pub ops_per_iter: u64,
    /// Timed iterations executed.
    pub iters: u64,
}

/// The configuration that produced a snapshot — enough to tell two
/// snapshots apart without re-reading the code that made them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Whether the render path runs the lane kernels. Always `true` since
    /// they became the only hot-path kernels; snapshots recorded before
    /// that carry `false` (the scalar build). The snapshot itself always
    /// measures the scalar oracle and the lane kernel explicitly.
    pub simd_dispatch: bool,
    /// [`LANE_WIDTH`] of the lane kernels.
    pub lane_width: u64,
    /// Voxel feature channels blended per interpolation.
    pub feature_dim: u64,
    /// MLP layer widths input → hidden → hidden → output.
    pub mlp_dims: [u64; 4],
    /// Side of the dense grid the interpolation kernel reads.
    pub grid_side: u64,
    /// Whether the reduced `--quick` calibration was used.
    pub quick: bool,
}

/// One `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Schema version ([`SCHEMA_VERSION`] when emitted by this code).
    pub schema_version: u64,
    /// Snapshot label, by convention the PR that recorded it (`"pr6"`);
    /// the file name is `BENCH_<label>.json`.
    pub label: String,
    /// Configuration fingerprint.
    pub fingerprint: Fingerprint,
    /// Per-kernel timings.
    pub kernels: Vec<KernelResult>,
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// Calibrated `Instant` timing of one kernel: runs `f` once to warm up and
/// estimate cost, scales the iteration count to roughly `target` total
/// time, then reports the mean.
fn time_kernel(
    name: &str,
    ops_per_iter: u64,
    target: Duration,
    mut f: impl FnMut(),
) -> KernelResult {
    let warm = Instant::now();
    f();
    let once = warm.elapsed().max(Duration::from_nanos(50));
    let iters = (target.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let total = start.elapsed();
    let ns_per_op = total.as_nanos() as f64 / (iters * ops_per_iter) as f64;
    KernelResult {
        name: name.to_string(),
        ns_per_op,
        ops_per_s: 1e9 / ns_per_op.max(f64::MIN_POSITIVE),
        ops_per_iter,
        iters,
    }
}

/// Deterministic probe positions covering the grid interior, pre-resolved
/// to interpolation cells so the timed region is the blend kernel alone.
fn probe_cells(grid: &DenseGrid, n: usize) -> Vec<TrilinearCell> {
    use spnerf::render::source::VoxelSource;
    let dims = VoxelSource::dims(grid);
    let side = dims.nx as usize;
    (0..n)
        .map(|i| {
            let p = Vec3::new(
                ((i * 7) % (side - 1)) as f32 + 0.35,
                ((i * 13) % (side - 1)) as f32 + 0.65,
                ((i * 29) % (side - 1)) as f32 + 0.15,
            );
            trilinear_cell(dims, p).expect("probe positions are inside the grid")
        })
        .collect()
}

/// The interpolation cell of every in-grid sample that a still of `source`
/// through `camera` marches with skipping off, in ray order: the cell
/// stream the still feeds the decoder, mostly empty space. Each ray stops
/// where [`render_view_serial`] stops it (early ray termination), so the
/// stream is the decode work of that still.
fn view_cells(source: &impl VoxelSource, mlp: &Mlp, camera: &PinholeCamera) -> Vec<TrilinearCell> {
    let cfg = RenderConfig::default();
    let dims = source.dims();
    let frame = RenderFrame::new(dims, &scene_aabb(), &cfg);
    let rays: Vec<Ray> = (0..camera.height)
        .flat_map(|py| (0..camera.width).map(move |px| camera.ray_for_pixel(px, py)))
        .collect();
    let traced = trace_rays(source, Shader::PerSample(mlp), &frame, &rays, &cfg);
    let mut cells = Vec::new();
    for (ray, traced) in rays.iter().zip(&traced) {
        let marched = UniformSampler::new(*ray, frame.aabb(), frame.step())
            .take(traced.stats.samples_marched);
        cells.extend(
            marched.filter_map(|(_, pos)| trilinear_cell(dims, frame.grid().world_to_grid(pos))),
        );
    }
    cells
}

/// Times every kernel variant and assembles the snapshot.
///
/// `quick` shrinks the per-kernel time budget (and the interpolation grid)
/// for CI smoke runs; the schema and kernel inventory are identical, only
/// the numbers get noisier.
pub fn measure(label: &str, quick: bool) -> Snapshot {
    let grid_side: u32 = if quick { 32 } else { 64 };
    let target = if quick { Duration::from_millis(20) } else { Duration::from_millis(200) };

    let grid = build_grid(SceneId::Lego, grid_side);
    let cells = probe_cells(&grid, 1024);
    let mlp = Mlp::random(MLP_SEED);
    let inputs: Vec<[f32; MLP_INPUT_DIM]> = (0..64)
        .map(|i| {
            let mut x = [0.0f32; MLP_INPUT_DIM];
            for (k, slot) in x.iter_mut().enumerate() {
                *slot = ((i * 31 + k * 7) as f32 * 0.013).sin();
            }
            x
        })
        .collect();
    // The same inputs as eight batches, one sample per lane.
    let batches: Vec<[[f32; LANE_WIDTH]; MLP_INPUT_DIM]> = inputs
        .chunks(LANE_WIDTH)
        .map(|group| std::array::from_fn(|i| std::array::from_fn(|l| group[l][i])))
        .collect();
    let values: Vec<f32> = (0..4096).map(|i| i as f32 * 0.037 - 70.0).collect();
    let bits: Vec<u16> = values.iter().map(|v| f32_to_f16_bits(*v)).collect();

    // Bake-and-defer kernels (PR 7). The bake grid is kept small and fixed:
    // its op count is occupied *vertices* (one color-MLP forward each), not
    // grid cells, so it is resolved once up front.
    let bake_grid = build_grid(SceneId::Lego, 16);
    let bake_ops = bake(&bake_grid, &mlp).occupied_count() as u64;
    let deferred = DeferredMlp::random(MLP_SEED);
    let deferred_inputs: Vec<[f32; DEFERRED_INPUT_DIM]> = (0..64)
        .map(|i| {
            let mut x = [0.0f32; DEFERRED_INPUT_DIM];
            for (k, slot) in x.iter_mut().enumerate() {
                *slot = ((i * 17 + k * 11) as f32 * 0.019).cos();
            }
            x
        })
        .collect();
    let spec_weights: Vec<f32> = (0..512).map(|i| (i as f32 * 0.11).sin().abs()).collect();
    let spec_values: [f32; SPEC_DIM] = std::array::from_fn(|c| (c as f32 * 0.31).sin());

    // Temporal-reuse kernels (PR 10). Frame 0 of a 2-frame orbit renders
    // fully (warp mode with no state) to build a real buffered frame; the
    // timed region is then the forward-warp splat into frame 1's camera
    // and the disocclusion test over the warped buffers, one op per pixel.
    let warp_side: u32 = 32;
    let warp_cams = TrajectorySpec::orbit(2, warp_side, warp_side).cameras();
    let warp_render = RenderConfig { samples_per_ray: 32, ..Default::default() };
    let mut warp_state = None;
    advance_frame(
        &&grid,
        Shader::PerSample(&mlp),
        &warp_cams[0],
        &scene_aabb(),
        &warp_render,
        ReuseMode::warp(),
        0,
        &mut warp_state,
    );
    let warp_prev = warp_state.expect("frame 0 records reuse state");
    let warp_pixels = warp_side as u64 * warp_side as u64;
    let (warped_colors, warped_depths) = warp_splat(&warp_prev, &warp_cams[1]);

    // Masked online decode: the paper's `mic` scene at the interpolation
    // grid's side, probed along every sample a 32×32 still marches.
    let (_, _, decode_model) = dataset_fixture(SceneId::Mic, grid_side, 64, 8, 8192);
    let masked = decode_model.view(MaskMode::Masked);
    // The same still through the whole march, one op per marched sample.
    let still_camera = default_camera(32, 32, 0, 1);
    let decode_cells = view_cells(&masked, &mlp, &still_camera);
    let still = || {
        render_view_serial(&masked, &mlp, &still_camera, &scene_aabb(), &RenderConfig::default())
    };
    let still_marched = still().1.samples_marched as u64;

    // k-means assignment: 12-dim rows against the paper's 4096-entry VQRF
    // codebook shape, one op per row.
    let codewords = if quick { 1024 } else { 4096 };
    let codebook = Codebook::from_centroids(
        (0..codewords * FEATURE_DIM).map(|i| (i as f32 * 0.37).sin()).collect(),
        FEATURE_DIM,
    );
    let queries: Vec<[f32; FEATURE_DIM]> =
        (0..16).map(|r| std::array::from_fn(|c| ((r * 13 + c * 5) as f32 * 0.07).cos())).collect();

    // Accelerator kernels: the HMU's Eq. 1 hash and keyless table lookup
    // (2000 entries in a 32k-slot table), the block-circulant buffer that
    // feeds the systolic array, one tiled GEMM of an MLP layer's shape, and
    // DRAM replay of a streamed subgrid slice and of VQRF's vertex gather.
    let table_size = 32 * 1024;
    let hash_coords: Vec<GridCoord> = (0..1024).map(|i| GridCoord::new(i, i * 7, i * 13)).collect();
    let mut table = HashTable::new(table_size);
    for i in 0..2000u32 {
        table.insert(GridCoord::new(i, i * 3, i * 5), i % 4096, 1);
    }
    let lookups: Vec<GridCoord> = (0..1024).map(|i| GridCoord::new(i, i * 3, i * 5)).collect();
    let vector: Vec<f32> = (0..39).map(|i| i as f32).collect();
    let batch = 64;
    let systolic = SystolicArray::new(16, 16);
    let (m, k, n) = (64, 39, 128);
    let gemm_a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.01).sin()).collect();
    let gemm_b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.02).cos()).collect();
    let timings = DramTimings::lpddr4_3200();
    let stream = sequential(0, 1 << 20, 256);
    let scattered = gather(4096, 1 << 28, 64, 7);

    let kernels = vec![
        time_kernel("trilinear.scalar", cells.len() as u64, target, || {
            let mut acc = 0.0f32;
            for cell in &cells {
                acc += interpolate_cell_scalar(&grid, black_box(cell)).density;
            }
            black_box(acc);
        }),
        time_kernel("trilinear.lanes", cells.len() as u64, target, || {
            let mut acc = 0.0f32;
            for cell in &cells {
                acc += interpolate_cell(&grid, black_box(cell)).density;
            }
            black_box(acc);
        }),
        time_kernel("mlp_gemv.scalar", inputs.len() as u64, target, || {
            let mut acc = 0.0f32;
            for input in &inputs {
                acc += mlp.forward_scalar(black_box(input))[0];
            }
            black_box(acc);
        }),
        time_kernel("mlp_gemv.lanes", inputs.len() as u64, target, || {
            let mut acc = 0.0f32;
            for input in &inputs {
                acc += mlp.forward(black_box(input))[0];
            }
            black_box(acc);
        }),
        time_kernel("fp16.encode", values.len() as u64, target, || {
            let mut acc = 0u16;
            for v in &values {
                acc ^= f32_to_f16_bits(black_box(*v));
            }
            black_box(acc);
        }),
        time_kernel("fp16.decode", bits.len() as u64, target, || {
            let mut acc = 0.0f32;
            for b in &bits {
                acc += f16_bits_to_f32(black_box(*b));
            }
            black_box(acc);
        }),
        time_kernel("fp16.round_trip", values.len() as u64, target, || {
            let mut acc = 0.0f32;
            for v in &values {
                acc += f16_bits_to_f32(f32_to_f16_bits(black_box(*v)));
            }
            black_box(acc);
        }),
        time_kernel("mlp_batch.lanes", inputs.len() as u64, target, || {
            let mut acc = 0.0f32;
            for batch in &batches {
                acc += mlp.forward_batch(black_box(batch))[0][0];
            }
            black_box(acc);
        }),
        time_kernel("bake.pass", bake_ops, target, || {
            black_box(bake(black_box(&bake_grid), &mlp));
        }),
        time_kernel("deferred_mlp.pixel", deferred_inputs.len() as u64, target, || {
            let mut acc = 0.0f32;
            for input in &deferred_inputs {
                acc += deferred.forward(black_box(input))[0];
            }
            black_box(acc);
        }),
        time_kernel("composite.scalar", spec_weights.len() as u64, target, || {
            let mut acc = [0.0f32; SPEC_DIM];
            for w in &spec_weights {
                accumulate_weighted(&mut acc, black_box(&spec_values), *w);
            }
            black_box(acc);
        }),
        time_kernel("warp.splat", warp_pixels, target, || {
            black_box(warp_splat(black_box(&warp_prev), &warp_cams[1]));
        }),
        time_kernel("disocclusion.test", warp_pixels, target, || {
            black_box(disocclusion_mask(
                black_box(&warped_colors),
                &warped_depths,
                warp_side as usize,
                warp_side as usize,
                1,
            ));
        }),
        time_kernel("decode.masked_cell", decode_cells.len() as u64, target, || {
            let mut acc = 0.0f32;
            for cell in &decode_cells {
                acc += interpolate_cell(&masked, black_box(cell)).density;
            }
            black_box(acc);
        }),
        time_kernel("march.masked_still", still_marched, target, || {
            black_box(still());
        }),
        time_kernel("kmeans.assign.scalar", queries.len() as u64, target, || {
            let mut acc = 0usize;
            for q in &queries {
                acc += codebook.assign_scalar(black_box(q));
            }
            black_box(acc);
        }),
        time_kernel("kmeans.assign.lanes", queries.len() as u64, target, || {
            let mut acc = 0usize;
            for q in &queries {
                acc += codebook.assign(black_box(q));
            }
            black_box(acc);
        }),
        time_kernel("hash.spatial_eq1", hash_coords.len() as u64, target, || {
            let mut acc = 0usize;
            for c in &hash_coords {
                acc ^= spatial_hash(black_box(*c), table_size);
            }
            black_box(acc);
        }),
        time_kernel("table.keyless_lookup", lookups.len() as u64, target, || {
            let mut hits = 0usize;
            for c in &lookups {
                hits += usize::from(table.lookup(black_box(*c)).is_some());
            }
            black_box(hits);
        }),
        time_kernel("block_circulant.write_read", batch as u64, target, || {
            let mut buf = BlockCirculantBuffer::new(batch);
            for _ in 0..batch {
                buf.write_vector(black_box(&vector)).expect("the batch fits the buffer");
            }
            let mut acc = 0.0f32;
            for i in 0..batch {
                acc += buf.read_vector(i)[0];
            }
            black_box(acc);
        }),
        time_kernel("systolic.gemm", (m * k * n) as u64, target, || {
            black_box(systolic.gemm(black_box(&gemm_a), black_box(&gemm_b), m, k, n));
        }),
        time_kernel("dram.stream", stream.len() as u64, target, || {
            black_box(MemoryController::new(timings).run_trace(black_box(&stream)).cycles);
        }),
        time_kernel("dram.gather", scattered.len() as u64, target, || {
            black_box(MemoryController::new(timings).run_trace(black_box(&scattered)).cycles);
        }),
    ];

    Snapshot {
        schema_version: SCHEMA_VERSION,
        label: label.to_string(),
        fingerprint: Fingerprint {
            simd_dispatch: true,
            lane_width: LANE_WIDTH as u64,
            feature_dim: FEATURE_DIM as u64,
            mlp_dims: [
                MLP_INPUT_DIM as u64,
                MLP_HIDDEN_DIM as u64,
                MLP_HIDDEN_DIM as u64,
                MLP_OUTPUT_DIM as u64,
            ],
            grid_side: grid_side as u64,
            quick,
        },
        kernels,
    }
}

// ---------------------------------------------------------------------------
// JSON emission
// ---------------------------------------------------------------------------

/// Escapes `s` for a JSON string literal (quotes, backslashes and control
/// characters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a finite `f64` as a JSON number that always reads as a float.
pub fn json_f64(x: f64) -> String {
    // JSON has no NaN/Infinity; a non-finite timing or statistic is a
    // harness bug.
    assert!(x.is_finite(), "non-finite value cannot be serialized to JSON");
    let s = format!("{x}");
    // `1e9 / ns` can print integral (e.g. `250`); keep a decimal point so
    // the field reads as the float it is.
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

impl Snapshot {
    /// Serializes to the canonical `BENCH_*.json` document (stable key
    /// order, two-space indent, trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
        out.push_str(&format!("  \"label\": \"{}\",\n", json_escape(&self.label)));
        let f = &self.fingerprint;
        out.push_str("  \"fingerprint\": {\n");
        out.push_str(&format!("    \"simd_dispatch\": {},\n", f.simd_dispatch));
        out.push_str(&format!("    \"lane_width\": {},\n", f.lane_width));
        out.push_str(&format!("    \"feature_dim\": {},\n", f.feature_dim));
        out.push_str(&format!(
            "    \"mlp_dims\": [{}, {}, {}, {}],\n",
            f.mlp_dims[0], f.mlp_dims[1], f.mlp_dims[2], f.mlp_dims[3]
        ));
        out.push_str(&format!("    \"grid_side\": {},\n", f.grid_side));
        out.push_str(&format!("    \"quick\": {}\n", f.quick));
        out.push_str("  },\n");
        out.push_str("  \"kernels\": [\n");
        for (i, k) in self.kernels.iter().enumerate() {
            let comma = if i + 1 < self.kernels.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"ns_per_op\": {}, \"ops_per_s\": {}, \
                 \"ops_per_iter\": {}, \"iters\": {}}}{comma}\n",
                json_escape(&k.name),
                json_f64(k.ns_per_op),
                json_f64(k.ops_per_s),
                k.ops_per_iter,
                k.iters,
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// JSON parsing + validation
// ---------------------------------------------------------------------------

/// A parsed JSON value — the minimal tree the validator walks. Object keys
/// keep their document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, so the bound keeps hostile input from
/// overflowing the stack; every document this workspace emits is a few
/// levels deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    /// Byte offset of the next unread character (always a char boundary).
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn next_char(&mut self) -> Option<char> {
        let c = self.src[self.pos..].chars().next()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn lit(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next_char() {
                None => return Err(self.err("unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => out.push(self.escape()?),
                Some(c) if c < ' ' => return Err(self.err("unescaped control character")),
                Some(c) => out.push(c),
            }
        }
    }

    /// The character a backslash escape stands for; a `\u` high surrogate
    /// must be followed by a `\u` low surrogate, and the pair is one char.
    fn escape(&mut self) -> Result<char, String> {
        Ok(match self.next_char() {
            Some('"') => '"',
            Some('\\') => '\\',
            Some('/') => '/',
            Some('n') => '\n',
            Some('t') => '\t',
            Some('r') => '\r',
            Some('b') => '\u{8}',
            Some('f') => '\u{c}',
            Some('u') => {
                let unit = self.hex4()?;
                if (0xD800..0xDC00).contains(&unit) {
                    let low = if self.eat(b'\\') && self.eat(b'u') { self.hex4()? } else { 0 };
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("high surrogate without a low surrogate"));
                    }
                    let c = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(c).expect("a surrogate pair encodes a scalar value")
                } else {
                    char::from_u32(unit).ok_or_else(|| self.err("lone low surrogate"))?
                }
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    /// Consumes a run of ASCII digits; `false` if there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// RFC 8259: `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        let int = self.eat(b'0') || (matches!(self.peek(), Some(b'1'..=b'9')) && self.digits());
        if !int || (self.eat(b'.') && !self.digits()) {
            return Err(self.err("malformed number"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if !self.digits() {
                return Err(self.err("malformed number"));
            }
        }
        self.src[start..self.pos].parse().map(Json::Num).map_err(|_| self.err("malformed number"))
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.eat(b'}') {
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    members.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat(b'}') {
                        return Ok(Json::Obj(members));
                    }
                    if !self.eat(b',') {
                        return Err(self.err("expected `,` or `}`"));
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat(b']') {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(b',') {
                        return Err(self.err("expected `,` or `]`"));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end of input")),
        }
    }
}

/// Parses one RFC 8259 JSON document, rejecting trailing garbage and
/// nesting deeper than 128 levels.
///
/// # Errors
///
/// Returns a byte-positioned message on any syntax error.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser { src: s, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Validates one `BENCH_*.json` document against the snapshot schema:
/// version match, fingerprint shape, the full [`REQUIRED_KERNELS`]
/// inventory, and finite positive timings.
///
/// # Errors
///
/// Returns every violation found (CI prints them all), or the parse error.
pub fn validate_snapshot_json(text: &str) -> Result<(), Vec<String>> {
    let doc = parse_json(text).map_err(|e| vec![e])?;
    let mut errors = Vec::new();

    match doc.get("schema_version").and_then(Json::as_f64) {
        Some(v) if v == SCHEMA_VERSION as f64 => {}
        Some(v) => errors.push(format!("schema_version is {v}, expected {SCHEMA_VERSION}")),
        None => errors.push("missing numeric `schema_version`".to_string()),
    }
    match doc.get("label").and_then(Json::as_str) {
        Some(l) if !l.is_empty() => {}
        _ => errors.push("missing non-empty string `label`".to_string()),
    }

    match doc.get("fingerprint") {
        Some(fp) => {
            for key in ["simd_dispatch", "quick"] {
                if fp.get(key).and_then(Json::as_bool).is_none() {
                    errors.push(format!("fingerprint.{key} must be a boolean"));
                }
            }
            for key in ["lane_width", "feature_dim", "grid_side"] {
                if fp.get(key).and_then(Json::as_f64).is_none() {
                    errors.push(format!("fingerprint.{key} must be a number"));
                }
            }
            match fp.get("mlp_dims").and_then(Json::as_array) {
                Some(dims) if dims.len() == 4 && dims.iter().all(|d| d.as_f64().is_some()) => {}
                _ => errors.push("fingerprint.mlp_dims must be a 4-number array".to_string()),
            }
        }
        None => errors.push("missing `fingerprint` object".to_string()),
    }

    let mut seen: Vec<&str> = Vec::new();
    match doc.get("kernels").and_then(Json::as_array) {
        Some(kernels) => {
            for (i, k) in kernels.iter().enumerate() {
                match k.get("name").and_then(Json::as_str) {
                    Some(name) => {
                        if seen.contains(&name) {
                            errors.push(format!("kernel `{name}` reported twice"));
                        }
                        seen.push(name);
                    }
                    None => errors.push(format!("kernels[{i}] is missing string `name`")),
                }
                for field in ["ns_per_op", "ops_per_s", "ops_per_iter", "iters"] {
                    match k.get(field).and_then(Json::as_f64) {
                        Some(v) if v.is_finite() && v > 0.0 => {}
                        _ => errors
                            .push(format!("kernels[{i}].{field} must be a finite positive number")),
                    }
                }
            }
            for required in REQUIRED_KERNELS {
                if !seen.contains(&required) {
                    errors.push(format!("required kernel `{required}` is missing"));
                }
            }
        }
        None => errors.push("missing `kernels` array".to_string()),
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_snapshot_round_trips_and_validates() {
        let snap = measure("test", true);
        assert_eq!(snap.schema_version, SCHEMA_VERSION);
        assert_eq!(snap.kernels.len(), REQUIRED_KERNELS.len() + EXTRA_KERNELS.len());
        let json = snap.to_json();
        validate_snapshot_json(&json).expect("self-emitted snapshot validates");
        // Structural round-trip: every field survives the parser.
        let doc = parse_json(&json).unwrap();
        assert_eq!(doc.get("label").and_then(Json::as_str), Some("test"));
        assert_eq!(
            doc.get("fingerprint").and_then(|f| f.get("lane_width")).and_then(Json::as_f64),
            Some(LANE_WIDTH as f64)
        );
        let kernels = doc.get("kernels").and_then(Json::as_array).unwrap();
        let expected = REQUIRED_KERNELS.iter().chain(EXTRA_KERNELS.iter());
        for (k, name) in kernels.iter().zip(expected) {
            assert_eq!(k.get("name").and_then(Json::as_str), Some(*name));
            assert!(k.get("ns_per_op").and_then(Json::as_f64).unwrap() > 0.0);
        }
    }

    #[test]
    fn parser_handles_the_grammar() {
        assert_eq!(parse_json("null"), Ok(Json::Null));
        assert_eq!(parse_json(" true "), Ok(Json::Bool(true)));
        assert_eq!(parse_json("-2.5e3"), Ok(Json::Num(-2500.0)));
        assert_eq!(parse_json("\"a\\n\\\"b\\u0041\""), Ok(Json::Str("a\n\"bA".to_string())));
        assert_eq!(
            parse_json("[1, [2], {}]"),
            Ok(Json::Arr(vec![Json::Num(1.0), Json::Arr(vec![Json::Num(2.0)]), Json::Obj(vec![])]))
        );
        let obj = parse_json("{\"a\": 1, \"b\": [true, null]}").unwrap();
        assert_eq!(obj.get("a").and_then(Json::as_f64), Some(1.0));
        assert_eq!(obj.get("b").and_then(Json::as_array).map(<[Json]>::len), Some(2));
        assert_eq!(obj.get("missing"), None);
        for (text, num) in [("0", 0.0), ("-0.25", -0.25), ("1E+2", 100.0), ("12e-1", 1.2)] {
            assert_eq!(parse_json(text), Ok(Json::Num(num)), "`{text}`");
        }
        // A UTF-16 surrogate pair is one char; raw UTF-8 passes through.
        assert_eq!(parse_json("\"\\ud83d\\ude00\""), Ok(Json::Str("\u{1f600}".to_string())));
        assert_eq!(parse_json("\"é\u{1f600}\""), Ok(Json::Str("é\u{1f600}".to_string())));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "{1: 2}",
            // Numbers outside the RFC 8259 grammar.
            "+1",
            ".5",
            "1.",
            "01",
            "-",
            "1e",
            "0x10",
            // Raw control characters, lone surrogates and bad escapes.
            "\"a\nb\"",
            "\"\\ud83d\"",
            "\"\\ude00\"",
            "\"\\ud83d\\u0041\"",
            "\"\\u+041\"",
            "\"\\x\"",
            // Form feed is not JSON whitespace.
            "\u{c}1",
        ] {
            assert!(parse_json(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn parser_bounds_nesting_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        let err = parse_json(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nested deeper"), "{err}");
        // A megabyte of `[` is an error, not a stack overflow.
        assert!(parse_json(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn validator_rejects_schema_drift() {
        let good = measure("test", true).to_json();
        // Wrong version.
        let wrong = good
            .replace(&format!("\"schema_version\": {SCHEMA_VERSION}"), "\"schema_version\": 999");
        let errs = validate_snapshot_json(&wrong).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("schema_version")), "{errs:?}");
        // Missing kernel.
        let gutted = good.replace("trilinear.lanes", "trilinear.renamed");
        let errs = validate_snapshot_json(&gutted).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("trilinear.lanes")), "{errs:?}");
        // Not JSON at all.
        assert!(validate_snapshot_json("not json").is_err());
        // Structurally valid JSON, wrong shape.
        let errs = validate_snapshot_json("{}").unwrap_err();
        assert!(errs.len() >= 4, "every missing section is reported: {errs:?}");
    }

    #[test]
    fn checked_in_snapshots_validate() {
        // The perf trajectory at the repository root, validated without a
        // filesystem walk (the `bench_snapshot --check` CLI does the walk).
        for (name, text) in [
            ("BENCH_pr6.json", include_str!("../../../BENCH_pr6.json")),
            ("BENCH_pr7.json", include_str!("../../../BENCH_pr7.json")),
            ("BENCH_pr10.json", include_str!("../../../BENCH_pr10.json")),
            ("BENCH_pr14.json", include_str!("../../../BENCH_pr14.json")),
            ("BENCH_pr16.json", include_str!("../../../BENCH_pr16.json")),
            ("BENCH_pr17.json", include_str!("../../../BENCH_pr17.json")),
            ("BENCH_pr18.json", include_str!("../../../BENCH_pr18.json")),
            ("BENCH_pr19.json", include_str!("../../../BENCH_pr19.json")),
            ("BENCH_pr21.json", include_str!("../../../BENCH_pr21.json")),
            ("BENCH_pr22.json", include_str!("../../../BENCH_pr22.json")),
            ("BENCH_pr25.json", include_str!("../../../BENCH_pr25.json")),
        ] {
            if let Err(errs) = validate_snapshot_json(text) {
                panic!("{name} fails the schema: {errs:?}");
            }
        }
    }

    #[test]
    fn emitted_floats_are_json_safe() {
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(0.0025), "0.0025");
        assert!(json_f64(1e9).contains(['e', '.']));
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }
}
