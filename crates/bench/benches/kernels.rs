//! Criterion micro-benchmarks of the kernels behind every figure:
//! spatial hash (Eq. 1), hash-table lookup, bitmap masking, trilinear
//! weights and the scalar/lane cell blend, FP16 conversion, the
//! compositing accumulator, MLP forward in scalar/lane form,
//! block-circulant buffer I/O, systolic GEMM, online decode, and DRAM
//! trace replay.
//!
//! For an exportable record of the hot-path kernels use the
//! `bench_snapshot` binary (`BENCH_*.json`); these criterion groups are the
//! interactive exploration surface.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use spnerf_accel::sim::block_circulant::BlockCirculantBuffer;
use spnerf_accel::sim::systolic::SystolicArray;
use spnerf_core::hash::spatial_hash;
use spnerf_core::table::HashTable;
use spnerf_core::{MaskMode, SpNerfConfig, SpNerfModel};
use spnerf_dram::controller::MemoryController;
use spnerf_dram::timing::DramTimings;
use spnerf_dram::trace::{gather, sequential};
use spnerf_render::composite::accumulate_weighted;
use spnerf_render::fp16::{f16_bits_to_f32, f32_to_f16_bits};
use spnerf_render::interp::{interpolate_cell, interpolate_cell_scalar, trilinear_cell};
use spnerf_render::mlp::{Mlp, MlpScratch, MLP_INPUT_DIM};
use spnerf_render::scene::{build_grid, SceneId};
use spnerf_render::source::VoxelSource;
use spnerf_render::vec3::Vec3;
use spnerf_voxel::bitmap::Bitmap;
use spnerf_voxel::coord::{GridCoord, GridDims};
use spnerf_voxel::vqrf::{VqrfConfig, VqrfModel};

fn bench_spatial_hash(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("spatial_hash_eq1", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in 0..1024u32 {
                acc ^= spatial_hash(black_box(GridCoord::new(i, i * 7, i * 13)), 32768);
            }
            acc
        })
    });
    g.finish();
}

fn bench_table_lookup(c: &mut Criterion) {
    let mut table = HashTable::new(32 * 1024);
    for i in 0..2000u32 {
        table.insert(GridCoord::new(i, i * 3, i * 5), i % 4096, 1);
    }
    let mut g = c.benchmark_group("table");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("keyless_lookup", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for i in 0..1024u32 {
                if table.lookup(black_box(GridCoord::new(i, i * 3, i * 5))).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });
    g.finish();
}

fn bench_bitmap(c: &mut Criterion) {
    let dims = GridDims::cube(128);
    let mut bm = Bitmap::zeros(dims);
    for i in (0..dims.len()).step_by(31) {
        bm.set_index(i, true);
    }
    let mut g = c.benchmark_group("bitmap");
    g.throughput(Throughput::Elements(4096));
    g.bench_function("mask_lookup", |b| {
        b.iter(|| {
            let mut ones = 0usize;
            for i in 0..4096u32 {
                if bm.get_clamped(black_box(GridCoord::new(i % 128, (i / 7) % 128, (i / 3) % 128)))
                {
                    ones += 1;
                }
            }
            ones
        })
    });
    g.finish();
}

fn bench_trilinear(c: &mut Criterion) {
    let dims = GridDims::cube(160);
    let mut g = c.benchmark_group("interp");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("trilinear_cell", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for i in 0..1024 {
                let p = Vec3::new(
                    (i % 150) as f32 + 0.3,
                    ((i * 7) % 150) as f32 + 0.6,
                    ((i * 13) % 150) as f32 + 0.1,
                );
                if let Some(cell) = trilinear_cell(dims, black_box(p)) {
                    acc += cell.weights[0];
                }
            }
            acc
        })
    });
    // Scalar vs lane cell blend on a real grid — the pair `bench_snapshot`
    // records as `trilinear.scalar` / `trilinear.lanes`.
    let grid = build_grid(SceneId::Lego, 64);
    let gdims = VoxelSource::dims(&grid);
    let cells: Vec<_> = (0..1024usize)
        .map(|i| {
            let p = Vec3::new(
                ((i * 7) % 63) as f32 + 0.35,
                ((i * 13) % 63) as f32 + 0.65,
                ((i * 29) % 63) as f32 + 0.15,
            );
            trilinear_cell(gdims, p).unwrap()
        })
        .collect();
    g.bench_function("cell_blend_scalar", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for cell in &cells {
                acc += interpolate_cell_scalar(&grid, black_box(cell)).density;
            }
            acc
        })
    });
    g.bench_function("cell_blend_lanes", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for cell in &cells {
                acc += interpolate_cell(&grid, black_box(cell)).density;
            }
            acc
        })
    });
    g.finish();
}

/// One group, two rows: `encode` and `decode` cover the conversion pair.
/// There used to be a third `round_trip` row that re-ran encode+decode in
/// a single loop — pure duplication of the other two (the round-trip cost
/// is their sum), so it was folded away. The `bench_snapshot` binary still
/// records `fp16.round_trip`, one of the [`REQUIRED_KERNELS`], for
/// trajectory continuity; see `docs/benchmarking.md`.
///
/// [`REQUIRED_KERNELS`]: spnerf_bench::snapshot::REQUIRED_KERNELS
fn bench_fp16(c: &mut Criterion) {
    let mut g = c.benchmark_group("fp16");
    g.throughput(Throughput::Elements(4096));
    g.bench_function("encode", |b| {
        b.iter(|| {
            let mut acc = 0u16;
            for i in 0..4096 {
                acc ^= f32_to_f16_bits(black_box(i as f32 * 0.037 - 70.0));
            }
            acc
        })
    });
    let bits: Vec<u16> = (0..4096).map(|i| f32_to_f16_bits(i as f32 * 0.037 - 70.0)).collect();
    g.bench_function("decode", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for h in &bits {
                acc += f16_bits_to_f32(black_box(*h));
            }
            acc
        })
    });
    g.finish();
}

fn bench_composite(c: &mut Criterion) {
    // The compositing inner loop (`acc[c] += values[c] * w`) — the kernel
    // `bench_snapshot` records as `composite.scalar`. Nine channels: the
    // baked path's specular feature accumulation width.
    let weights: Vec<f32> = (0..512).map(|i| (i as f32 * 0.11).sin().abs()).collect();
    let values: [f32; 9] = std::array::from_fn(|c| (c as f32 * 0.31).sin());
    let mut g = c.benchmark_group("composite");
    g.throughput(Throughput::Elements(512));
    g.bench_function("accumulate_scalar", |b| {
        b.iter(|| {
            let mut acc = [0.0f32; 9];
            for w in &weights {
                accumulate_weighted(&mut acc, black_box(&values), *w);
            }
            acc
        })
    });
    g.finish();
}

fn bench_mlp(c: &mut Criterion) {
    let mlp = Mlp::random(42);
    let input = [0.3f32; MLP_INPUT_DIM];
    let mut g = c.benchmark_group("mlp");
    g.throughput(Throughput::Elements(1));
    // The GEMV variants `bench_snapshot` records as `mlp_gemv.*`: the lane
    // kernel every build runs (`mlp_gemv.lanes`) and the scalar oracle.
    g.bench_function("forward_39_128_128_3", |b| b.iter(|| mlp.forward(black_box(&input))));
    g.bench_function("forward_scalar", |b| b.iter(|| mlp.forward_scalar(black_box(&input))));
    let mut scratch = MlpScratch::new();
    g.bench_function("forward_scratch_reuse", |b| {
        b.iter(|| mlp.forward_with(black_box(&input), &mut scratch))
    });
    g.finish();
}

fn bench_block_circulant(c: &mut Criterion) {
    let v: Vec<f32> = (0..39).map(|i| i as f32).collect();
    let mut g = c.benchmark_group("block_circulant");
    g.throughput(Throughput::Elements(64));
    g.bench_function("write_read_batch64", |b| {
        b.iter(|| {
            let mut buf = BlockCirculantBuffer::new(64);
            for _ in 0..64 {
                buf.write_vector(black_box(&v)).unwrap();
            }
            let mut acc = 0.0f32;
            for i in 0..64 {
                acc += buf.read_vector(i)[0];
            }
            acc
        })
    });
    g.finish();
}

fn bench_systolic(c: &mut Criterion) {
    let arr = SystolicArray::new(16, 16);
    let (m, k, n) = (64, 39, 128);
    let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.01).sin()).collect();
    let b_mat: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.02).cos()).collect();
    let mut g = c.benchmark_group("systolic");
    g.throughput(Throughput::Elements((m * k * n) as u64));
    g.bench_function("tiled_gemm_64x39x128", |bch| {
        bch.iter(|| arr.gemm(black_box(&a), black_box(&b_mat), m, k, n))
    });
    g.finish();
}

fn bench_online_decode(c: &mut Criterion) {
    let grid = build_grid(SceneId::Lego, 48);
    let vqrf = VqrfModel::build(
        &grid,
        &VqrfConfig {
            codebook_size: 128,
            kmeans_iters: 2,
            kmeans_subsample: 2048,
            ..Default::default()
        },
    );
    let cfg = SpNerfConfig { subgrid_count: 16, table_size: 8192, codebook_size: 128 };
    let model = SpNerfModel::build(&vqrf, &cfg).unwrap();
    let view = model.view(MaskMode::Masked);
    let dims = model.dims();
    let mut g = c.benchmark_group("decode");
    g.throughput(Throughput::Elements(4096));
    g.bench_function("online_decode_masked", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for i in 0..4096u32 {
                let cc = GridCoord::new(i % dims.nx, (i / 5) % dims.ny, (i / 11) % dims.nz);
                if view.fetch(black_box(cc)).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });
    g.finish();
}

fn bench_dram(c: &mut Criterion) {
    let timings = DramTimings::lpddr4_3200();
    let seq = sequential(0, 1 << 20, 256);
    let gat = gather(4096, 1 << 28, 64, 7);
    let mut g = c.benchmark_group("dram");
    g.bench_function("stream_1mib", |b| {
        b.iter(|| {
            let mut mc = MemoryController::new(timings);
            mc.run_trace(black_box(&seq)).cycles
        })
    });
    g.bench_function("gather_4096", |b| {
        b.iter(|| {
            let mut mc = MemoryController::new(timings);
            mc.run_trace(black_box(&gat)).cycles
        })
    });
    g.finish();
}

criterion_group!(
    kernels,
    bench_spatial_hash,
    bench_table_lookup,
    bench_bitmap,
    bench_trilinear,
    bench_fp16,
    bench_composite,
    bench_mlp,
    bench_block_circulant,
    bench_systolic,
    bench_online_decode,
    bench_dram
);
criterion_main!(kernels);
