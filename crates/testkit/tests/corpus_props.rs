//! Property satellite: VQRF encode/decode round-trips, bitmap-mask
//! consistency, and occupancy mip-pyramid invariants over corpus-generated
//! grids — random archetypes, seeds, and occupancies from 1 % to 90 %.

use proptest::prelude::*;

use spnerf_core::MaskMode;
use spnerf_render::source::VoxelSource;
use spnerf_testkit::corpus::{generate, Archetype, CorpusSpec};
use spnerf_testkit::fixtures;
use spnerf_voxel::bitmap::Bitmap;
use spnerf_voxel::coord::GridCoord;
use spnerf_voxel::mip::OccupancyMip;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn vqrf_round_trip_and_bitmap_consistency(
        arch_idx in 0usize..5,
        side in 8u32..14,
        occupancy in 0.01f64..0.90,
        seed in 0u64..1_000,
    ) {
        let spec = CorpusSpec::new(Archetype::ALL[arch_idx], side, occupancy, seed);
        let (grid, vqrf, model) = fixtures::model_fixture(generate(&spec), 16, 4, 4096);
        let label = spec.label();

        // Encode/decode round trip: the restored grid has exactly the
        // source support (no pruning configured), and densities survive
        // within the INT8 quantization bound.
        let restored = vqrf.restore();
        prop_assert_eq!(restored.occupied_count(), grid.occupied_count(), "{}", &label);
        let dens_err = vqrf.density_quant().params().max_rounding_error();
        for p in vqrf.points() {
            let (d, f) = vqrf.decode_at(p.coord).expect("stored point decodes");
            prop_assert!(
                (d - p.density).abs() <= dens_err + 1e-6,
                "{}: density {} decoded {}", &label, p.density, d
            );
            prop_assert!(f.iter().all(|v| v.is_finite()), "{}", &label);
        }

        // Bitmap-mask consistency: the bitmap is exactly the grid support,
        // and the masked decoder's support is exactly the bitmap.
        prop_assert_eq!(model.bitmap().count_ones(), vqrf.nnz(), "{}", &label);
        let view = model.view(MaskMode::Masked);
        for c in grid.dims().iter() {
            let occupied = grid.is_occupied(c);
            prop_assert_eq!(model.bitmap().get(c), occupied, "{}: bitmap at {}", &label, c);
            prop_assert_eq!(view.fetch(c).is_some(), occupied, "{}: decode at {}", &label, c);
        }
    }

    #[test]
    fn mip_levels_consistent_and_fine_lookup_matches_bitmap(
        arch_idx in 0usize..5,
        side in 8u32..14,
        occupancy in 0.01f64..0.90,
        seed in 0u64..1_000,
    ) {
        let spec = CorpusSpec::new(Archetype::ALL[arch_idx], side, occupancy, seed);
        let grid = generate(&spec);
        let bitmap = Bitmap::from_grid(&grid);
        let mip = OccupancyMip::build(bitmap.clone());
        let label = spec.label();
        let dims = grid.dims();

        // Level consistency: a level-k block is occupied iff some child at
        // level k−1 is occupied, where "child" means the level-(k−1) blocks
        // whose closed coverage tiles the parent's (2 per axis; for k = 1
        // the children are the 3³ vertices of the dilated coverage).
        for level in 1..=mip.levels() {
            let k = level as u32;
            let blocks = |n: u32| (((n as u64 - 1).div_ceil(1 << k)) as u32).max(1);
            for bz in 0..blocks(dims.nz) {
                for by in 0..blocks(dims.ny) {
                    for bx in 0..blocks(dims.nx) {
                        let block = GridCoord::new(bx, by, bz);
                        let any_child = if level == 1 {
                            let mut any = false;
                            'v: for dz in 0..=2 {
                                for dy in 0..=2 {
                                    for dx in 0..=2 {
                                        let v = GridCoord::new(
                                            bx * 2 + dx, by * 2 + dy, bz * 2 + dz,
                                        );
                                        if dims.contains(v) && bitmap.get(v) {
                                            any = true;
                                            break 'v;
                                        }
                                    }
                                }
                            }
                            any
                        } else {
                            let child_blocks = |n: u32| {
                                (((n as u64 - 1).div_ceil(1 << (k - 1))) as u32).max(1)
                            };
                            let mut any = false;
                            'c: for dz in 0..=1 {
                                for dy in 0..=1 {
                                    for dx in 0..=1 {
                                        let j = GridCoord::new(
                                            bx * 2 + dx, by * 2 + dy, bz * 2 + dz,
                                        );
                                        if j.x < child_blocks(dims.nx)
                                            && j.y < child_blocks(dims.ny)
                                            && j.z < child_blocks(dims.nz)
                                            && mip.block_occupied(level - 1, j)
                                        {
                                            any = true;
                                            break 'c;
                                        }
                                    }
                                }
                            }
                            any
                        };
                        prop_assert_eq!(
                            mip.block_occupied(level, block),
                            any_child,
                            "{}: level {} block {} disagrees with its children",
                            &label, level, block
                        );
                    }
                }
            }
        }

        // Fine-level lookup through the pyramid equals the raw bitmap: the
        // pyramid claims a cell empty iff all 8 corner bits are clear.
        for base in dims.iter() {
            let raw_empty = base.cell_corners().iter().all(|c| !bitmap.get_clamped(*c));
            prop_assert_eq!(
                mip.empty_region(base).is_some(),
                raw_empty,
                "{}: pyramid vs raw bitmap at cell {}", &label, base
            );
        }
    }

    #[test]
    fn restored_empty_space_stays_empty(
        arch_idx in 0usize..5,
        side in 8u32..12,
        seed in 0u64..1_000,
    ) {
        // Low-occupancy regime: almost everything is empty, and none of it
        // may leak into the restored grid or the bitmap.
        let spec = CorpusSpec::new(Archetype::ALL[arch_idx], side, 0.01, seed);
        let (grid, vqrf, model) = fixtures::model_fixture(generate(&spec), 16, 4, 4096);
        let restored = vqrf.restore();
        for c in grid.dims().iter() {
            if !grid.is_occupied(c) {
                prop_assert!(!restored.is_occupied(c));
                prop_assert!(!model.bitmap().get(c));
            }
        }
    }
}
