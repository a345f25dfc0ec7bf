//! Property tests pinning the lane kernels to their scalar oracles.
//!
//! Equality — not tolerance — is the contract: the front doors every build
//! runs (`interpolate_cell`, `Mlp::forward`/`forward_with`,
//! `DeferredMlp::forward`) are lane kernels, and they must be **bitwise
//! identical** to the scalar oracles (`interpolate_cell_scalar`,
//! `forward_scalar`) for every input, so the lane kernels can never change
//! a rendered pixel. These tests drive both directly over random cells,
//! weights, all five corpus archetypes, and inputs the random draws never
//! reach (signed zeros, subnormals, sigmoid-saturating magnitudes). The
//! compositing accumulator is pinned to its per-channel formula.

use proptest::prelude::*;
use spnerf_render::composite::accumulate_weighted;
use spnerf_render::interp::{
    interpolate_cell, interpolate_cell_scalar, trilinear_cell, TrilinearCell,
};
use spnerf_render::mlp::{DeferredMlp, Mlp, MlpScratch, DEFERRED_INPUT_DIM, MLP_INPUT_DIM};
use spnerf_render::scene::{build_grid, SceneId};
use spnerf_render::source::VoxelSource;
use spnerf_render::vec3::Vec3;
use spnerf_testkit::corpus::{generate, Archetype, CorpusSpec};

/// Bitwise comparison of two interpolation results with a labelled panic.
fn assert_samples_bitwise(
    scalar: &spnerf_render::interp::InterpSample,
    lanes: &spnerf_render::interp::InterpSample,
    context: &str,
) {
    assert_eq!(scalar.density.to_bits(), lanes.density.to_bits(), "density diverged: {context}");
    for (ch, (s, l)) in scalar.features.iter().zip(lanes.features.iter()).enumerate() {
        assert_eq!(s.to_bits(), l.to_bits(), "feature[{ch}] diverged: {context}");
    }
    assert_eq!(scalar.occupied_corners, lanes.occupied_corners, "corner count: {context}");
}

/// Deterministic pseudo-random MLP input from a seed.
fn mlp_input(seed: u64) -> [f32; MLP_INPUT_DIM] {
    let mut x = [0.0f32; MLP_INPUT_DIM];
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for slot in &mut x {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        // Map the top bits to roughly [-4, 4): plenty of sign and
        // magnitude variety, no overflow concerns.
        *slot = ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 8.0;
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Lane interpolation equals scalar bitwise over every corpus
    // archetype, occupancy, seed, and in-cell position — including cells
    // with any mix of occupied and empty corners.
    #[test]
    fn lane_interpolation_is_bitwise_scalar_on_corpus(
        arch_idx in 0usize..5,
        occupancy in 0.005f64..0.60,
        seed in 0u64..1000,
        fx in 0.0f32..1.0,
        fy in 0.0f32..1.0,
        fz in 0.0f32..1.0,
        cx in 0u32..15,
        cy in 0u32..15,
        cz in 0u32..15,
    ) {
        let spec = CorpusSpec::new(Archetype::ALL[arch_idx], 16, occupancy, seed);
        let grid = generate(&spec);
        let p = Vec3::new(cx as f32 + fx, cy as f32 + fy, cz as f32 + fz);
        let Some(cell) = trilinear_cell(VoxelSource::dims(&grid), p) else {
            return Ok(()); // fractional part of 1.0 can land outside
        };
        let scalar = interpolate_cell_scalar(&grid, &cell);
        let lanes = interpolate_cell(&grid, &cell);
        assert_samples_bitwise(&scalar, &lanes, &format!("{} at {p:?}", spec.label()));
    }

    // Lane interpolation equals scalar bitwise for arbitrary (even
    // unnormalized or zero) corner weights — the kernel must not rely on
    // the weights summing to one or being non-zero.
    #[test]
    fn lane_interpolation_is_bitwise_scalar_for_raw_weights(
        scene_idx in 0usize..8,
        base in 0u32..18,
        weight_seed in 0u64..10_000,
        zero_mask in 0u8..=255,
    ) {
        let grid = build_grid(SceneId::all()[scene_idx], 20);
        let raw = mlp_input(weight_seed);
        let mut weights = [0.0f32; 8];
        for (i, slot) in weights.iter_mut().enumerate() {
            // Zeroed weights exercise the skip-empty-corner fast path in
            // every corner position; the rest are arbitrary magnitudes.
            if zero_mask & (1 << i) == 0 {
                *slot = raw[i].abs();
            }
        }
        let cell = TrilinearCell {
            base: spnerf_voxel::coord::GridCoord::new(base, (base * 3) % 18, (base * 7) % 18),
            weights,
        };
        let scalar = interpolate_cell_scalar(&grid, &cell);
        let lanes = interpolate_cell(&grid, &cell);
        assert_samples_bitwise(&scalar, &lanes, &format!("base={base} mask={zero_mask:08b}"));
    }

    // The lane-blocked GEMV equals the scalar forward pass bitwise for
    // random networks and random inputs, with and without a reused
    // scratch buffer.
    #[test]
    fn lane_gemv_is_bitwise_scalar(mlp_seed in 0u64..50, input_seed in 0u64..10_000) {
        let mlp = Mlp::random(mlp_seed);
        let input = mlp_input(input_seed);
        let scalar = mlp.forward_scalar(&input);
        let lanes = mlp.forward(&input);
        for (k, (s, l)) in scalar.iter().zip(lanes.iter()).enumerate() {
            prop_assert_eq!(
                s.to_bits(), l.to_bits(),
                "output[{}] diverged: mlp_seed={} input_seed={}", k, mlp_seed, input_seed
            );
        }
        // A dirty scratch buffer must not leak between forwards.
        let mut scratch = MlpScratch::new();
        let _ = mlp.forward_with(&mlp_input(input_seed ^ 0xFFFF), &mut scratch);
        let reused = mlp.forward_with(&input, &mut scratch);
        prop_assert_eq!(reused, lanes, "scratch reuse changed the result");
    }

    // The compositing accumulator equals the per-channel formula
    // `acc + value · w` bitwise for any channel count, any starting
    // accumulator, any weight sign or magnitude. This is the kernel every
    // composited pixel and every accumulated specular feature runs through.
    #[test]
    fn composite_accumulate_is_bitwise_scalar(
        len in 0usize..33,
        acc_seed in 0u64..10_000,
        val_seed in 0u64..10_000,
        weight_idx in 0usize..6,
    ) {
        let raw_acc = mlp_input(acc_seed);
        let raw_val = mlp_input(val_seed);
        let w = [0.0f32, 1.0, -1.0, 0.12345, -2.5, 1e-8][weight_idx];
        let start: Vec<f32> = raw_acc.iter().cycle().take(len).copied().collect();
        let values: Vec<f32> = raw_val.iter().cycle().take(len).copied().collect();
        let mut acc = start.clone();
        accumulate_weighted(&mut acc, &values, w);
        for c in 0..len {
            prop_assert_eq!(
                acc[c].to_bits(), (start[c] + values[c] * w).to_bits(),
                "channel {} diverged: len={} w={}", c, len, w
            );
        }
    }

    // The deferred per-pixel MLP carries the same kernel/oracle contract
    // as the big color MLP: bitwise equality for random networks and
    // random specular-feature ⊕ view-encoding inputs, so the lane GEMV can
    // never change a deferred-shaded pixel.
    #[test]
    fn deferred_mlp_is_bitwise_scalar(mlp_seed in 0u64..50, input_seed in 0u64..10_000) {
        let mlp = DeferredMlp::random(mlp_seed);
        let raw = mlp_input(input_seed);
        let mut input = [0.0f32; DEFERRED_INPUT_DIM];
        input.copy_from_slice(&raw[..DEFERRED_INPUT_DIM]);
        let scalar = mlp.forward_scalar(&input);
        let lanes = mlp.forward(&input);
        for (k, (s, l)) in scalar.iter().zip(lanes.iter()).enumerate() {
            prop_assert_eq!(
                s.to_bits(), l.to_bits(),
                "deferred output[{}] diverged: mlp_seed={} input_seed={}",
                k, mlp_seed, input_seed
            );
        }
    }
}

/// Non-proptest pin: the front door `interpolate_cell` equals the scalar
/// oracle on every scene of the standard corpus at grid side 16 — a cheap
/// exhaustive-ish sweep over real occupancy patterns.
#[test]
fn front_door_matches_oracle_across_corpus() {
    for &arch in Archetype::ALL.iter() {
        let spec = CorpusSpec::new(arch, 16, 0.15, 42);
        let grid = generate(&spec);
        let dims = VoxelSource::dims(&grid);
        for i in 0..200usize {
            let p = Vec3::new(
                ((i * 7) % 15) as f32 + 0.3,
                ((i * 13) % 15) as f32 + 0.7,
                ((i * 29) % 15) as f32 + 0.45,
            );
            let cell = trilinear_cell(dims, p).unwrap();
            let scalar = interpolate_cell_scalar(&grid, &cell);
            let lanes = interpolate_cell(&grid, &cell);
            assert_samples_bitwise(&scalar, &lanes, &format!("{} probe {i}", spec.label()));
        }
    }
}

/// MLP inputs the `[-4, 4)` draws of [`mlp_input`] never reach: signed
/// zeros, subnormal magnitudes, and large finite magnitudes (about ±1e3)
/// that push the output pre-activations far enough to saturate the sigmoid
/// while every GEMV accumulator stays finite.
fn edge_inputs() -> Vec<(&'static str, [f32; MLP_INPUT_DIM])> {
    let sign = |seed: u64, i: usize| if mlp_input(seed)[i] < 0.0 { -1.0f32 } else { 1.0 };
    let smallest_subnormal = f32::from_bits(1);
    let largest_subnormal = f32::from_bits(0x007F_FFFF);
    vec![
        ("all +0.0", [0.0; MLP_INPUT_DIM]),
        ("all -0.0", [-0.0; MLP_INPUT_DIM]),
        ("alternating ±0.0", std::array::from_fn(|i| if i % 2 == 0 { 0.0 } else { -0.0 })),
        ("smallest subnormal, signed", std::array::from_fn(|i| sign(1, i) * smallest_subnormal)),
        ("largest subnormal, signed", std::array::from_fn(|i| sign(2, i) * largest_subnormal)),
        ("subnormal ladder", std::array::from_fn(|i| sign(3, i) * f32::from_bits(1 << (i % 23)))),
        ("+1e3", [1e3; MLP_INPUT_DIM]),
        ("-1e3", [-1e3; MLP_INPUT_DIM]),
        ("±1e3, signed", std::array::from_fn(|i| sign(4, i) * 1e3)),
        (
            "large, varied",
            std::array::from_fn(|i| sign(5, i) * (500.0 + 250.0 * mlp_input(6)[i].abs())),
        ),
        (
            "zeros, subnormals and large mixed",
            std::array::from_fn(|i| match i % 3 {
                0 => sign(7, i) * 0.0,
                1 => sign(8, i) * largest_subnormal,
                _ => sign(9, i) * 1e3,
            }),
        ),
    ]
}

/// The front doors `Mlp::forward`, `Mlp::forward_with` (with a dirty
/// scratch) and `DeferredMlp::forward` equal their scalar oracles bitwise
/// on [`edge_inputs`], and the outputs stay finite (NaN payload bits are
/// not part of the contract, so no case may produce one).
#[test]
fn front_doors_match_oracle_on_edge_inputs() {
    let mut saturated = 0usize;
    for mlp_seed in 0..8u64 {
        let mlp = Mlp::random(mlp_seed);
        let deferred = DeferredMlp::random(mlp_seed);
        let mut scratch = MlpScratch::new();
        for (label, input) in edge_inputs() {
            let context = format!("{label}, mlp_seed={mlp_seed}");
            let oracle = mlp.forward_scalar(&input);
            assert!(oracle.iter().all(|c| c.is_finite()), "non-finite oracle output: {context}");
            let fresh = mlp.forward(&input);
            // Dirty the scratch with an unrelated input before reusing it.
            let _ = mlp.forward_with(&mlp_input(mlp_seed), &mut scratch);
            let reused = mlp.forward_with(&input, &mut scratch);
            for (name, got) in [("forward", fresh), ("forward_with", reused)] {
                for (k, (o, g)) in oracle.iter().zip(got).enumerate() {
                    assert_eq!(o.to_bits(), g.to_bits(), "{name} output[{k}] diverged: {context}");
                }
            }
            saturated += oracle.iter().filter(|&&c| c == 0.0 || c == 1.0).count();

            let mut short = [0.0f32; DEFERRED_INPUT_DIM];
            short.copy_from_slice(&input[..DEFERRED_INPUT_DIM]);
            let oracle = deferred.forward_scalar(&short);
            assert!(oracle.iter().all(|c| c.is_finite()), "non-finite deferred output: {context}");
            for (k, (o, g)) in oracle.iter().zip(deferred.forward(&short)).enumerate() {
                assert_eq!(o.to_bits(), g.to_bits(), "deferred output[{k}] diverged: {context}");
            }
        }
    }
    assert!(saturated > 0, "the large-magnitude inputs must saturate the sigmoid");
}
