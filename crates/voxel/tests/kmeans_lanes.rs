//! Property tests pinning the k-means lane kernel to its scalar oracle.
//!
//! Equality of the answer — not a tolerance — is the contract:
//! [`Codebook::assign`] sweeps eight codewords per lane vector over a
//! transposed codebook padded with `+∞` lanes, and it must return exactly
//! the index [`Codebook::assign_scalar`] returns for every row. The cases
//! cover every padding shape (k = 1, 7, 8, 9, 33), duplicated centroids
//! (ties go to the lowest index, within a lane and across lanes), and rows
//! or centroids holding NaN or ±∞ (the scalar loop then answers 0 or the
//! first minimum).

use proptest::prelude::*;
use spnerf_voxel::kmeans::Codebook;

/// Codebook sizes: one partial block, one block short of full, one full
/// block, one codeword past a block, and a ragged multi-block codebook.
const KS: [usize; 5] = [1, 7, 8, 9, 33];

/// Values a row or centroid entry can take besides the random ones.
const SPECIALS: [f32; 6] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1.0e-40, 3.0e38];

/// Deterministic pseudo-random values in [-2, 2).
fn values(seed: u64, n: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 4.0
        })
        .collect()
}

/// Fails the case unless the lane kernel and the oracle agree on `row`.
fn check(cb: &Codebook, row: &[f32], context: &str) -> Result<(), String> {
    let (lanes, scalar) = (cb.assign(row), cb.assign_scalar(row));
    prop_assert_eq!(lanes, scalar, "k={} row={:?}: {}", cb.len(), row, context);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Random codebooks of every padding shape, queried with random rows
    // and with exact copies of codewords (distance 0).
    #[test]
    fn lane_assign_is_scalar_on_random_codebooks(
        k_idx in 0usize..5,
        dim in 1usize..14,
        seed in 0u64..1_000_000,
    ) {
        let k = KS[k_idx];
        let cb = Codebook::from_centroids(values(seed, k * dim), dim);
        for q in 0..24u64 {
            let row = if q % 3 == 0 {
                cb.centroid(q as usize % k).to_vec()
            } else {
                values(seed ^ ((q + 1) << 32), dim)
            };
            check(&cb, &row, "random")?;
        }
    }

    // Duplicated centroids: copies of one codeword land in the same lane
    // (8 apart), in other lanes and in the padded last block; every copy
    // ties, and the lowest index must win.
    #[test]
    fn ties_go_to_the_lowest_index(
        k_idx in 0usize..5,
        dim in 1usize..14,
        seed in 0u64..1_000_000,
        src in 0usize..33,
        stride in 1usize..9,
    ) {
        let k = KS[k_idx];
        let src = src % k;
        let mut centroids = values(seed, k * dim);
        let original = centroids[src * dim..(src + 1) * dim].to_vec();
        for c in (src + stride..k).step_by(stride) {
            centroids[c * dim..(c + 1) * dim].copy_from_slice(&original);
        }
        let cb = Codebook::from_centroids(centroids, dim);
        // A query at the duplicated codeword, and one nudged off it: both
        // are nearest to every copy at once.
        let mut nudged = original.clone();
        nudged[0] += 1.0e-3;
        check(&cb, &original, "at the duplicates")?;
        check(&cb, &nudged, "next to the duplicates")?;
        prop_assert_eq!(cb.assign(&original), src, "the first copy wins");
    }

    // Rows (and centroids) holding NaN or ±∞ next to ordinary values.
    #[test]
    fn non_finite_entries_match_scalar(
        k_idx in 0usize..5,
        dim in 1usize..14,
        seed in 0u64..1_000_000,
        special in 0usize..6,
        pos in 0usize..13,
        poison_centroid in 0usize..40,
    ) {
        let k = KS[k_idx];
        let mut centroids = values(seed, k * dim);
        if poison_centroid < k {
            centroids[poison_centroid * dim + pos % dim] = SPECIALS[(special + 1) % 6];
        }
        let cb = Codebook::from_centroids(centroids, dim);
        let mut row = values(!seed, dim);
        row[pos % dim] = SPECIALS[special];
        check(&cb, &row, "one special entry")?;
        check(&cb, &vec![SPECIALS[special]; dim], "all entries special")?;
    }
}

#[test]
fn rows_without_a_finite_distance_answer_zero() {
    for k in KS {
        let cb = Codebook::from_centroids(values(k as u64, k * 3), 3);
        for row in [[f32::NAN, 0.0, 0.0], [0.0, f32::INFINITY, 0.0], [f32::NEG_INFINITY; 3]] {
            assert_eq!(cb.assign_scalar(&row), 0, "k={k} {row:?}");
            assert_eq!(cb.assign(&row), 0, "k={k} {row:?}");
        }
    }
}

#[test]
fn ties_across_lanes_and_blocks_pick_the_first() {
    // Codewords 5, 13 (same lane, next block), 20 and 32 (other lanes, the
    // last one alone in the padded block) are all at distance 0.
    let dim = 2;
    let mut centroids = values(7, 33 * dim);
    for c in [5, 13, 20, 32] {
        centroids[c * dim..(c + 1) * dim].copy_from_slice(&[9.0, 9.0]);
    }
    let cb = Codebook::from_centroids(centroids, dim);
    assert_eq!(cb.assign(&[9.0, 9.0]), 5);
    assert_eq!(cb.assign_scalar(&[9.0, 9.0]), 5);
}
