//! Collision and aliasing analysis of a built SpNeRF model.
//!
//! Quantifies the two error channels of the keyless hash mapping:
//!
//! * **false positives** — empty voxels whose hash slot is occupied; without
//!   masking they return garbage (the dominant error, fixed by the bitmap);
//! * **aliased points** — stored points that lost a build-time collision and
//!   now read the winner's entry (the residual error masking cannot fix).

use spnerf_voxel::vqrf::VqrfModel;

use crate::decode::MaskMode;
use crate::model::SpNerfModel;
use crate::preprocess::unified_address;

/// Aliasing statistics over the full voxel grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AliasStats {
    /// Total voxels scanned.
    pub voxels: usize,
    /// Occupied (stored) voxels.
    pub occupied: usize,
    /// Empty voxels whose hash slot holds an entry — unmasked false
    /// positives.
    pub aliased_empty: usize,
    /// Stored points whose entry was overwritten... never: first-writer-wins
    /// means *losers* were never stored; this counts points whose lookup
    /// returns data different from their own (build-time collision losers).
    pub aliased_points: usize,
}

impl AliasStats {
    /// Fraction of empty voxels that would read garbage without masking.
    pub fn false_positive_rate(&self) -> f64 {
        let empty = self.voxels - self.occupied;
        if empty == 0 {
            0.0
        } else {
            self.aliased_empty as f64 / empty as f64
        }
    }
}

/// Scans the whole grid and classifies every voxel's decode behaviour.
///
/// `vqrf` must be the model `sp` was built from.
pub fn alias_stats(sp: &SpNerfModel, vqrf: &VqrfModel) -> AliasStats {
    let dims = sp.dims();
    let cb = sp.config().codebook_size;
    let mut stats =
        AliasStats { voxels: dims.len(), occupied: 0, aliased_empty: 0, aliased_points: 0 };
    for c in dims.iter() {
        match vqrf.lookup(c) {
            Some(i) => {
                stats.occupied += 1;
                let entry = sp.raw_lookup(c).expect("stored point has a non-empty slot");
                if entry.index != unified_address(vqrf.class_of(i), cb) {
                    stats.aliased_points += 1;
                }
            }
            None => {
                if sp.raw_lookup(c).is_some() {
                    stats.aliased_empty += 1;
                }
            }
        }
    }
    stats
}

/// Per-subgrid load balance of a built model.
///
/// The x-axis partition is geometry-dependent: an object concentrated in a
/// few x-slabs overloads their tables while others sit empty. This report
/// quantifies that imbalance — the effective collision pressure is set by
/// the *fullest* table, not the average.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadBalance {
    /// Stored points per subgrid.
    pub per_subgrid: Vec<usize>,
    /// Mean load factor across tables.
    pub mean_load: f64,
    /// Load factor of the fullest table.
    pub max_load: f64,
    /// `max_load / mean_load` (1.0 = perfectly balanced); 0 when empty.
    pub imbalance: f64,
    /// Subgrids holding zero points.
    pub empty_subgrids: usize,
}

/// Computes the subgrid load balance of a model.
pub fn load_balance(sp: &SpNerfModel) -> LoadBalance {
    let per_subgrid = sp.report().per_subgrid_points.clone();
    let t = sp.config().table_size as f64;
    let loads: Vec<f64> = per_subgrid.iter().map(|n| *n as f64 / t).collect();
    let mean_load = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    let max_load = loads.iter().cloned().fold(0.0, f64::max);
    let imbalance = if mean_load > 0.0 { max_load / mean_load } else { 0.0 };
    let empty_subgrids = per_subgrid.iter().filter(|n| **n == 0).count();
    LoadBalance { per_subgrid, mean_load, max_load, imbalance, empty_subgrids }
}

/// Mean decode error of the masked/unmasked view against the VQRF gold
/// decode, averaged over all voxels (features L2 + |density| per voxel).
///
/// This is a grid-space proxy for the PSNR impact measured in Fig. 6(b).
pub fn mean_decode_error(sp: &SpNerfModel, vqrf: &VqrfModel, mode: MaskMode) -> f64 {
    let view = sp.view(mode);
    let dims = sp.dims();
    let mut total = 0.0f64;
    for c in dims.iter() {
        let gold = vqrf.decode_at(c);
        let got = spnerf_render::source::VoxelSource::fetch(&view, c);
        total += match (gold, got) {
            (None, None) => 0.0,
            (Some((d, f)), Some(v)) => {
                let fe: f32 = f.iter().zip(v.features).map(|(a, b)| (a - b) * (a - b)).sum::<f32>();
                (fe.sqrt() + (d - v.density).abs()) as f64
            }
            (Some((d, f)), None)
            | (None, Some(spnerf_render::source::VoxelData { density: d, features: f })) => {
                let fe: f32 = f.iter().map(|a| a * a).sum();
                (fe.sqrt() + d.abs()) as f64
            }
        };
    }
    total / dims.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpNerfConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spnerf_voxel::coord::GridDims;
    use spnerf_voxel::grid::{DenseGrid, FEATURE_DIM};
    use spnerf_voxel::vqrf::VqrfConfig;

    fn fixture(t: usize) -> (VqrfModel, SpNerfModel) {
        let mut rng = StdRng::seed_from_u64(9);
        let dims = GridDims::cube(16);
        let mut g = DenseGrid::zeros(dims);
        for c in dims.iter() {
            if rng.gen::<f64>() < 0.05 {
                g.set_density(c, 0.2 + rng.gen::<f32>());
                let f: Vec<f32> = (0..FEATURE_DIM).map(|_| rng.gen::<f32>()).collect();
                g.set_features(c, &f);
            }
        }
        let vqrf = VqrfModel::build(
            &g,
            &VqrfConfig { codebook_size: 16, kmeans_iters: 2, ..Default::default() },
        );
        let cfg = SpNerfConfig { subgrid_count: 4, table_size: t, codebook_size: 16 };
        let sp = SpNerfModel::build(&vqrf, &cfg).unwrap();
        (vqrf, sp)
    }

    #[test]
    fn counts_are_consistent() {
        let (vqrf, sp) = fixture(4096);
        let s = alias_stats(&sp, &vqrf);
        assert_eq!(s.voxels, 16 * 16 * 16);
        assert_eq!(s.occupied, vqrf.nnz());
        assert!(s.aliased_points <= sp.report().collisions);
        assert!(s.false_positive_rate() >= 0.0 && s.false_positive_rate() <= 1.0);
    }

    #[test]
    fn smaller_tables_increase_false_positives() {
        let (v_big, s_big) = fixture(16_384);
        let (v_small, s_small) = fixture(128);
        let big = alias_stats(&s_big, &v_big);
        let small = alias_stats(&s_small, &v_small);
        assert!(
            small.false_positive_rate() > big.false_positive_rate(),
            "small {} vs big {}",
            small.false_positive_rate(),
            big.false_positive_rate()
        );
    }

    #[test]
    fn masking_reduces_mean_decode_error() {
        let (vqrf, sp) = fixture(256);
        let masked = mean_decode_error(&sp, &vqrf, MaskMode::Masked);
        let unmasked = mean_decode_error(&sp, &vqrf, MaskMode::Unmasked);
        assert!(masked < unmasked, "masked error {masked} must beat unmasked {unmasked}");
    }

    #[test]
    fn load_balance_reflects_geometry() {
        let (vqrf, sp) = fixture(4096);
        let lb = load_balance(&sp);
        assert_eq!(lb.per_subgrid.len(), sp.config().subgrid_count);
        assert_eq!(lb.per_subgrid.iter().sum::<usize>(), vqrf.nnz());
        assert!(lb.max_load >= lb.mean_load);
        assert!(lb.imbalance >= 1.0, "imbalance {} below 1", lb.imbalance);
        // Uniform random occupancy → near-balanced partition.
        assert!(lb.imbalance < 2.5, "random fixture should be roughly balanced");
    }

    #[test]
    fn collision_free_model_has_zero_masked_error_for_points() {
        let (vqrf, sp) = fixture(16_384);
        if sp.report().collisions == 0 {
            let err = mean_decode_error(&sp, &vqrf, MaskMode::Masked);
            assert!(err < 1e-9, "collision-free masked decode must be exact, got {err}");
        }
    }
}
