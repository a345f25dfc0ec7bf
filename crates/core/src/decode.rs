//! Online sparse voxel-grid decoding (Section III-B, the blue path in
//! Fig. 3).
//!
//! For every vertex touched by trilinear interpolation the decoder performs:
//!
//! 1. **hash lookup** — Eq. (1) into the vertex's subgrid table,
//! 2. **value fetch** — the 18-bit index selects the codebook or the true
//!    voxel grid; the density comes from the same entry,
//! 3. **bitmap masking** — the occupancy bit zeroes out values produced by
//!    hash collisions at empty locations ("hash collisions are the dominant
//!    source of errors").
//!
//! [`MaskMode::Unmasked`] disables step 3, reproducing the paper's
//! "SpNeRF before bitmap masking" ablation of Fig. 6(b).
//!
//! The masked view also answers the renderer's one emptiness query
//! ([`VoxelSource::occupancy_mip`]) with the model's bitmap pyramid
//! ([`SpNerfModel::occupancy`], built once with the model), as the SGPU's
//! Bitmap Lookup Unit answers before its Hash Mapping Unit: the renderer
//! clips each sample against the bitmap's occupied box, and a sample whose
//! 8 corners are all unset skips steps 1–3 for every corner.

use spnerf_render::source::{VoxelData, VoxelSource};
use spnerf_voxel::coord::{GridCoord, GridDims};
use spnerf_voxel::mip::OccupancyMip;

use crate::model::SpNerfModel;

/// Whether online decoding applies bitmap masking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaskMode {
    /// Full SpNeRF: collisions at empty voxels are masked to zero.
    Masked,
    /// Ablation: raw hash-table reads, collisions included.
    Unmasked,
}

/// Fine-grained outcome of decoding one vertex (useful for analysis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecodeOutcome {
    /// Vertex outside the grid.
    OutOfBounds,
    /// Bitmap says empty → masked to zero (only in [`MaskMode::Masked`]).
    MaskedEmpty,
    /// Hash slot empty → zero.
    EmptySlot,
    /// A value was produced.
    Value(VoxelData),
}

/// A renderable view of an [`SpNerfModel`] under a chosen [`MaskMode`].
///
/// Implements [`VoxelSource`], so the reference renderer consumes it exactly
/// like the dense ground truth or the VQRF gold model.
#[derive(Debug, Clone, Copy)]
pub struct SpNerfView<'a> {
    model: &'a SpNerfModel,
    mode: MaskMode,
}

impl<'a> SpNerfView<'a> {
    /// Creates a view over `model`.
    pub fn new(model: &'a SpNerfModel, mode: MaskMode) -> Self {
        Self { model, mode }
    }

    /// The exact decode support of this view: one bit per vertex where
    /// [`SpNerfView::decode`] produces a value.
    ///
    /// Under [`MaskMode::Masked`] this is a *subset* of the model's pruned
    /// bitmap (quantized-to-zero densities and empty slots drop out), so
    /// the masked view skips against the bitmap's own pyramid
    /// ([`SpNerfModel::occupancy`]), which covers it. Under
    /// [`MaskMode::Unmasked`] it is a *superset* (hash collisions at empty
    /// voxels decode to their winner's data): this is the bitmap the
    /// unmasked ablation's pyramid ([`OccupancyMip`]) must be built from —
    /// using the pruned bitmap there would skip over collision artifacts
    /// and change pixels.
    pub fn support_bitmap(&self) -> spnerf_voxel::bitmap::Bitmap {
        spnerf_render::source::support_bitmap(self)
    }

    /// The masking mode of this view.
    pub fn mode(&self) -> MaskMode {
        self.mode
    }

    /// The underlying model.
    pub fn model(&self) -> &'a SpNerfModel {
        self.model
    }

    /// Decodes one vertex with full outcome information.
    pub fn decode(&self, c: GridCoord) -> DecodeOutcome {
        let model = self.model;
        if !model.dims().contains(c) {
            return DecodeOutcome::OutOfBounds;
        }
        if self.mode == MaskMode::Masked && !model.bitmap().get(c) {
            return DecodeOutcome::MaskedEmpty;
        }
        let Some(entry) = model.raw_lookup(c) else {
            return DecodeOutcome::EmptySlot;
        };
        let Some(features) = model.resolve_features(entry.index) else {
            // Corrupted address: treat as empty (hardware would read junk).
            return DecodeOutcome::EmptySlot;
        };
        let density = entry.density_q as f32 * model.density_scale();
        if density <= 0.0 {
            // Quantized-to-zero density carries no radiance.
            return DecodeOutcome::EmptySlot;
        }
        DecodeOutcome::Value(VoxelData { density, features })
    }
}

impl VoxelSource for SpNerfView<'_> {
    fn dims(&self) -> GridDims {
        self.model.dims()
    }

    fn fetch(&self, c: GridCoord) -> Option<VoxelData> {
        match self.decode(c) {
            DecodeOutcome::Value(v) => Some(v),
            _ => None,
        }
    }

    /// Masked: the model's bitmap pyramid, sound because the masked decode
    /// support is a subset of the bitmap. Unmasked: none, because hash
    /// collisions decode at empty voxels anywhere in the grid.
    fn occupancy_mip(&self) -> Option<&OccupancyMip> {
        match self.mode {
            MaskMode::Masked => Some(self.model.occupancy()),
            MaskMode::Unmasked => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpNerfConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spnerf_voxel::grid::{DenseGrid, FEATURE_DIM};
    use spnerf_voxel::vqrf::{VqrfConfig, VqrfModel};

    fn fixture(side: u32, occ: f64, seed: u64, k: usize, t: usize) -> (VqrfModel, SpNerfModel) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = spnerf_voxel::coord::GridDims::cube(side);
        let mut g = DenseGrid::zeros(dims);
        for c in dims.iter() {
            if rng.gen::<f64>() < occ {
                g.set_density(c, 0.2 + rng.gen::<f32>());
                let f: Vec<f32> = (0..FEATURE_DIM).map(|_| rng.gen::<f32>()).collect();
                g.set_features(c, &f);
            }
        }
        let vqrf = VqrfModel::build(
            &g,
            &VqrfConfig { codebook_size: 16, kmeans_iters: 2, ..Default::default() },
        );
        let cfg = SpNerfConfig { subgrid_count: k, table_size: t, codebook_size: 16 };
        let model = SpNerfModel::build(&vqrf, &cfg).unwrap();
        (vqrf, model)
    }

    #[test]
    fn masked_decode_matches_vqrf_when_collision_free() {
        let (vqrf, model) = fixture(16, 0.03, 1, 4, 16_384);
        assert_eq!(model.report().collisions, 0);
        let view = model.view(MaskMode::Masked);
        for (i, p) in vqrf.points().iter().enumerate() {
            let got = view.fetch(p.coord).expect("stored point decodes");
            let (d, f) = vqrf.decode_point(i);
            // Density round-trips through the same INT8 quantizer.
            assert!((got.density - d).abs() < 1e-6, "density mismatch at {}", p.coord);
            assert_eq!(got.features, f, "features mismatch at {}", p.coord);
        }
    }

    #[test]
    fn masked_decode_support_is_exact() {
        // With masking, decode support == stored non-zero set: no false
        // positives anywhere.
        let (vqrf, model) = fixture(14, 0.05, 2, 4, 8192);
        let view = model.view(MaskMode::Masked);
        let mut decoded = 0;
        for c in model.dims().iter() {
            let got = view.fetch(c);
            if vqrf.lookup(c).is_some() {
                assert!(got.is_some(), "stored point missing at {c}");
                decoded += 1;
            } else {
                assert!(got.is_none(), "false positive at empty voxel {c}");
            }
        }
        assert_eq!(decoded, vqrf.nnz());
    }

    #[test]
    fn unmasked_decode_has_false_positives() {
        // Small tables → empty voxels alias stored entries. This is the
        // error source that bitmap masking eliminates (Fig. 6(b)).
        let (vqrf, model) = fixture(14, 0.05, 3, 2, 256);
        let view = model.view(MaskMode::Unmasked);
        let mut false_pos = 0;
        for c in model.dims().iter() {
            if vqrf.lookup(c).is_none() && view.fetch(c).is_some() {
                false_pos += 1;
            }
        }
        assert!(false_pos > 0, "expected unmasked false positives");
        // And masking removes all of them.
        let masked = model.view(MaskMode::Masked);
        for c in model.dims().iter() {
            if vqrf.lookup(c).is_none() {
                assert!(masked.fetch(c).is_none());
            }
        }
    }

    /// Every cell base of the grid, the far faces and one past them
    /// included.
    fn all_bases(dims: GridDims) -> impl Iterator<Item = GridCoord> {
        (0..=dims.nx).flat_map(move |x| {
            (0..=dims.ny).flat_map(move |y| (0..=dims.nz).map(move |z| GridCoord::new(x, y, z)))
        })
    }

    #[test]
    fn cell_probe_is_sound_under_both_views() {
        // The collision-heavy fixture: unmasked decode has false positives.
        let (_, model) = fixture(14, 0.05, 3, 2, 256);
        let masked = model.view(MaskMode::Masked);
        let mip = masked.occupancy_mip().expect("the masked view carries its model's pyramid");
        assert!(std::ptr::eq(mip, model.occupancy().as_ref()));
        assert_eq!(mip.base(), model.bitmap());
        let mut ruled_out = 0;
        for base in all_bases(model.dims()) {
            let empty = mip.cell_empty(base);
            assert_eq!(empty, !model.bitmap().any_in_cell(base), "cell {base}");
            if empty {
                ruled_out += 1;
                for corner in base.cell_corners() {
                    assert!(masked.fetch(corner).is_none(), "cell {base} fetches {corner}");
                }
            }
        }
        assert!(ruled_out > 0, "the fixture has empty cells to rule out");
        // Hash collisions decode at empty voxels, so the unmasked view
        // rules nothing out.
        assert!(model.view(MaskMode::Unmasked).occupancy_mip().is_none());
    }

    #[test]
    fn probed_kernel_is_bitwise_the_scalar_oracle() {
        use spnerf_render::interp::{
            interpolate_cell, interpolate_cell_scalar, trilinear_cell, TrilinearCell,
        };
        use spnerf_render::vec3::Vec3;
        let (_, model) = fixture(14, 0.05, 3, 2, 256);
        // One set of interior weights, every corner weighted, applied at
        // every base (far-face bases included, which `trilinear_cell`
        // would clamp away).
        let weights = trilinear_cell(model.dims(), Vec3::new(0.3, 0.6, 0.45)).unwrap().weights;
        for mode in [MaskMode::Masked, MaskMode::Unmasked] {
            let view = model.view(mode);
            for base in all_bases(model.dims()) {
                let cell = TrilinearCell { base, weights };
                let (lanes, scalar) =
                    (interpolate_cell(&view, &cell), interpolate_cell_scalar(&view, &cell));
                assert_eq!(lanes.density.to_bits(), scalar.density.to_bits(), "{mode:?} {base}");
                for (l, s) in lanes.features.iter().zip(scalar.features) {
                    assert_eq!(l.to_bits(), s.to_bits(), "{mode:?} {base}");
                }
                assert_eq!(lanes.occupied_corners, scalar.occupied_corners, "{mode:?} {base}");
            }
        }
    }

    #[test]
    fn wrappers_forward_the_cell_probe() {
        // If `&` fell back to the trait default, the probe would switch
        // itself off behind it; `WithOccupancy` probes with the pyramid it
        // attaches, which replaces the view's own.
        use spnerf_render::source::WithOccupancy;
        use std::sync::Arc;
        let (_, model) = fixture(14, 0.05, 3, 2, 256);
        let ptr = |m: Option<&OccupancyMip>| m.map(|m| m as *const OccupancyMip);
        for mode in [MaskMode::Masked, MaskMode::Unmasked] {
            let view = model.view(mode);
            let mip = Arc::new(OccupancyMip::build(view.support_bitmap()));
            let wrapped = WithOccupancy::new(view, Arc::clone(&mip));
            assert_eq!(ptr(VoxelSource::occupancy_mip(&&view)), ptr(view.occupancy_mip()));
            assert_eq!(ptr(wrapped.occupancy_mip()), ptr(Some(&mip)), "{mode:?}");
        }
    }

    #[test]
    fn decode_outcomes_classify() {
        let (_, model) = fixture(14, 0.05, 4, 2, 256);
        let view = model.view(MaskMode::Masked);
        assert_eq!(view.decode(GridCoord::new(100, 0, 0)), DecodeOutcome::OutOfBounds);
        let empty =
            model.dims().iter().find(|c| !model.bitmap().get(*c)).expect("an empty voxel exists");
        assert_eq!(view.decode(empty), DecodeOutcome::MaskedEmpty);
    }

    #[test]
    fn collision_losers_alias_winners_even_masked() {
        // Force collisions with a tiny table; lost points decode to the
        // winner's data — the residual error masking cannot fix.
        let (vqrf, model) = fixture(16, 0.08, 5, 1, 64);
        assert!(model.report().collisions > 0);
        let view = model.view(MaskMode::Masked);
        let mut mismatches = 0;
        for (i, p) in vqrf.points().iter().enumerate() {
            let got = view.fetch(p.coord).expect("occupied voxel decodes");
            let (_, f) = vqrf.decode_point(i);
            if got.features != f {
                mismatches += 1;
            }
        }
        assert!(mismatches > 0, "collision losers must alias");
        assert!(mismatches <= model.report().collisions * 2);
    }

    #[test]
    fn support_bitmap_brackets_the_pruned_bitmap() {
        // Small tables force collisions, so the three supports separate:
        // masked ⊆ bitmap ⊆ unmasked (strictly, at this configuration).
        let (_, model) = fixture(14, 0.05, 7, 2, 256);
        let masked = model.view(MaskMode::Masked).support_bitmap();
        let unmasked = model.view(MaskMode::Unmasked).support_bitmap();
        for c in model.dims().iter() {
            if masked.get(c) {
                assert!(model.bitmap().get(c), "masked support must be within the bitmap");
            }
            if model.bitmap().get(c) && model.view(MaskMode::Unmasked).fetch(c).is_some() {
                assert!(unmasked.get(c));
            }
        }
        assert!(
            unmasked.count_ones() > model.bitmap().count_ones(),
            "collisions must inflate the unmasked support here"
        );
    }

    #[test]
    fn decoder_views_are_thread_shareable() {
        // Compile-time audit: the online decoder must stay `Sync` (no
        // interior mutability) so the tile-parallel engine can share it
        // across worker threads.
        fn assert_sync<T: VoxelSource + Sync>() {}
        assert_sync::<SpNerfView<'static>>();
        fn assert_model_sync<T: Sync>() {}
        assert_model_sync::<SpNerfModel>();
    }

    #[test]
    fn view_is_usable_by_renderer_abstractions() {
        let (_, model) = fixture(12, 0.05, 6, 2, 4096);
        let view = model.view(MaskMode::Masked);
        // Generic consumption through the trait object path.
        fn count_occupied(src: &dyn VoxelSource) -> usize {
            let dims = src.dims();
            dims.iter().filter(|c| src.fetch(*c).is_some()).count()
        }
        assert!(count_occupied(&view) > 0);
    }
}
