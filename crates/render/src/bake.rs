//! The deterministic bake pass: precomputes a [`BakedGrid`] from any
//! [`VoxelSource`] and color [`Mlp`] for deferred (SNeRG-style) rendering.
//!
//! Baking walks every occupied vertex once, in the grid's canonical x-major
//! order, and stores:
//!
//! * **density** — copied verbatim, so the baked support (and therefore
//!   marching, early termination, and empty-space skipping) is identical to
//!   the source's;
//! * **diffuse RGB** — the full color MLP evaluated at the vertex's
//!   features with a fixed [`canonical_view_dir`] encoding, the one
//!   expensive step the render loop no longer pays per sample;
//! * **specular feature** — a compact [`SPEC_DIM`]-channel projection of
//!   the vertex features (identity-truncation of the leading channels),
//!   which the marcher accumulates along the ray for the per-pixel
//!   [`crate::mlp::DeferredMlp`].
//!
//! The pass is a pure function of `(source, mlp)`: single-threaded, no RNG,
//! no ambient state. Baking twice yields byte-identical grids
//! ([`BakedGrid::digest`] pins this). Occupied vertices run through
//! [`Mlp::forward_batch`] eight at a time, in the same x-major order; each
//! lane is bitwise-equal to the scalar oracle [`Mlp::forward_scalar`], so
//! the baked colors are exactly the reference network's outputs.

use crate::lanes::LANE_WIDTH;
use crate::mlp::{encode_direction, Mlp, MLP_INPUT_DIM};
use crate::source::VoxelSource;
use crate::vec3::Vec3;
use spnerf_voxel::baked::{BakedGrid, SPEC_DIM};
use spnerf_voxel::coord::GridCoord;
use spnerf_voxel::FEATURE_DIM;

/// The fixed view direction diffuse colors are baked at (towards −z, the
/// default orbit camera's dominant viewing axis). Every bake uses this same
/// direction, so baked grids are comparable across scenes and sessions.
pub fn canonical_view_dir() -> Vec3 {
    Vec3::new(0.0, 0.0, -1.0)
}

/// Bakes `source` through `mlp` into a [`BakedGrid`].
///
/// See the module docs for what is precomputed and the determinism
/// contract. Cost is one MLP forward per occupied vertex, eight vertices
/// per [`Mlp::forward_batch`] pass — paid once, then amortized over every
/// subsequent deferred render.
///
/// # Examples
///
/// ```
/// use spnerf_render::bake::bake;
/// use spnerf_render::mlp::Mlp;
/// use spnerf_render::scene::{build_grid, SceneId};
///
/// let grid = build_grid(SceneId::Lego, 16);
/// let baked = bake(&grid, &Mlp::random(42));
/// assert_eq!(baked.occupied_count(), grid.occupied_count());
/// assert_eq!(baked.digest(), bake(&grid, &Mlp::random(42)).digest());
/// ```
pub fn bake<S: VoxelSource + ?Sized>(source: &S, mlp: &Mlp) -> BakedGrid {
    let dims = source.dims();
    let mut baked = BakedGrid::zeros(dims);
    // One sample per lane: every lane shares the canonical view encoding,
    // and each queued vertex writes its features into its own lane.
    let mut batch = [[0.0f32; LANE_WIDTH]; MLP_INPUT_DIM];
    for (row, e) in batch[FEATURE_DIM..].iter_mut().zip(encode_direction(canonical_view_dir())) {
        *row = [e; LANE_WIDTH];
    }
    let mut group: Vec<Queued> = Vec::with_capacity(LANE_WIDTH);
    for c in dims.iter() {
        let Some(data) = source.fetch(c) else { continue };
        if data.density <= 0.0 {
            continue;
        }
        let lane = group.len();
        for (row, f) in batch.iter_mut().zip(data.features) {
            row[lane] = f;
        }
        let mut spec = [0.0f32; SPEC_DIM];
        spec.copy_from_slice(&data.features[..SPEC_DIM]);
        group.push((c, data.density, spec));
        if group.len() == LANE_WIDTH {
            store_group(&mut baked, mlp, &batch, &mut group);
        }
    }
    if !group.is_empty() {
        store_group(&mut baked, mlp, &batch, &mut group);
    }
    baked
}

/// An occupied vertex waiting for its lane of the batch: coordinate,
/// density and specular feature.
type Queued = (GridCoord, f32, [f32; SPEC_DIM]);

/// Shades the queued group and stores it in queue order, emptying the
/// queue. The spare lanes of a short last group still hold an earlier
/// vertex's features; their outputs are never stored.
fn store_group(
    baked: &mut BakedGrid,
    mlp: &Mlp,
    batch: &[[f32; LANE_WIDTH]; MLP_INPUT_DIM],
    group: &mut Vec<Queued>,
) {
    let rgb = mlp.forward_batch(batch);
    for (lane, (c, density, spec)) in group.drain(..).enumerate() {
        baked.set_voxel(c, density, rgb.map(|ch| ch[lane]), spec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{build_grid, SceneId};
    use crate::source::support_bitmap;

    #[test]
    fn bake_is_idempotent_bit_for_bit() {
        // The satellite contract: bake twice ⇒ identical digest. The grid
        // and MLP are both pure functions of their seeds, so the whole
        // chain must reproduce.
        let grid = build_grid(SceneId::Mic, 14);
        let mlp = Mlp::random(42);
        let a = bake(&grid, &mlp);
        let b = bake(&grid, &mlp);
        assert_eq!(a.digest(), b.digest(), "bake must be deterministic");
        assert_eq!(a, b);
    }

    #[test]
    fn bake_preserves_support_and_density_exactly() {
        let grid = build_grid(SceneId::Lego, 12);
        let baked = bake(&grid, &Mlp::random(7));
        assert_eq!(baked.occupied_count(), grid.occupied_count());
        assert_eq!(
            support_bitmap(baked.as_grid()),
            support_bitmap(&grid),
            "baked support must equal the source support (skipping depends on it)"
        );
        for c in grid.dims().iter() {
            match grid.fetch(c) {
                Some(data) => assert_eq!(baked.density(c).to_bits(), data.density.to_bits()),
                None => assert_eq!(baked.density(c), 0.0, "empty vertex {c} must stay empty"),
            }
        }
    }

    #[test]
    fn baked_payload_is_mlp_output_and_truncated_features() {
        // The oracle, not the lane kernel the bake itself runs: comparing
        // `bake` with `mlp.forward` would test the kernel against itself.
        let grid = build_grid(SceneId::Chair, 10);
        let mlp = Mlp::random(3);
        let baked = bake(&grid, &mlp);
        let mut input = [0.0f32; MLP_INPUT_DIM];
        input[FEATURE_DIM..].copy_from_slice(&encode_direction(canonical_view_dir()));
        let mut checked = 0usize;
        for c in grid.dims().iter() {
            let Some(data) = grid.fetch(c) else { continue };
            input[..FEATURE_DIM].copy_from_slice(&data.features);
            let want = mlp.forward_scalar(&input);
            let got = baked.diffuse(c);
            for ch in 0..3 {
                assert_eq!(got[ch].to_bits(), want[ch].to_bits(), "diffuse diverged at {c}");
                assert!((0.0..=1.0).contains(&got[ch]), "diffuse out of range at {c}");
            }
            assert_eq!(&baked.spec(c)[..], &data.features[..SPEC_DIM], "spec projection at {c}");
            checked += 1;
        }
        assert!(checked > 0, "test scene must have occupied vertices");
    }

    #[test]
    fn different_mlps_bake_different_colors() {
        let grid = build_grid(SceneId::Drums, 10);
        let a = bake(&grid, &Mlp::random(1));
        let b = bake(&grid, &Mlp::random(2));
        assert_ne!(a.digest(), b.digest());
        // ... but identical support either way.
        assert_eq!(a.occupied_count(), b.occupied_count());
    }
}
