//! End-to-end integration: scene → VQRF → SpNeRF preprocessing → online
//! decoding → rendering → PSNR, across all eight scenes at test fidelity.

use spnerf::core::{MaskMode, SpNerfModel};
use spnerf::render::mlp::Mlp;
use spnerf::render::renderer::{render_view, RenderConfig};
use spnerf::render::scene::{default_camera, SceneId};
use spnerf::render::source::VoxelSource;
use spnerf::voxel::vqrf::VqrfModel;
use spnerf_testkit::fixtures;

const SIDE: u32 = 40;

fn fixture(id: SceneId) -> (spnerf::voxel::DenseGrid, VqrfModel, SpNerfModel) {
    fixtures::dataset_fixture(id, SIDE, 64, 8, 8192)
}

#[test]
fn every_scene_builds_and_masked_decode_support_is_exact() {
    for id in SceneId::all() {
        let (grid, vqrf, model) = fixture(id);
        assert_eq!(vqrf.nnz(), grid.occupied_count(), "{id}: no pruning configured");
        let view = model.view(MaskMode::Masked);
        let mut decoded = 0usize;
        for c in grid.dims().iter() {
            let got = view.fetch(c).is_some();
            let expect = grid.is_occupied(c);
            assert_eq!(got, expect, "{id}: decode support mismatch at {c}");
            decoded += got as usize;
        }
        assert_eq!(decoded, grid.occupied_count());
    }
}

#[test]
fn quality_ordering_holds_on_every_scene() {
    let mlp = Mlp::random(42);
    let cam = default_camera(20, 20, 1, 8);
    let cfg = RenderConfig { samples_per_ray: 40, ..Default::default() };
    for id in SceneId::all() {
        let (grid, vqrf, model) = fixture(id);
        let (gt, _) = render_view(&grid, &mlp, &cam, &cfg);
        let (vq, _) = render_view(&vqrf, &mlp, &cam, &cfg);
        let masked = model.view(MaskMode::Masked);
        let (ma, _) = render_view(&masked, &mlp, &cam, &cfg);
        let unmasked = model.view(MaskMode::Unmasked);
        let (un, _) = render_view(&unmasked, &mlp, &cam, &cfg);

        let p_vq = vq.psnr(&gt);
        let p_ma = ma.psnr(&gt);
        let p_un = un.psnr(&gt);
        // Fig. 6(b) ordering: VQRF ≳ masked ≫ unmasked.
        assert!(
            p_ma > p_un + 10.0,
            "{id}: masking must recover ≥10 dB (masked {p_ma:.1}, unmasked {p_un:.1})"
        );
        assert!(p_vq - p_ma < 10.0, "{id}: masked PSNR {p_ma:.1} too far below VQRF {p_vq:.1}");
        assert!(p_vq > 25.0, "{id}: VQRF baseline unreasonably low ({p_vq:.1})");
    }
}

#[test]
fn memory_reduction_holds_on_every_scene() {
    for id in SceneId::all() {
        let (_, vqrf, model) = fixture(id);
        let r = model.memory_reduction_vs(&vqrf);
        // At 40³ test grids the tables are sized for the test preset; the
        // reduction must still be decisive.
        assert!(r > 3.0, "{id}: reduction {r:.1}x too small");
        let fp = model.footprint();
        assert!(fp.bytes_of("hash tables") > 0);
        assert!(fp.bytes_of("bitmap") > 0);
    }
}

#[test]
fn collision_rate_small_at_test_operating_point() {
    for id in SceneId::all() {
        let (_, _, model) = fixture(id);
        let rate = model.report().collision_rate();
        assert!(rate < 0.10, "{id}: collision rate {:.3} unexpectedly high", rate);
    }
}

#[test]
fn masked_render_is_deterministic() {
    let (_, _, model) = fixture(SceneId::Drums);
    let mlp = Mlp::random(42);
    let cam = default_camera(12, 12, 0, 8);
    let cfg = RenderConfig { samples_per_ray: 24, ..Default::default() };
    let view = model.view(MaskMode::Masked);
    let (a, _) = render_view(&view, &mlp, &cam, &cfg);
    let (b, _) = render_view(&view, &mlp, &cam, &cfg);
    assert_eq!(a, b);
}
