//! Ablation integration tests: bitmap masking, the Fig. 7 sweeps, and the
//! preprocessing design choices.

use spnerf::core::stats::{alias_stats, mean_decode_error};
use spnerf::core::{MaskMode, SpNerfModel};
use spnerf::render::mlp::Mlp;
use spnerf::render::renderer::{render_view, RenderConfig};
use spnerf::render::scene::{build_grid, default_camera, SceneId};
use spnerf::voxel::vqrf::VqrfModel;
use spnerf_testkit::fixtures;

fn vqrf(id: SceneId, side: u32) -> VqrfModel {
    VqrfModel::build(&build_grid(id, side), &fixtures::test_vqrf_config(64))
}

fn model(v: &VqrfModel, k: usize, t: usize) -> SpNerfModel {
    SpNerfModel::build(v, &fixtures::test_spnerf_config(k, t, 64)).expect("valid config")
}

fn psnr(m: &SpNerfModel, mode: MaskMode, gt: &spnerf::render::ImageBuffer) -> f64 {
    let mlp = Mlp::random(42);
    let cam = default_camera(20, 20, 1, 8);
    let cfg = RenderConfig { samples_per_ray: 40, ..Default::default() };
    let view = m.view(mode);
    let (img, _) = render_view(&view, &mlp, &cam, &cfg);
    img.psnr(gt)
}

fn gt_image(id: SceneId, side: u32) -> spnerf::render::ImageBuffer {
    let grid = build_grid(id, side);
    let mlp = Mlp::random(42);
    let cam = default_camera(20, 20, 1, 8);
    let cfg = RenderConfig { samples_per_ray: 40, ..Default::default() };
    render_view(&grid, &mlp, &cam, &cfg).0
}

#[test]
fn fig7a_psnr_rises_with_subgrid_count_then_saturates() {
    let v = vqrf(SceneId::Lego, 40);
    let gt = gt_image(SceneId::Lego, 40);
    // Small tables so K=1 is heavily overloaded (the Fig. 7(a) regime).
    let p1 = psnr(&model(&v, 1, 512), MaskMode::Masked, &gt);
    let p16 = psnr(&model(&v, 16, 512), MaskMode::Masked, &gt);
    let p64 = psnr(&model(&v, 64, 512), MaskMode::Masked, &gt);
    assert!(p16 > p1 + 0.5, "K=16 ({p16:.1}) must clearly beat K=1 ({p1:.1})");
    assert!(p64 >= p16 - 0.5, "K=64 ({p64:.1}) must not regress vs K=16 ({p16:.1})");
    assert!(p64 > p1 + 1.0, "the sweep must lift PSNR overall");
}

#[test]
fn fig7b_psnr_rises_with_table_size_then_saturates() {
    let v = vqrf(SceneId::Chair, 40);
    let gt = gt_image(SceneId::Chair, 40);
    let p_small = psnr(&model(&v, 8, 64), MaskMode::Masked, &gt);
    let p_mid = psnr(&model(&v, 8, 1024), MaskMode::Masked, &gt);
    let p_big = psnr(&model(&v, 8, 16384), MaskMode::Masked, &gt);
    assert!(p_mid > p_small + 1.0, "T=1k ({p_mid:.1}) must beat T=64 ({p_small:.1})");
    assert!(p_big >= p_mid - 0.5, "T=16k ({p_big:.1}) must not regress");
    assert!((p_big - p_mid) < (p_mid - p_small), "gain must diminish");
}

#[test]
fn masking_gain_grows_with_collision_pressure() {
    let v = vqrf(SceneId::Ship, 36);
    let gt = gt_image(SceneId::Ship, 36);
    // Relaxed tables: masking matters little beyond removing empty-space
    // noise; tight tables: masking is essential.
    let relaxed = model(&v, 8, 16384);
    let tight = model(&v, 2, 512);
    let gain_relaxed =
        psnr(&relaxed, MaskMode::Masked, &gt) - psnr(&relaxed, MaskMode::Unmasked, &gt);
    let gain_tight = psnr(&tight, MaskMode::Masked, &gt) - psnr(&tight, MaskMode::Unmasked, &gt);
    assert!(gain_relaxed > 0.0);
    assert!(gain_tight > 0.0);
}

#[test]
fn alias_statistics_track_table_pressure() {
    let v = vqrf(SceneId::Materials, 36);
    let relaxed = alias_stats(&model(&v, 8, 16384), &v);
    let tight = alias_stats(&model(&v, 2, 256), &v);
    assert!(tight.false_positive_rate() > relaxed.false_positive_rate());
    assert!(tight.aliased_points >= relaxed.aliased_points);
}

#[test]
fn mean_decode_error_masked_below_unmasked_everywhere() {
    for id in [SceneId::Mic, SceneId::Hotdog] {
        let v = vqrf(id, 32);
        let m = model(&v, 4, 1024);
        let masked = mean_decode_error(&m, &v, MaskMode::Masked);
        let unmasked = mean_decode_error(&m, &v, MaskMode::Unmasked);
        assert!(masked < unmasked, "{id}: masked {masked} !< unmasked {unmasked}");
    }
}

#[test]
fn importance_ordered_insertion_sacrifices_dim_points() {
    // Collision losers should be less important (dimmer) than average —
    // the deliberate preprocessing policy.
    let v = vqrf(SceneId::Drums, 40);
    let m = model(&v, 1, 1024); // heavy pressure → many losers
    assert!(m.report().collisions > 0, "test needs collisions");
    let stats = alias_stats(&m, &v);
    assert!(stats.aliased_points > 0);

    // Mean density of aliased (lost) points vs all points.
    let mut lost_density = 0.0f64;
    let mut lost_n = 0usize;
    let mut all_density = 0.0f64;
    let cb = m.config().codebook_size;
    for (i, p) in v.points().iter().enumerate() {
        all_density += p.density as f64;
        let entry = m.raw_lookup(p.coord).unwrap();
        let expected = spnerf::core::preprocess::unified_address(v.class_of(i), cb);
        if entry.index != expected {
            lost_density += p.density as f64;
            lost_n += 1;
        }
    }
    let lost_mean = lost_density / lost_n.max(1) as f64;
    let all_mean = all_density / v.nnz() as f64;
    assert!(
        lost_mean < all_mean,
        "losers should be dimmer: lost {lost_mean:.3} vs all {all_mean:.3}"
    );
}
