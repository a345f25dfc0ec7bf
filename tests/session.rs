//! The pipeline layer's contract: a [`spnerf::RenderSession`] is a typed
//! front door over the *exact same* render path the hand-wired code used.
//!
//! * the golden test proves session output is **bitwise-identical** to
//!   direct `render_view` wiring for every source kind;
//! * the proptests prove batch requests are equivalent to per-camera loops
//!   and that the in-session cache never changes a response.

use proptest::prelude::*;

use spnerf::core::{MaskMode, SpNerfConfig, SpNerfModel};
use spnerf::pipeline::{RenderRequest, RenderSource};
use spnerf::render::bake::bake;
use spnerf::render::camera::PinholeCamera;
use spnerf::render::mlp::{DeferredMlp, Mlp};
use spnerf::render::renderer::{render_view, RenderConfig, Shader};
use spnerf::render::scene::{build_grid, default_camera, SceneId};
use spnerf::voxel::vqrf::{VqrfConfig, VqrfModel};
use spnerf::Scene;
use spnerf_testkit::fixtures;

const SIDE: u32 = 24;
const MLP_SEED: u64 = fixtures::MLP_SEED;

fn vqrf_cfg() -> VqrfConfig {
    fixtures::test_vqrf_config(32)
}

fn spnerf_cfg() -> SpNerfConfig {
    fixtures::test_spnerf_config(8, 4096, 32)
}

fn render_cfg() -> RenderConfig {
    fixtures::test_render_config(32)
}

fn pipeline_scene(id: SceneId) -> Scene {
    fixtures::dataset_scene(id, SIDE, 32, 8, 4096, 32)
}

/// The pre-redesign wiring, stage by stage, byte for byte.
fn hand_wired(
    id: SceneId,
    source: RenderSource,
    cam: &PinholeCamera,
) -> (spnerf::render::image::ImageBuffer, spnerf::render::renderer::RenderStats) {
    let grid = build_grid(id, SIDE);
    let vqrf = VqrfModel::build(&grid, &vqrf_cfg());
    let model = SpNerfModel::build(&vqrf, &spnerf_cfg()).expect("build succeeds");
    let mlp = Mlp::random(MLP_SEED);
    let cfg = render_cfg();
    match source {
        RenderSource::GroundTruth => render_view(&grid, &mlp, cam, &cfg),
        RenderSource::Vqrf => render_view(&vqrf, &mlp, cam, &cfg),
        RenderSource::SpNerf { mask } => render_view(&model.view(mask), &mlp, cam, &cfg),
        RenderSource::Baked => {
            let baked = bake(&grid, &mlp);
            let deferred = DeferredMlp::random(MLP_SEED);
            render_view(&baked, Shader::Deferred(&deferred), cam, &cfg)
        }
    }
}

const ALL_SOURCES: [RenderSource; 5] = [
    RenderSource::GroundTruth,
    RenderSource::Vqrf,
    RenderSource::SpNerf { mask: MaskMode::Masked },
    RenderSource::SpNerf { mask: MaskMode::Unmasked },
    RenderSource::Baked,
];

#[test]
fn golden_session_is_bitwise_identical_to_hand_wiring() {
    let id = SceneId::Lego;
    let scene = pipeline_scene(id);
    let session = scene.session();
    let cam = default_camera(12, 10, 1, 8);
    for source in ALL_SOURCES {
        let (img, stats) = hand_wired(id, source, &cam);
        let resp = session.render(&RenderRequest::single(source, cam)).expect("valid request");
        assert_eq!(resp.images.len(), 1);
        assert_eq!(resp.images[0], img, "{source:?}: image must be bitwise-identical");
        assert_eq!(resp.stats, stats, "{source:?}: stats must be identical");
    }
}

#[test]
fn golden_psnr_matches_hand_wired_comparison() {
    let id = SceneId::Mic;
    let scene = pipeline_scene(id);
    let session = scene.session();
    let cam = default_camera(10, 10, 2, 8);
    let (gt_img, _) = hand_wired(id, RenderSource::GroundTruth, &cam);
    for source in [RenderSource::Vqrf, RenderSource::spnerf_masked()] {
        let (img, _) = hand_wired(id, source, &cam);
        let resp = session
            .render(&RenderRequest::single(source, cam).with_reference(RenderSource::GroundTruth))
            .expect("valid request");
        // Identical images ⇒ identical PSNR, down to the last bit.
        assert_eq!(resp.per_view_psnr.as_deref(), Some(&[img.psnr(&gt_img)][..]));
    }
}

#[test]
fn respecialized_scene_matches_hand_wired_rebuild() {
    // with_spnerf must be equivalent to rebuilding SpNerfModel directly.
    let id = SceneId::Ship;
    let scene = pipeline_scene(id);
    let other_cfg = SpNerfConfig { subgrid_count: 2, table_size: 1024, codebook_size: 32 };
    let respecialized = scene.with_spnerf(other_cfg).expect("valid operating point");

    let grid = build_grid(id, SIDE);
    let vqrf = VqrfModel::build(&grid, &vqrf_cfg());
    let direct = SpNerfModel::build(&vqrf, &other_cfg).expect("build succeeds");
    let mlp = Mlp::random(MLP_SEED);
    let cam = default_camera(9, 9, 0, 8);
    let (img, stats) = render_view(&direct.view(MaskMode::Masked), &mlp, &cam, &render_cfg());

    let resp = respecialized
        .session()
        .render(&RenderRequest::single(RenderSource::spnerf_masked(), cam))
        .expect("valid request");
    assert_eq!(resp.images[0], img);
    assert_eq!(resp.stats, stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // A batch request must equal the per-camera loop of single requests:
    // same images in order, stats merged by addition — regardless of which
    // source, how many views, and cache state in between.
    #[test]
    fn batch_equals_loop_of_singles(
        source_idx in 0usize..5,
        poses in prop::collection::vec(0usize..8, 1..4),
        w in 6u32..12,
        h in 6u32..12,
    ) {
        let scene = pipeline_scene(SceneId::Drums);
        let source = ALL_SOURCES[source_idx];
        let cams: Vec<PinholeCamera> =
            poses.iter().map(|&p| default_camera(w, h, p, 8)).collect();

        let batch_session = scene.session();
        let batch = batch_session
            .render(&RenderRequest::batch(source, cams.clone()))
            .expect("valid batch");

        let mut loop_images = Vec::new();
        let mut loop_stats = spnerf::render::renderer::RenderStats::default();
        for cam in &cams {
            // Fresh session per single render: no cache sharing with the batch.
            let single = scene
                .session()
                .render(&RenderRequest::single(source, *cam))
                .expect("valid single");
            loop_stats += single.stats;
            loop_images.extend(single.images);
        }
        prop_assert_eq!(batch.images, loop_images);
        prop_assert_eq!(batch.stats, loop_stats);
    }

    // Serving from the cache must be indistinguishable from rendering
    // fresh, and a reference request must agree with computing PSNR from
    // separately-rendered images.
    #[test]
    fn cached_and_fresh_responses_agree(pose in 0usize..8, source_idx in 0usize..5) {
        let scene = pipeline_scene(SceneId::Ficus);
        let source = ALL_SOURCES[source_idx];
        let cam = default_camera(8, 8, pose, 8);
        let req = RenderRequest::single(source, cam).with_reference(RenderSource::GroundTruth);

        let warm = scene.session();
        let first = warm.render(&req).expect("valid");
        let second = warm.render(&req).expect("valid");  // fully cached now
        prop_assert_eq!(&first.images, &second.images);
        prop_assert_eq!(first.stats, second.stats);
        prop_assert_eq!(&first.per_view_psnr, &second.per_view_psnr);

        let cold = scene.session();
        let gt = cold
            .render(&RenderRequest::single(RenderSource::GroundTruth, cam))
            .expect("valid");
        let by_hand = first.images[0].psnr(&gt.images[0]);
        prop_assert_eq!(first.per_view_psnr.unwrap()[0], by_hand);
    }
}
