//! Differential satellite: the functional accelerator simulator (pure
//! hardware-unit models) and the cycle-level pipeline simulator must agree
//! with the software reference on per-frame work counts, for every corpus
//! archetype.

use spnerf_accel::frame::FrameWorkload;
use spnerf_accel::sim::functional::FunctionalPipeline;
use spnerf_accel::sim::pipeline::{simulate_frame, ArchConfig, CycleSimulator};
use spnerf_accel::sim::systolic::SystolicArray;
use spnerf_core::MaskMode;
use spnerf_render::mlp::Mlp;
use spnerf_render::renderer::{render_view, RenderConfig};
use spnerf_render::scene::default_camera;
use spnerf_testkit::corpus::Corpus;
use spnerf_testkit::fixtures;

#[test]
fn functional_sim_matches_reference_work_counts_on_every_archetype() {
    for spec in Corpus::quick() {
        let (_grid, _vqrf, model) = fixtures::corpus_fixture(&spec, 32, 8, 4096);
        let mlp = Mlp::random(fixtures::MLP_SEED);
        let cam = default_camera(10, 10, 1, 8);
        // early_stop = 0: neither path terminates rays early, so both march
        // exactly the same sample set and the counters must agree exactly.
        let cfg = RenderConfig { samples_per_ray: 24, early_stop: 0.0, ..Default::default() };

        let view = model.view(MaskMode::Masked);
        let (sw_img, stats) = render_view(&view, &mlp, &cam, &cfg);

        let mut hw = FunctionalPipeline::new(&model, &mlp, SystolicArray::new(8, 8), 16);
        let hw_img = hw.render(&cam, &cfg);

        let label = spec.label();
        assert_eq!(
            hw.sgpu().gid.samples(),
            stats.samples_marched as u64,
            "{label}: GID sample count must equal the reference's marched count"
        );
        assert!(
            hw.sgpu().blu.lookups() <= 8 * hw.sgpu().gid.samples(),
            "{label}: at most 8 bitmap lookups per marched sample"
        );
        assert!(
            hw.sgpu().hmu.lookups() <= hw.sgpu().blu.lookups(),
            "{label}: the bitmap gate only ever removes HMU work"
        );
        if stats.samples_shaded > 0 {
            assert!(hw.sgpu().hmu.lookups() > 0, "{label}: shaded frame with no HMU activity");
        }
        let psnr = hw_img.psnr(&sw_img);
        assert!(psnr > 30.0, "{label}: hardware and software renders diverged ({psnr:.1} dB)");
    }
}

#[test]
fn cycle_stepping_sim_validates_the_analytic_model_on_corpus_workloads() {
    let arch = ArchConfig::default();
    let sim = CycleSimulator::new(arch);
    for spec in Corpus::quick() {
        let scene = fixtures::corpus_scene(&spec, 32, 8, 4096, 32);
        let session = scene.session();
        let resp = session
            .render(&spnerf::RenderRequest::single(
                spnerf::RenderSource::spnerf_masked(),
                default_camera(12, 12, 1, 8),
            ))
            .expect("render");
        // DRAM streaming excluded — both the model bytes and the sparse
        // index's per-lookup metadata: the stepping simulator models only
        // the SGPU/MLP engines, so compare against a compute-only workload.
        let w = FrameWorkload {
            model_bytes: 0,
            format_bytes: 0,
            ..resp.workload.at_paper_resolution()
        };
        let analytic = simulate_frame(&w, &arch);
        let stepped = sim.run(w.stats.samples_marched, w.stats.samples_shaded);
        let err = (stepped as f64 - analytic.cycles as f64).abs() / analytic.cycles as f64;
        assert!(
            err < 0.05,
            "{}: cycle sim {stepped} vs analytic {} ({:.1}% off)",
            spec.label(),
            analytic.cycles,
            err * 100.0
        );
    }
}
