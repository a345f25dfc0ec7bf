//! Accelerator-simulator integration: workloads measured by the renderer
//! drive the cycle model; results must sit in the paper's performance and
//! power envelope.

use spnerf::accel::asic::{summarize, total_sram_bytes, AreaModel, EnergyParams};
use spnerf::accel::frame::FrameWorkload;
use spnerf::accel::sim::pipeline::{simulate_frame, ArchConfig, CycleSimulator};
use spnerf::accel::Bottleneck;
use spnerf::core::MaskMode;
use spnerf::render::mlp::Mlp;
use spnerf::render::renderer::{render_view, RenderConfig};
use spnerf::render::scene::{default_camera, SceneId};
use spnerf_testkit::fixtures;

fn measured_workload(id: SceneId) -> FrameWorkload {
    let (_grid, _vqrf, model) = fixtures::dataset_fixture(id, 40, 64, 8, 8192);
    let mlp = Mlp::random(fixtures::MLP_SEED);
    let cam = default_camera(24, 24, 1, 8);
    let rcfg = RenderConfig { samples_per_ray: 96, ..Default::default() };
    let view = model.view(MaskMode::Masked);
    let (_, stats) = render_view(&view, &mlp, &cam, &rcfg);
    FrameWorkload::from_render(id.name(), &stats, &model).at_paper_resolution()
}

#[test]
fn measured_workloads_land_in_performance_envelope() {
    let arch = ArchConfig::default();
    for id in [SceneId::Mic, SceneId::Lego, SceneId::Ship] {
        let w = measured_workload(id);
        let r = simulate_frame(&w, &arch);
        assert!(
            (15.0..200.0).contains(&r.fps),
            "{id}: fps {:.1} outside the plausible envelope",
            r.fps
        );
        assert_ne!(r.bottleneck, Bottleneck::Dram, "{id}: SpNeRF must not be DRAM-bound");
    }
}

#[test]
fn power_envelope_matches_paper_scale() {
    let arch = ArchConfig::default();
    let energy = EnergyParams::default();
    let w = measured_workload(SceneId::Lego);
    let r = simulate_frame(&w, &arch);
    let p = energy.power(&r, &arch);
    assert!(
        (1.0..5.0).contains(&p.total_w),
        "power {:.2} W outside the paper-scale envelope",
        p.total_w
    );
    // Systolic array dominates (Fig. 9(b) observation).
    let max = p.components.iter().cloned().fold(f64::NAN, |m, c| m.max(c.value));
    let systolic = p.components.iter().find(|c| c.name == "systolic array").unwrap().value;
    assert!((systolic - max).abs() < 1e-12);
}

#[test]
fn table2_summary_is_self_consistent() {
    let arch = ArchConfig::default();
    let results: Vec<_> = [SceneId::Mic, SceneId::Lego]
        .iter()
        .map(|id| simulate_frame(&measured_workload(*id), &arch))
        .collect();
    let s = summarize(&results, &arch, &AreaModel::default(), &EnergyParams::default());
    assert!((s.energy_eff - s.fps / s.power_w).abs() < 1e-9);
    assert!((s.area_eff - s.fps / s.area_mm2).abs() < 1e-9);
    // Table II: 0.61 MB SRAM, ~7.7 mm².
    assert!((s.sram_mb - 0.61).abs() < 0.02);
    assert!((s.area_mm2 - 7.7).abs() < 0.5);
    assert_eq!(total_sram_bytes(), 629 * 1024);
}

#[test]
fn cycle_simulator_agrees_on_measured_workloads() {
    let arch = ArchConfig::default();
    let sim = CycleSimulator::new(arch);
    let w = measured_workload(SceneId::Chair);
    let analytic = simulate_frame(&w, &arch);
    let stepped = sim.run(w.stats.samples_marched, w.stats.samples_shaded);
    let err = (stepped as f64 - analytic.cycles as f64).abs() / analytic.cycles as f64;
    assert!(err < 0.05, "cycle-stepped vs analytic differ by {:.1}%", err * 100.0);
}

#[test]
fn speedup_chain_vs_baselines_has_paper_ordering() {
    use spnerf::platforms::accelerators::AcceleratorSpec;
    use spnerf::platforms::roofline::estimate_frame;
    use spnerf::platforms::spec::PlatformSpec;
    use spnerf::platforms::vqrf_workload::VqrfGpuWorkload;

    let arch = ArchConfig::default();
    let w = measured_workload(SceneId::Lego);
    let ours = simulate_frame(&w, &arch).fps;

    let gpu_w = VqrfGpuWorkload::new(
        SceneId::Lego.spec().paper_grid_side.pow(3) as usize,
        w.stats.samples_marched as u64,
        w.stats.samples_shaded as u64,
        1 << 20,
    );
    let xnx = estimate_frame(&PlatformSpec::xnx(), &gpu_w).fps();
    let onx = estimate_frame(&PlatformSpec::onx(), &gpu_w).fps();
    let rt = AcceleratorSpec::rt_nerf_edge().fps;
    let nx = AcceleratorSpec::neurex_edge().fps;

    // Paper ordering: SpNeRF > RT-NeRF > NeuRex > ONX > XNX.
    assert!(ours > rt, "SpNeRF {ours:.1} must beat RT-NeRF {rt}");
    assert!(rt > nx);
    assert!(nx > onx, "NeuRex {nx} must beat ONX {onx:.2}");
    assert!(onx > xnx, "ONX {onx:.2} must beat XNX {xnx:.2}");
    // And the headline: 1–2 orders of magnitude over the Jetsons.
    assert!(ours / xnx > 30.0, "speedup vs XNX only {:.1}", ours / xnx);
}
