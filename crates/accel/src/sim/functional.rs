//! Functional whole-pipeline rendering: every pixel produced exclusively by
//! hardware-unit models.
//!
//! This is the reproduction's stand-in for "verified against our RTL
//! design" (Section V-A): the same image is rendered twice — once by the
//! software reference renderer, once through GID → BLU/HMU → TIU →
//! block-circulant input buffer → systolic-array GEMMs — and the two must
//! agree to FP16 tolerance. Differences would expose a divergence between
//! the algorithm specification and the hardware model.

use spnerf_core::decode::MaskMode;
use spnerf_core::model::SpNerfModel;
use spnerf_render::camera::PinholeCamera;
use spnerf_render::composite::{alpha_from_density, RayAccumulator};
use spnerf_render::image::ImageBuffer;
use spnerf_render::interp::GridFrame;
use spnerf_render::mlp::{encode_direction, Mlp, MLP_INPUT_DIM};
use spnerf_render::ray::{Aabb, UniformSampler};
use spnerf_render::renderer::{RenderConfig, BACKGROUND, DENSITY_SCALE};
use spnerf_render::vec3::Vec3;
use spnerf_voxel::FEATURE_DIM;

use crate::sim::block_circulant::BlockCirculantBuffer;
use crate::sim::pipeline::SgpuModel;
use crate::sim::systolic::SystolicArray;

/// One shaded sample waiting in the MLP input buffer (kept in arrival
/// order, which per ray equals march order).
#[derive(Debug, Clone, Copy)]
struct PendingSample {
    pixel: (u32, u32),
    density: f32,
}

/// The functional accelerator: renders images using only hardware-unit
/// models (the SGPU pipeline and tiled systolic GEMMs at the configured
/// batch size).
#[derive(Debug)]
pub struct FunctionalPipeline<'a> {
    sgpu: SgpuModel<'a>,
    systolic: SystolicArray,
    batch: usize,
    mlp: &'a Mlp,
}

impl<'a> FunctionalPipeline<'a> {
    /// Creates a functional pipeline over a built model.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn new(
        model: &'a SpNerfModel,
        mlp: &'a Mlp,
        systolic: SystolicArray,
        batch: usize,
    ) -> Self {
        assert!(batch > 0, "batch must be non-zero");
        Self { sgpu: SgpuModel::new(model, MaskMode::Masked), systolic, batch, mlp }
    }

    /// Access to the SGPU's unit counters after rendering.
    pub fn sgpu(&self) -> &SgpuModel<'a> {
        &self.sgpu
    }

    /// Renders one view entirely through the hardware-unit models.
    ///
    /// Samples shade in deferred batches: the SGPU emits interpolated
    /// features into the block-circulant input buffer; whenever `batch`
    /// vectors accumulate, the MLP Unit runs its three tiled GEMMs and the
    /// colors composite back into the owning rays (which is legal because
    /// compositing per ray is order-respecting here: each ray's samples
    /// enter in march order and batches flush in arrival order).
    pub fn render(
        &mut self,
        camera: &PinholeCamera,
        aabb: &Aabb,
        cfg: &RenderConfig,
    ) -> ImageBuffer {
        let model_dims = {
            let m = self.sgpu.model();
            m.dims()
        };
        let frame = GridFrame::new(model_dims, aabb.min, aabb.max);
        let step = aabb.size().max_component() * 1.74 / cfg.samples_per_ray as f32;

        let mut accumulators = vec![RayAccumulator::new(); (camera.width * camera.height) as usize];
        let mut alive = vec![true; accumulators.len()];
        let mut input = BlockCirculantBuffer::new(self.batch);
        let mut pending: Vec<PendingSample> = Vec::with_capacity(self.batch);

        for py in 0..camera.height {
            for px in 0..camera.width {
                let ray = camera.ray_for_pixel(px, py);
                let dir_enc = encode_direction(ray.dir);
                let idx = (py * camera.width + px) as usize;
                for (_t, pos) in UniformSampler::new(ray, aabb, step) {
                    if !alive[idx] {
                        break;
                    }
                    let (density, features) = self.sgpu.decode_sample(frame.world_to_grid(pos));
                    if density <= 0.0 {
                        continue;
                    }
                    let mut vec = [0.0f32; MLP_INPUT_DIM];
                    vec[..FEATURE_DIM].copy_from_slice(&features);
                    vec[FEATURE_DIM..].copy_from_slice(&dir_enc);
                    input.write_vector(&vec).expect("buffer flushed at batch size");
                    pending.push(PendingSample { pixel: (px, py), density });
                    if pending.len() == self.batch {
                        self.flush(
                            cfg,
                            step,
                            camera,
                            &mut input,
                            &mut pending,
                            &mut accumulators,
                            &mut alive,
                        );
                    }
                }
            }
        }
        if !pending.is_empty() {
            self.flush(cfg, step, camera, &mut input, &mut pending, &mut accumulators, &mut alive);
        }

        let mut img = ImageBuffer::new(camera.width, camera.height);
        for py in 0..camera.height {
            for px in 0..camera.width {
                let acc = accumulators[(py * camera.width + px) as usize];
                img.set(px, py, acc.finalize(BACKGROUND));
            }
        }
        img
    }

    /// Runs the 3-layer MLP on the buffered batch through tiled systolic
    /// GEMMs and composites the resulting colors.
    #[allow(clippy::too_many_arguments)]
    fn flush(
        &mut self,
        cfg: &RenderConfig,
        step: f32,
        camera: &PinholeCamera,
        input: &mut BlockCirculantBuffer,
        pending: &mut Vec<PendingSample>,
        accumulators: &mut [RayAccumulator],
        alive: &mut [bool],
    ) {
        let n = pending.len();
        // Drain the block-circulant buffer into a row-major activation
        // matrix (the shift network's output).
        let mut acts: Vec<f32> = Vec::with_capacity(n * MLP_INPUT_DIM);
        for i in 0..n {
            acts.extend_from_slice(&input.read_vector(i)[..MLP_INPUT_DIM]);
        }
        input.clear();

        // Three tiled GEMMs + activation unit, mirroring Mlp::forward.
        let shapes = Mlp::layer_shapes();
        let mut x = acts;
        let mut in_dim = MLP_INPUT_DIM;
        for (li, (k, out_dim)) in shapes.iter().enumerate() {
            debug_assert_eq!(in_dim, *k);
            let w = self.mlp.layer_weights_gemm(li);
            let mut y = self.systolic.gemm(&x, &w, n, *k, *out_dim);
            let bias = self.mlp.layer_bias(li);
            for r in 0..n {
                for (c, b) in bias.iter().enumerate() {
                    let v = &mut y[r * out_dim + c];
                    *v += b;
                    if li < 2 {
                        if *v < 0.0 {
                            *v = 0.0; // ReLU
                        }
                    } else {
                        *v = 1.0 / (1.0 + (-*v).exp()); // sigmoid
                    }
                }
            }
            x = y;
            in_dim = *out_dim;
        }

        // Composite in emission order.
        for (i, s) in pending.iter().enumerate() {
            let idx = (s.pixel.1 * camera.width + s.pixel.0) as usize;
            if !alive[idx] {
                continue;
            }
            let rgb = Vec3::new(x[i * 3], x[i * 3 + 1], x[i * 3 + 2]);
            let alpha = alpha_from_density(s.density * DENSITY_SCALE, step);
            accumulators[idx].add_sample(alpha, rgb);
            if accumulators[idx].is_opaque(cfg.early_stop) {
                alive[idx] = false;
            }
        }
        pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spnerf_core::SpNerfConfig;
    use spnerf_render::renderer::render_view;
    use spnerf_render::scene::{build_grid, default_camera, scene_aabb, SceneId};
    use spnerf_voxel::vqrf::{VqrfConfig, VqrfModel};

    fn fixture() -> (SpNerfModel, Mlp) {
        let grid = build_grid(SceneId::Mic, 28);
        let vqrf = VqrfModel::build(
            &grid,
            &VqrfConfig {
                codebook_size: 32,
                kmeans_iters: 2,
                kmeans_subsample: 1024,
                ..Default::default()
            },
        );
        let cfg = SpNerfConfig { subgrid_count: 4, table_size: 8192, codebook_size: 32 };
        (SpNerfModel::build(&vqrf, &cfg).unwrap(), Mlp::random(42))
    }

    #[test]
    fn hardware_render_matches_software_render() {
        let (model, mlp) = fixture();
        let cam = default_camera(16, 16, 0, 8);
        let cfg = RenderConfig { samples_per_ray: 40, ..Default::default() };

        let view = model.view(MaskMode::Masked);
        let (sw, _) = render_view(&view, &mlp, &cam, &scene_aabb(), &cfg);

        let mut hw_pipe = FunctionalPipeline::new(&model, &mlp, SystolicArray::new(8, 8), 16);
        let hw = hw_pipe.render(&cam, &scene_aabb(), &cfg);

        // The hardware path rounds through FP16 in the SGPU; tolerate a
        // small PSNR-level difference but demand near-identity.
        let psnr = hw.psnr(&sw);
        assert!(psnr > 35.0, "hardware vs software render differ: {psnr:.1} dB");
        // And the object must actually be visible (not all background).
        let non_bg = hw.pixels().iter().filter(|p| (**p - Vec3::ONE).length() > 0.05).count();
        assert!(non_bg > 5, "hardware render shows nothing");
    }

    #[test]
    fn batch_size_does_not_change_the_image() {
        let (model, mlp) = fixture();
        let cam = default_camera(10, 10, 1, 8);
        let cfg = RenderConfig { samples_per_ray: 32, ..Default::default() };
        let img_a = FunctionalPipeline::new(&model, &mlp, SystolicArray::new(4, 4), 8).render(
            &cam,
            &scene_aabb(),
            &cfg,
        );
        let img_b = FunctionalPipeline::new(&model, &mlp, SystolicArray::new(16, 16), 64).render(
            &cam,
            &scene_aabb(),
            &cfg,
        );
        // Identical math, different tiling/batching → identical images up to
        // float associativity inside GEMM tiles.
        assert!(
            img_a.psnr(&img_b) > 55.0,
            "batching changed the image: {:.1} dB",
            img_a.psnr(&img_b)
        );
    }

    #[test]
    fn sgpu_counters_populated_by_render() {
        let (model, mlp) = fixture();
        let cam = default_camera(8, 8, 0, 8);
        let cfg = RenderConfig { samples_per_ray: 24, ..Default::default() };
        let mut pipe = FunctionalPipeline::new(&model, &mlp, SystolicArray::new(8, 8), 16);
        let _ = pipe.render(&cam, &scene_aabb(), &cfg);
        assert!(pipe.sgpu().gid.samples() > 0);
        assert!(pipe.sgpu().blu.lookups() > 0);
    }
}
