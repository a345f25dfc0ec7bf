//! The 3-layer rendering MLP (channel sizes 128, 128, 3) and the
//! view-direction encoding.
//!
//! VQRF (and therefore SpNeRF) uses a small color MLP: the interpolated
//! 12-dim voxel feature is concatenated with a 27-dim positional encoding of
//! the view direction, forming the 39×1 input vector the paper's Fig. 5
//! stores in block-circulant layout. Density does **not** pass through the
//! MLP — it comes straight from the grid.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::lanes::{F32x8, LANE_WIDTH};
use crate::vec3::Vec3;
use spnerf_voxel::baked::SPEC_DIM;
use spnerf_voxel::{wide, FEATURE_DIM};

/// Dimension of the view-direction encoding: raw direction (3) plus sin/cos
/// at 4 frequencies per component (3 × 2 × 4 = 24).
pub const VIEW_ENC_DIM: usize = 27;

/// MLP input width: voxel features ⊕ view encoding = 12 + 27 = 39, the
/// vector of the paper's block-circulant buffer.
pub const MLP_INPUT_DIM: usize = FEATURE_DIM + VIEW_ENC_DIM;

/// Hidden layer width.
pub const MLP_HIDDEN_DIM: usize = 128;

/// Output channels (RGB).
pub const MLP_OUTPUT_DIM: usize = 3;

/// Encodes a (normalized) view direction into [`VIEW_ENC_DIM`] values:
/// `[d, sin(2^k d), cos(2^k d)]` for `k = 0..4`, per component.
pub fn encode_direction(dir: Vec3) -> [f32; VIEW_ENC_DIM] {
    let mut out = [0.0f32; VIEW_ENC_DIM];
    let d = dir.to_array();
    out[..3].copy_from_slice(&d);
    let mut idx = 3;
    for k in 0..4 {
        let f = (1u32 << k) as f32;
        for c in d {
            out[idx] = (f * c).sin();
            out[idx + 1] = (f * c).cos();
            idx += 2;
        }
    }
    out
}

/// Outputs the lane GEMV accumulates per sweep over the inputs: four
/// [`F32x8`] accumulators.
const GEMV_GROUP: usize = 4 * LANE_WIDTH;

/// Outputs the batched lane kernel accumulates per sweep over the inputs:
/// one [`F32x8`] accumulator of [`LANE_WIDTH`] samples each.
const BATCH_GROUP: usize = 4;

/// Rounds `out_dim` up to the next [`LANE_WIDTH`] multiple — the padded
/// output width of the lane-blocked weight layout.
const fn pad_to_lanes(out_dim: usize) -> usize {
    out_dim.div_ceil(LANE_WIDTH) * LANE_WIDTH
}

/// Re-lays row-major `out_dim × in_dim` weights as the in-major
/// `in_dim × padded_out` operand the lane GEMV streams: element
/// `(i, o)` lands at `i * padded_out + o`, padding columns are zero.
fn lane_transpose(weights: &[f32], in_dim: usize, out_dim: usize) -> Vec<f32> {
    let padded = pad_to_lanes(out_dim);
    let mut t = vec![0.0f32; in_dim * padded];
    for o in 0..out_dim {
        for i in 0..in_dim {
            t[i * padded + o] = weights[o * in_dim + i];
        }
    }
    t
}

/// Widest layer input [`Layer::forward_batch_into`] accepts: the color
/// MLP's hidden width, its widest layer input.
const MAX_BATCH_IN: usize = MLP_HIDDEN_DIM;

/// One dense layer: `out = act(W x + b)`.
#[derive(Debug, Clone, PartialEq)]
struct Layer {
    in_dim: usize,
    out_dim: usize,
    /// Row-major `out_dim × in_dim` (the scalar oracle's layout).
    weights: Vec<f32>,
    /// The same weights in lane-blocked in-major `in_dim × padded_out`
    /// layout ([`lane_transpose`]), streamed by the lane GEMV.
    weights_t: Vec<f32>,
    bias: Vec<f32>,
    /// Whether a zero input leaves every accumulator's bits unchanged, so
    /// the batched kernel may skip an input that is `±0.0` in all lanes.
    ///
    /// With a finite weight `w`, a zero input adds the product `w·(±0.0)
    /// = ±0.0`, and `acc + ±0.0 == acc` bit for bit unless `acc` is
    /// `−0.0` and the product `+0.0`. An accumulator starts at its bias
    /// and only sums to `−0.0` from `−0.0 + −0.0` (a sum of non-zero
    /// values never rounds to a zero, and exact cancellation gives
    /// `+0.0`), so it can only be `−0.0` if its bias is. Hence: true when
    /// every weight is finite and no bias is `−0.0`, which holds for
    /// every randomly initialized layer.
    zero_inputs_add_nothing: bool,
}

impl Layer {
    /// Bytes this layer holds in memory: row-major weights, the
    /// lane-blocked `weights_t` mirror (including its padding columns —
    /// they are allocated), and the bias, all `f32`.
    fn resident_bytes(&self) -> usize {
        (self.weights.len() + self.weights_t.len() + self.bias.len()) * std::mem::size_of::<f32>()
    }

    fn from_parts(in_dim: usize, out_dim: usize, weights: Vec<f32>, bias: Vec<f32>) -> Self {
        debug_assert_eq!(weights.len(), in_dim * out_dim);
        debug_assert_eq!(bias.len(), out_dim);
        let weights_t = lane_transpose(&weights, in_dim, out_dim);
        let zero_inputs_add_nothing = weights.iter().all(|w| w.is_finite())
            && bias.iter().all(|b| b.to_bits() != (-0.0f32).to_bits());
        Self { in_dim, out_dim, weights, weights_t, bias, zero_inputs_add_nothing }
    }

    fn random(in_dim: usize, out_dim: usize, gain: f32, rng: &mut StdRng) -> Self {
        // Xavier-uniform initialization keeps activations in range without
        // training; `gain` tunes the network's input sensitivity so feature
        // perturbations show up in rendered images at realistic magnitudes.
        let bound = gain * (6.0f32 / (in_dim + out_dim) as f32).sqrt();
        let weights = (0..in_dim * out_dim).map(|_| rng.gen_range(-bound..bound)).collect();
        let bias = (0..out_dim).map(|_| rng.gen_range(-0.1..0.1f32)).collect();
        Self::from_parts(in_dim, out_dim, weights, bias)
    }

    /// The scalar reference GEMV — the test oracle of
    /// [`Layer::forward_into_lanes`] and [`Layer::forward_batch_into`]: one
    /// output row at a time, inputs in ascending `i` order.
    fn forward_into(&self, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.in_dim);
        debug_assert_eq!(out.len(), self.out_dim);
        for (o, slot) in out.iter_mut().enumerate() {
            let row = &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = self.bias[o];
            for (w, xi) in row.iter().zip(x) {
                acc += w * xi;
            }
            *slot = acc;
        }
    }

    /// The lane-blocked GEMV every forward pass runs, bitwise-equal to
    /// [`Layer::forward_into`] followed, with `relu`, by [`relu`].
    ///
    /// Each [`F32x8`] lane holds 8 *independent* output neurons; inputs
    /// stream in the same ascending `i` order as the scalar oracle with an
    /// unfused multiply-then-add, so every output's float-addition order —
    /// and therefore its bits — is unchanged. The padded tail columns
    /// accumulate zeros and are never stored. With `relu`, each
    /// accumulator is activated as it is stored ([`activate`]).
    ///
    /// One accumulator alone is latency-bound: each step waits for the
    /// previous add. So each sweep over the inputs feeds four accumulators
    /// ([`GEMV_GROUP`] outputs, four ymm registers under [`wide!`]) from one
    /// splat of `x[i]`, giving four independent add chains. Blocks past the
    /// last full group (layer 3's single padded block) take the
    /// one-accumulator loop.
    #[inline(always)]
    fn forward_into_lanes(&self, x: &[f32], out: &mut [f32], relu: bool) {
        debug_assert_eq!(x.len(), self.in_dim);
        debug_assert_eq!(out.len(), self.out_dim);
        let padded = pad_to_lanes(self.out_dim);
        let rows = self.weights_t.chunks_exact(padded);
        let bias = |jb: usize| F32x8::load_padded(&self.bias[jb.min(self.bias.len())..]);
        let grouped = padded / GEMV_GROUP * GEMV_GROUP;
        for jb in (0..grouped).step_by(GEMV_GROUP) {
            let [mut a0, mut a1, mut a2, mut a3] = [0, 1, 2, 3].map(|k| bias(jb + k * LANE_WIDTH));
            for (xi, row) in x.iter().zip(rows.clone()) {
                let w = &row[jb..jb + GEMV_GROUP];
                let s = F32x8::splat(*xi);
                a0 = s.mul_add(F32x8::load_padded(&w[..LANE_WIDTH]), a0);
                a1 = s.mul_add(F32x8::load_padded(&w[LANE_WIDTH..2 * LANE_WIDTH]), a1);
                a2 = s.mul_add(F32x8::load_padded(&w[2 * LANE_WIDTH..3 * LANE_WIDTH]), a2);
                a3 = s.mul_add(F32x8::load_padded(&w[3 * LANE_WIDTH..]), a3);
            }
            for (k, acc) in [a0, a1, a2, a3].into_iter().enumerate() {
                let j = jb + k * LANE_WIDTH;
                activate(acc, relu).store_padded(&mut out[j..self.out_dim.min(j + LANE_WIDTH)]);
            }
        }
        for jb in (grouped..padded).step_by(LANE_WIDTH) {
            let mut acc = bias(jb);
            for (xi, row) in x.iter().zip(rows.clone()) {
                acc = F32x8::splat(*xi).mul_add(F32x8::load_padded(&row[jb..jb + LANE_WIDTH]), acc);
            }
            activate(acc, relu).store_padded(&mut out[jb..self.out_dim.min(jb + LANE_WIDTH)]);
        }
    }

    /// The batched lane kernel: the same layer over [`LANE_WIDTH`] samples
    /// at once, bitwise-equal per sample to [`Layer::forward_into`]
    /// followed, with `relu`, by [`relu`].
    ///
    /// `x[i]` holds input `i` of the eight samples, one sample per lane, and
    /// `out[o]` receives output `o` the same way. Each lane runs the scalar
    /// oracle's order — bias first, then `w[o][i] · x[i]` for ascending `i`,
    /// unfused — so each sample's bits are those of a lone GEMV. Inputs
    /// that are zero in every lane are left out of the sweep
    /// ([`Layer::active_inputs`]); adding their zero products would not
    /// change a bit ([`Layer::zero_inputs_add_nothing`]). With `relu`, each
    /// accumulator is activated as it is stored ([`activate`]).
    ///
    /// The GEMV reloads every weight per sample and is bound by those
    /// loads; here one splat of `w[o][i]` serves eight samples. Each sweep
    /// over the inputs feeds four outputs ([`BATCH_GROUP`] accumulators,
    /// four ymm registers under [`wide!`]) from one load of `x[i]`, straight
    /// from the row-major `weights`. Outputs past the last full group (all
    /// of layer 3's three) take the one-accumulator loop.
    #[inline(always)]
    fn forward_batch_into(
        &self,
        x: &[[f32; LANE_WIDTH]],
        out: &mut [[f32; LANE_WIDTH]],
        relu: bool,
    ) {
        debug_assert_eq!(x.len(), self.in_dim);
        debug_assert_eq!(out.len(), self.out_dim);
        let mut active = [0usize; MAX_BATCH_IN];
        let active = self.active_inputs(x, &mut active);
        let row = |o: usize| &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
        let grouped = self.out_dim / BATCH_GROUP * BATCH_GROUP;
        for o in (0..grouped).step_by(BATCH_GROUP) {
            let [mut a0, mut a1, mut a2, mut a3] =
                [0, 1, 2, 3].map(|k| F32x8::splat(self.bias[o + k]));
            let (r0, r1, r2, r3) = (row(o), row(o + 1), row(o + 2), row(o + 3));
            for &i in active {
                let xi = F32x8::from_array(x[i]);
                a0 = F32x8::splat(r0[i]).mul_add(xi, a0);
                a1 = F32x8::splat(r1[i]).mul_add(xi, a1);
                a2 = F32x8::splat(r2[i]).mul_add(xi, a2);
                a3 = F32x8::splat(r3[i]).mul_add(xi, a3);
            }
            for (k, acc) in [a0, a1, a2, a3].into_iter().enumerate() {
                out[o + k] = activate(acc, relu).to_array();
            }
        }
        for (o, slot) in out.iter_mut().enumerate().skip(grouped) {
            let r = row(o);
            let mut acc = F32x8::splat(self.bias[o]);
            for &i in active {
                acc = F32x8::splat(r[i]).mul_add(F32x8::from_array(x[i]), acc);
            }
            *slot = activate(acc, relu).to_array();
        }
    }

    /// The inputs [`Layer::forward_batch_into`] sweeps, in ascending order,
    /// written to the front of `buf`: every input, less those that are
    /// `±0.0` in all eight lanes when [`Layer::zero_inputs_add_nothing`].
    ///
    /// After a ReLU the eight samples of a batch — neighbours along a ray,
    /// or along an x-row of a bake — tend to switch off the same hidden
    /// units, so about half of layers 2 and 3's inputs are zero in every
    /// lane of a render batch.
    ///
    /// An input is `±0.0` in every lane exactly when the OR of its lanes'
    /// bits, each shifted left past the sign bit, is zero: one branch-free
    /// reduction instead of eight compares.
    #[inline(always)]
    fn active_inputs<'b>(
        &self,
        x: &[[f32; LANE_WIDTH]],
        buf: &'b mut [usize; MAX_BATCH_IN],
    ) -> &'b [usize] {
        let mut n = 0;
        for (i, xi) in x.iter().enumerate() {
            let magnitude_bits = xi.iter().fold(0, |bits, v| bits | (v.to_bits() << 1));
            buf[n] = i;
            n += usize::from(!self.zero_inputs_add_nothing || magnitude_bits != 0);
        }
        &buf[..n]
    }
}

/// The 3-layer color MLP (39 → 128 → 128 → 3).
///
/// Hidden activations are ReLU; the RGB output is squashed by a sigmoid so
/// rendered colors live in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use spnerf_render::mlp::{encode_direction, Mlp, MLP_INPUT_DIM};
/// use spnerf_render::vec3::Vec3;
///
/// let mlp = Mlp::random(42);
/// let mut input = [0.1f32; MLP_INPUT_DIM];
/// input[12..].copy_from_slice(&encode_direction(Vec3::new(0.0, 0.0, 1.0)));
/// let rgb = mlp.forward(&input);
/// assert!(rgb.iter().all(|c| (0.0..=1.0).contains(c)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    l1: Layer,
    l2: Layer,
    l3: Layer,
}

impl Mlp {
    /// A deterministic randomly-initialized MLP. The same seed always yields
    /// the same network, so renders are reproducible across runs.
    pub fn random(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            l1: Layer::random(MLP_INPUT_DIM, MLP_HIDDEN_DIM, 1.2, &mut rng),
            l2: Layer::random(MLP_HIDDEN_DIM, MLP_HIDDEN_DIM, 1.2, &mut rng),
            l3: Layer::random(MLP_HIDDEN_DIM, MLP_OUTPUT_DIM, 2.5, &mut rng),
        }
    }

    /// Runs the network on one 39-element input, returning RGB in `[0, 1]`.
    ///
    /// Runs the lane GEMV at the host's widest lane width ([`wide!`]), which
    /// is bitwise-identical to the scalar oracle [`Mlp::forward_scalar`]
    /// (see [`crate::lanes`]).
    pub fn forward(&self, input: &[f32; MLP_INPUT_DIM]) -> [f32; MLP_OUTPUT_DIM] {
        wide!(self.forward_lanes(input))
    }

    /// The body of [`Mlp::forward`], at whatever width its caller is
    /// compiled for. The ReLUs are fused into layers 1 and 2's stores.
    #[inline(always)]
    fn forward_lanes(&self, input: &[f32; MLP_INPUT_DIM]) -> [f32; MLP_OUTPUT_DIM] {
        let mut h1 = [0.0f32; MLP_HIDDEN_DIM];
        let mut h2 = [0.0f32; MLP_HIDDEN_DIM];
        let mut out = [0.0f32; MLP_OUTPUT_DIM];
        self.l1.forward_into_lanes(input, &mut h1, true);
        self.l2.forward_into_lanes(&h1, &mut h2, true);
        self.l3.forward_into_lanes(&h2, &mut out, false);
        out.map(sigmoid)
    }

    /// Runs the network on [`LANE_WIDTH`] samples at once, one sample per
    /// lane: `x[i][l]` is input `i` of sample `l`, and RGB channel `c` of
    /// sample `l` comes back in `[c][l]`.
    ///
    /// This is the MLP Unit's batched dataflow (Fig. 4): the renderer
    /// queues a render job's shaded samples and runs them through here
    /// eight at a time, and [`crate::bake::bake`] does the same with
    /// occupied vertices. Lanes never mix — the one decision all lanes
    /// share, leaving out an input that is zero in every lane, changes no
    /// bit — so every sample's output is bitwise the scalar oracle
    /// [`Mlp::forward_scalar`] of its own input, whatever the other lanes
    /// hold, NaN and ±∞ included. It runs at the host's widest lane width
    /// ([`wide!`]).
    pub fn forward_batch(
        &self,
        x: &[[f32; LANE_WIDTH]; MLP_INPUT_DIM],
    ) -> [[f32; LANE_WIDTH]; MLP_OUTPUT_DIM] {
        wide!(self.forward_batch_lanes(x))
    }

    /// The body of [`Mlp::forward_batch`], at whatever width its caller is
    /// compiled for. The ReLUs are fused into layers 1 and 2's stores.
    #[inline(always)]
    fn forward_batch_lanes(
        &self,
        x: &[[f32; LANE_WIDTH]; MLP_INPUT_DIM],
    ) -> [[f32; LANE_WIDTH]; MLP_OUTPUT_DIM] {
        let mut h1 = [[0.0f32; LANE_WIDTH]; MLP_HIDDEN_DIM];
        let mut h2 = [[0.0f32; LANE_WIDTH]; MLP_HIDDEN_DIM];
        let mut out = [[0.0f32; LANE_WIDTH]; MLP_OUTPUT_DIM];
        self.l1.forward_batch_into(x, &mut h1, true);
        self.l2.forward_batch_into(&h1, &mut h2, true);
        self.l3.forward_batch_into(&h2, &mut out, false);
        out.map(|channel| channel.map(sigmoid))
    }

    /// The scalar reference forward pass — the test oracle the lane
    /// kernels are pinned against.
    pub fn forward_scalar(&self, input: &[f32; MLP_INPUT_DIM]) -> [f32; MLP_OUTPUT_DIM] {
        let mut h1 = [0.0f32; MLP_HIDDEN_DIM];
        let mut h2 = [0.0f32; MLP_HIDDEN_DIM];
        let mut out = [0.0f32; MLP_OUTPUT_DIM];
        self.l1.forward_into(input, &mut h1);
        relu(&mut h1);
        self.l2.forward_into(&h1, &mut h2);
        relu(&mut h2);
        self.l3.forward_into(&h2, &mut out);
        for o in &mut out {
            *o = sigmoid(*o);
        }
        out
    }

    /// Multiply-accumulate operations per forward pass — the quantity the
    /// accelerator's systolic array executes per sample.
    pub const fn macs_per_sample() -> usize {
        MLP_INPUT_DIM * MLP_HIDDEN_DIM
            + MLP_HIDDEN_DIM * MLP_HIDDEN_DIM
            + MLP_HIDDEN_DIM * MLP_OUTPUT_DIM
    }

    /// Bytes an in-memory copy of this network occupies: `f32` weights and
    /// biases plus the lane-blocked `weights_t` mirror each layer keeps for
    /// the lane GEMV. This is the host-resident footprint a scene cache
    /// charges per bundle, as opposed to [`Mlp::weight_bytes_f16`] (the
    /// accelerator's on-chip SRAM budget).
    pub fn resident_bytes(&self) -> usize {
        [&self.l1, &self.l2, &self.l3].iter().map(|l| l.resident_bytes()).sum()
    }

    /// Weight-buffer bytes at FP16 (weights + biases), the accelerator's
    /// weight SRAM requirement.
    pub const fn weight_bytes_f16() -> usize {
        let params = MLP_INPUT_DIM * MLP_HIDDEN_DIM
            + MLP_HIDDEN_DIM
            + MLP_HIDDEN_DIM * MLP_HIDDEN_DIM
            + MLP_HIDDEN_DIM
            + MLP_HIDDEN_DIM * MLP_OUTPUT_DIM
            + MLP_OUTPUT_DIM;
        params * 2
    }

    /// Layer shapes `(in, out)` in order — consumed by the systolic-array
    /// cycle model.
    pub const fn layer_shapes() -> [(usize, usize); 3] {
        [
            (MLP_INPUT_DIM, MLP_HIDDEN_DIM),
            (MLP_HIDDEN_DIM, MLP_HIDDEN_DIM),
            (MLP_HIDDEN_DIM, MLP_OUTPUT_DIM),
        ]
    }

    /// Weights of layer `li` re-laid-out as the `in_dim × out_dim`
    /// row-major B operand of a batched GEMM `X(batch×in) · W(in×out)` —
    /// the order the MLP Unit's weight buffer streams into the systolic
    /// array.
    ///
    /// # Panics
    ///
    /// Panics if `li >= 3`.
    pub fn layer_weights_gemm(&self, li: usize) -> Vec<f32> {
        let layer = self.layer(li);
        let mut out = vec![0.0f32; layer.in_dim * layer.out_dim];
        for o in 0..layer.out_dim {
            for i in 0..layer.in_dim {
                out[i * layer.out_dim + o] = layer.weights[o * layer.in_dim + i];
            }
        }
        out
    }

    /// Bias vector of layer `li`.
    ///
    /// # Panics
    ///
    /// Panics if `li >= 3`.
    pub fn layer_bias(&self, li: usize) -> &[f32] {
        &self.layer(li).bias
    }

    fn layer(&self, li: usize) -> &Layer {
        match li {
            0 => &self.l1,
            1 => &self.l2,
            2 => &self.l3,
            _ => panic!("layer index {li} out of range (MLP has 3 layers)"),
        }
    }
}

/// Input width of the deferred view-dependence MLP: the ray-accumulated
/// specular feature ⊕ view encoding = 9 + 27 = 36.
pub const DEFERRED_INPUT_DIM: usize = SPEC_DIM + VIEW_ENC_DIM;

/// Hidden width of the deferred view-dependence MLP — deliberately small
/// (SNeRG-style): it runs once per *pixel*, not once per sample.
pub const DEFERRED_HIDDEN_DIM: usize = 32;

/// The small deferred view-dependence MLP (36 → 32 → 32 → 3).
///
/// In the bake-and-defer path the big per-sample color [`Mlp`] is evaluated
/// only during the bake pass; at render time the marcher accumulates a
/// [`SPEC_DIM`]-channel specular feature along the ray and this network
/// turns it — together with the view-direction encoding — into a specular
/// RGB residual **once per pixel**. Hidden activations are ReLU; the output
/// is squashed by a sigmoid like the main network.
///
/// Like every hot-path kernel, the lane-blocked forward pass is
/// bitwise-identical to its scalar oracle.
///
/// # Examples
///
/// ```
/// use spnerf_render::mlp::{DeferredMlp, DEFERRED_INPUT_DIM};
///
/// let mlp = DeferredMlp::random(42);
/// let rgb = mlp.forward(&[0.1; DEFERRED_INPUT_DIM]);
/// assert!(rgb.iter().all(|c| (0.0..=1.0).contains(c)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeferredMlp {
    l1: Layer,
    l2: Layer,
    l3: Layer,
}

impl DeferredMlp {
    /// A deterministic randomly-initialized deferred MLP. The seed is
    /// salted internally so a scene's deferred network differs from its
    /// color [`Mlp`] even when both derive from the same scene seed.
    pub fn random(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEFE_11ED_BA5E_D0E5);
        Self {
            l1: Layer::random(DEFERRED_INPUT_DIM, DEFERRED_HIDDEN_DIM, 1.2, &mut rng),
            l2: Layer::random(DEFERRED_HIDDEN_DIM, DEFERRED_HIDDEN_DIM, 1.2, &mut rng),
            l3: Layer::random(DEFERRED_HIDDEN_DIM, MLP_OUTPUT_DIM, 2.5, &mut rng),
        }
    }

    /// The scalar reference forward pass — the test oracle
    /// [`DeferredMlp::forward`] is pinned against.
    pub fn forward_scalar(&self, input: &[f32; DEFERRED_INPUT_DIM]) -> [f32; MLP_OUTPUT_DIM] {
        let mut h1 = [0.0f32; DEFERRED_HIDDEN_DIM];
        let mut h2 = [0.0f32; DEFERRED_HIDDEN_DIM];
        let mut out = [0.0f32; MLP_OUTPUT_DIM];
        self.l1.forward_into(input, &mut h1);
        relu(&mut h1);
        self.l2.forward_into(&h1, &mut h2);
        relu(&mut h2);
        self.l3.forward_into(&h2, &mut out);
        for o in &mut out {
            *o = sigmoid(*o);
        }
        out
    }

    /// Runs the network on one accumulated-feature ⊕ view-encoding input,
    /// returning RGB in `[0, 1]`. Runs the lane GEMV at the host's widest
    /// lane width ([`wide!`]), bitwise-identical to the scalar oracle
    /// [`DeferredMlp::forward_scalar`].
    pub fn forward(&self, input: &[f32; DEFERRED_INPUT_DIM]) -> [f32; MLP_OUTPUT_DIM] {
        wide!(self.forward_lanes(input))
    }

    /// The body of [`DeferredMlp::forward`], at whatever width its caller
    /// is compiled for. The ReLUs are fused into layers 1 and 2's stores.
    #[inline(always)]
    fn forward_lanes(&self, input: &[f32; DEFERRED_INPUT_DIM]) -> [f32; MLP_OUTPUT_DIM] {
        let mut h1 = [0.0f32; DEFERRED_HIDDEN_DIM];
        let mut h2 = [0.0f32; DEFERRED_HIDDEN_DIM];
        let mut out = [0.0f32; MLP_OUTPUT_DIM];
        self.l1.forward_into_lanes(input, &mut h1, true);
        self.l2.forward_into_lanes(&h1, &mut h2, true);
        self.l3.forward_into_lanes(&h2, &mut out, false);
        out.map(sigmoid)
    }

    /// Multiply-accumulate operations per deferred evaluation — the
    /// per-*pixel* cost the accelerator's cycle model charges in place of
    /// [`Mlp::macs_per_sample`] per-sample work.
    pub const fn macs_per_pixel() -> usize {
        DEFERRED_INPUT_DIM * DEFERRED_HIDDEN_DIM
            + DEFERRED_HIDDEN_DIM * DEFERRED_HIDDEN_DIM
            + DEFERRED_HIDDEN_DIM * MLP_OUTPUT_DIM
    }

    /// Bytes an in-memory copy of this network occupies (`f32` weights,
    /// lane-blocked mirror, biases) — see [`Mlp::resident_bytes`].
    pub fn resident_bytes(&self) -> usize {
        [&self.l1, &self.l2, &self.l3].iter().map(|l| l.resident_bytes()).sum()
    }

    /// Weight-buffer bytes at FP16 (weights + biases) — the deferred
    /// network's share of the accelerator's weight SRAM.
    pub const fn weight_bytes_f16() -> usize {
        let params = DEFERRED_INPUT_DIM * DEFERRED_HIDDEN_DIM
            + DEFERRED_HIDDEN_DIM
            + DEFERRED_HIDDEN_DIM * DEFERRED_HIDDEN_DIM
            + DEFERRED_HIDDEN_DIM
            + DEFERRED_HIDDEN_DIM * MLP_OUTPUT_DIM
            + MLP_OUTPUT_DIM;
        params * 2
    }

    /// Layer shapes `(in, out)` in order — consumed by the systolic-array
    /// cycle model.
    pub const fn layer_shapes() -> [(usize, usize); 3] {
        [
            (DEFERRED_INPUT_DIM, DEFERRED_HIDDEN_DIM),
            (DEFERRED_HIDDEN_DIM, DEFERRED_HIDDEN_DIM),
            (DEFERRED_HIDDEN_DIM, MLP_OUTPUT_DIM),
        ]
    }
}

/// The scalar oracles' ReLU over a stored layer output.
fn relu(v: &mut [f32]) {
    for x in v.iter_mut() {
        if *x < 0.0 {
            *x = 0.0;
        }
    }
}

/// A lane kernel's activation, applied to an accumulator as its layer
/// stores it: with `relu`, the lane select `x < 0 ? +0.0 : x`, bitwise the
/// oracle's [`relu`] (a `−0.0` or NaN lane is not below zero and stays as
/// it is) with no branch per activation; without, `acc` as it is.
#[inline(always)]
fn activate(acc: F32x8, relu: bool) -> F32x8 {
    if relu {
        acc.select_lt(F32x8::ZERO, F32x8::ZERO, acc)
    } else {
        acc
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = Mlp::random(7);
        let b = Mlp::random(7);
        assert_eq!(a, b);
        let c = Mlp::random(8);
        assert_ne!(a, c);
    }

    #[test]
    fn output_in_unit_interval() {
        let mlp = Mlp::random(1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let mut input = [0.0f32; MLP_INPUT_DIM];
            for x in &mut input {
                *x = rng.gen_range(-2.0..2.0);
            }
            let rgb = mlp.forward(&input);
            assert!(rgb.iter().all(|c| (0.0..=1.0).contains(c)), "rgb {rgb:?}");
        }
    }

    #[test]
    fn output_depends_on_features_and_direction() {
        let mlp = Mlp::random(3);
        let base = [0.2f32; MLP_INPUT_DIM];
        let mut feat_changed = base;
        feat_changed[0] = 0.9;
        let mut dir_changed = base;
        dir_changed[20] = 0.9;
        let o0 = mlp.forward(&base);
        assert_ne!(o0, mlp.forward(&feat_changed));
        assert_ne!(o0, mlp.forward(&dir_changed));
    }

    #[test]
    fn direction_encoding_shape() {
        let e = encode_direction(Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(e[0], 0.0);
        assert_eq!(e[2], 1.0);
        // sin(0)=0 and cos(0)=1 entries present for the zero components.
        assert_eq!(e[3], 0.0);
        assert_eq!(e[4], 1.0);
        // Frequency 1 on z: sin(1), cos(1).
        assert!((e[7] - 1.0f32.sin()).abs() < 1e-6);
        assert!((e[8] - 1.0f32.cos()).abs() < 1e-6);
    }

    #[test]
    fn encoding_distinguishes_directions() {
        let a = encode_direction(Vec3::new(1.0, 0.0, 0.0));
        let b = encode_direction(Vec3::new(0.0, 1.0, 0.0));
        assert_ne!(a, b);
    }

    fn random_inputs(seed: u64, n: usize) -> Vec<[f32; MLP_INPUT_DIM]> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut input = [0.0f32; MLP_INPUT_DIM];
                for x in &mut input {
                    *x = rng.gen_range(-2.0..2.0);
                }
                input
            })
            .collect()
    }

    // The tests below pin each dispatched kernel three ways. Calling a
    // kernel body directly compiles it at the build's baseline width;
    // calling its front door runs the `wide!` clone on an AVX host (every
    // CI host); the scalar oracle is the reference both must equal bit for
    // bit. Tests build this crate at opt-level 3 (the root `Cargo.toml`),
    // so the clone under test is vectorized onto ymm registers, as in a
    // release build.

    /// Asserts `got` is `want` bit for bit.
    fn assert_bits(want: &[f32], got: &[f32], context: &str) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(want), bits(got), "{context}");
    }

    /// Color-MLP inputs: corpus voxel features of every archetype, each
    /// with its own view encoding, as a render feeds them, then signed
    /// zeros, subnormals and large magnitudes that random draws never
    /// reach.
    fn kernel_inputs() -> Vec<[f32; MLP_INPUT_DIM]> {
        use crate::source::VoxelSource;
        use spnerf_testkit::corpus::{generate, Archetype, CorpusSpec};
        let mut inputs = Vec::new();
        for (seed, arch) in Archetype::ALL.into_iter().enumerate() {
            let grid = generate(&CorpusSpec::new(arch, 12, 0.2, seed as u64));
            let features: Vec<_> =
                VoxelSource::dims(&grid).iter().filter_map(|c| grid.fetch(c)).take(21).collect();
            assert!(!features.is_empty(), "{arch:?} has no occupied vertex");
            inputs.extend(features.iter().enumerate().map(|(n, data)| {
                let a = n as f32 * 0.37;
                let mut input = [0.0f32; MLP_INPUT_DIM];
                input[..FEATURE_DIM].copy_from_slice(&data.features);
                input[FEATURE_DIM..].copy_from_slice(&encode_direction(
                    Vec3::new(a.cos(), 0.3, a.sin()).normalized(),
                ));
                input
            }));
        }
        let sign = |i: usize| if i % 3 == 1 { -1.0f32 } else { 1.0 };
        inputs.extend([
            [0.0; MLP_INPUT_DIM],
            [-0.0; MLP_INPUT_DIM],
            std::array::from_fn(|i| sign(i) * 0.0),
            std::array::from_fn(|i| sign(i) * f32::from_bits(1)),
            std::array::from_fn(|i| sign(i) * f32::from_bits(0x007F_FFFF)),
            std::array::from_fn(|i| sign(i) * f32::from_bits(1 << (i % 23))),
            std::array::from_fn(|i| sign(i) * 1e3),
        ]);
        inputs
    }

    #[test]
    fn lane_gemv_is_bitwise_scalar() {
        let mlp = Mlp::random(9);
        for (n, input) in random_inputs(21, 32).iter().chain(&kernel_inputs()).enumerate() {
            let oracle = mlp.forward_scalar(input);
            assert_bits(&oracle, &mlp.forward_lanes(input), &format!("body, input {n}"));
            assert_bits(&oracle, &mlp.forward(input), &format!("wide, input {n}"));
        }
    }

    #[test]
    fn scratch_reuse_changes_nothing() {
        // One batch buffer refilled group after group, as a render job and
        // the bake reuse theirs: the spare lanes of the short last group
        // still hold the previous group's inputs, and no lane leaks into
        // another.
        let mlp = Mlp::random(4);
        let inputs = random_inputs(5, 2 * LANE_WIDTH + 3);
        let mut batch = [[0.0f32; LANE_WIDTH]; MLP_INPUT_DIM];
        for group in inputs.chunks(LANE_WIDTH) {
            for (l, input) in group.iter().enumerate() {
                for (row, x) in batch.iter_mut().zip(input) {
                    row[l] = *x;
                }
            }
            let rgb = mlp.forward_batch(&batch);
            for (l, input) in group.iter().enumerate() {
                assert_eq!(rgb.map(|c| c[l]), mlp.forward(input), "lane {l}");
            }
        }
    }

    #[test]
    fn zero_inputs_are_skipped_only_when_that_is_exact() {
        let mlp = Mlp::random(6);
        assert!([&mlp.l1, &mlp.l2, &mlp.l3].iter().all(|l| l.zero_inputs_add_nothing));
        // A −0.0 bias plus the zero product of a positive weight is +0.0,
        // and a NaN weight times zero is NaN: either way, skipping the zero
        // input would change the output's bits, so such layers sweep
        // every input.
        //
        // Both kernels, at both widths, with and without the fused ReLU.
        // Fed signed zeros, the −0.0-bias layer stores −0.0 and +0.0, which
        // the ReLU keeps as they are, and negative outputs, which it turns
        // into +0.0; the NaN-weight layer stores NaN, which it keeps.
        let inputs = [[0.0, 0.0], [-0.0, -0.0], [-0.0, 0.0], [-1.0, 0.5], [2.0, -3.0]];
        // The batches put input `pick(l)` in lane `l`. The first three hold
        // ±0.0 in every lane of both inputs (+0.0, −0.0, then mixed signs):
        // exactly the inputs a layer that may skip zeros would leave out.
        // The last mixes zero and non-zero lanes.
        let picks: [fn(usize) -> usize; 4] = [|_| 0, |_| 1, |l| l % 3, |l| l % 5];
        for (weights, bias) in [(vec![1.0, 1.0], vec![-0.0]), (vec![f32::NAN, 1.0], vec![0.5])] {
            let layer = Layer::from_parts(2, 1, weights, bias);
            assert!(!layer.zero_inputs_add_nothing);
            for relu_on in [false, true] {
                let oracle: Vec<f32> = inputs
                    .iter()
                    .map(|x| {
                        let mut out = [0.0f32];
                        layer.forward_into(x, &mut out);
                        if relu_on {
                            relu(&mut out);
                        }
                        out[0]
                    })
                    .collect();
                let context = format!("bias {:?}, relu {relu_on}", layer.bias);
                for (x, want) in inputs.iter().zip(&oracle) {
                    let (mut body, mut dispatched) = ([0.0f32], [0.0f32]);
                    layer.forward_into_lanes(x, &mut body, relu_on);
                    wide!(layer.forward_into_lanes(x, &mut dispatched, relu_on));
                    assert_bits(&[*want], &body, &format!("GEMV body, {context}, x {x:?}"));
                    assert_bits(&[*want], &dispatched, &format!("GEMV wide, {context}, x {x:?}"));
                }
                for (b, pick) in picks.iter().enumerate() {
                    let batch: [[f32; LANE_WIDTH]; 2] =
                        std::array::from_fn(|i| std::array::from_fn(|l| inputs[pick(l)][i]));
                    let (mut body, mut dispatched) =
                        ([[0.0f32; LANE_WIDTH]], [[0.0f32; LANE_WIDTH]]);
                    layer.forward_batch_into(&batch, &mut body, relu_on);
                    wide!(layer.forward_batch_into(&batch, &mut dispatched, relu_on));
                    let want: Vec<f32> = (0..LANE_WIDTH).map(|l| oracle[pick(l)]).collect();
                    assert_bits(&want, &body[0], &format!("batch {b} body, {context}"));
                    assert_bits(&want, &dispatched[0], &format!("batch {b} wide, {context}"));
                }
            }
        }
    }

    #[test]
    fn batch_body_and_wide_clone_are_bitwise_scalar() {
        // Odd groups fill five lanes and leave NaN and ±∞ in the spare
        // lanes; even groups fill all eight, so inputs that are zero in
        // every lane are left out of the sweep.
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let mlp = Mlp::random(11);
        let inputs = kernel_inputs();
        let mut rest = inputs.as_slice();
        let mut group = 0;
        while !rest.is_empty() {
            let filled = rest.len().min(if group % 2 == 0 { LANE_WIDTH } else { 5 });
            let (now, later) = rest.split_at(filled);
            let batch: [[f32; LANE_WIDTH]; MLP_INPUT_DIM] = std::array::from_fn(|i| {
                std::array::from_fn(|l| now.get(l).map_or(specials[(i + l) % 3], |x| x[i]))
            });
            let body = mlp.forward_batch_lanes(&batch);
            let dispatched = mlp.forward_batch(&batch);
            for (l, input) in now.iter().enumerate() {
                let oracle = mlp.forward_scalar(input);
                let context = format!("group {group} lane {l} of {filled}");
                assert_bits(&oracle, &body.map(|c| c[l]), &format!("body, {context}"));
                assert_bits(&oracle, &dispatched.map(|c| c[l]), &format!("wide, {context}"));
            }
            rest = later;
            group += 1;
        }
    }

    #[test]
    fn macs_match_paper_layer_sizes() {
        // 39·128 + 128·128 + 128·3 = 21760.
        assert_eq!(Mlp::macs_per_sample(), 21_760);
        assert_eq!(MLP_INPUT_DIM, 39);
    }

    #[test]
    fn weight_bytes() {
        let params = 39 * 128 + 128 + 128 * 128 + 128 + 128 * 3 + 3;
        assert_eq!(Mlp::weight_bytes_f16(), params * 2);
        // Fits comfortably in the 58 KB MLP buffer budget of the paper.
        assert!(Mlp::weight_bytes_f16() < 58 * 1024);
    }

    #[test]
    fn resident_bytes_count_every_f32_actually_held() {
        // Per layer: in·out row-major weights + in·pad(out) lane mirror +
        // out bias. pad rounds out up to the 8-lane width, so 128 stays 128
        // and 3 pads to 8.
        let expect = |i: usize, o: usize| (i * o + i * o.div_ceil(8) * 8 + o) * 4;
        let mlp = Mlp::random(0);
        assert_eq!(
            mlp.resident_bytes(),
            expect(39, 128) + expect(128, 128) + expect(128, 3),
            "color MLP resident bytes must match the layer shapes"
        );
        let deferred = DeferredMlp::random(0);
        assert_eq!(
            deferred.resident_bytes(),
            expect(36, 32) + expect(32, 32) + expect(32, 3),
            "deferred MLP resident bytes must match the layer shapes"
        );
        // The resident copy is strictly larger than the fp16 SRAM budget:
        // full precision plus the lane mirror.
        assert!(mlp.resident_bytes() > Mlp::weight_bytes_f16());
    }

    #[test]
    fn deferred_mlp_is_deterministic_and_distinct_from_the_color_mlp() {
        assert_eq!(DeferredMlp::random(7), DeferredMlp::random(7));
        assert_ne!(DeferredMlp::random(7), DeferredMlp::random(8));
        // The internal salt keeps the seed-42 deferred weights independent
        // of the seed-42 color weights (both are drawn from StdRng).
        let color = Mlp::random(42);
        let deferred = DeferredMlp::random(42);
        assert_ne!(color.layer_bias(0)[0].to_bits(), deferred.l1.bias[0].to_bits());
    }

    #[test]
    fn deferred_lane_gemv_is_bitwise_scalar() {
        let mlp = DeferredMlp::random(23);
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..32 {
            let mut input = [0.0f32; DEFERRED_INPUT_DIM];
            for x in &mut input {
                *x = rng.gen_range(-2.0..2.0);
            }
            let s = mlp.forward_scalar(&input);
            assert_bits(&s, &mlp.forward_lanes(&input), "deferred body");
            assert_bits(&s, &mlp.forward(&input), "deferred wide");
            assert!(s.iter().all(|c| (0.0..=1.0).contains(c)), "rgb out of range: {s:?}");
        }
        for (n, input) in kernel_inputs().iter().enumerate() {
            let input: &[f32; DEFERRED_INPUT_DIM] =
                input[..DEFERRED_INPUT_DIM].try_into().expect("the deferred input is a prefix");
            let oracle = mlp.forward_scalar(input);
            assert_bits(&oracle, &mlp.forward_lanes(input), &format!("deferred body, input {n}"));
            assert_bits(&oracle, &mlp.forward(input), &format!("deferred wide, input {n}"));
        }
    }

    #[test]
    fn deferred_macs_collapse_per_sample_work() {
        // 36·32 + 32·32 + 32·3 = 2272 — ~9.6x fewer MACs than one
        // per-sample forward, before the per-pixel amortization.
        assert_eq!(DeferredMlp::macs_per_pixel(), 2_272);
        assert!(Mlp::macs_per_sample() / DeferredMlp::macs_per_pixel() >= 9);
        assert_eq!(DEFERRED_INPUT_DIM, 36);
        let params = 36 * 32 + 32 + 32 * 32 + 32 + 32 * 3 + 3;
        assert_eq!(DeferredMlp::weight_bytes_f16(), params * 2);
    }
}
