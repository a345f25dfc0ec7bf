//! k-means vector quantization — the codebook trainer behind VQRF.
//!
//! VQRF compresses voxel color features by clustering them into a small
//! codebook (4096 × 12 in the paper) and replacing most voxels' features by
//! their nearest codeword. This module provides a deterministic, seedable
//! k-means (k-means++ initialization + Lloyd iterations, optionally on a
//! training subsample for speed).
//!
//! # Lane kernels, scalar results
//!
//! Every distance sweep runs eight distances per [`F32x8`] and is bitwise
//! equal to the scalar loop it replaced, so a codebook never depends on
//! the kernel, the worker count or the host:
//!
//! * [`Codebook::assign`] sweeps a transposed copy of the codebook, eight
//!   codewords per lane vector, accumulating `(x − c)²` channel by channel
//!   in scalar order and keeping a strict-`<` running minimum per lane;
//!   the eight lane minima are then reduced by (distance, lowest index).
//!   [`Codebook::assign_scalar`] is the oracle the tests pin it to.
//! * The k-means++ seeding lowers each training row's squared distance to
//!   the nearest chosen centroid eight rows per lane vector, over a
//!   transposed copy of the subsample. The `f64` total and the pick scan
//!   stay sequential in row order, because they steer the RNG's choice.
//! * Lloyd labels and (in [`crate::vqrf`]) the classification of coded
//!   points run as contiguous row jobs on the ordered pool
//!   ([`crate::pool::run_ordered`]); labels come back in row order and
//!   the Lloyd sums still accumulate sequentially.
//!
//! Both sweeps run through [`wide!`](crate::wide!), so on an AVX host each
//! lane vector is one ymm register; the bits are the same at either width.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::lanes::{F32x8, LANE_WIDTH};
use crate::pool::run_ordered;
use crate::wide;

/// Distance evaluations (rows × codewords) per job of the ordered pool:
/// large enough that a job outweighs its scheduling, and that a small pass
/// — 32 codewords over up to 8192 rows, or 128 over up to 2048 — is one job
/// and runs inline without spawning a thread.
const JOB_DISTANCE_EVALS: usize = 1 << 18;

/// Configuration for [`Codebook::train`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansConfig {
    /// Number of codewords (paper: 4096).
    pub k: usize,
    /// Lloyd iterations after initialization.
    pub max_iters: usize,
    /// Train on at most this many vectors (sampled deterministically;
    /// non-zero). `usize::MAX` trains on everything.
    pub train_subsample: usize,
    /// RNG seed: same seed + same data ⇒ identical codebook.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self { k: 4096, max_iters: 5, train_subsample: 16_384, seed: 0x5b7f }
    }
}

/// A trained codebook of `k` centroids of dimension `dim`.
///
/// # Examples
///
/// ```
/// use spnerf_voxel::kmeans::{Codebook, KMeansConfig};
///
/// let data = vec![0.0, 0.0, 10.0, 10.0, 0.1, -0.1, 9.9, 10.1];
/// let cfg = KMeansConfig { k: 2, max_iters: 8, ..Default::default() };
/// let cb = Codebook::train(&data, 2, &cfg);
/// // The two clusters are separated, so their members agree on assignment.
/// assert_eq!(cb.assign(&[0.05, 0.0]), cb.assign(&[-0.05, 0.05]));
/// assert_ne!(cb.assign(&[0.0, 0.0]), cb.assign(&[10.0, 10.0]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Codebook {
    dim: usize,
    /// `k * dim`, centroid `i` at `i * dim ..`.
    centroids: Vec<f32>,
    /// The centroids transposed for [`Codebook::assign`] (see
    /// [`transpose`]), padded with `+∞` lanes: a padding lane's distance is
    /// `+∞` or NaN, never below the running minimum, so it never wins.
    blocks: Vec<F32x8>,
}

impl Codebook {
    /// Trains a codebook on `data` (flat `n × dim`, row-major).
    ///
    /// If fewer distinct vectors than `cfg.k` exist, the surplus centroids
    /// duplicate existing ones; assignment remains well defined. The
    /// assignment passes use every core the host grants the process; the
    /// codebook is the same at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`, `cfg.k == 0`, `cfg.train_subsample == 0`,
    /// `data.len()` is not a multiple of `dim`, or `data` is empty.
    pub fn train(data: &[f32], dim: usize, cfg: &KMeansConfig) -> Self {
        Self::train_with_workers(data, dim, cfg, 0)
    }

    /// [`Codebook::train`] on `workers` pool workers (`0` = the host's
    /// parallelism); the result is bitwise the same for every value.
    pub(crate) fn train_with_workers(
        data: &[f32],
        dim: usize,
        cfg: &KMeansConfig,
        workers: usize,
    ) -> Self {
        assert!(dim > 0, "dimension must be non-zero");
        assert!(cfg.k > 0, "k must be non-zero");
        assert!(cfg.train_subsample > 0, "training subsample must be non-zero");
        assert!(!data.is_empty(), "cannot train a codebook on empty data");
        assert_eq!(data.len() % dim, 0, "data length must be a multiple of dim");
        let n = data.len() / dim;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Deterministic subsample of training rows.
        let train_rows: Vec<usize> = if n <= cfg.train_subsample {
            (0..n).collect()
        } else {
            let mut rows: Vec<usize> = (0..n).collect();
            // Partial Fisher–Yates: the first `train_subsample` entries are a
            // uniform sample.
            for i in 0..cfg.train_subsample {
                let j = rng.gen_range(i..n);
                rows.swap(i, j);
            }
            rows.truncate(cfg.train_subsample);
            rows
        };
        let n_train = train_rows.len();
        let train: Vec<f32> =
            train_rows.iter().flat_map(|r| &data[r * dim..(r + 1) * dim]).copied().collect();
        let row = |i: usize| &train[i * dim..(i + 1) * dim];

        // k-means++ initialization over the training rows. `min_d2` is
        // padded to whole lane blocks; only its first `n_train` entries are
        // read.
        let rows_t = transpose(&train, dim, 0.0);
        let k = cfg.k.min(n_train).max(1);
        let mut centroids: Vec<f32> = Vec::with_capacity(cfg.k * dim);
        let first = row(rng.gen_range(0..n_train));
        centroids.extend_from_slice(first);
        let mut min_d2 = first_min_d2(&rows_t, dim, first);
        while centroids.len() / dim < k {
            let live = &min_d2[..n_train];
            let total: f64 = live.iter().map(|d| *d as f64).sum();
            let pick = if total > 0.0 {
                let mut target = rng.gen::<f64>() * total;
                let mut chosen = n_train - 1;
                for (i, d) in live.iter().enumerate() {
                    target -= *d as f64;
                    if target <= 0.0 {
                        chosen = i;
                        break;
                    }
                }
                chosen
            } else {
                rng.gen_range(0..n_train)
            };
            let c = row(pick);
            centroids.extend_from_slice(c);
            lower_min_d2(&rows_t, dim, c, &mut min_d2);
        }
        // Pad duplicates if k was clamped (fewer rows than requested k).
        while centroids.len() / dim < cfg.k {
            let src = rng.gen_range(0..k) * dim;
            let dup: Vec<f32> = centroids[src..src + dim].to_vec();
            centroids.extend_from_slice(&dup);
        }

        let mut cb = Self::from_centroids(centroids, dim);

        // Lloyd iterations on the training rows: labels in parallel, sums
        // and counts sequentially in row order.
        let kk = cfg.k;
        for _ in 0..cfg.max_iters {
            let labels = cb.assign_rows(n_train, row, workers);
            let mut sums = vec![0.0f64; kk * dim];
            let mut counts = vec![0usize; kk];
            for (i, &a) in labels.iter().enumerate() {
                counts[a] += 1;
                for (d, x) in row(i).iter().enumerate() {
                    sums[a * dim + d] += *x as f64;
                }
            }
            let mut moved = false;
            for c in 0..kk {
                if counts[c] == 0 {
                    continue; // keep empty clusters where they are
                }
                for d in 0..dim {
                    let newv = (sums[c * dim + d] / counts[c] as f64) as f32;
                    if (newv - cb.centroids[c * dim + d]).abs() > 1e-7 {
                        moved = true;
                    }
                    cb.centroids[c * dim + d] = newv;
                }
            }
            cb.blocks = transpose(&cb.centroids, dim, f32::INFINITY);
            if !moved {
                break;
            }
        }
        cb
    }

    /// Builds a codebook from explicit centroids (flat `k × dim`).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or the length is not a multiple of `dim`.
    pub fn from_centroids(centroids: Vec<f32>, dim: usize) -> Self {
        assert!(dim > 0, "dimension must be non-zero");
        assert_eq!(centroids.len() % dim, 0, "centroid data must be a multiple of dim");
        let blocks = transpose(&centroids, dim, f32::INFINITY);
        Self { dim, centroids, blocks }
    }

    /// Number of codewords.
    pub fn len(&self) -> usize {
        self.centroids.len() / self.dim
    }

    /// Whether the codebook holds no codewords.
    pub fn is_empty(&self) -> bool {
        self.centroids.is_empty()
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Centroid `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn centroid(&self, i: usize) -> &[f32] {
        &self.centroids[i * self.dim..(i + 1) * self.dim]
    }

    /// Flat centroid storage (`k × dim`).
    pub fn centroids_raw(&self) -> &[f32] {
        &self.centroids
    }

    /// Index of the nearest centroid to `v` (squared Euclidean distance);
    /// ties go to the lowest index, and a row with no finite distance
    /// (NaN or infinite entries) answers 0.
    ///
    /// The lane kernel: eight codewords per [`F32x8`] sweep at the host's
    /// widest lane width ([`wide!`]), bitwise the same answer as
    /// [`Codebook::assign_scalar`].
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim`.
    pub fn assign(&self, v: &[f32]) -> usize {
        wide!(self.assign_lanes(v))
    }

    /// The body of [`Codebook::assign`], at whatever width its caller is
    /// compiled for.
    #[inline(always)]
    fn assign_lanes(&self, v: &[f32]) -> usize {
        assert_eq!(v.len(), self.dim, "query dimension mismatch");
        // Per lane `l`: the smallest distance over codewords l, l + 8, …
        // (strict `<`, so the first of equals), and the block it came from.
        // Block numbers ride in f32 lanes, exact below 2^24 blocks.
        let mut best_d = F32x8::splat(f32::INFINITY);
        let mut best_block = F32x8::ZERO;
        for (b, block) in self.blocks.chunks_exact(self.dim).enumerate() {
            let mut acc = F32x8::ZERO;
            for (x, c) in v.iter().zip(block) {
                let diff = F32x8::splat(*x) - *c;
                acc += diff * diff;
            }
            best_block = acc.select_lt(best_d, F32x8::splat(b as f32), best_block);
            best_d = acc.select_lt(best_d, acc, best_d);
        }
        // Reduce the lanes by (distance, lowest index). A lane that never
        // saw a finite distance holds (+∞, l) and cannot win, so with no
        // finite distance anywhere the answer is 0, as in the scalar loop.
        let (dists, blocks) = (best_d.to_array(), best_block.to_array());
        let mut best = (f32::INFINITY, 0);
        for (l, (d, b)) in dists.into_iter().zip(blocks).enumerate() {
            let i = b as usize * LANE_WIDTH + l;
            if d < best.0 || (d == best.0 && i < best.1) {
                best = (d, i);
            }
        }
        best.1
    }

    /// The scalar oracle of [`Codebook::assign`]: one codeword at a time,
    /// keeping the first strict minimum.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim`.
    pub fn assign_scalar(&self, v: &[f32]) -> usize {
        assert_eq!(v.len(), self.dim, "query dimension mismatch");
        let mut best = 0;
        let mut best_d = f32::INFINITY;
        for i in 0..self.len() {
            let d = dist2(v, self.centroid(i));
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// [`Codebook::assign`] of rows `row(0) .. row(n - 1)`, in row order,
    /// run as contiguous jobs of about [`JOB_DISTANCE_EVALS`] distance
    /// evaluations each on up to `workers` pool workers (`0` = the host's
    /// parallelism). One job runs inline.
    pub(crate) fn assign_rows<'a>(
        &self,
        n: usize,
        row: impl Fn(usize) -> &'a [f32] + Sync,
        workers: usize,
    ) -> Vec<usize> {
        let rows_per_job = (JOB_DISTANCE_EVALS / self.len().max(1)).max(1);
        run_ordered(workers, n.div_ceil(rows_per_job), |j| {
            let rows = j * rows_per_job..n.min((j + 1) * rows_per_job);
            rows.map(|i| self.assign(row(i))).collect::<Vec<_>>()
        })
        .concat()
    }

    /// Mean squared quantization error of `data` under this codebook.
    pub fn distortion(&self, data: &[f32]) -> f64 {
        let n = data.len() / self.dim;
        if n == 0 {
            return 0.0;
        }
        let mut total = 0.0f64;
        for r in 0..n {
            let v = &data[r * self.dim..(r + 1) * self.dim];
            let a = self.assign(v);
            total += dist2(v, self.centroid(a)) as f64;
        }
        total / n as f64
    }
}

fn dist2(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Transposes `rows` (flat `n × dim`) into `n.div_ceil(8)` blocks of `dim`
/// lane vectors: lane `l` of vector `d` in block `b` is channel `d` of row
/// `8b + l`. Lanes past the last row hold `pad`.
fn transpose(rows: &[f32], dim: usize, pad: f32) -> Vec<F32x8> {
    let n = rows.len() / dim;
    let mut out = Vec::with_capacity(n.div_ceil(LANE_WIDTH) * dim);
    for b in 0..n.div_ceil(LANE_WIDTH) {
        for d in 0..dim {
            out.push(F32x8::from_array(std::array::from_fn(|l| {
                let r = b * LANE_WIDTH + l;
                if r < n {
                    rows[r * dim + d]
                } else {
                    pad
                }
            })));
        }
    }
    out
}

/// Squared distances from the eight rows of one transposed block to `c`,
/// each summed over channels in [`dist2`]'s order.
#[inline(always)]
fn block_dist2(block: &[F32x8], c: &[f32]) -> F32x8 {
    let mut acc = F32x8::ZERO;
    for (x, y) in block.iter().zip(c) {
        let diff = *x - F32x8::splat(*y);
        acc += diff * diff;
    }
    acc
}

/// The k-means++ distances after picking the first centroid `c`: each
/// training row's squared distance to `c`, padded to whole blocks of
/// `rows_t` (the transposed rows), at the host's widest lane width
/// ([`wide!`]). Not [`lower_min_d2`] from `+∞`: a NaN distance must be
/// stored, as the scalar loop stores it, and `NaN < +∞` is false.
fn first_min_d2(rows_t: &[F32x8], dim: usize, c: &[f32]) -> Vec<f32> {
    let mut min_d2 = vec![0.0f32; rows_t.len() / dim * LANE_WIDTH];
    wide!({
        for (block, out) in rows_t.chunks_exact(dim).zip(min_d2.chunks_exact_mut(LANE_WIDTH)) {
            block_dist2(block, c).store_padded(out);
        }
    });
    min_d2
}

/// The k-means++ update after picking centroid `c`: lowers each training
/// row's entry of `min_d2` (padded to whole blocks of `rows_t`, the
/// transposed rows) to its distance to `c` where that is strictly smaller.
/// Runs [`lower_min_d2_lanes`] at the host's widest lane width ([`wide!`]).
fn lower_min_d2(rows_t: &[F32x8], dim: usize, c: &[f32], min_d2: &mut [f32]) {
    wide!(lower_min_d2_lanes(rows_t, dim, c, min_d2));
}

/// The body of [`lower_min_d2`], at whatever width its caller is compiled
/// for.
#[inline(always)]
fn lower_min_d2_lanes(rows_t: &[F32x8], dim: usize, c: &[f32], min_d2: &mut [f32]) {
    for (block, out) in rows_t.chunks_exact(dim).zip(min_d2.chunks_exact_mut(LANE_WIDTH)) {
        let d = block_dist2(block, c);
        let cur = F32x8::load_padded(out);
        d.select_lt(cur, d, cur).store_padded(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blob_data(n_per: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(7);
        let mut data = Vec::new();
        for _ in 0..n_per {
            data.push(rng.gen::<f32>() * 0.2);
            data.push(rng.gen::<f32>() * 0.2);
        }
        for _ in 0..n_per {
            data.push(5.0 + rng.gen::<f32>() * 0.2);
            data.push(5.0 + rng.gen::<f32>() * 0.2);
        }
        data
    }

    #[test]
    fn separates_two_blobs() {
        let data = two_blob_data(50);
        let cfg = KMeansConfig { k: 2, max_iters: 10, ..Default::default() };
        let cb = Codebook::train(&data, 2, &cfg);
        let a = cb.assign(&[0.1, 0.1]);
        let b = cb.assign(&[5.1, 5.1]);
        assert_ne!(a, b);
        // Centroids near the blob centers.
        let ca = cb.centroid(a);
        assert!(ca[0] < 1.0 && ca[1] < 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = two_blob_data(30);
        let cfg = KMeansConfig { k: 4, max_iters: 5, seed: 42, ..Default::default() };
        let a = Codebook::train(&data, 2, &cfg);
        let b = Codebook::train(&data, 2, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn k_larger_than_population_pads() {
        let data = vec![1.0, 2.0, 3.0, 4.0]; // 2 points, dim 2
        let cfg = KMeansConfig { k: 8, max_iters: 3, ..Default::default() };
        let cb = Codebook::train(&data, 2, &cfg);
        assert_eq!(cb.len(), 8);
        // Assignment still valid.
        assert!(cb.assign(&[1.0, 2.0]) < 8);
    }

    #[test]
    fn distortion_decreases_with_k() {
        let data = two_blob_data(60);
        let mk = |k| {
            let cfg = KMeansConfig { k, max_iters: 10, ..Default::default() };
            Codebook::train(&data, 2, &cfg).distortion(&data)
        };
        let d1 = mk(1);
        let d2 = mk(2);
        assert!(d2 < d1, "k=2 distortion {d2} should beat k=1 {d1}");
    }

    #[test]
    fn subsample_training_still_covers_blobs() {
        let data = two_blob_data(500);
        let cfg = KMeansConfig { k: 2, max_iters: 8, train_subsample: 64, ..Default::default() };
        let cb = Codebook::train(&data, 2, &cfg);
        assert_ne!(cb.assign(&[0.0, 0.0]), cb.assign(&[5.0, 5.0]));
    }

    #[test]
    fn from_centroids_and_accessors() {
        let cb = Codebook::from_centroids(vec![0.0, 0.0, 1.0, 1.0], 2);
        assert_eq!(cb.len(), 2);
        assert_eq!(cb.dim(), 2);
        assert_eq!(cb.assign(&[0.9, 1.2]), 1);
    }

    #[test]
    #[should_panic(expected = "empty data")]
    fn empty_data_panics() {
        let _ = Codebook::train(&[], 2, &KMeansConfig::default());
    }

    #[test]
    #[should_panic(expected = "subsample must be non-zero")]
    fn zero_subsample_panics() {
        let cfg = KMeansConfig { train_subsample: 0, ..Default::default() };
        let _ = Codebook::train(&[1.0, 2.0], 2, &cfg);
    }

    /// Deterministic pseudo-random rows (flat `n × dim`) in [-1, 1).
    fn random_rows(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect()
    }

    /// [`random_rows`] with every 37th entry replaced by a non-finite or
    /// signed-zero value.
    fn rows_with_specials(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        let mut rows = random_rows(n, dim, seed);
        for (i, v) in rows.iter_mut().enumerate().skip(36).step_by(37) {
            *v = specials[i / 37 % 4];
        }
        rows
    }

    #[test]
    fn lane_min_d2_update_is_bitwise_scalar() {
        // Three ways: the sweep bodies called directly (baseline width),
        // the dispatched sweeps (the `wide` clone on an AVX host), and the
        // scalar loop. Ragged row counts leave a partly padded last block.
        let bits = |v: &[f32]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        for (n, dim) in [(1usize, 12usize), (8, 3), (13, 12), (64, 5), (101, 1)] {
            let rows = rows_with_specials(n, dim, n as u64);
            let rows_t = transpose(&rows, dim, 0.0);
            let centroids = rows_with_specials(6, dim, 99);
            // The first centroid sets the distances, the rest lower them.
            let mut scalar: Vec<f32> =
                rows.chunks_exact(dim).map(|r| dist2(r, &centroids[..dim])).collect();
            let mut body: Vec<f32> = rows_t
                .chunks_exact(dim)
                .flat_map(|block| block_dist2(block, &centroids[..dim]).to_array())
                .collect();
            let mut dispatched = first_min_d2(&rows_t, dim, &centroids[..dim]);
            assert_eq!(bits(&dispatched), bits(&body), "first sweep, n={n} dim={dim}");
            for c in centroids.chunks_exact(dim) {
                for (r, slot) in rows.chunks_exact(dim).zip(scalar.iter_mut()) {
                    let d = dist2(r, c);
                    if d < *slot {
                        *slot = d;
                    }
                }
                lower_min_d2_lanes(&rows_t, dim, c, &mut body);
                lower_min_d2(&rows_t, dim, c, &mut dispatched);
                assert_eq!(bits(&body[..n]), bits(&scalar), "body, n={n} dim={dim}");
                assert_eq!(bits(&dispatched[..n]), bits(&scalar), "wide, n={n} dim={dim}");
            }
        }
    }

    #[test]
    fn assign_body_and_wide_clone_are_bitwise_scalar() {
        // Codebooks of every padding shape (k = 1, 7, 8, 9, 33), with
        // duplicated codewords and codewords holding NaN or ±∞, queried by
        // rows at a duplicate (a tie the lowest index must win), random
        // rows and rows holding NaN, ±∞, −0.0 or subnormals.
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1.0e-40, 3.0e38];
        for k in [1usize, 7, 8, 9, 33] {
            for dim in [1usize, 3, 12] {
                let mut centroids = random_rows(k, dim, (k * dim) as u64);
                for c in (2..k).step_by(3) {
                    centroids.copy_within(0..dim, c * dim);
                }
                if k > 4 {
                    centroids[4 * dim] = specials[k % specials.len()];
                }
                let cb = Codebook::from_centroids(centroids, dim);
                let mut queries = vec![cb.centroid(0).to_vec(), cb.centroid(k - 1).to_vec()];
                queries.extend(random_rows(8, dim, 77).chunks_exact(dim).map(<[f32]>::to_vec));
                queries
                    .extend(rows_with_specials(40, dim, 5).chunks_exact(dim).map(<[f32]>::to_vec));
                queries.extend(specials.iter().map(|v| vec![*v; dim]));
                for q in &queries {
                    let want = cb.assign_scalar(q);
                    assert_eq!(cb.assign_lanes(q), want, "body, k={k} dim={dim} row {q:?}");
                    assert_eq!(cb.assign(q), want, "wide, k={k} dim={dim} row {q:?}");
                }
            }
        }
    }

    #[test]
    fn training_is_bitwise_equal_at_every_worker_count() {
        // 800 rows against 1024 codewords (seeded from the 800 rows, then
        // padded with duplicates): 256 rows per pool job, so each Lloyd
        // pass splits into four jobs.
        let data = random_rows(800, 12, 5);
        let cfg = KMeansConfig { k: 1024, max_iters: 2, train_subsample: 800, seed: 11 };
        let bits = |cb: &Codebook| cb.centroids_raw().iter().map(|v| v.to_bits()).collect();
        let reference: Vec<u32> = bits(&Codebook::train_with_workers(&data, 12, &cfg, 1));
        for workers in [2, 3, 8] {
            let cb = Codebook::train_with_workers(&data, 12, &cfg, workers);
            assert_eq!(bits(&cb), reference, "workers={workers}");
        }
    }
}
