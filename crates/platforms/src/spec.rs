//! Table I: the profiled computing platforms.
//!
//! Specifications of the NVIDIA A100 (high-end) and the Jetson Orin NX /
//! Xavier NX (edge) exactly as the paper lists them, plus the calibration
//! parameters the roofline model needs (bandwidth efficiency, compute
//! utilization, cache-reuse factors). The calibration values are chosen so
//! the modeled VQRF runtime split reproduces Fig. 2(a) and the modeled edge
//! FPS sits in the Fig. 8 speedup bands.

use spnerf_dram::timing::DramTimings;

/// A GPU platform from Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformSpec {
    /// Platform name.
    pub name: &'static str,
    /// Process node in nm.
    pub tech_nm: u32,
    /// Board power in W (Table I).
    pub power_w: f64,
    /// DRAM configuration.
    pub dram: DramTimings,
    /// GPU L2 cache in bytes.
    pub l2_bytes: usize,
    /// Peak FP32 throughput in TFLOPS.
    pub fp32_tflops: f64,
    /// Peak FP16 throughput in TFLOPS.
    pub fp16_tflops: f64,
    /// Calibrated model parameters.
    pub model: GpuModelParams,
}

/// Calibration parameters of the GPU execution model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModelParams {
    /// Fraction of peak DRAM bandwidth sustained on the mixed
    /// restore+gather traffic.
    pub bw_efficiency: f64,
    /// Fraction of peak FP16 throughput sustained on the small-batch
    /// interpolation/MLP kernels.
    pub compute_utilization: f64,
    /// Temporal-reuse multiplier: how many times its capacity the L2
    /// effectively serves during one frame (voxels are shared between rays).
    pub l2_reuse_factor: f64,
    /// Upper bound on the modeled L2 hit rate.
    pub max_hit_rate: f64,
}

impl PlatformSpec {
    /// NVIDIA A100 (SXM4 40 GB) — Table I column 1.
    pub fn a100() -> Self {
        Self {
            name: "A100",
            tech_nm: 7,
            power_w: 400.0,
            dram: DramTimings::hbm2_a100(),
            l2_bytes: 40 << 20,
            fp32_tflops: 19.5,
            fp16_tflops: 78.0,
            model: GpuModelParams {
                bw_efficiency: 0.80,
                compute_utilization: 0.13,
                l2_reuse_factor: 10.0,
                max_hit_rate: 0.98,
            },
        }
    }

    /// Jetson Orin NX 16 GB — Table I column 2.
    pub fn onx() -> Self {
        Self {
            name: "ONX",
            tech_nm: 8,
            power_w: 25.0,
            dram: DramTimings::lpddr5_onx(),
            l2_bytes: 4 << 20,
            fp32_tflops: 1.9,
            fp16_tflops: 3.8,
            model: GpuModelParams {
                bw_efficiency: 0.36,
                compute_utilization: 0.065,
                l2_reuse_factor: 8.0,
                max_hit_rate: 0.95,
            },
        }
    }

    /// Jetson Xavier NX 16 GB — Table I column 3.
    pub fn xnx() -> Self {
        Self {
            name: "XNX",
            tech_nm: 16,
            power_w: 20.0,
            dram: DramTimings::lpddr4_3200(),
            l2_bytes: 512 << 10,
            fp32_tflops: 0.885,
            fp16_tflops: 1.69,
            model: GpuModelParams {
                bw_efficiency: 0.50,
                compute_utilization: 0.10,
                l2_reuse_factor: 8.0,
                max_hit_rate: 0.95,
            },
        }
    }

    /// The three profiled platforms in Table I order.
    pub fn all() -> [PlatformSpec; 3] {
        [Self::a100(), Self::onx(), Self::xnx()]
    }

    /// Modeled L2 miss rate for a working set of `working_set_bytes`.
    pub fn l2_miss_rate(&self, working_set_bytes: usize) -> f64 {
        if working_set_bytes == 0 {
            return 0.0;
        }
        let coverage = self.model.l2_reuse_factor * self.l2_bytes as f64 / working_set_bytes as f64;
        1.0 - coverage.min(self.model.max_hit_rate)
    }

    /// Effective DRAM bandwidth in bytes/s.
    pub fn effective_bandwidth_bps(&self) -> f64 {
        self.dram.peak_bandwidth_bps() * self.model.bw_efficiency
    }

    /// Effective FP16 compute in FLOP/s.
    pub fn effective_fp16_flops(&self) -> f64 {
        self.fp16_tflops * 1e12 * self.model.compute_utilization
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let a100 = PlatformSpec::a100();
        assert_eq!(a100.tech_nm, 7);
        assert_eq!(a100.power_w, 400.0);
        assert!((a100.dram.peak_bandwidth_gbps() - 1555.0).abs() < 10.0);
        assert_eq!(a100.l2_bytes, 40 << 20);

        let onx = PlatformSpec::onx();
        assert_eq!(onx.tech_nm, 8);
        assert_eq!(onx.power_w, 25.0);
        assert!((onx.dram.peak_bandwidth_gbps() - 102.4).abs() < 0.5);

        let xnx = PlatformSpec::xnx();
        assert_eq!(xnx.tech_nm, 16);
        assert_eq!(xnx.power_w, 20.0);
        assert!((xnx.dram.peak_bandwidth_gbps() - 59.7).abs() < 0.3);
        assert_eq!(xnx.l2_bytes, 512 << 10);
        assert!((xnx.fp16_tflops - 1.69).abs() < 1e-9);
    }

    #[test]
    fn miss_rate_orders_by_cache_size() {
        let ws = 213 << 20; // a restored 160³ grid
        let a = PlatformSpec::a100().l2_miss_rate(ws);
        let o = PlatformSpec::onx().l2_miss_rate(ws);
        let x = PlatformSpec::xnx().l2_miss_rate(ws);
        assert!(a < o && o < x, "miss rates A100 {a:.2} < ONX {o:.2} < XNX {x:.2}");
        assert!(x > 0.9, "XNX's 512 KB L2 must miss almost always, got {x:.2}");
        assert!(a < 0.1, "A100's 40 MB L2 must mostly hit, got {a:.2}");
    }

    #[test]
    fn miss_rate_bounds() {
        let p = PlatformSpec::xnx();
        assert_eq!(p.l2_miss_rate(0), 0.0);
        let tiny = p.l2_miss_rate(1024);
        assert!((0.0..=1.0).contains(&tiny));
        assert!(tiny <= 1.0 - 0.0);
        let huge = p.l2_miss_rate(usize::MAX / 2);
        assert!(huge <= 1.0 && huge > 0.99);
    }

    #[test]
    fn effective_rates_below_peaks() {
        for p in PlatformSpec::all() {
            assert!(p.effective_bandwidth_bps() < p.dram.peak_bandwidth_bps());
            assert!(p.effective_fp16_flops() < p.fp16_tflops * 1e12);
        }
    }
}
