//! Regenerates **Table I**: a summary of the profiled computing platforms.
//!
//! ```text
//! cargo run --release -p spnerf-bench --bin table1_platforms [--quick]
//! ```

use spnerf::platforms::spec::PlatformSpec;
use spnerf_bench::cli::{self, Flag};
use spnerf_bench::print_table;

/// Table I is static; `--quick` is accepted (and changes nothing) so every
/// binary takes it.
const FLAGS: &[Flag] = &[Flag::Quick];

fn main() {
    // The strict CLI still applies: `--help` works and anything else is
    // rejected instead of ignored.
    let _ = cli::parse_or_exit(FLAGS);
    println!("Table I: A summary of profiling computing platforms\n");
    let rows: Vec<Vec<String>> = PlatformSpec::all()
        .iter()
        .map(|p| {
            vec![
                p.name.to_string(),
                format!("{} nm", p.tech_nm),
                format!("{:.0} W", p.power_w),
                format!("{} ({:.1} GB/s)", p.dram.name, p.dram.peak_bandwidth_gbps()),
                format!("{:.1} MB", p.l2_bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.3} TFLOPS", p.fp32_tflops),
                format!("{:.2} TFLOPS", p.fp16_tflops),
            ]
        })
        .collect();
    print_table(&["Spec.", "Tech.", "Power", "DRAM", "GPU L2 cache", "FP32", "FP16"], &rows);
    println!();
    println!("Paper reference: A100 7nm/400W/1555GB/s/40MB/19.5/78;");
    println!("                 ONX 8nm/25W/102.4GB/s/4MB/1.9/3.8;");
    println!("                 XNX 16nm/20W/59.7GB/s/512KB/0.885/1.69.");
}
