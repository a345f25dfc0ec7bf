//! Runs the deterministic serve simulation and prints its report.
//!
//! ```text
//! cargo run --release -p spnerf-serve --bin spnerf_serve -- [--quick] [--threads N]
//!     [--skip-mode off|mip] [--seed N] [--duration-ticks N] [--cache-bytes N]
//!     [--replay FILE] [--zipf-s S]
//! ```
//!
//! Stdout is **exactly one JSON document** (the schema-versioned report,
//! self-validated before printing); the human-readable summary goes to
//! stderr. Byte-diffing two stdout captures is the supported way to check
//! determinism — CI does exactly that across seeds, render worker counts
//! and replayed traces.
//!
//! `--replay FILE` serves a recorded trace (see
//! `spnerf_serve::traffic::Trace::to_replay`) instead of synthesizing
//! traffic. The trace fixes its own traffic, so `--seed`, `--zipf-s` and
//! `--duration-ticks` — which only shape a synthetic trace — exit 2 when
//! given with `--replay`; `--quick`, `--cache-bytes`, `--threads` and
//! `--skip-mode` apply to replays too.

use spnerf_bench::cli::{self, Flag};
use spnerf_serve::report::validate_report_json;
use spnerf_serve::server::{run, RunMeta, ServeConfig};
use spnerf_serve::traffic::{Trace, TrafficConfig};

const FLAGS: &[Flag] = &[
    Flag::Quick,
    Flag::Threads,
    Flag::SkipMode,
    Flag::Seed,
    Flag::DurationTicks,
    Flag::CacheBytes,
    Flag::Replay,
    Flag::ZipfS,
];

fn main() {
    let args = cli::parse_or_exit(FLAGS);

    let mut cfg = if args.quick { ServeConfig::quick() } else { ServeConfig::standard() };
    if let Some(threads) = args.threads {
        cfg.render.parallelism = threads;
    }
    cfg.render.skip_mode = args.skip_mode;
    if let Some(bytes) = args.cache_bytes {
        cfg.cache_bytes = bytes;
    }

    let (trace, meta) = match &args.replay {
        Some(path) => {
            let synthesis = [
                (Flag::Seed, args.seed.is_some()),
                (Flag::ZipfS, args.zipf_s.is_some()),
                (Flag::DurationTicks, args.duration_ticks.is_some()),
            ];
            if let Some((flag, _)) = synthesis.iter().find(|(_, given)| *given) {
                eprintln!(
                    "{}: the --replay trace fixes its own traffic; drop one of the two",
                    flag.name()
                );
                std::process::exit(2);
            }
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("--replay {path}: {e}");
                std::process::exit(2);
            });
            let trace = Trace::parse_replay(&text).unwrap_or_else(|e| {
                eprintln!("--replay {path}: {e}");
                std::process::exit(2);
            });
            // The horizon of a replay is its last arrival; the seed and
            // Zipf knobs did not shape it, so the report echoes neutral
            // values rather than pretending.
            let duration = trace.requests.last().map_or(0, |r| r.tick);
            let meta = RunMeta {
                trace_source: "replay".to_string(),
                seed: 0,
                zipf_s: 0.0,
                duration_ticks: duration,
            };
            (trace, meta)
        }
        None => {
            let defaults = TrafficConfig::default();
            let seed = args.seed.unwrap_or(defaults.seed);
            let zipf_s = args.zipf_s.unwrap_or(defaults.zipf_s);
            let default_ticks = if args.quick { 2000 } else { defaults.duration_ticks };
            let duration = args.duration_ticks.unwrap_or(default_ticks);
            let tc = TrafficConfig { seed, duration_ticks: duration, zipf_s, ..defaults };
            let meta = RunMeta {
                trace_source: "synthetic".to_string(),
                seed,
                zipf_s,
                duration_ticks: duration,
            };
            (Trace::synthesize(&tc), meta)
        }
    };

    eprintln!(
        "spnerf_serve: {} trace, {} requests, {} scenes, {} tenants, cache {} bytes",
        meta.trace_source,
        trace.requests.len(),
        trace.scenes,
        trace.tenants,
        cfg.cache_bytes,
    );

    let outcome = run(&trace, &cfg, &meta);
    let json = outcome.report.to_json();
    if let Err(errors) = validate_report_json(&json) {
        eprintln!("internal error: emitted report fails its own schema:");
        for e in &errors {
            eprintln!("  - {e}");
        }
        std::process::exit(1);
    }

    let r = &outcome.report;
    eprintln!(
        "  served {} / shed {} over {} ticks ({:.1} per kilotick)",
        r.served, r.shed, r.final_tick, r.throughput_per_kilotick
    );
    eprintln!(
        "  latency ticks p50 {} p95 {} p99 {} (max {})",
        r.latency_ticks.p50, r.latency_ticks.p95, r.latency_ticks.p99, r.latency_ticks.max
    );
    eprintln!(
        "  cache: {} hits, {} misses, {} evictions, peak {} of {} bytes",
        r.cache.hits,
        r.cache.misses,
        r.cache.evictions,
        r.cache.peak_resident_bytes,
        r.cache.budget_bytes
    );
    print!("{json}");
}
