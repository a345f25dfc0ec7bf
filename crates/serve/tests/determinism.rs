//! The serve subsystem's headline contract: a run is a pure function of
//! `(trace, config)` — same seed and replay produce **byte-identical**
//! reports and response digests at any render worker count, and eviction
//! pressure never pushes the cache past its byte budget.

use spnerf_serve::report::validate_report_json;
use spnerf_serve::server::{responses_digest, run, Catalog, CatalogConfig, RunMeta, ServeConfig};
use spnerf_serve::traffic::{Trace, TrafficConfig};

/// A deliberately small operating point so debug-mode CI stays fast: tiny
/// scenes, short horizon, and a budget tight enough that the catalog
/// cannot all stay resident.
fn test_config() -> ServeConfig {
    ServeConfig {
        cache_bytes: 600_000,
        catalog: CatalogConfig {
            side: 12,
            codebook: 16,
            subgrids: 4,
            table_size: 1024,
            image_px: 10,
        },
        ..ServeConfig::quick()
    }
}

fn test_traffic() -> (Trace, RunMeta) {
    let cfg = TrafficConfig {
        seed: 9,
        duration_ticks: 500,
        scenes: 4,
        tenants: 3,
        views: 6,
        zipf_s: 1.2,
        mean_interarrival: 20,
    };
    let trace = Trace::synthesize(&cfg);
    let meta = RunMeta {
        trace_source: "synthetic".to_string(),
        seed: cfg.seed,
        zipf_s: cfg.zipf_s,
        duration_ticks: cfg.duration_ticks,
    };
    (trace, meta)
}

#[test]
fn worker_counts_change_no_byte() {
    let (trace, meta) = test_traffic();
    let base = test_config();

    let serial = run(&trace, &base, &meta);
    assert!(serial.report.served > 0, "the test trace must serve something");
    validate_report_json(&serial.report.to_json()).expect("report validates");

    // Worker counts 1, 4, and auto (0 = all cores), plus a tile-size
    // change: none of them may alter a single byte of the report or any
    // served response.
    for (threads, tile) in [(1, 32), (4, 32), (0, 32), (4, 3)] {
        let mut cfg = base;
        cfg.render.parallelism = threads;
        cfg.render.tile_size = tile;
        let out = run(&trace, &cfg, &meta);
        assert_eq!(out, serial, "threads={threads} tile={tile} diverged from the serial run");
        assert_eq!(out.report.to_json(), serial.report.to_json(), "serialized bytes must match");
        assert_eq!(out.report.responses_digest, responses_digest(&serial.responses));
    }
}

#[test]
fn same_seed_twice_is_byte_identical_and_seeds_differ() {
    let (trace, meta) = test_traffic();
    let cfg = test_config();
    let a = run(&trace, &cfg, &meta);
    let b = run(&trace, &cfg, &meta);
    assert_eq!(a.report.to_json(), b.report.to_json());
    assert_eq!(a.responses, b.responses);

    // A different seed must actually change the workload (the digest is a
    // real witness, not a constant).
    let other = TrafficConfig {
        seed: 10,
        duration_ticks: 500,
        scenes: 4,
        tenants: 3,
        views: 6,
        zipf_s: 1.2,
        mean_interarrival: 20,
    };
    let other_trace = Trace::synthesize(&other);
    let other_meta = RunMeta { seed: other.seed, ..meta.clone() };
    let c = run(&other_trace, &cfg, &other_meta);
    assert_ne!(
        c.report.responses_digest, a.report.responses_digest,
        "different seeds must produce different response streams"
    );
}

#[test]
fn replay_round_trip_reproduces_the_run_bit_for_bit() {
    let (trace, meta) = test_traffic();
    let cfg = test_config();

    let text = trace.to_replay();
    let replayed = Trace::parse_replay(&text).expect("own replay parses");
    assert_eq!(replayed, trace, "replay round-trip must preserve the trace exactly");

    let live = run(&trace, &cfg, &meta);
    let from_replay = run(&replayed, &cfg, &meta);
    assert_eq!(from_replay, live, "a replayed trace must reproduce the run bit-for-bit");
}

#[test]
fn eviction_under_pressure_never_exceeds_the_budget() {
    let (trace, meta) = test_traffic();
    // Room for roughly one and a half scenes: every popularity shift
    // evicts, but nothing is uncacheable.
    let mut cfg = test_config();
    let probe = Catalog::corpus(1, cfg.catalog).build(0, cfg.render.samples_per_ray);
    cfg.cache_bytes = probe.resident_bytes() * 3 / 2;
    let out = run(&trace, &cfg, &meta);
    let c = &out.report.cache;
    assert!(c.evictions > 0, "pressure must actually evict (got {c:?})");
    assert!(c.misses > c.hits, "a one-scene budget thrashes");
    assert!(c.peak_resident_bytes <= c.budget_bytes, "{c:?}");
    assert!(c.final_resident_bytes <= c.peak_resident_bytes, "{c:?}");
    validate_report_json(&out.report.to_json()).expect("pressured report still validates");
}

#[test]
fn shedding_kicks_in_under_burst_and_books_balance() {
    let burst = TrafficConfig {
        seed: 3,
        duration_ticks: 300,
        scenes: 3,
        tenants: 2,
        views: 4,
        zipf_s: 1.0,
        mean_interarrival: 2, // far faster than the engine can serve
    };
    let trace = Trace::synthesize(&burst);
    let meta = RunMeta {
        trace_source: "synthetic".to_string(),
        seed: burst.seed,
        zipf_s: burst.zipf_s,
        duration_ticks: burst.duration_ticks,
    };
    let mut cfg = test_config();
    cfg.queue.max_depth = 6;
    let out = run(&trace, &cfg, &meta);
    let r = &out.report;
    assert!(r.shed > 0, "a saturating burst against depth 6 must shed");
    assert_eq!(r.requests, r.served + r.shed);
    let per_tenant: (u64, u64, u64) = r
        .tenants
        .iter()
        .fold((0, 0, 0), |acc, t| (acc.0 + t.arrived, acc.1 + t.served, acc.2 + t.shed));
    assert_eq!(per_tenant, (r.requests, r.served, r.shed), "tenant books must balance");
    validate_report_json(&r.to_json()).expect("shedding report validates");
}

#[test]
fn reports_never_echo_the_execution_environment() {
    let (trace, meta) = test_traffic();
    let mut cfg = test_config();
    cfg.render.parallelism = 4;
    let json = run(&trace, &cfg, &meta).report.to_json();
    for leak in ["threads", "parallelism", "simd", "worker"] {
        assert!(!json.contains(leak), "report must not mention `{leak}`:\n{json}");
    }
}
