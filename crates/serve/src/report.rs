//! The schema-versioned serve report: one JSON document per run.
//!
//! `spnerf_serve` prints exactly this document to stdout. The contract the
//! CI `serve-smoke` job pins is **byte equality**: the same trace and serve
//! configuration produce the same bytes at any render worker count and
//! skip mode. That works because nothing
//! environment-dependent is ever serialized — no wall-clock times, no
//! thread counts, no feature flags, no float formatting that could vary by
//! platform (Rust's `{}` float formatting is deterministic shortest-repr).
//!
//! Emission uses `spnerf_bench::snapshot`'s hand-rolled JSON helpers and
//! its discipline: stable key order, fixed two-space indent, and
//! [`validate_report_json`] re-parses with the bench crate's strict JSON
//! parser so every emitted report is checked against its own schema before
//! the process exits 0.

use spnerf_bench::snapshot::{json_escape, json_f64, parse_json, Json};

/// Schema version emitted in `schema_version`.
pub const REPORT_SCHEMA_VERSION: u64 = 1;

/// Latency summary over served requests, in virtual ticks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Mean latency.
    pub mean: f64,
    /// Fastest served request.
    pub min: f64,
    /// Slowest served request.
    pub max: f64,
    /// Nearest-rank 50th percentile.
    pub p50: f64,
    /// Nearest-rank 95th percentile.
    pub p95: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
}

impl LatencySummary {
    /// The all-zero summary an idle run (nothing served) reports.
    pub fn idle() -> Self {
        Self { mean: 0.0, min: 0.0, max: 0.0, p50: 0.0, p95: 0.0, p99: 0.0 }
    }
}

/// Cache counters and byte accounting of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheReport {
    /// Configured byte budget.
    pub budget_bytes: u64,
    /// Lookups served from a resident scene.
    pub hits: u64,
    /// Lookups that rebuilt the scene.
    pub misses: u64,
    /// Scenes evicted to keep the budget.
    pub evictions: u64,
    /// Scenes served without caching (alone above the budget).
    pub uncacheable: u64,
    /// Largest post-reconcile resident total observed.
    pub peak_resident_bytes: u64,
    /// Resident total when the run drained.
    pub final_resident_bytes: u64,
}

/// Per-tenant accounting: every admitted request's share of engine work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantReport {
    /// Requests this tenant sent.
    pub arrived: u64,
    /// Requests rendered to completion.
    pub served: u64,
    /// Requests refused at admission.
    pub shed: u64,
    /// Engine ticks charged to this tenant (batch service time split
    /// evenly across the batch, remainder to its earliest requests).
    pub work_ticks: u64,
}

/// The complete report of one serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// `"synthetic"` or `"replay"`.
    pub trace_source: String,
    /// Traffic seed of a synthetic trace (0 for replays, which fix their
    /// own traffic).
    pub seed: u64,
    /// Zipf exponent the traffic was drawn with (0 for replays unless the
    /// caller knows better — informational).
    pub zipf_s: f64,
    /// Arrival horizon in ticks.
    pub duration_ticks: u64,
    /// Virtual tick at which the last request completed (≥ horizon when
    /// the queue drained late).
    pub final_tick: u64,
    /// Total requests in the trace.
    pub requests: u64,
    /// Requests rendered to completion.
    pub served: u64,
    /// Requests refused at admission.
    pub shed: u64,
    /// Served requests per 1000 virtual ticks of horizon.
    pub throughput_per_kilotick: f64,
    /// Latency summary in virtual ticks.
    pub latency_ticks: LatencySummary,
    /// Cache counters.
    pub cache: CacheReport,
    /// Per-tenant accounting, indexed by tenant id.
    pub tenants: Vec<TenantReport>,
    /// FNV-1a digest over every response in completion order (hex,
    /// `0x` + 16 digits) — the bitwise-determinism witness.
    pub responses_digest: String,
}

impl Report {
    /// Serializes with stable key order and fixed indentation, so equal
    /// reports are equal byte-for-byte.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {REPORT_SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"trace_source\": \"{}\",\n", json_escape(&self.trace_source)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"zipf_s\": {},\n", json_f64(self.zipf_s)));
        out.push_str(&format!("  \"duration_ticks\": {},\n", self.duration_ticks));
        out.push_str(&format!("  \"final_tick\": {},\n", self.final_tick));
        out.push_str(&format!("  \"requests\": {},\n", self.requests));
        out.push_str(&format!("  \"served\": {},\n", self.served));
        out.push_str(&format!("  \"shed\": {},\n", self.shed));
        out.push_str(&format!(
            "  \"throughput_per_kilotick\": {},\n",
            json_f64(self.throughput_per_kilotick)
        ));
        let l = &self.latency_ticks;
        out.push_str("  \"latency_ticks\": {\n");
        out.push_str(&format!("    \"mean\": {},\n", json_f64(l.mean)));
        out.push_str(&format!("    \"min\": {},\n", json_f64(l.min)));
        out.push_str(&format!("    \"max\": {},\n", json_f64(l.max)));
        out.push_str(&format!("    \"p50\": {},\n", json_f64(l.p50)));
        out.push_str(&format!("    \"p95\": {},\n", json_f64(l.p95)));
        out.push_str(&format!("    \"p99\": {}\n", json_f64(l.p99)));
        out.push_str("  },\n");
        let c = &self.cache;
        out.push_str("  \"cache\": {\n");
        out.push_str(&format!("    \"budget_bytes\": {},\n", c.budget_bytes));
        out.push_str(&format!("    \"hits\": {},\n", c.hits));
        out.push_str(&format!("    \"misses\": {},\n", c.misses));
        out.push_str(&format!("    \"evictions\": {},\n", c.evictions));
        out.push_str(&format!("    \"uncacheable\": {},\n", c.uncacheable));
        out.push_str(&format!("    \"peak_resident_bytes\": {},\n", c.peak_resident_bytes));
        out.push_str(&format!("    \"final_resident_bytes\": {}\n", c.final_resident_bytes));
        out.push_str("  },\n");
        out.push_str("  \"tenants\": [\n");
        for (i, t) in self.tenants.iter().enumerate() {
            let comma = if i + 1 < self.tenants.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{ \"tenant\": {i}, \"arrived\": {}, \"served\": {}, \"shed\": {}, \
                 \"work_ticks\": {} }}{comma}\n",
                t.arrived, t.served, t.shed, t.work_ticks
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"responses_digest\": \"{}\"\n", self.responses_digest));
        out.push_str("}\n");
        out
    }
}

fn require_u64(doc: &Json, key: &str, errors: &mut Vec<String>) -> Option<u64> {
    match doc.get(key).and_then(Json::as_f64) {
        Some(x) if x >= 0.0 && x.fract() == 0.0 => Some(x as u64),
        Some(x) => {
            errors.push(format!("`{key}` must be a non-negative integer, got {x}"));
            None
        }
        None => {
            errors.push(format!("missing numeric `{key}`"));
            None
        }
    }
}

fn require_f64(doc: &Json, key: &str, errors: &mut Vec<String>) -> Option<f64> {
    match doc.get(key).and_then(Json::as_f64) {
        Some(x) => Some(x),
        None => {
            errors.push(format!("missing numeric `{key}`"));
            None
        }
    }
}

/// Validates a report document against the schema this module emits:
/// version, required keys and types, digest format, and the cross-field
/// invariants (`requests = served + shed`, globally and per tenant;
/// latency ordering; cache bytes within budget).
///
/// # Errors
///
/// Returns every violation found (not just the first).
pub fn validate_report_json(text: &str) -> Result<(), Vec<String>> {
    let doc = parse_json(text).map_err(|e| vec![e])?;
    let mut errors = Vec::new();

    match doc.get("schema_version").and_then(Json::as_f64) {
        Some(v) if v == REPORT_SCHEMA_VERSION as f64 => {}
        Some(v) => errors.push(format!("schema_version {v} != {REPORT_SCHEMA_VERSION}")),
        None => errors.push("missing numeric `schema_version`".to_string()),
    }
    match doc.get("trace_source").and_then(Json::as_str) {
        Some("synthetic") | Some("replay") => {}
        Some(s) => errors.push(format!("trace_source must be synthetic|replay, got `{s}`")),
        None => errors.push("missing string `trace_source`".to_string()),
    }
    require_u64(&doc, "seed", &mut errors);
    if let Some(z) = require_f64(&doc, "zipf_s", &mut errors) {
        if z.is_nan() || z < 0.0 {
            errors.push(format!("zipf_s must be >= 0, got {z}"));
        }
    }
    require_u64(&doc, "duration_ticks", &mut errors);
    require_u64(&doc, "final_tick", &mut errors);
    require_f64(&doc, "throughput_per_kilotick", &mut errors);
    let requests = require_u64(&doc, "requests", &mut errors);
    let served = require_u64(&doc, "served", &mut errors);
    let shed = require_u64(&doc, "shed", &mut errors);
    if let (Some(r), Some(sv), Some(sh)) = (requests, served, shed) {
        if r != sv + sh {
            errors.push(format!("requests {r} != served {sv} + shed {sh}"));
        }
    }

    match doc.get("latency_ticks") {
        Some(lat) => {
            let v = |k: &str, errors: &mut Vec<String>| require_f64(lat, k, errors);
            let (mean, min, max) =
                (v("mean", &mut errors), v("min", &mut errors), v("max", &mut errors));
            let (p50, p95, p99) =
                (v("p50", &mut errors), v("p95", &mut errors), v("p99", &mut errors));
            if served.is_some_and(|s| s > 0) {
                if let (Some(mn), Some(p50), Some(p95), Some(p99), Some(mx), Some(mean)) =
                    (min, p50, p95, p99, max, mean)
                {
                    if !(mn <= p50 && p50 <= p95 && p95 <= p99 && p99 <= mx) {
                        errors.push(format!(
                            "latency percentiles out of order: min {mn}, p50 {p50}, p95 {p95}, \
                             p99 {p99}, max {mx}"
                        ));
                    }
                    if !(mn <= mean && mean <= mx) {
                        errors.push(format!("mean {mean} outside [{mn}, {mx}]"));
                    }
                }
            }
        }
        None => errors.push("missing object `latency_ticks`".to_string()),
    }

    match doc.get("cache") {
        Some(cache) => {
            let budget = require_u64(cache, "budget_bytes", &mut errors);
            for k in ["hits", "misses", "evictions", "uncacheable"] {
                require_u64(cache, k, &mut errors);
            }
            let peak = require_u64(cache, "peak_resident_bytes", &mut errors);
            let fin = require_u64(cache, "final_resident_bytes", &mut errors);
            if let (Some(b), Some(p)) = (budget, peak) {
                if p > b {
                    errors.push(format!("peak_resident_bytes {p} exceeds budget_bytes {b}"));
                }
            }
            if let (Some(p), Some(f)) = (peak, fin) {
                if f > p {
                    errors.push(format!("final_resident_bytes {f} exceeds peak {p}"));
                }
            }
        }
        None => errors.push("missing object `cache`".to_string()),
    }

    match doc.get("tenants").and_then(Json::as_array) {
        Some(tenants) if !tenants.is_empty() => {
            let (mut sum_served, mut sum_shed) = (0u64, 0u64);
            for (i, t) in tenants.iter().enumerate() {
                match require_u64(t, "tenant", &mut errors) {
                    Some(id) if id == i as u64 => {}
                    Some(id) => errors.push(format!("tenant[{i}] has id {id}")),
                    None => {}
                }
                let arrived = require_u64(t, "arrived", &mut errors);
                let served = require_u64(t, "served", &mut errors);
                let shed = require_u64(t, "shed", &mut errors);
                require_u64(t, "work_ticks", &mut errors);
                if let (Some(a), Some(sv), Some(sh)) = (arrived, served, shed) {
                    if a != sv + sh {
                        errors.push(format!("tenant[{i}]: arrived {a} != served {sv} + shed {sh}"));
                    }
                    sum_served += sv;
                    sum_shed += sh;
                }
            }
            if let (Some(sv), Some(sh)) = (served, shed) {
                if sum_served != sv || sum_shed != sh {
                    errors.push(format!(
                        "tenant totals (served {sum_served}, shed {sum_shed}) do not add up to \
                         globals (served {sv}, shed {sh})"
                    ));
                }
            }
        }
        Some(_) => errors.push("`tenants` must be non-empty".to_string()),
        None => errors.push("missing array `tenants`".to_string()),
    }

    match doc.get("responses_digest").and_then(Json::as_str) {
        Some(d)
            if d.len() == 18
                && d.starts_with("0x")
                && d[2..].chars().all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()) => {}
        Some(d) => errors.push(format!("responses_digest `{d}` is not 0x + 16 lowercase hex")),
        None => errors.push("missing string `responses_digest`".to_string()),
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            trace_source: "synthetic".to_string(),
            seed: 42,
            zipf_s: 1.1,
            duration_ticks: 2000,
            final_tick: 2310,
            requests: 80,
            served: 74,
            shed: 6,
            throughput_per_kilotick: 37.0,
            latency_ticks: LatencySummary {
                mean: 120.5,
                min: 40.0,
                max: 400.0,
                p50: 110.0,
                p95: 300.0,
                p99: 390.0,
            },
            cache: CacheReport {
                budget_bytes: 1_500_000,
                hits: 60,
                misses: 14,
                evictions: 9,
                uncacheable: 0,
                peak_resident_bytes: 1_400_000,
                final_resident_bytes: 900_000,
            },
            tenants: vec![
                TenantReport { arrived: 40, served: 38, shed: 2, work_ticks: 4000 },
                TenantReport { arrived: 40, served: 36, shed: 4, work_ticks: 3900 },
            ],
            responses_digest: "0x0123456789abcdef".to_string(),
        }
    }

    #[test]
    fn emitted_reports_validate() {
        let json = sample().to_json();
        validate_report_json(&json).expect("own output must validate");
    }

    #[test]
    fn serialization_is_canonical() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b, "equal reports must serialize to equal bytes");
        assert!(a.contains("\"schema_version\": 1"));
        assert!(a.contains("\"zipf_s\": 1.1"));
        assert!(a.contains("\"throughput_per_kilotick\": 37.0"), "floats keep a decimal point");
    }

    #[test]
    fn idle_latency_summary_validates() {
        let mut r = sample();
        r.served = 0;
        r.shed = r.requests;
        r.latency_ticks = LatencySummary::idle();
        r.tenants = vec![
            TenantReport { arrived: 80, served: 0, shed: 80, work_ticks: 0 },
            TenantReport::default(),
        ];
        validate_report_json(&r.to_json()).expect("idle run must validate");
    }

    #[test]
    fn validation_catches_cross_field_lies() {
        let mut r = sample();
        r.served = 999; // breaks requests = served + shed AND tenant totals
        let errs = validate_report_json(&r.to_json()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("requests")), "{errs:?}");

        let mut r = sample();
        r.cache.peak_resident_bytes = r.cache.budget_bytes + 1;
        let errs = validate_report_json(&r.to_json()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("exceeds budget")), "{errs:?}");

        let mut r = sample();
        r.latency_ticks.p95 = r.latency_ticks.p99 + 100.0;
        let errs = validate_report_json(&r.to_json()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("out of order")), "{errs:?}");

        let mut r = sample();
        r.responses_digest = "0XDEADBEEF".to_string();
        let errs = validate_report_json(&r.to_json()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("responses_digest")), "{errs:?}");
    }

    #[test]
    fn validation_rejects_garbage_and_wrong_versions() {
        assert!(validate_report_json("not json").is_err());
        assert!(validate_report_json("{}").unwrap_err().len() > 5, "every gap reported");
        let wrong = sample().to_json().replace("\"schema_version\": 1", "\"schema_version\": 2");
        assert!(validate_report_json(&wrong)
            .unwrap_err()
            .iter()
            .any(|e| e.contains("schema_version")));
    }
}
