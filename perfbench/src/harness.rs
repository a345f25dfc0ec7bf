//! The measuring kit every workload shares: wall-clock spans, output
//! checks with the cross-run determinism ledger, metric collection, and
//! small statistics helpers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use spnerf::render::image::ImageBuffer;
use spnerf_testkit::digest::Fnv64;

/// Where spans and the determinism ledger are written, relative to the
/// directory the benchmark runs in.
pub const OUT_DIR: &str = ".bench_trace";

/// One recorded span: a call into a layer, timed from the benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Handle of an open span (or of nothing, when tracing is off).
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<usize>);

/// In-memory span recorder. Off, every call is one branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    /// Switches recording on or off between operations (the traced run
    /// alternates to measure the tracing overhead).
    pub fn set_recording(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "recording toggled inside an open span");
        self.on = on;
    }

    /// Sets the operation id the next spans carry (0 is set-up).
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let top = self.stack.pop();
            assert_eq!(top, Some(idx), "spans must close in LIFO order");
            self.spans[idx].end = self.origin.elapsed();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in milliseconds: each span's duration
    /// minus the part its direct children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let own = (s.end - s.start).saturating_sub(*c);
            *out.entry(s.name).or_insert(0.0) += own.as_secs_f64() * 1e3;
        }
        out
    }

    /// Writes the spans as Chrome trace-event JSON (viewable in Perfetto).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut json = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                json,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.op
            );
        }
        json.push_str("\n]}\n");
        std::fs::write(path, json)
    }
}

/// Output checks and failure accounting, plus the determinism ledger: the
/// deterministic counters a run pins must equal what every earlier run of
/// the same build pinned under the same key.
#[derive(Debug)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// Output or determinism checks that failed (`failed` counts the
    /// operations they failed, plus shed requests).
    pub incorrect: u64,
    ledger: BTreeMap<String, u64>,
    fresh: Vec<(String, u64)>,
    ledger_path: Option<PathBuf>,
}

impl Checks {
    /// Loads the ledger of the running build (keyed by a digest of the
    /// executable, so a rebuilt program starts a fresh ledger).
    pub fn new(build_id: Option<u64>) -> Self {
        let ledger_path =
            build_id.map(|id| Path::new(OUT_DIR).join(format!("ledger-{id:016x}.tsv")));
        let mut ledger = BTreeMap::new();
        if let Some(text) = ledger_path.as_ref().and_then(|p| std::fs::read_to_string(p).ok()) {
            for line in text.lines() {
                if let Some((k, v)) = line.split_once('\t') {
                    if let Ok(v) = u64::from_str_radix(v.trim_start_matches("0x"), 16) {
                        ledger.insert(k.to_string(), v);
                    }
                }
            }
        }
        Self { attempted: 0, failed: 0, incorrect: 0, ledger, fresh: Vec::new(), ledger_path }
    }

    /// Counts one attempted operation; any problem fails it.
    pub fn op(&mut self, problems: &[String]) {
        self.ops(1, problems);
    }

    /// Counts `n` attempted operations whose outputs one check covers; any
    /// problem fails all of them.
    pub fn ops(&mut self, n: u64, problems: &[String]) {
        self.attempted += n;
        if !problems.is_empty() {
            eprintln!("perfbench: check failed: {}", problems.join("; "));
            self.failed += n;
            self.incorrect += 1;
        }
    }

    /// Counts requests the program refused: failed, but not incorrect.
    pub fn shed(&mut self, n: u64) {
        self.failed += n;
    }

    /// A failed check outside any operation (set-up).
    pub fn fail(&mut self, what: String) {
        eprintln!("perfbench: check failed: {what}");
        self.failed += 1;
        self.incorrect += 1;
    }

    /// Compares a deterministic value with every earlier value pinned under
    /// `key` (this run or an earlier run of this build) and pins it.
    pub fn verify(&mut self, key: impl Into<String>, value: u64) -> Result<(), String> {
        let key = key.into();
        match self.ledger.get(&key) {
            Some(&old) if old != value => Err(format!("{key}: {value:#x} differs from {old:#x}")),
            Some(_) => Ok(()),
            None => {
                self.ledger.insert(key.clone(), value);
                self.fresh.push((key, value));
                Ok(())
            }
        }
    }

    /// [`Checks::verify`] outside any operation: a mismatch is one failure.
    pub fn pin(&mut self, key: impl Into<String>, value: u64) {
        if let Err(e) = self.verify(key, value) {
            self.fail(e);
        }
    }

    /// Appends this run's new pins to the ledger file.
    pub fn save(&self) -> std::io::Result<()> {
        let Some(path) = &self.ledger_path else { return Ok(()) };
        if self.fresh.is_empty() {
            return Ok(());
        }
        std::fs::create_dir_all(OUT_DIR)?;
        let mut text = std::fs::read_to_string(path).unwrap_or_default();
        for (k, v) in &self.fresh {
            let _ = writeln!(text, "{k}\t{v:#018x}");
        }
        std::fs::write(path, text)
    }
}

/// Metrics in report order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.0.iter().all(|(n, ..)| n != name), "metric {name} reported twice");
        self.0.push((name.to_string(), value, unit));
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        out
    }
}

/// Linear-interpolated percentile (`q` in `[0, 100]`) of unsorted values.
/// The nearest-rank `spnerf::render::eval::percentile` would jump from
/// sample to sample over the handful of runs a serve-churn run makes.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = q / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// SplitMix64: the benchmark's own seeded input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5eed_0fbe_4c4a_1100)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// Digest of a list of integers (counters pinned as one ledger value).
pub fn digest_u64s(values: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    for v in values {
        h.write_u64(*v);
    }
    h.finish()
}

/// Whether every channel of every pixel is finite.
pub fn all_finite(img: &ImageBuffer) -> bool {
    img.pixels().iter().all(|p| p.x.is_finite() && p.y.is_finite() && p.z.is_finite())
}

/// High-water resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
