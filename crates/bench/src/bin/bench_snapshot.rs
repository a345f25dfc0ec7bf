//! Records or validates the schema-versioned kernel benchmark snapshots
//! (`BENCH_*.json`) described in `docs/benchmarking.md`.
//!
//! Measure mode times both hot-path kernels (trilinear interpolation and
//! the MLP GEMV) in scalar and lane form, the fp16 conversions, the
//! bake-and-defer rows (bake pass, deferred per-pixel MLP, compositing
//! accumulator), and the temporal-reuse rows (forward-warp splat,
//! disocclusion test), and writes one snapshot file:
//!
//! ```text
//! cargo run --release -p spnerf-bench --bin bench_snapshot -- [--quick] \
//!     [--label NAME] [--out PATH]
//! ```
//!
//! `--label NAME` defaults to `pr10` and names the output `BENCH_<NAME>.json`
//! in the current directory unless `--out PATH` overrides the destination.
//!
//! Check mode parses and validates existing snapshots against the current
//! schema ([`snapshot::SCHEMA_VERSION`]) without timing anything — this is
//! what CI runs on every push:
//!
//! ```text
//! cargo run --release -p spnerf-bench --bin bench_snapshot -- --check [PATH...]
//! ```
//!
//! With no paths, `--check` discovers every `BENCH_*.json` in the current
//! directory and fails if there are none. Exit status: 0 all valid, 1 any
//! schema violation or missing file, 2 usage error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use spnerf_bench::snapshot::{self, SNAPSHOT_PREFIX};

const DEFAULT_LABEL: &str = "pr10";

fn usage() -> String {
    format!(
        "usage: bench_snapshot [--quick] [--label NAME] [--out PATH]\n\
         \x20      bench_snapshot --check [PATH...]\n\
         \n\
         Records (or, with --check, validates) a schema-versioned kernel\n\
         benchmark snapshot; see docs/benchmarking.md.\n\
         \n\
         options:\n\
         \x20 --quick        reduced calibration for CI smoke runs (noisier numbers,\n\
         \x20                identical schema; recorded in the fingerprint)\n\
         \x20 --label NAME   snapshot label, default `{DEFAULT_LABEL}`; output file becomes\n\
         \x20                {SNAPSHOT_PREFIX}<NAME>.json\n\
         \x20 --out PATH     explicit output path (overrides the label-derived name)\n\
         \x20 --check        validate snapshots instead of measuring; with no PATH\n\
         \x20                arguments, discovers {SNAPSHOT_PREFIX}*.json in the current directory\n\
         \n\
         Timings are a recorded trajectory, not a gate: kernel correctness is\n\
         judged by equality tests, never by wall-clock."
    )
}

struct Args {
    quick: bool,
    label: String,
    out: Option<PathBuf>,
    check: bool,
    paths: Vec<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        label: DEFAULT_LABEL.to_string(),
        out: None,
        check: false,
        paths: Vec::new(),
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>| match inline.clone() {
            Some(v) if !v.is_empty() => Ok(v),
            Some(_) => Err(format!("flag `{flag}` requires a non-empty value")),
            None => it
                .next()
                .cloned()
                .filter(|v| !v.starts_with("--") && !v.is_empty())
                .ok_or_else(|| format!("flag `{flag}` requires a value")),
        };
        match flag {
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            "--label" => args.label = value(&mut it)?,
            "--out" => args.out = Some(PathBuf::from(value(&mut it)?)),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`"));
            }
            positional => {
                if args.check {
                    args.paths.push(PathBuf::from(positional));
                } else {
                    return Err(format!(
                        "unexpected positional argument `{positional}` \
                         (paths are only accepted with --check)"
                    ));
                }
            }
        }
    }
    if args.check && (args.quick || args.out.is_some() || args.label != DEFAULT_LABEL) {
        return Err("--check takes only PATH arguments".to_string());
    }
    Ok(args)
}

fn discover_snapshots(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with(SNAPSHOT_PREFIX) && name.ends_with(".json") {
            found.push(path);
        }
    }
    found.sort();
    Ok(found)
}

fn check(paths: &[PathBuf]) -> ExitCode {
    let paths = if paths.is_empty() {
        match discover_snapshots(Path::new(".")) {
            Ok(found) if found.is_empty() => {
                eprintln!(
                    "error: no {SNAPSHOT_PREFIX}*.json snapshots in the current directory \
                     — the perf trajectory must not silently disappear"
                );
                return ExitCode::FAILURE;
            }
            Ok(found) => found,
            Err(e) => {
                eprintln!("error: cannot scan current directory: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        paths.to_vec()
    };

    let mut failed = false;
    for path in &paths {
        match std::fs::read_to_string(path) {
            Ok(text) => match snapshot::validate_snapshot_json(&text) {
                Ok(()) => println!("{}: ok (schema v{})", path.display(), snapshot::SCHEMA_VERSION),
                Err(errors) => {
                    failed = true;
                    eprintln!("{}: INVALID", path.display());
                    for e in errors {
                        eprintln!("  - {e}");
                    }
                }
            },
            Err(e) => {
                failed = true;
                eprintln!("{}: unreadable: {e}", path.display());
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };

    if args.check {
        return check(&args.paths);
    }

    let out =
        args.out.unwrap_or_else(|| PathBuf::from(format!("{SNAPSHOT_PREFIX}{}.json", args.label)));
    eprintln!(
        "measuring kernel snapshot `{}` ({} calibration)...",
        args.label,
        if args.quick { "quick" } else { "full" }
    );
    let snap = snapshot::measure(&args.label, args.quick);
    for k in &snap.kernels {
        eprintln!("  {:<18} {:>10.2} ns/op  {:>14.0} ops/s", k.name, k.ns_per_op, k.ops_per_s);
    }
    let json = snap.to_json();
    snapshot::validate_snapshot_json(&json).expect("freshly measured snapshot validates");
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", out.display());
    ExitCode::SUCCESS
}
