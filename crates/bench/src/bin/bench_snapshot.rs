//! Records or validates the schema-versioned kernel benchmark snapshots
//! (`BENCH_*.json`) described in `docs/benchmarking.md`.
//!
//! Measure mode times every kernel row, the
//! [`snapshot::REQUIRED_KERNELS`] and then the [`snapshot::EXTRA_KERNELS`],
//! and writes one snapshot file:
//!
//! ```text
//! cargo run --release -p spnerf-bench --bin bench_snapshot -- [--quick] \
//!     --label NAME [--out PATH]
//! ```
//!
//! `--label NAME` is required: it is recorded in the snapshot and names the
//! output `BENCH_<NAME>.json` in the current directory unless `--out PATH`
//! overrides the destination. There is no default, so a bare run cannot
//! overwrite a checked-in snapshot.
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
//! directory and fails if there are none. `--help` (or `-h`) prints the
//! usage. Exit status: 0 all valid (or help), 1 any schema violation or
//! missing file, 2 usage error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use spnerf_bench::snapshot::{self, SNAPSHOT_PREFIX};

fn usage() -> String {
    format!(
        "usage: bench_snapshot [--quick] --label NAME [--out PATH]\n\
         \x20      bench_snapshot --check [PATH...]\n\
         \x20      bench_snapshot --help\n\
         \n\
         Records (or, with --check, validates) a schema-versioned kernel\n\
         benchmark snapshot; see docs/benchmarking.md.\n\
         \n\
         options:\n\
         \x20 --quick        reduced calibration for CI smoke runs (noisier numbers,\n\
         \x20                identical schema; recorded in the fingerprint)\n\
         \x20 --label NAME   snapshot label, required when measuring; output file becomes\n\
         \x20                {SNAPSHOT_PREFIX}<NAME>.json\n\
         \x20 --out PATH     explicit output path (overrides the label-derived name)\n\
         \x20 --check        validate snapshots instead of measuring; with no PATH\n\
         \x20                arguments, discovers {SNAPSHOT_PREFIX}*.json in the current directory\n\
         \x20 -h, --help     print this usage and exit\n\
         \n\
         Timings are a recorded trajectory, not a gate: kernel correctness is\n\
         judged by equality tests, never by wall-clock."
    )
}

/// What one invocation does.
#[derive(Debug, PartialEq)]
enum Command {
    Help,
    Check(Vec<PathBuf>),
    Measure { quick: bool, label: String, out: Option<PathBuf> },
}

fn parse(argv: &[String]) -> Result<Command, String> {
    let mut quick = false;
    let mut check = false;
    let mut label = None;
    let mut out = None;
    let mut paths = Vec::new();
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
            "--help" | "-h" => return Ok(Command::Help),
            "--quick" => quick = true,
            "--check" => check = true,
            "--label" => label = Some(value(&mut it)?),
            "--out" => out = Some(PathBuf::from(value(&mut it)?)),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`"));
            }
            positional => {
                if check {
                    paths.push(PathBuf::from(positional));
                } else {
                    return Err(format!(
                        "unexpected positional argument `{positional}` \
                         (paths are only accepted with --check)"
                    ));
                }
            }
        }
    }
    if check {
        if quick || out.is_some() || label.is_some() {
            return Err("--check takes only PATH arguments".to_string());
        }
        return Ok(Command::Check(paths));
    }
    let label = label.ok_or_else(|| {
        format!("measuring requires --label NAME (the snapshot is written to {SNAPSHOT_PREFIX}<NAME>.json)")
    })?;
    Ok(Command::Measure { quick, label, out })
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
    let (quick, label, out) = match parse(&argv) {
        Ok(Command::Help) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Ok(Command::Check(paths)) => return check(&paths),
        Ok(Command::Measure { quick, label, out }) => (quick, label, out),
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let out = out.unwrap_or_else(|| PathBuf::from(format!("{SNAPSHOT_PREFIX}{label}.json")));
    eprintln!(
        "measuring kernel snapshot `{label}` ({} calibration)...",
        if quick { "quick" } else { "full" }
    );
    let snap = snapshot::measure(&label, quick);
    let width = snap.kernels.iter().map(|k| k.name.len()).max().unwrap_or(0);
    for k in &snap.kernels {
        eprintln!("  {:<width$} {:>10.2} ns/op  {:>14.0} ops/s", k.name, k.ns_per_op, k.ops_per_s);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn help_wins_in_either_spelling() {
        for line in ["--help", "-h", "--quick --help", "--check -h"] {
            assert_eq!(parse(&args(line)), Ok(Command::Help), "`{line}`");
        }
    }

    #[test]
    fn measuring_requires_a_label() {
        // A bare run must not fall back to the name of a checked-in file.
        for line in ["", "--quick", "--out /tmp/x.json"] {
            let err = parse(&args(line)).unwrap_err();
            assert!(err.contains("--label"), "`{line}`: {err}");
        }
        assert_eq!(
            parse(&args("--quick --label ci --out /tmp/BENCH_ci.json")),
            Ok(Command::Measure {
                quick: true,
                label: "ci".to_string(),
                out: Some(PathBuf::from("/tmp/BENCH_ci.json")),
            })
        );
        assert_eq!(
            parse(&args("--label=nightly")),
            Ok(Command::Measure { quick: false, label: "nightly".to_string(), out: None })
        );
    }

    #[test]
    fn check_takes_only_paths() {
        assert_eq!(parse(&args("--check")), Ok(Command::Check(vec![])));
        assert_eq!(
            parse(&args("--check a.json b.json")),
            Ok(Command::Check(vec![PathBuf::from("a.json"), PathBuf::from("b.json")]))
        );
        // Any label is rejected, whatever its value.
        for line in
            ["--check --label main", "--check --label x", "--check --quick", "--check --out o"]
        {
            assert!(parse(&args(line)).is_err(), "`{line}`");
        }
        assert!(parse(&args("stray.json")).is_err());
        assert!(parse(&args("--frobnicate")).is_err());
    }
}
