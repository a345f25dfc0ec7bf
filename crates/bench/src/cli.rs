//! Strict shared CLI parsing for the figure/table binaries.
//!
//! Every binary in `src/bin/` accepts the same surface — `--quick`,
//! `--threads N` (or `--threads=N`), `--help`/`-h` — and **rejects anything
//! else**. This matches the criterion shim's philosophy: a misspelled flag
//! that is silently ignored makes a figure run at the wrong fidelity while
//! looking successful, which is strictly worse than failing loudly.
//!
//! [`parse`] is the pure, testable core; [`parse_or_exit`] is the binary
//! entry point that prints usage / errors and applies the `SPNERF_THREADS`
//! environment fallback.

use spnerf::render::engine::THREADS_ENV_VAR;
use spnerf::render::renderer::SkipMode;
use spnerf::render::temporal::{ReuseMode, TrajectorySpec};
use spnerf::voxel::sparse::{FormatKind, FormatSelection};

/// Which primary data path a harness run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourceMode {
    /// The SpNeRF masked decode through the per-sample color MLP (the
    /// paper's pipeline; default).
    #[default]
    SpNerf,
    /// The baked grid through the deferred per-pixel view-dependence MLP
    /// (the bake-and-defer path).
    Baked,
}

impl SourceMode {
    /// The token the CLI accepts for this mode.
    pub fn name(&self) -> &'static str {
        match self {
            SourceMode::SpNerf => "spnerf",
            SourceMode::Baked => "baked",
        }
    }
}

/// Which deterministic camera path `--trajectory` selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrajectoryKind {
    /// A fixed-step orbit around the scene center.
    Orbit,
    /// A straight dolly toward the scene center.
    Dolly,
    /// An orbit pose with seeded handheld jitter.
    Jitter,
}

impl TrajectoryKind {
    /// Every path kind, in CLI-token order.
    pub const ALL: [TrajectoryKind; 3] =
        [TrajectoryKind::Orbit, TrajectoryKind::Dolly, TrajectoryKind::Jitter];

    /// The token the CLI accepts for this path.
    pub fn name(&self) -> &'static str {
        match self {
            TrajectoryKind::Orbit => "orbit",
            TrajectoryKind::Dolly => "dolly",
            TrajectoryKind::Jitter => "jitter",
        }
    }

    /// The deterministic camera path this kind names, at the given frame
    /// count and square image size. The jitter seed is pinned so two runs
    /// of the same command line render the same frames.
    pub fn spec(&self, frames: usize, image: u32) -> TrajectorySpec {
        match self {
            TrajectoryKind::Orbit => TrajectorySpec::orbit(frames, image, image),
            TrajectoryKind::Dolly => TrajectorySpec::dolly(frames, image, image),
            TrajectoryKind::Jitter => TrajectorySpec::jitter(frames, image, image, 17),
        }
    }
}

/// Parsed harness arguments.
///
/// Not `Copy`/`Eq`: the serve surface carries a replay path (`String`) and
/// a Zipf exponent (`f64`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HarnessArgs {
    /// `--quick`: reduced-fidelity preset.
    pub quick: bool,
    /// `--threads N` / `--threads=N`: render worker count (`0` = all cores).
    pub threads: Option<usize>,
    /// `--corpus`: sweep the testkit's five procedural archetypes instead
    /// of the eight Synthetic-NeRF scenes (supported by the bins that sweep
    /// scenes; the others reject the flag).
    pub corpus: bool,
    /// `--skip-mode off|mip|mip:N`: empty-space skipping policy. Images are
    /// bitwise-identical in every mode; `mip` drops marched samples (and
    /// the cycles derived from them) through the occupancy pyramid,
    /// `mip:N` caps the coarsest pyramid level consulted at `N`.
    pub skip_mode: SkipMode,
    /// `--source spnerf|baked`: the primary data path measurements flow
    /// from. `baked` renders the baked grid with the deferred per-pixel
    /// MLP, collapsing the workload's MLP column from samples to pixels.
    pub source: SourceMode,
    /// `--sparse-format auto|bitmap|coo|csr|csc|rank|block`: the sparse
    /// occupancy-index encoding (default `auto`, the occupancy-statistics
    /// selector). Images are bitwise-identical in every format; the choice
    /// moves per-lookup metadata traffic and resident bytes.
    pub sparse_format: FormatSelection,
    /// `--seed N` / `--seed=N`: traffic-generator seed (`spnerf_serve`;
    /// other binaries reject it via [`HarnessArgs::serve_flag`]).
    pub seed: Option<u64>,
    /// `--duration-ticks N`: virtual-clock horizon of a serve run — arrivals
    /// after tick `N` are not generated.
    pub duration_ticks: Option<u64>,
    /// `--cache-bytes N`: byte budget of the serve scene cache.
    pub cache_bytes: Option<usize>,
    /// `--replay FILE`: serve a recorded traffic trace instead of
    /// synthesizing one (the seed then only matters for trace synthesis,
    /// not service).
    pub replay: Option<String>,
    /// `--zipf-s S`: Zipf popularity exponent of the synthetic traffic
    /// (`0` = uniform; larger skews toward the head scenes).
    pub zipf_s: Option<f64>,
    /// `--trajectory orbit|dolly|jitter`: restrict `fig9_temporal` to one
    /// deterministic camera path (default: sweep all three). Other binaries
    /// reject it via [`HarnessArgs::temporal_flag`].
    pub trajectory: Option<TrajectoryKind>,
    /// `--reuse-mode off|warp`: restrict `fig9_temporal` to one
    /// frame-to-frame reuse policy (default: measure both and report the
    /// amortization ratio). Other binaries reject it via
    /// [`HarnessArgs::temporal_flag`].
    pub reuse_mode: Option<ReuseMode>,
    /// `--help` / `-h` was requested.
    pub help: bool,
}

impl HarnessArgs {
    /// The first serve-only flag present, if any — binaries outside
    /// `spnerf_serve` call this to reject the serve surface with exit 2,
    /// exactly as [`crate::Fidelity::from_args`] rejects `--corpus` on
    /// binaries that do not sweep scenes.
    pub fn serve_flag(&self) -> Option<&'static str> {
        if self.seed.is_some() {
            Some("--seed")
        } else if self.duration_ticks.is_some() {
            Some("--duration-ticks")
        } else if self.cache_bytes.is_some() {
            Some("--cache-bytes")
        } else if self.replay.is_some() {
            Some("--replay")
        } else if self.zipf_s.is_some() {
            Some("--zipf-s")
        } else {
            None
        }
    }

    /// The first temporal-only flag present, if any — binaries other than
    /// `fig9_temporal` call this to reject the trajectory surface with
    /// exit 2, exactly as [`HarnessArgs::serve_flag`] fences the serve
    /// surface.
    pub fn temporal_flag(&self) -> Option<&'static str> {
        if self.trajectory.is_some() {
            Some("--trajectory")
        } else if self.reuse_mode.is_some() {
            Some("--reuse-mode")
        } else {
            None
        }
    }
}

/// A rejected command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `-`/`--` token no binary accepts.
    UnknownFlag(String),
    /// A bare positional argument (the harnesses take none).
    UnexpectedPositional(String),
    /// A value-taking flag (`--threads`, `--skip-mode`, `--source`, …)
    /// without a value.
    MissingValue(&'static str),
    /// A flag value that failed to parse.
    BadValue {
        /// The flag the value belonged to.
        flag: &'static str,
        /// The offending token.
        value: String,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::UnknownFlag(a) => write!(f, "unrecognized flag `{a}`"),
            ArgError::UnexpectedPositional(a) => write!(f, "unexpected argument `{a}`"),
            ArgError::MissingValue(flag) => write!(f, "{flag} requires a value"),
            ArgError::BadValue { flag, value } => {
                write!(f, "{flag}: invalid value `{value}`")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// The usage text every harness binary prints for `--help` and on errors.
pub fn usage(bin: &str) -> String {
    format!(
        "usage: {bin} [--quick] [--threads N] [--corpus] [--skip-mode MODE] [--source MODE]\n\
         \x20          [--sparse-format F] [--seed N] [--duration-ticks N] [--cache-bytes N] [--replay FILE]\n\
         \x20          [--zipf-s S] [--trajectory PATH] [--reuse-mode MODE] [--help]\n\
         \n\
         options:\n\
         \x20 --quick            run the reduced-fidelity preset (seconds instead of minutes)\n\
         \x20 --threads N        render worker threads; 0 = all cores (also: {THREADS_ENV_VAR} env var)\n\
         \x20 --corpus           sweep the 5 procedural testkit archetypes instead of the 8 scenes\n\
         \x20                    (scene-sweeping binaries only)\n\
         \x20 --skip-mode MODE   empty-space skipping: off (default), mip, or mip:N to cap the\n\
         \x20                    coarsest pyramid level at N; images are identical in every mode\n\
         \x20 --source MODE      primary data path: spnerf (default) or baked — the bake-and-defer\n\
         \x20                    path whose small view MLP runs once per pixel, not per sample\n\
         \x20 --sparse-format F  sparse occupancy-index encoding: auto (default), bitmap, coo,\n\
         \x20                    csr, csc, rank, or block; images are identical in every format\n\
         \x20 --seed N           traffic-generator seed (spnerf_serve only)\n\
         \x20 --duration-ticks N virtual-clock horizon of the serve run (spnerf_serve only)\n\
         \x20 --cache-bytes N    byte budget of the serve scene cache (spnerf_serve only)\n\
         \x20 --replay FILE      serve a recorded traffic trace instead of synthesizing one\n\
         \x20                    (spnerf_serve only)\n\
         \x20 --zipf-s S         Zipf scene-popularity exponent, 0 = uniform (spnerf_serve only)\n\
         \x20 --trajectory PATH  camera path to sweep: orbit, dolly, or jitter\n\
         \x20                    (fig9_temporal only; default sweeps all three)\n\
         \x20 --reuse-mode MODE  frame-to-frame reuse: off or warp (fig9_temporal only;\n\
         \x20                    default measures both and reports the amortization ratio)\n\
         \x20 -h, --help         print this help\n\
         \n\
         Outputs are bitwise-identical at every thread count and skip mode."
    )
}

/// Parses harness arguments (without the leading program name), rejecting
/// anything outside the shared surface. Pure: never consults the
/// environment or exits.
///
/// # Errors
///
/// Returns [`ArgError`] for unknown flags, positionals, and missing or
/// malformed `--threads` values.
pub fn parse(args: &[String]) -> Result<HarnessArgs, ArgError> {
    let parse_threads = |v: &str| {
        v.parse::<usize>()
            .map_err(|_| ArgError::BadValue { flag: "--threads", value: v.to_string() })
    };
    let parse_source = |v: &str| match v {
        "spnerf" => Ok(SourceMode::SpNerf),
        "baked" => Ok(SourceMode::Baked),
        _ => Err(ArgError::BadValue { flag: "--source", value: v.to_string() }),
    };
    let parse_sparse = |v: &str| match v {
        "auto" => Ok(FormatSelection::Auto),
        _ => FormatKind::from_name(v)
            .map(FormatSelection::Fixed)
            .ok_or(ArgError::BadValue { flag: "--sparse-format", value: v.to_string() }),
    };
    let parse_seed = |v: &str| {
        v.parse::<u64>().map_err(|_| ArgError::BadValue { flag: "--seed", value: v.to_string() })
    };
    let parse_ticks = |v: &str| {
        // A zero-tick run would emit a report over an empty sample set;
        // reject it at the surface instead of panicking in a percentile.
        match v.parse::<u64>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(ArgError::BadValue { flag: "--duration-ticks", value: v.to_string() }),
        }
    };
    let parse_cache = |v: &str| {
        v.parse::<usize>()
            .map_err(|_| ArgError::BadValue { flag: "--cache-bytes", value: v.to_string() })
    };
    let parse_zipf = |v: &str| match v.parse::<f64>() {
        Ok(s) if s.is_finite() && s >= 0.0 => Ok(s),
        _ => Err(ArgError::BadValue { flag: "--zipf-s", value: v.to_string() }),
    };
    let parse_trajectory = |v: &str| {
        TrajectoryKind::ALL
            .into_iter()
            .find(|k| k.name() == v)
            .ok_or(ArgError::BadValue { flag: "--trajectory", value: v.to_string() })
    };
    let parse_reuse = |v: &str| match v {
        "off" => Ok(ReuseMode::Off),
        "warp" => Ok(ReuseMode::warp()),
        _ => Err(ArgError::BadValue { flag: "--reuse-mode", value: v.to_string() }),
    };
    let parse_skip = |v: &str| match v {
        "off" => Ok(SkipMode::Off),
        "mip" => Ok(SkipMode::mip()),
        _ => v
            .strip_prefix("mip:")
            .and_then(|n| n.parse::<usize>().ok())
            .map(|levels| SkipMode::Mip { levels })
            .ok_or(ArgError::BadValue { flag: "--skip-mode", value: v.to_string() }),
    };
    // The `--threads N` / `--threads=N` token forms mirror
    // `spnerf::render::engine::take_threads_args` (the lenient parser the
    // positional examples use); `threads_flag_forms_match_the_engine_parser`
    // below pins the two surfaces together.
    let mut out = HarnessArgs::default();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        match a {
            "--quick" => out.quick = true,
            "--corpus" => out.corpus = true,
            "--help" | "-h" => out.help = true,
            "--threads" => {
                let v = args.get(i + 1).ok_or(ArgError::MissingValue("--threads"))?;
                out.threads = Some(parse_threads(v)?);
                i += 1;
            }
            _ if a.starts_with("--threads=") => {
                out.threads = Some(parse_threads(&a["--threads=".len()..])?);
            }
            "--skip-mode" => {
                let v = args.get(i + 1).ok_or(ArgError::MissingValue("--skip-mode"))?;
                out.skip_mode = parse_skip(v)?;
                i += 1;
            }
            _ if a.starts_with("--skip-mode=") => {
                out.skip_mode = parse_skip(&a["--skip-mode=".len()..])?;
            }
            "--source" => {
                let v = args.get(i + 1).ok_or(ArgError::MissingValue("--source"))?;
                out.source = parse_source(v)?;
                i += 1;
            }
            _ if a.starts_with("--source=") => {
                out.source = parse_source(&a["--source=".len()..])?;
            }
            "--sparse-format" => {
                let v = args.get(i + 1).ok_or(ArgError::MissingValue("--sparse-format"))?;
                out.sparse_format = parse_sparse(v)?;
                i += 1;
            }
            _ if a.starts_with("--sparse-format=") => {
                out.sparse_format = parse_sparse(&a["--sparse-format=".len()..])?;
            }
            "--seed" => {
                let v = args.get(i + 1).ok_or(ArgError::MissingValue("--seed"))?;
                out.seed = Some(parse_seed(v)?);
                i += 1;
            }
            _ if a.starts_with("--seed=") => {
                out.seed = Some(parse_seed(&a["--seed=".len()..])?);
            }
            "--duration-ticks" => {
                let v = args.get(i + 1).ok_or(ArgError::MissingValue("--duration-ticks"))?;
                out.duration_ticks = Some(parse_ticks(v)?);
                i += 1;
            }
            _ if a.starts_with("--duration-ticks=") => {
                out.duration_ticks = Some(parse_ticks(&a["--duration-ticks=".len()..])?);
            }
            "--cache-bytes" => {
                let v = args.get(i + 1).ok_or(ArgError::MissingValue("--cache-bytes"))?;
                out.cache_bytes = Some(parse_cache(v)?);
                i += 1;
            }
            _ if a.starts_with("--cache-bytes=") => {
                out.cache_bytes = Some(parse_cache(&a["--cache-bytes=".len()..])?);
            }
            "--replay" => {
                let v = args.get(i + 1).ok_or(ArgError::MissingValue("--replay"))?;
                out.replay = Some(v.clone());
                i += 1;
            }
            _ if a.starts_with("--replay=") => {
                let v = &a["--replay=".len()..];
                if v.is_empty() {
                    return Err(ArgError::MissingValue("--replay"));
                }
                out.replay = Some(v.to_string());
            }
            "--zipf-s" => {
                let v = args.get(i + 1).ok_or(ArgError::MissingValue("--zipf-s"))?;
                out.zipf_s = Some(parse_zipf(v)?);
                i += 1;
            }
            _ if a.starts_with("--zipf-s=") => {
                out.zipf_s = Some(parse_zipf(&a["--zipf-s=".len()..])?);
            }
            "--trajectory" => {
                let v = args.get(i + 1).ok_or(ArgError::MissingValue("--trajectory"))?;
                out.trajectory = Some(parse_trajectory(v)?);
                i += 1;
            }
            _ if a.starts_with("--trajectory=") => {
                out.trajectory = Some(parse_trajectory(&a["--trajectory=".len()..])?);
            }
            "--reuse-mode" => {
                let v = args.get(i + 1).ok_or(ArgError::MissingValue("--reuse-mode"))?;
                out.reuse_mode = Some(parse_reuse(v)?);
                i += 1;
            }
            _ if a.starts_with("--reuse-mode=") => {
                out.reuse_mode = Some(parse_reuse(&a["--reuse-mode=".len()..])?);
            }
            _ if a.starts_with('-') => return Err(ArgError::UnknownFlag(a.to_string())),
            _ => return Err(ArgError::UnexpectedPositional(a.to_string())),
        }
        i += 1;
    }
    Ok(out)
}

/// Parses the process arguments strictly. `--help` prints usage and exits 0;
/// a parse error prints the error plus usage to stderr and exits 2. When no
/// `--threads` flag is given, falls back to the `SPNERF_THREADS` environment
/// variable.
pub fn parse_or_exit() -> HarnessArgs {
    let argv: Vec<String> = std::env::args().collect();
    let bin = argv
        .first()
        .map(|p| p.rsplit(['/', '\\']).next().unwrap_or(p).to_string())
        .unwrap_or_else(|| "harness".to_string());
    let mut parsed = match parse(&argv[1..]) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{bin}: {e}\n\n{}", usage(&bin));
            std::process::exit(2);
        }
    };
    if parsed.help {
        println!("{}", usage(&bin));
        std::process::exit(0);
    }
    if parsed.threads.is_none() {
        if let Ok(v) = std::env::var(THREADS_ENV_VAR) {
            match v.parse::<usize>() {
                Ok(n) => parsed.threads = Some(n),
                Err(_) => {
                    // Same strict contract as the flags: a malformed env
                    // var exits 2 with usage, never a panic.
                    eprintln!(
                        "{bin}: {THREADS_ENV_VAR}: expected a thread count, got `{v}`\n\n{}",
                        usage(&bin)
                    );
                    std::process::exit(2);
                }
            }
        }
    }
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn accepts_the_shared_surface() {
        assert_eq!(parse(&args(&[])), Ok(HarnessArgs::default()));
        assert_eq!(
            parse(&args(&["--quick"])),
            Ok(HarnessArgs { quick: true, ..Default::default() })
        );
        assert_eq!(
            parse(&args(&["--quick", "--threads", "4"])),
            Ok(HarnessArgs { quick: true, threads: Some(4), ..Default::default() })
        );
        assert_eq!(
            parse(&args(&["--corpus", "--quick"])),
            Ok(HarnessArgs { quick: true, corpus: true, ..Default::default() })
        );
        assert_eq!(
            parse(&args(&["--threads=0"])),
            Ok(HarnessArgs { threads: Some(0), ..Default::default() })
        );
        assert_eq!(parse(&args(&["-h"])), Ok(HarnessArgs { help: true, ..Default::default() }));
    }

    #[test]
    fn skip_mode_flag_forms() {
        assert_eq!(parse(&args(&[])).unwrap().skip_mode, SkipMode::Off);
        assert_eq!(parse(&args(&["--skip-mode", "off"])).unwrap().skip_mode, SkipMode::Off);
        assert_eq!(parse(&args(&["--skip-mode", "mip"])).unwrap().skip_mode, SkipMode::mip());
        assert_eq!(parse(&args(&["--skip-mode=mip"])).unwrap().skip_mode, SkipMode::mip());
        assert_eq!(
            parse(&args(&["--skip-mode", "mip:2"])).unwrap().skip_mode,
            SkipMode::Mip { levels: 2 }
        );
        assert_eq!(
            parse(&args(&["--skip-mode=mip:0"])).unwrap().skip_mode,
            SkipMode::Mip { levels: 0 }
        );
        assert_eq!(parse(&args(&["--skip-mode"])), Err(ArgError::MissingValue("--skip-mode")));
        for bad in ["mips", "on", "mip:", "mip:x", ""] {
            assert_eq!(
                parse(&args(&["--skip-mode", bad])),
                Err(ArgError::BadValue { flag: "--skip-mode", value: bad.to_string() }),
                "`{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn source_flag_forms() {
        assert_eq!(parse(&args(&[])).unwrap().source, SourceMode::SpNerf);
        assert_eq!(parse(&args(&["--source", "spnerf"])).unwrap().source, SourceMode::SpNerf);
        assert_eq!(parse(&args(&["--source", "baked"])).unwrap().source, SourceMode::Baked);
        assert_eq!(parse(&args(&["--source=baked"])).unwrap().source, SourceMode::Baked);
        assert_eq!(parse(&args(&["--source"])), Err(ArgError::MissingValue("--source")));
        for bad in ["bake", "deferred", "BAKED", ""] {
            assert_eq!(
                parse(&args(&["--source", bad])),
                Err(ArgError::BadValue { flag: "--source", value: bad.to_string() }),
                "`{bad}` must be rejected"
            );
        }
        assert_eq!(SourceMode::SpNerf.name(), "spnerf");
        assert_eq!(SourceMode::Baked.name(), "baked");
    }

    #[test]
    fn sparse_format_flag_forms() {
        assert_eq!(parse(&args(&[])).unwrap().sparse_format, FormatSelection::Auto);
        assert_eq!(
            parse(&args(&["--sparse-format", "auto"])).unwrap().sparse_format,
            FormatSelection::Auto
        );
        for kind in FormatKind::ALL {
            assert_eq!(
                parse(&args(&["--sparse-format", kind.name()])).unwrap().sparse_format,
                FormatSelection::Fixed(kind),
                "space form for {kind}"
            );
            let eq_form = format!("--sparse-format={}", kind.name());
            assert_eq!(
                parse(&args(&[&eq_form])).unwrap().sparse_format,
                FormatSelection::Fixed(kind),
                "= form for {kind}"
            );
        }
        assert_eq!(
            parse(&args(&["--sparse-format"])),
            Err(ArgError::MissingValue("--sparse-format"))
        );
        for bad in ["dense", "COO", "rank-select", ""] {
            assert_eq!(
                parse(&args(&["--sparse-format", bad])),
                Err(ArgError::BadValue { flag: "--sparse-format", value: bad.to_string() }),
                "`{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn serve_flag_forms() {
        let none = parse(&args(&["--quick"])).unwrap();
        assert_eq!(none.serve_flag(), None);

        let all = parse(&args(&[
            "--seed",
            "7",
            "--duration-ticks=4000",
            "--cache-bytes",
            "1500000",
            "--replay",
            "trace.txt",
            "--zipf-s=1.1",
        ]))
        .unwrap();
        assert_eq!(all.seed, Some(7));
        assert_eq!(all.duration_ticks, Some(4000));
        assert_eq!(all.cache_bytes, Some(1_500_000));
        assert_eq!(all.replay.as_deref(), Some("trace.txt"));
        assert_eq!(all.zipf_s, Some(1.1));
        assert_eq!(all.serve_flag(), Some("--seed"), "first serve flag wins");

        // Both token forms agree, like every other flag on the surface.
        assert_eq!(parse(&args(&["--seed=9"])).unwrap().seed, Some(9));
        assert_eq!(parse(&args(&["--cache-bytes=0"])).unwrap().cache_bytes, Some(0));
        assert_eq!(parse(&args(&["--replay=a/b.txt"])).unwrap().replay.as_deref(), Some("a/b.txt"));
        assert_eq!(parse(&args(&["--zipf-s", "0"])).unwrap().zipf_s, Some(0.0));
        assert_eq!(
            parse(&args(&["--zipf-s", "0"])).unwrap().serve_flag(),
            Some("--zipf-s"),
            "a uniform exponent is still the serve surface"
        );
    }

    #[test]
    fn serve_flags_reject_missing_and_malformed_values() {
        for flag in ["--seed", "--duration-ticks", "--cache-bytes", "--replay", "--zipf-s"] {
            assert_eq!(
                parse(&args(&[flag])),
                Err(ArgError::MissingValue(flag)),
                "`{flag}` without a value must be rejected"
            );
        }
        assert_eq!(parse(&args(&["--replay="])), Err(ArgError::MissingValue("--replay")));
        for (flag, bad) in [
            ("--seed", "x"),
            ("--seed", "-1"),
            ("--duration-ticks", "0"),
            ("--duration-ticks", "soon"),
            ("--cache-bytes", "1MB"),
            ("--zipf-s", "-0.5"),
            ("--zipf-s", "inf"),
            ("--zipf-s", "NaN"),
        ] {
            assert_eq!(
                parse(&args(&[flag, bad])),
                Err(ArgError::BadValue { flag, value: bad.to_string() }),
                "`{flag} {bad}` must be rejected"
            );
        }
    }

    #[test]
    fn trajectory_flag_forms() {
        assert_eq!(parse(&args(&[])).unwrap().trajectory, None);
        for kind in TrajectoryKind::ALL {
            assert_eq!(
                parse(&args(&["--trajectory", kind.name()])).unwrap().trajectory,
                Some(kind),
                "space form for {}",
                kind.name()
            );
            let eq_form = format!("--trajectory={}", kind.name());
            assert_eq!(
                parse(&args(&[&eq_form])).unwrap().trajectory,
                Some(kind),
                "= form for {}",
                kind.name()
            );
        }
        assert_eq!(parse(&args(&["--trajectory"])), Err(ArgError::MissingValue("--trajectory")));
        for bad in ["spiral", "ORBIT", "orbit8", ""] {
            assert_eq!(
                parse(&args(&["--trajectory", bad])),
                Err(ArgError::BadValue { flag: "--trajectory", value: bad.to_string() }),
                "`{bad}` must be rejected"
            );
        }
        // Each kind names the matching deterministic camera path.
        for kind in TrajectoryKind::ALL {
            let spec = kind.spec(3, 8);
            assert_eq!(spec.cameras().len(), 3, "{} frame count", kind.name());
        }
    }

    #[test]
    fn reuse_mode_flag_forms() {
        assert_eq!(parse(&args(&[])).unwrap().reuse_mode, None);
        assert_eq!(
            parse(&args(&["--reuse-mode", "off"])).unwrap().reuse_mode,
            Some(ReuseMode::Off)
        );
        assert_eq!(
            parse(&args(&["--reuse-mode", "warp"])).unwrap().reuse_mode,
            Some(ReuseMode::warp())
        );
        assert_eq!(
            parse(&args(&["--reuse-mode=warp"])).unwrap().reuse_mode,
            Some(ReuseMode::warp())
        );
        assert_eq!(parse(&args(&["--reuse-mode"])), Err(ArgError::MissingValue("--reuse-mode")));
        for bad in ["on", "WARP", "warp:2", ""] {
            assert_eq!(
                parse(&args(&["--reuse-mode", bad])),
                Err(ArgError::BadValue { flag: "--reuse-mode", value: bad.to_string() }),
                "`{bad}` must be rejected"
            );
        }

        // The fence the non-temporal binaries use, mirroring `serve_flag`.
        assert_eq!(parse(&args(&["--quick"])).unwrap().temporal_flag(), None);
        assert_eq!(
            parse(&args(&["--trajectory", "dolly", "--reuse-mode", "warp"]))
                .unwrap()
                .temporal_flag(),
            Some("--trajectory"),
            "first temporal flag wins"
        );
        assert_eq!(
            parse(&args(&["--reuse-mode", "off"])).unwrap().temporal_flag(),
            Some("--reuse-mode"),
            "an explicit `off` is still the temporal surface"
        );
    }

    #[test]
    fn rejects_unknown_flags_and_positionals() {
        assert_eq!(parse(&args(&["--quik"])), Err(ArgError::UnknownFlag("--quik".to_string())));
        assert_eq!(
            parse(&args(&["lego"])),
            Err(ArgError::UnexpectedPositional("lego".to_string()))
        );
        assert_eq!(parse(&args(&["--threads"])), Err(ArgError::MissingValue("--threads")));
        assert_eq!(
            parse(&args(&["--threads", "many"])),
            Err(ArgError::BadValue { flag: "--threads", value: "many".to_string() })
        );
        assert_eq!(
            parse(&args(&["--threads=x"])),
            Err(ArgError::BadValue { flag: "--threads", value: "x".to_string() })
        );
    }

    #[test]
    fn threads_flag_forms_match_the_engine_parser() {
        // Both `--threads` surfaces must accept the same well-formed token
        // shapes and agree on the value, so the strict bins and the lenient
        // positional examples can never drift apart.
        for toks in [&["--threads", "4"][..], &["--threads=7"][..]] {
            let strict = parse(&args(toks)).expect("cli parser accepts").threads;
            let lenient = spnerf::render::engine::threads_from_args_or_env(&args(toks));
            assert_eq!(strict, lenient, "token forms {toks:?} must agree");
        }
    }

    #[test]
    fn errors_and_usage_render() {
        let u = usage("fig6_memory_psnr");
        assert!(u.contains("--quick") && u.contains("--threads") && u.contains(THREADS_ENV_VAR));
        assert!(u.contains("--corpus"));
        assert!(u.contains("--skip-mode") && u.contains("mip:N"));
        assert!(u.contains("--source") && u.contains("baked"));
        assert!(u.contains("--sparse-format") && u.contains("rank"));
        for serve in ["--seed", "--duration-ticks", "--cache-bytes", "--replay", "--zipf-s"] {
            assert!(u.contains(serve), "usage must document {serve}");
        }
        assert!(u.contains("--trajectory") && u.contains("dolly"));
        assert!(u.contains("--reuse-mode") && u.contains("warp"));
        assert!(ArgError::UnknownFlag("--x".into()).to_string().contains("--x"));
        assert!(ArgError::MissingValue("--threads").to_string().contains("--threads"));
    }
}
