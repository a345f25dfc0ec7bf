//! Strict per-binary CLI parsing for the figure/table binaries and
//! `spnerf_serve`.
//!
//! Each binary declares the [`Flag`]s it reads — a `const FLAGS: &[Flag]`
//! next to its `main` — and passes them to [`parse_or_exit`]. It accepts
//! exactly those flags plus `--help`/`-h`, and **rejects anything else**,
//! including flags another binary declares, with exit 2 and usage text that
//! lists only its own flags. A flag that is silently ignored makes a figure
//! report a configuration it never ran while looking successful, which is
//! strictly worse than failing loudly.
//!
//! [`parse`] is the pure, testable core; [`parse_or_exit`] is the binary
//! entry point that prints usage / errors and, for binaries that declare
//! [`Flag::Threads`], applies the `SPNERF_THREADS` environment fallback.

use spnerf::render::renderer::SkipMode;
use spnerf::render::temporal::{ReuseMode, TrajectorySpec};
use spnerf::voxel::sparse::{FormatKind, FormatSelection};

/// Environment variable [`parse_or_exit`] consults when a binary declares
/// [`Flag::Threads`] and no `--threads` flag is given.
const THREADS_ENV_VAR: &str = "SPNERF_THREADS";

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

/// Parsed harness arguments. A field keeps its default unless the binary
/// declares the flag that sets it.
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
    /// of the eight Synthetic-NeRF scenes.
    pub corpus: bool,
    /// `--skip-mode off|mip`: empty-space skipping policy. Images are
    /// bitwise-identical in both modes; `mip` drops marched samples (and
    /// the cycles derived from them) through the occupancy pyramid.
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
    /// `--seed N`: traffic-generator seed of a synthetic serve trace.
    pub seed: Option<u64>,
    /// `--duration-ticks N`: virtual-clock horizon of a serve run — arrivals
    /// after tick `N` are not generated.
    pub duration_ticks: Option<u64>,
    /// `--cache-bytes N`: byte budget of the serve scene cache.
    pub cache_bytes: Option<usize>,
    /// `--replay FILE`: serve a recorded traffic trace instead of
    /// synthesizing one.
    pub replay: Option<String>,
    /// `--zipf-s S`: Zipf popularity exponent of the synthetic traffic
    /// (`0` = uniform; larger skews toward the head scenes).
    pub zipf_s: Option<f64>,
    /// `--trajectory orbit|dolly|jitter`: restrict the sweep to one
    /// deterministic camera path (default: sweep all three).
    pub trajectory: Option<TrajectoryKind>,
    /// `--reuse-mode off|warp`: restrict the sweep to one frame-to-frame
    /// reuse policy (default: measure both and report the amortization
    /// ratio).
    pub reuse_mode: Option<ReuseMode>,
    /// `--help` / `-h` was requested.
    pub help: bool,
}

/// One flag a binary can declare. The binary's `FLAGS` set decides which
/// of these its command line accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--quick`: the reduced-fidelity preset.
    Quick,
    /// `--threads N`: render worker threads.
    Threads,
    /// `--corpus`: sweep the procedural archetypes.
    Corpus,
    /// `--skip-mode MODE`: empty-space skipping policy.
    SkipMode,
    /// `--source MODE`: primary data path.
    Source,
    /// `--sparse-format F`: occupancy-index encoding.
    SparseFormat,
    /// `--seed N`: traffic-generator seed.
    Seed,
    /// `--duration-ticks N`: serve-run horizon.
    DurationTicks,
    /// `--cache-bytes N`: serve scene-cache budget.
    CacheBytes,
    /// `--replay FILE`: recorded traffic trace.
    Replay,
    /// `--zipf-s S`: Zipf popularity exponent.
    ZipfS,
    /// `--trajectory PATH`: one camera path.
    Trajectory,
    /// `--reuse-mode MODE`: one frame-to-frame reuse policy.
    ReuseMode,
}

impl Flag {
    /// The command-line token, e.g. `--skip-mode`.
    pub fn name(self) -> &'static str {
        self.spec().0
    }

    /// The value placeholder usage prints (`N`, `MODE`, …); `None` for a
    /// switch, which takes no value.
    fn metavar(self) -> Option<&'static str> {
        self.spec().1
    }

    /// `(name, metavar, help)`: the one table [`parse`] and [`usage`] read.
    /// A `\n` in the help text continues it on the next usage line.
    fn spec(self) -> (&'static str, Option<&'static str>, &'static str) {
        match self {
            Flag::Quick => {
                ("--quick", None, "run the reduced-fidelity preset (seconds instead of minutes)")
            }
            Flag::Threads => (
                "--threads",
                Some("N"),
                "render worker threads; 0 = all cores (also: SPNERF_THREADS env var)",
            ),
            Flag::Corpus => (
                "--corpus",
                None,
                "sweep the 5 procedural testkit archetypes instead of the 8 scenes",
            ),
            Flag::SkipMode => (
                "--skip-mode",
                Some("MODE"),
                "empty-space skipping: off (default) or mip (the occupancy\n\
                 pyramid); images are identical in both modes",
            ),
            Flag::Source => (
                "--source",
                Some("MODE"),
                "primary data path: spnerf (default) or baked — the bake-and-defer\n\
                 path whose small view MLP runs once per pixel, not per sample",
            ),
            Flag::SparseFormat => (
                "--sparse-format",
                Some("F"),
                "sparse occupancy-index encoding: auto (default), bitmap, coo,\n\
                 csr, csc, rank, or block; images are identical in every format",
            ),
            Flag::Seed => ("--seed", Some("N"), "traffic-generator seed"),
            Flag::DurationTicks => {
                ("--duration-ticks", Some("N"), "virtual-clock horizon of the serve run")
            }
            Flag::CacheBytes => {
                ("--cache-bytes", Some("N"), "byte budget of the serve scene cache")
            }
            Flag::Replay => (
                "--replay",
                Some("FILE"),
                "serve a recorded traffic trace instead of synthesizing one; the\n\
                 trace fixes its own seed, Zipf exponent and horizon",
            ),
            Flag::ZipfS => ("--zipf-s", Some("S"), "Zipf scene-popularity exponent, 0 = uniform"),
            Flag::Trajectory => (
                "--trajectory",
                Some("PATH"),
                "camera path to sweep: orbit, dolly, or jitter (default sweeps all three)",
            ),
            Flag::ReuseMode => (
                "--reuse-mode",
                Some("MODE"),
                "frame-to-frame reuse: off or warp (default measures both and\n\
                 reports the amortization ratio)",
            ),
        }
    }
}

/// A rejected command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `-`/`--` token the binary does not declare (or a switch given a
    /// value).
    UnknownFlag(String),
    /// A bare positional argument (the harnesses take none).
    UnexpectedPositional(String),
    /// A value-taking flag (`--threads`, `--skip-mode`, `--source`, …)
    /// without a value, or with an empty `--flag=` value.
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

/// The usage text a binary that declares `flags` prints for `--help` and on
/// errors: one entry per declared flag, then `-h, --help`.
pub fn usage(bin: &str, flags: &[Flag]) -> String {
    let mut text = format!("usage: {bin} [options]\n\noptions:\n");
    for &flag in flags {
        let (name, metavar, help) = flag.spec();
        let head = metavar.map_or_else(|| name.to_string(), |m| format!("{name} {m}"));
        let help = help.replace('\n', &format!("\n{:21}", ""));
        text.push_str(&format!("  {head:<18} {help}\n"));
    }
    text.push_str("  -h, --help         print this help");
    if flags.contains(&Flag::Threads) {
        text.push_str("\n\nOutputs are bitwise-identical at every thread count and skip mode.");
    }
    text
}

/// Parses harness arguments (without the leading program name) against the
/// binary's declared `flags`, rejecting anything else. Pure: never consults
/// the environment or exits.
///
/// Each token is split once, at its first `=`, and its name looked up in
/// `flags`. A value flag takes the inline value or the next token; a switch
/// takes none.
///
/// # Errors
///
/// Returns [`ArgError`] for undeclared flags, positionals, and missing or
/// malformed values.
pub fn parse(args: &[String], flags: &[Flag]) -> Result<HarnessArgs, ArgError> {
    let mut out = HarnessArgs::default();
    let mut tokens = args.iter();
    while let Some(token) = tokens.next() {
        if token == "-h" || token == "--help" {
            out.help = true;
            continue;
        }
        let (name, inline) = match token.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (token.as_str(), None),
        };
        let Some(&flag) = flags.iter().find(|f| f.name() == name) else {
            return Err(if token.starts_with('-') {
                ArgError::UnknownFlag(token.clone())
            } else {
                ArgError::UnexpectedPositional(token.clone())
            });
        };
        let value = match (flag.metavar(), inline) {
            (None, None) => "",
            (None, Some(_)) => return Err(ArgError::UnknownFlag(token.clone())),
            (Some(_), Some("")) => return Err(ArgError::MissingValue(flag.name())),
            (Some(_), Some(value)) => value,
            (Some(_), None) => tokens.next().ok_or(ArgError::MissingValue(flag.name()))?,
        };
        let bad = || ArgError::BadValue { flag: flag.name(), value: value.to_string() };
        match flag {
            Flag::Quick => out.quick = true,
            Flag::Corpus => out.corpus = true,
            Flag::Threads => out.threads = Some(value.parse().map_err(|_| bad())?),
            Flag::SkipMode => {
                out.skip_mode = match value {
                    "off" => SkipMode::Off,
                    "mip" => SkipMode::Mip,
                    _ => return Err(bad()),
                }
            }
            Flag::Source => {
                out.source = match value {
                    "spnerf" => SourceMode::SpNerf,
                    "baked" => SourceMode::Baked,
                    _ => return Err(bad()),
                }
            }
            Flag::SparseFormat => {
                out.sparse_format = match value {
                    "auto" => FormatSelection::Auto,
                    _ => FormatSelection::Fixed(FormatKind::from_name(value).ok_or_else(bad)?),
                }
            }
            Flag::Seed => out.seed = Some(value.parse().map_err(|_| bad())?),
            // A zero-tick run would emit a report over an empty sample set;
            // reject it at the surface instead of panicking in a percentile.
            Flag::DurationTicks => {
                out.duration_ticks =
                    Some(value.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(bad)?)
            }
            Flag::CacheBytes => out.cache_bytes = Some(value.parse().map_err(|_| bad())?),
            Flag::Replay => out.replay = Some(value.to_string()),
            Flag::ZipfS => {
                out.zipf_s = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(bad)?,
                )
            }
            Flag::Trajectory => {
                out.trajectory = Some(
                    TrajectoryKind::ALL.into_iter().find(|k| k.name() == value).ok_or_else(bad)?,
                )
            }
            Flag::ReuseMode => {
                out.reuse_mode = Some(match value {
                    "off" => ReuseMode::Off,
                    "warp" => ReuseMode::warp(),
                    _ => return Err(bad()),
                })
            }
        }
    }
    Ok(out)
}

/// Prints `message` and the usage text to stderr and exits 2.
fn exit_with_usage(bin: &str, flags: &[Flag], message: &str) -> ! {
    eprintln!("{bin}: {message}\n\n{}", usage(bin, flags));
    std::process::exit(2);
}

/// Parses the process arguments strictly against the binary's declared
/// `flags`. `--help` prints usage and exits 0; a parse error prints the
/// error plus usage to stderr and exits 2. When `flags` declares
/// [`Flag::Threads`] and no `--threads` flag is given, falls back to the
/// `SPNERF_THREADS` environment variable.
pub fn parse_or_exit(flags: &[Flag]) -> HarnessArgs {
    let argv: Vec<String> = std::env::args().collect();
    let bin = argv
        .first()
        .map(|p| p.rsplit(['/', '\\']).next().unwrap_or(p).to_string())
        .unwrap_or_else(|| "harness".to_string());
    let mut parsed =
        parse(&argv[1..], flags).unwrap_or_else(|e| exit_with_usage(&bin, flags, &e.to_string()));
    if parsed.help {
        println!("{}", usage(&bin, flags));
        std::process::exit(0);
    }
    if parsed.threads.is_none() && flags.contains(&Flag::Threads) {
        if let Ok(v) = std::env::var(THREADS_ENV_VAR) {
            // Same strict contract as the flags: a malformed env var exits 2
            // with usage, never a panic.
            let threads = v.parse().unwrap_or_else(|_| {
                let message = format!("{THREADS_ENV_VAR}: expected a thread count, got `{v}`");
                exit_with_usage(&bin, flags, &message)
            });
            parsed.threads = Some(threads);
        }
    }
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flag: the value rules below do not depend on which binary
    /// declares a flag, only that one does.
    const EVERY: &[Flag] = &[
        Flag::Quick,
        Flag::Threads,
        Flag::Corpus,
        Flag::SkipMode,
        Flag::Source,
        Flag::SparseFormat,
        Flag::Seed,
        Flag::DurationTicks,
        Flag::CacheBytes,
        Flag::Replay,
        Flag::ZipfS,
        Flag::Trajectory,
        Flag::ReuseMode,
    ];
    /// `fig6_memory_psnr`'s declared set.
    const FIG6: &[Flag] = &[Flag::Quick, Flag::Threads, Flag::Corpus, Flag::SkipMode];
    /// `spnerf_serve`'s declared set.
    const SERVE: &[Flag] = &[
        Flag::Quick,
        Flag::Threads,
        Flag::SkipMode,
        Flag::Seed,
        Flag::DurationTicks,
        Flag::CacheBytes,
        Flag::Replay,
        Flag::ZipfS,
    ];

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    /// Parses against [`EVERY`].
    fn parse_any(s: &[&str]) -> Result<HarnessArgs, ArgError> {
        parse(&args(s), EVERY)
    }

    #[test]
    fn accepts_the_shared_surface() {
        let p = |s: &[&str]| parse(&args(s), FIG6);
        assert_eq!(p(&[]), Ok(HarnessArgs::default()));
        assert_eq!(p(&["--quick"]), Ok(HarnessArgs { quick: true, ..Default::default() }));
        assert_eq!(
            p(&["--quick", "--threads", "4"]),
            Ok(HarnessArgs { quick: true, threads: Some(4), ..Default::default() })
        );
        assert_eq!(
            p(&["--corpus", "--quick"]),
            Ok(HarnessArgs { quick: true, corpus: true, ..Default::default() })
        );
        assert_eq!(p(&["--threads=0"]), Ok(HarnessArgs { threads: Some(0), ..Default::default() }));
        assert_eq!(p(&["-h"]), Ok(HarnessArgs { help: true, ..Default::default() }));
        assert_eq!(
            parse(&args(&["--help"]), &[]),
            Ok(HarnessArgs { help: true, ..Default::default() })
        );
    }

    #[test]
    fn undeclared_flags_are_unknown() {
        // Each flag exists, but not in the binary's declared set.
        assert_eq!(
            parse(&args(&["--seed", "7"]), FIG6),
            Err(ArgError::UnknownFlag("--seed".to_string()))
        );
        assert_eq!(
            parse(&args(&["--source=baked"]), FIG6),
            Err(ArgError::UnknownFlag("--source=baked".to_string()))
        );
        assert_eq!(
            parse(&args(&["--quick", "--sparse-format", "coo"]), SERVE),
            Err(ArgError::UnknownFlag("--sparse-format".to_string()))
        );
        assert_eq!(
            parse(&args(&["--corpus"]), &[Flag::Quick]),
            Err(ArgError::UnknownFlag("--corpus".to_string()))
        );
    }

    #[test]
    fn every_value_flag_takes_both_forms() {
        let table = [
            (Flag::Threads, "4"),
            (Flag::SkipMode, "mip"),
            (Flag::Source, "baked"),
            (Flag::SparseFormat, "coo"),
            (Flag::Seed, "9"),
            (Flag::DurationTicks, "4000"),
            (Flag::CacheBytes, "0"),
            (Flag::Replay, "a/b.txt"),
            (Flag::ZipfS, "1.1"),
            (Flag::Trajectory, "dolly"),
            (Flag::ReuseMode, "warp"),
        ];
        assert_eq!(table.len(), EVERY.iter().filter(|f| f.metavar().is_some()).count());
        for (flag, value) in table {
            let name = flag.name();
            let spaced = parse_any(&[name, value]);
            assert!(spaced.is_ok(), "`{name} {value}` must parse: {spaced:?}");
            assert_eq!(parse_any(&[&format!("{name}={value}")]), spaced, "{name}: forms agree");
            assert_eq!(parse_any(&[name]), Err(ArgError::MissingValue(name)));
            assert_eq!(parse_any(&[&format!("{name}=")]), Err(ArgError::MissingValue(name)));
        }
        // A switch takes no value in either form.
        assert_eq!(parse_any(&["--quick=1"]), Err(ArgError::UnknownFlag("--quick=1".to_string())));
        assert_eq!(parse_any(&["--corpus="]), Err(ArgError::UnknownFlag("--corpus=".to_string())));
    }

    #[test]
    fn skip_mode_flag_forms() {
        assert_eq!(parse_any(&[]).unwrap().skip_mode, SkipMode::Off);
        assert_eq!(parse_any(&["--skip-mode", "off"]).unwrap().skip_mode, SkipMode::Off);
        assert_eq!(parse_any(&["--skip-mode", "mip"]).unwrap().skip_mode, SkipMode::mip());
        assert_eq!(parse_any(&["--skip-mode=mip"]).unwrap().skip_mode, SkipMode::mip());
        assert_eq!(parse_any(&["--skip-mode"]), Err(ArgError::MissingValue("--skip-mode")));
        for bad in ["mips", "on", "mip:", "mip:x", "mip:0", "mip:2", ""] {
            assert_eq!(
                parse_any(&["--skip-mode", bad]),
                Err(ArgError::BadValue { flag: "--skip-mode", value: bad.to_string() }),
                "`{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn source_flag_forms() {
        assert_eq!(parse_any(&[]).unwrap().source, SourceMode::SpNerf);
        assert_eq!(parse_any(&["--source", "spnerf"]).unwrap().source, SourceMode::SpNerf);
        assert_eq!(parse_any(&["--source", "baked"]).unwrap().source, SourceMode::Baked);
        assert_eq!(parse_any(&["--source=baked"]).unwrap().source, SourceMode::Baked);
        assert_eq!(parse_any(&["--source"]), Err(ArgError::MissingValue("--source")));
        for bad in ["bake", "deferred", "BAKED", ""] {
            assert_eq!(
                parse_any(&["--source", bad]),
                Err(ArgError::BadValue { flag: "--source", value: bad.to_string() }),
                "`{bad}` must be rejected"
            );
        }
        assert_eq!(SourceMode::SpNerf.name(), "spnerf");
        assert_eq!(SourceMode::Baked.name(), "baked");
    }

    #[test]
    fn sparse_format_flag_forms() {
        assert_eq!(parse_any(&[]).unwrap().sparse_format, FormatSelection::Auto);
        assert_eq!(
            parse_any(&["--sparse-format", "auto"]).unwrap().sparse_format,
            FormatSelection::Auto
        );
        for kind in FormatKind::ALL {
            assert_eq!(
                parse_any(&["--sparse-format", kind.name()]).unwrap().sparse_format,
                FormatSelection::Fixed(kind),
                "space form for {kind}"
            );
            let eq_form = format!("--sparse-format={}", kind.name());
            assert_eq!(
                parse_any(&[&eq_form]).unwrap().sparse_format,
                FormatSelection::Fixed(kind),
                "= form for {kind}"
            );
        }
        assert_eq!(parse_any(&["--sparse-format"]), Err(ArgError::MissingValue("--sparse-format")));
        for bad in ["dense", "COO", "rank-select", ""] {
            assert_eq!(
                parse_any(&["--sparse-format", bad]),
                Err(ArgError::BadValue { flag: "--sparse-format", value: bad.to_string() }),
                "`{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn serve_flag_forms() {
        let all = parse(
            &args(&[
                "--seed",
                "7",
                "--duration-ticks=4000",
                "--cache-bytes",
                "1500000",
                "--replay",
                "trace.txt",
                "--zipf-s=1.1",
            ]),
            SERVE,
        )
        .unwrap();
        assert_eq!(all.seed, Some(7));
        assert_eq!(all.duration_ticks, Some(4000));
        assert_eq!(all.cache_bytes, Some(1_500_000));
        assert_eq!(all.replay.as_deref(), Some("trace.txt"));
        assert_eq!(all.zipf_s, Some(1.1));
        assert_eq!(parse(&args(&["--zipf-s", "0"]), SERVE).unwrap().zipf_s, Some(0.0));
    }

    #[test]
    fn serve_flags_reject_missing_and_malformed_values() {
        for flag in ["--seed", "--duration-ticks", "--cache-bytes", "--replay", "--zipf-s"] {
            assert_eq!(
                parse(&args(&[flag]), SERVE),
                Err(ArgError::MissingValue(flag)),
                "`{flag}` without a value must be rejected"
            );
        }
        assert_eq!(parse(&args(&["--replay="]), SERVE), Err(ArgError::MissingValue("--replay")));
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
                parse(&args(&[flag, bad]), SERVE),
                Err(ArgError::BadValue { flag, value: bad.to_string() }),
                "`{flag} {bad}` must be rejected"
            );
        }
    }

    #[test]
    fn trajectory_flag_forms() {
        assert_eq!(parse_any(&[]).unwrap().trajectory, None);
        for kind in TrajectoryKind::ALL {
            assert_eq!(
                parse_any(&["--trajectory", kind.name()]).unwrap().trajectory,
                Some(kind),
                "space form for {}",
                kind.name()
            );
            let eq_form = format!("--trajectory={}", kind.name());
            assert_eq!(
                parse_any(&[&eq_form]).unwrap().trajectory,
                Some(kind),
                "= form for {}",
                kind.name()
            );
        }
        assert_eq!(parse_any(&["--trajectory"]), Err(ArgError::MissingValue("--trajectory")));
        for bad in ["spiral", "ORBIT", "orbit8", ""] {
            assert_eq!(
                parse_any(&["--trajectory", bad]),
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
        assert_eq!(parse_any(&[]).unwrap().reuse_mode, None);
        assert_eq!(parse_any(&["--reuse-mode", "off"]).unwrap().reuse_mode, Some(ReuseMode::Off));
        assert_eq!(
            parse_any(&["--reuse-mode", "warp"]).unwrap().reuse_mode,
            Some(ReuseMode::warp())
        );
        assert_eq!(parse_any(&["--reuse-mode=warp"]).unwrap().reuse_mode, Some(ReuseMode::warp()));
        assert_eq!(parse_any(&["--reuse-mode"]), Err(ArgError::MissingValue("--reuse-mode")));
        for bad in ["on", "WARP", "warp:2", ""] {
            assert_eq!(
                parse_any(&["--reuse-mode", bad]),
                Err(ArgError::BadValue { flag: "--reuse-mode", value: bad.to_string() }),
                "`{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn rejects_unknown_flags_and_positionals() {
        assert_eq!(parse_any(&["--quik"]), Err(ArgError::UnknownFlag("--quik".to_string())));
        assert_eq!(parse_any(&["lego"]), Err(ArgError::UnexpectedPositional("lego".to_string())));
        assert_eq!(
            parse_any(&["seed=3"]),
            Err(ArgError::UnexpectedPositional("seed=3".to_string()))
        );
        assert_eq!(parse_any(&["--threads"]), Err(ArgError::MissingValue("--threads")));
        assert_eq!(
            parse_any(&["--threads", "many"]),
            Err(ArgError::BadValue { flag: "--threads", value: "many".to_string() })
        );
        assert_eq!(
            parse_any(&["--threads=x"]),
            Err(ArgError::BadValue { flag: "--threads", value: "x".to_string() })
        );
    }

    #[test]
    fn errors_and_usage_render() {
        // Usage names exactly the declared flags, in declaration order.
        for set in [FIG6, SERVE, &[Flag::Quick][..], EVERY] {
            let u = usage("bin", set);
            let named: Vec<&str> = u
                .lines()
                .filter_map(|l| l.strip_prefix("  "))
                .filter(|l| l.starts_with('-'))
                .filter_map(|l| l.split_whitespace().next())
                .collect();
            let mut declared: Vec<&str> = set.iter().map(|f| f.name()).collect();
            declared.push("-h,");
            assert_eq!(named, declared);
            for flag in EVERY {
                assert_eq!(u.contains(flag.name()), set.contains(flag), "{}", flag.name());
            }
            assert_eq!(u.contains(THREADS_ENV_VAR), set.contains(&Flag::Threads));
        }
        let u = usage("bin", EVERY);
        assert!(u.contains("mip") && u.contains("baked") && u.contains("rank"));
        assert!(u.contains("dolly") && u.contains("warp"));
        assert!(ArgError::UnknownFlag("--x".into()).to_string().contains("--x"));
        assert!(ArgError::MissingValue("--threads").to_string().contains("--threads"));
    }
}
