//! Strict command-line parsing for `trim-bench` and `trim-check`.
//!
//! Unlike the old `Effort::from_args` (which scanned for `--full` and
//! silently ignored everything else, so a typo like `--ful` ran the
//! quick suite without complaint), this parser rejects unknown flags
//! and malformed values with an error that names the offending
//! argument.

use std::path::PathBuf;

use crate::Effort;

/// Parsed command-line options shared by every benchmark binary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliArgs {
    /// Sweep size: quick (default) or `--full` paper-scale.
    pub effort: Effort,
    /// Worker threads (`--jobs N`); `0` means "available parallelism".
    pub jobs: usize,
    /// Experiment ids selected with `--only a,b`; `None` means all.
    pub only: Option<Vec<String>>,
    /// Recompute jobs even when resumable artifacts exist (`--force`).
    pub force: bool,
    /// Results root (`--results-dir DIR`), default `results/`.
    pub results_dir: PathBuf,
    /// Campaign seed override (`--seed N`).
    pub seed: Option<u64>,
    /// Suppress progress output (`--quiet`).
    pub quiet: bool,
    /// List experiment ids and exit (`--list`).
    pub list: bool,
}

impl Default for CliArgs {
    fn default() -> Self {
        CliArgs {
            effort: Effort::Quick,
            jobs: 0,
            only: None,
            force: false,
            results_dir: PathBuf::from("results"),
            seed: None,
            quiet: false,
            list: false,
        }
    }
}

/// Outcome of parsing: either options to run with, or "print help".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Parsed {
    /// Run with these options.
    Run(CliArgs),
    /// `--help`/`-h` was given; print [`help`] and exit 0.
    Help,
}

/// Parses command-line arguments (without the program name).
///
/// # Errors
///
/// Returns a message naming the offending argument on unknown flags,
/// missing values, values given to valueless flags, malformed numbers,
/// an id repeated in `--only`, or positional arguments.
pub fn parse<I, S>(args: I) -> Result<Parsed, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut out = CliArgs::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let arg = arg.as_ref();
        // Accept both `--flag value` and `--flag=value`.
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg, None),
        };
        if let Some(v) = &inline {
            if VALUELESS.contains(&flag) {
                return Err(format!("{flag} takes no value (got '{v}')"));
            }
        }
        let mut value = |name: &str| -> Result<String, String> {
            match inline.clone() {
                Some(v) => Ok(v),
                None => it
                    .next()
                    .map(|s| s.as_ref().to_string())
                    .ok_or_else(|| format!("{name} requires a value")),
            }
        };
        match flag {
            "--help" | "-h" => return Ok(Parsed::Help),
            "--full" => out.effort = Effort::Full,
            "--quick" => out.effort = Effort::Quick,
            "--force" => out.force = true,
            "--quiet" | "-q" => out.quiet = true,
            "--list" => out.list = true,
            "--jobs" | "-j" => {
                let v = value("--jobs")?;
                out.jobs = v
                    .parse()
                    .map_err(|_| format!("--jobs: '{v}' is not a number"))?;
            }
            "--seed" => {
                let v = value("--seed")?;
                out.seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed: '{v}' is not a u64"))?,
                );
            }
            "--results-dir" => out.results_dir = PathBuf::from(value("--results-dir")?),
            "--only" => {
                let v = value("--only")?;
                let ids: Vec<String> = v
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if ids.is_empty() {
                    return Err("--only requires a comma-separated list of ids".into());
                }
                if let Some((_, dup)) = ids
                    .iter()
                    .enumerate()
                    .find(|(i, id)| ids[..*i].contains(id))
                {
                    return Err(format!("--only: experiment '{dup}' is listed twice"));
                }
                out.only = Some(ids);
            }
            _ if flag.starts_with('-') => {
                return Err(format!("unknown flag '{flag}' (try --help)"))
            }
            _ => {
                return Err(format!(
                    "unexpected argument '{flag}' (experiments are selected with --only)"
                ))
            }
        }
    }
    Ok(Parsed::Run(out))
}

/// Flags that take no value: `--flag=value` is an error for these.
const VALUELESS: &[&str] = &[
    "--help", "-h", "--full", "--quick", "--force", "--quiet", "-q", "--list",
];

/// Parses [`std::env::args`], printing help or an error and exiting as
/// appropriate. `ids` is listed in the help text.
pub fn parse_env_or_exit(program: &str, ids: &[&str]) -> CliArgs {
    match parse(std::env::args().skip(1)) {
        Ok(Parsed::Run(args)) => args,
        Ok(Parsed::Help) => {
            emit(&help(program, ids));
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("{program}: {msg}");
            eprintln!("{}", help(program, ids));
            std::process::exit(2);
        }
    }
}

/// Writes a line to stdout, exiting quietly when the reader has gone
/// away — `trim-bench --list | head` must end like any Unix filter,
/// not with a broken-pipe panic.
pub fn emit(line: &str) {
    use std::io::Write;
    if writeln!(std::io::stdout(), "{line}").is_err() {
        std::process::exit(0);
    }
}

/// Renders the help text.
pub fn help(program: &str, ids: &[&str]) -> String {
    let mut out = format!(
        "usage: {program} [options]\n\
         \n\
         options:\n\
         \x20 --full             paper-scale sweeps (default: quick)\n\
         \x20 --quick            reduced sweeps (the default; minutes, not hours)\n\
         \x20 --only <ids>       run only these experiments (comma-separated)\n\
         \x20 --jobs, -j <N>     worker threads (default: all cores)\n\
         \x20 --force            recompute jobs even when artifacts exist\n\
         \x20 --seed <N>         override every campaign seed\n\
         \x20 --results-dir <D>  results root (default: results/)\n\
         \x20 --quiet, -q        suppress progress output\n\
         \x20 --list             list experiment ids and exit\n\
         \x20 --help, -h         show this help\n"
    );
    if !ids.is_empty() {
        out.push_str("\nexperiments:\n");
        for id in ids {
            out.push_str(&format!("  {id}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn run(args: &[&str]) -> CliArgs {
        match parse(args.iter().copied()).unwrap() {
            Parsed::Run(a) => a,
            Parsed::Help => panic!("unexpected help"),
        }
    }

    #[test]
    fn defaults() {
        let a = run(&[]);
        assert_eq!(a, CliArgs::default());
        assert_eq!(a.effort, Effort::Quick);
    }

    #[test]
    fn full_flags_and_values() {
        let a = run(&[
            "--full",
            "--jobs",
            "4",
            "--only",
            "trace,kmodel",
            "--force",
            "--seed",
            "99",
            "--results-dir",
            "out",
            "--quiet",
        ]);
        assert_eq!(a.effort, Effort::Full);
        assert_eq!(a.jobs, 4);
        assert_eq!(
            a.only.as_deref(),
            Some(&["trace".to_string(), "kmodel".to_string()][..])
        );
        assert!(a.force && a.quiet);
        assert_eq!(a.seed, Some(99));
        assert_eq!(a.results_dir, PathBuf::from("out"));
    }

    #[test]
    fn equals_syntax() {
        let a = run(&["--jobs=8", "--only=trace"]);
        assert_eq!(a.jobs, 8);
        assert_eq!(a.only.as_deref(), Some(&["trace".to_string()][..]));
    }

    #[test]
    fn rejects_typos_and_garbage() {
        assert!(parse(["--ful"]).unwrap_err().contains("--ful"));
        assert!(parse(["trace"]).unwrap_err().contains("--only"));
        assert!(parse(["--jobs", "many"])
            .unwrap_err()
            .contains("not a number"));
        assert!(parse(["--jobs"]).unwrap_err().contains("requires a value"));
        assert!(parse(["--full=yes"])
            .unwrap_err()
            .contains("takes no value"));
        assert!(parse(["--only", ""]).unwrap_err().contains("--only"));
        assert!(parse(["--help=x"])
            .unwrap_err()
            .contains("--help takes no value"));
        assert!(parse(["-h=x"]).unwrap_err().contains("-h takes no value"));
        let dup = parse(["--only", "trace,kmodel,trace"]).unwrap_err();
        assert!(dup.contains("--only") && dup.contains("'trace'"), "{dup}");
    }

    /// `|`-separated flags, values and garbage that the generated
    /// argument vectors are assembled from (including the empty string).
    const FLAGS: &str = "--help|-h|--full|--quick|--force|--quiet|-q|--list|--jobs|-j|--seed|\
                         --results-dir|--only|--ful|-|--|";
    const VALUES: &str = "0|8|-1|18446744073709551616|1e3|trace|kmodel|trace,kmodel|\
                          trace,trace|,|a,,a| a , a |=|x=y||\u{e9}|--only";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        #[test]
        fn parse_never_panics_and_only_is_a_set(
            picks in proptest::collection::vec(
                (0..FLAGS.split('|').count(), 0..VALUES.split('|').count(), 0u8..4),
                0..5,
            )
        ) {
            let (flags, values): (Vec<&str>, Vec<&str>) =
                (FLAGS.split('|').collect(), VALUES.split('|').collect());
            // Each pick is a bare flag, a bare value, or (half the time)
            // `flag=value`.
            let args: Vec<String> = picks
                .iter()
                .map(|&(f, v, form)| match form {
                    0 => flags[f].to_string(),
                    1 => values[v].to_string(),
                    _ => format!("{}={}", flags[f], values[v]),
                })
                .collect();
            if let Ok(Parsed::Run(CliArgs { only: Some(only), .. })) = parse(&args) {
                prop_assert!(!only.is_empty(), "{args:?}");
                for (i, id) in only.iter().enumerate() {
                    prop_assert!(!only[..i].contains(id), "{args:?} -> {only:?}");
                }
            }
        }
    }

    #[test]
    fn help_flag() {
        assert_eq!(parse(["-h"]).unwrap(), Parsed::Help);
        assert!(help("trim-bench", &["trace"]).contains("--only"));
        assert!(help("trim-bench", &["trace"]).contains("trace"));
    }
}
