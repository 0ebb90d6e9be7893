//! Flag parsing shared by every `experiments` subcommand. Each one runs
//! through [`command`]: `--help` or `-h` prints its usage on stderr and
//! exits 0; a missing or malformed value, or an unknown flag, is a usage
//! error (`error: … (see --help)`, exit 2), never a panic.

use std::str::FromStr;

/// The most worker threads any subcommand's `--jobs` may ask for.
pub(crate) const MAX_JOBS: usize = 1024;

/// The default `--jobs`: the host's available parallelism, at most
/// [`MAX_JOBS`].
pub(crate) fn default_jobs() -> usize {
    ss_types::exec::default_jobs().min(MAX_JOBS)
}

/// The flags and values of one subcommand's command line, in order.
pub(crate) struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    pub(crate) fn new(args: &'a [String]) -> Self {
        Args(args.iter())
    }

    /// The next flag, `None` at the end of the line.
    pub(crate) fn flag(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value after a flag; `need` is the message when it is missing
    /// (`--socket needs a path`).
    pub(crate) fn value(&mut self, need: &str) -> Result<&'a str, String> {
        self.flag().ok_or_else(|| need.to_string())
    }

    /// The value after a flag, parsed as a `T`.
    pub(crate) fn parse<T: FromStr>(&mut self, need: &str) -> Result<T, String> {
        let v = self.value(need)?;
        v.parse().map_err(|_| format!("{need}, got `{v}`"))
    }

    /// The value after a flag, read as a seed by [`parse_seed`].
    pub(crate) fn seed(&mut self, need: &str) -> Result<u64, String> {
        let v = self.value(need)?;
        parse_seed(v).ok_or_else(|| format!("{need}, got `{v}`"))
    }

    /// The value after `--jobs`: a worker count from 1 to [`MAX_JOBS`].
    pub(crate) fn jobs(&mut self) -> Result<usize, String> {
        let need = format!("--jobs needs a worker count from 1 to {MAX_JOBS}");
        let v = self.value(&need)?;
        match v.parse() {
            Ok(n) if (1..=MAX_JOBS).contains(&n) => Ok(n),
            _ => Err(format!("{need}, got `{v}`")),
        }
    }
}

/// Reads a seed: hexadecimal with a `0x` prefix, decimal without one.
pub(crate) fn parse_seed(v: &str) -> Option<u64> {
    let v = v.trim();
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

/// Runs one subcommand. `--help` or `-h` anywhere on the line prints
/// `usage` on stderr and returns 0; a line `parse` rejects is reported
/// as a usage error and returns 2; otherwise `run` gets the parsed line
/// and returns the exit code.
pub(crate) fn command<T>(
    args: &[String],
    usage: &str,
    parse: impl FnOnce(&[String]) -> Result<T, String>,
    run: impl FnOnce(T) -> i32,
) -> i32 {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{usage}");
        return 0;
    }
    match parse(args) {
        Ok(parsed) => run(parsed),
        Err(msg) => {
            eprintln!("error: {msg} (see --help)");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn seeds_are_hex_with_a_prefix_and_decimal_without() {
        assert_eq!(parse_seed("10"), Some(10));
        assert_eq!(parse_seed("0x10"), Some(16));
        assert_eq!(parse_seed(" 0xC4A05 "), Some(0xC4A05));
        assert_eq!(parse_seed("zz"), None);
        assert_eq!(parse_seed("0x"), None);
        assert_eq!(parse_seed("ff"), None);
    }

    #[test]
    fn missing_and_malformed_values_are_messages() {
        let line = line(&["--jobs", "x", "--seed"]);
        let mut args = Args::new(&line);
        assert_eq!(args.flag(), Some("--jobs"));
        assert_eq!(
            args.jobs(),
            Err("--jobs needs a worker count from 1 to 1024, got `x`".to_string())
        );
        assert_eq!(args.flag(), Some("--seed"));
        assert_eq!(
            args.seed("--seed needs a number"),
            Err("--seed needs a number".to_string())
        );
        assert_eq!(args.flag(), None);
    }

    #[test]
    fn jobs_are_bounded_from_1_to_max_jobs() {
        for (v, want) in [
            ("0", None),
            ("1", Some(1)),
            ("1024", Some(MAX_JOBS)),
            ("1025", None),
            ("50000", None),
            ("-1", None),
        ] {
            let line = line(&[v]);
            assert_eq!(Args::new(&line).jobs().ok(), want, "--jobs {v}");
        }
        assert!(Args::new(&[]).jobs().is_err(), "missing count");
    }

    #[test]
    fn help_wins_over_a_bad_line_and_errors_exit_2() {
        let parse = |_: &[String]| -> Result<(), String> { Err("bad".into()) };
        let ran = |()| 7;
        assert_eq!(
            command(&line(&["--jobs", "x", "-h"]), "usage", parse, ran),
            0
        );
        assert_eq!(command(&line(&["--jobs", "x"]), "usage", parse, ran), 2);
        assert_eq!(command(&line(&[]), "usage", |_| Ok(()), ran), 7);
    }
}
