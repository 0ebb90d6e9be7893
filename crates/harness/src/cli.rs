//! Flag parsing shared by the `serve`, `client`, `run`, `chaos` and
//! `snapfuzz` subcommands. A missing or malformed value is a usage
//! error: the parser returns its message and the subcommand reports it
//! with [`usage_error`] (`error: … (see --help)`, exit 2), never a panic.

use std::str::FromStr;

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
}

/// Reads a seed: hexadecimal with a `0x` prefix, decimal without one.
pub(crate) fn parse_seed(v: &str) -> Option<u64> {
    let v = v.trim();
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

/// Whether a command line asks for its usage text.
pub(crate) fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

/// Reports a bad command line; returns the exit code 2.
pub(crate) fn usage_error(msg: &str) -> i32 {
    eprintln!("error: {msg} (see --help)");
    2
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let line: Vec<String> = ["--jobs", "x", "--seed"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut args = Args::new(&line);
        assert_eq!(args.flag(), Some("--jobs"));
        assert_eq!(
            args.parse::<usize>("--jobs needs a worker count"),
            Err("--jobs needs a worker count, got `x`".to_string())
        );
        assert_eq!(args.flag(), Some("--seed"));
        assert_eq!(
            args.seed("--seed needs a number"),
            Err("--seed needs a number".to_string())
        );
        assert_eq!(args.flag(), None);
    }
}
