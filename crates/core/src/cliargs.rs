//! A minimal command-line flag parser for the shipped binaries.
//!
//! The tools take `--key value` options and bare `--flag` switches; no
//! external dependencies. Unknown flags are an error (typos should not
//! silently change a run).

use std::collections::HashMap;

/// Parsed command line: `--key value` pairs and boolean `--switch`es.
#[derive(Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    switches: Vec<String>,
    used: std::cell::RefCell<Vec<String>>,
}

impl Args {
    /// Parse raw arguments (without the program name). `switches` lists the
    /// flags that take no value; everything else starting with `--` expects
    /// one.
    ///
    /// # Errors
    /// Returns a message for a missing value or a positional argument.
    pub fn parse(raw: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected positional argument '{a}'"));
            };
            if switches.contains(&name) {
                args.switches.push(name.to_string());
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{name} expects a value"))?;
                args.values.insert(name.to_string(), value.clone());
            }
        }
        Ok(args)
    }

    /// Boolean switch presence.
    pub fn has(&self, name: &str) -> bool {
        self.mark(name);
        self.switches.iter().any(|s| s == name)
    }

    /// String value of a flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.mark(name);
        self.values.get(name).map(String::as_str)
    }

    /// Required string value.
    ///
    /// # Errors
    /// Message naming the missing flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Parsed numeric value with default.
    ///
    /// # Errors
    /// Message on unparsable input.
    pub fn get_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} expects an integer, got '{v}'")),
        }
    }

    /// Parsed count with default, for flags that must be at least 1 (rank
    /// counts, block sizes, map dimensions): `0` is an error here rather
    /// than a panic deep inside the run.
    ///
    /// # Errors
    /// Message on unparsable input or zero.
    pub fn get_count(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get_usize(name, default)? {
            0 => Err(format!("--{name} must be at least 1, got 0")),
            n => Ok(n),
        }
    }

    /// Parsed float value with default.
    ///
    /// # Errors
    /// Message on unparsable input.
    pub fn get_f64(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} expects a number, got '{v}'")),
        }
    }

    fn mark(&self, name: &str) {
        self.used.borrow_mut().push(name.to_string());
    }

    /// After reading every known flag, reject leftovers (typo guard).
    ///
    /// # Errors
    /// Message naming the first unknown flag.
    pub fn reject_unknown(&self) -> Result<(), String> {
        let used = self.used.borrow();
        for k in self.values.keys() {
            if !used.iter().any(|u| u == k) {
                return Err(format!("unknown flag --{k}"));
            }
        }
        for s in &self.switches {
            if !used.iter().any(|u| u == s) {
                return Err(format!("unknown flag --{s}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_values_and_switches() {
        let a = Args::parse(&raw(&["--db", "x/y", "--ranks", "4", "--protein"]), &["protein"])
            .unwrap();
        assert_eq!(a.get("db"), Some("x/y"));
        assert_eq!(a.get_usize("ranks", 1).unwrap(), 4);
        assert!(a.has("protein"));
        assert!(!a.has("torus"));
        a.reject_unknown().unwrap();
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(&raw(&[]), &[]).unwrap();
        assert_eq!(a.get_usize("block-size", 100).unwrap(), 100);
        assert_eq!(a.get_f64("evalue", 10.0).unwrap(), 10.0);
        assert!(a.require("db").is_err());
    }

    #[test]
    fn rejects_positional_and_missing_value() {
        assert!(Args::parse(&raw(&["stray"]), &[]).is_err());
        assert!(Args::parse(&raw(&["--db"]), &[]).is_err());
    }

    #[test]
    fn rejects_bad_numbers() {
        let a = Args::parse(&raw(&["--ranks", "four"]), &[]).unwrap();
        assert!(a.get_usize("ranks", 1).is_err());
    }

    #[test]
    fn counts_reject_zero() {
        let a = Args::parse(&raw(&["--ranks", "0", "--rows", "3"]), &[]).unwrap();
        let err = a.get_count("ranks", 4).unwrap_err();
        assert!(err.contains("--ranks"), "{err}");
        assert_eq!(a.get_count("rows", 20).unwrap(), 3);
        assert_eq!(a.get_count("cols", 20).unwrap(), 20);
    }

    #[test]
    fn unknown_flags_detected() {
        let a = Args::parse(&raw(&["--db", "x", "--oops", "1"]), &[]).unwrap();
        let _ = a.get("db");
        assert!(a.reject_unknown().is_err());
    }
}
