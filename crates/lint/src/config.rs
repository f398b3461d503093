//! `Lint.toml` — the analyzer's configuration.
//!
//! A deliberately small TOML subset, parsed by hand (the workspace
//! builds offline; no `toml` crate): top-level `exclude`, then one
//! `[rule-name]` section per rule with `enabled`, `apply-paths` and
//! `allow-paths` keys. Arrays of strings may span lines. Anything the
//! parser does not understand is a hard error — a silently ignored
//! config key is how a lint rots. That includes values: `enabled`
//! takes only the bare tokens `true` and `false`, so a quoted
//! `"false"` or a typo cannot leave a rule on unnoticed.
//!
//! Path semantics: every entry is a workspace-relative prefix. A rule
//! with `apply-paths` runs only on files under one of those prefixes; a
//! rule's `allow-paths` carves out files the rule never judges (the
//! documented alternative to inline suppressions for whole components,
//! e.g. the wall-clock allowlist for the harness).

use std::collections::BTreeMap;

use crate::diag::Severity;

/// Per-rule configuration.
#[derive(Clone, Debug, Default)]
pub struct RuleConfig {
    /// `false` disables the rule outright.
    pub disabled: bool,
    /// When set, the rule only runs on files under these prefixes.
    pub apply_paths: Option<Vec<String>>,
    /// Files under these prefixes are exempt.
    pub allow_paths: Vec<String>,
    /// `deny` (default) fails the run; `warn` reports but exits 0.
    pub severity: Severity,
    /// Semantic rules only: files under these prefixes do not *seed*
    /// taint (their wall-clock / unordered-map uses are trusted), but
    /// functions in them still propagate taint from elsewhere. This is
    /// how `netsim::hash` vouches for its deterministically-seeded
    /// `HashMap` without exempting its callers.
    pub source_allow_paths: Vec<String>,
}

/// The whole configuration.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Workspace-relative prefixes never scanned at all.
    pub exclude: Vec<String>,
    /// Rule sections by rule name.
    pub rules: BTreeMap<String, RuleConfig>,
}

impl Config {
    /// Parses `Lint.toml` text.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section: Option<String> = None;
        let mut lines = text.lines().enumerate().peekable();
        while let Some((n, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = Some(name.trim().to_string());
                cfg.rules.entry(name.trim().to_string()).or_default();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("Lint.toml:{}: expected `key = value`", n + 1));
            };
            let key = key.trim();
            let mut value = value.trim().to_string();
            // Multi-line arrays: keep consuming lines until brackets
            // close (strings in our config never contain brackets).
            while value.starts_with('[') && !brackets_balanced(&value) {
                let Some((_, next)) = lines.next() else {
                    return Err(format!("Lint.toml:{}: unterminated array", n + 1));
                };
                value.push(' ');
                value.push_str(strip_comment(next).trim());
            }
            match (&section, key) {
                (None, "exclude") => cfg.exclude = parse_string_array(&value, n)?,
                (None, k) => {
                    return Err(format!("Lint.toml:{}: unknown top-level key `{k}`", n + 1))
                }
                (Some(rule), k) => {
                    let rc = cfg.rules.entry(rule.clone()).or_default();
                    match k {
                        "enabled" => {
                            rc.disabled = match value.trim() {
                                "true" => false,
                                "false" => true,
                                v => {
                                    return Err(format!(
                                        "Lint.toml:{}: enabled must be true or false, got {v}",
                                        n + 1
                                    ))
                                }
                            }
                        }
                        "apply-paths" => rc.apply_paths = Some(parse_string_array(&value, n)?),
                        "allow-paths" => rc.allow_paths = parse_string_array(&value, n)?,
                        "source-allow-paths" => {
                            rc.source_allow_paths = parse_string_array(&value, n)?
                        }
                        "severity" => {
                            rc.severity = match value.trim() {
                                "\"deny\"" => Severity::Deny,
                                "\"warn\"" => Severity::Warn,
                                v => {
                                    return Err(format!(
                                    "Lint.toml:{}: severity must be \"deny\" or \"warn\", got {v}",
                                    n + 1
                                ))
                                }
                            }
                        }
                        k => {
                            return Err(format!(
                                "Lint.toml:{}: unknown key `{k}` in [{rule}]",
                                n + 1
                            ))
                        }
                    }
                }
            }
        }
        Ok(cfg)
    }

    /// The configuration for one rule (defaults when absent).
    pub fn rule(&self, name: &str) -> RuleConfig {
        self.rules.get(name).cloned().unwrap_or_default()
    }

    /// The effective severity of one rule (`Deny` unless configured).
    pub fn severity(&self, name: &str) -> Severity {
        self.rule(name).severity
    }

    /// Semantic rules: whether a file's own tokens may seed taint for
    /// `rule` (see [`RuleConfig::source_allow_paths`]).
    pub fn seeds_taint(&self, rule: &str, rel_path: &str) -> bool {
        !self
            .rule(rule)
            .source_allow_paths
            .iter()
            .any(|p| path_under(rel_path, p))
    }

    /// Whether `rel_path` is excluded from scanning entirely.
    pub fn is_excluded(&self, rel_path: &str) -> bool {
        self.exclude.iter().any(|p| path_under(rel_path, p))
    }

    /// Whether a rule judges a given file, per its section.
    pub fn rule_applies(&self, rule: &str, rel_path: &str) -> bool {
        let rc = self.rule(rule);
        if rc.disabled {
            return false;
        }
        if let Some(apply) = &rc.apply_paths {
            if !apply.iter().any(|p| path_under(rel_path, p)) {
                return false;
            }
        }
        !rc.allow_paths.iter().any(|p| path_under(rel_path, p))
    }
}

/// Prefix match on path components: `crates/tcp` covers
/// `crates/tcp/src/conn.rs` but not `crates/tcp2/...`.
fn path_under(path: &str, prefix: &str) -> bool {
    let prefix = prefix.trim_end_matches('/');
    path == prefix || path.starts_with(&format!("{prefix}/"))
}

fn strip_comment(line: &str) -> &str {
    // `#` starts a comment unless inside a quoted string.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn brackets_balanced(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

fn parse_string_array(value: &str, line_no: usize) -> Result<Vec<String>, String> {
    let inner = value
        .trim()
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("Lint.toml:{}: expected a [\"...\"] array", line_no + 1))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue; // trailing comma
        }
        let s = item
            .strip_prefix('"')
            .and_then(|i| i.strip_suffix('"'))
            .ok_or_else(|| format!("Lint.toml:{}: array items must be quoted", line_no + 1))?;
        out.push(s.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# workspace config
exclude = ["target", "crates/lint/tests/fixtures"]

[no-wall-clock]
allow-paths = [
  "crates/harness",   # campaign timing
  "crates/perf",
]

[no-raw-unit-literal]
apply-paths = ["crates/netsim"]
allow-paths = ["crates/netsim/src/units.rs"]

[no-float-eq]
enabled = false
"#;

    #[test]
    fn parses_sections_and_arrays() {
        let c = Config::parse(SAMPLE).unwrap();
        assert!(c.is_excluded("target/debug/foo.rs"));
        assert!(c.is_excluded("crates/lint/tests/fixtures/bad.rs"));
        assert!(!c.is_excluded("crates/lint/tests/fixtures_test.rs"));
        assert!(!c.rule_applies("no-wall-clock", "crates/harness/src/engine.rs"));
        assert!(c.rule_applies("no-wall-clock", "crates/bench/src/lib.rs"));
        assert!(c.rule_applies("no-raw-unit-literal", "crates/netsim/src/time.rs"));
        assert!(!c.rule_applies("no-raw-unit-literal", "crates/netsim/src/units.rs"));
        assert!(!c.rule_applies("no-raw-unit-literal", "crates/tcp/src/conn.rs"));
        assert!(!c.rule_applies("no-float-eq", "crates/core/src/kmodel.rs"));
        assert!(c.rule_applies("no-panic-in-library", "anything.rs"));
    }

    #[test]
    fn prefix_matching_respects_components() {
        assert!(path_under("crates/tcp/src/a.rs", "crates/tcp"));
        assert!(!path_under("crates/tcp2/src/a.rs", "crates/tcp"));
        assert!(path_under("crates/tcp", "crates/tcp"));
    }

    #[test]
    fn unknown_keys_are_hard_errors() {
        assert!(Config::parse("mystery = 3\n").is_err());
        assert!(Config::parse("[no-wall-clock]\ncolor = \"red\"\n").is_err());
    }

    #[test]
    fn severity_and_source_allow_paths() {
        let c = Config::parse(
            "[transitive-wall-clock]\nseverity = \"warn\"\n\
             [transitive-unordered-iteration]\n\
             source-allow-paths = [\"crates/netsim/src/hash.rs\"]\n",
        )
        .unwrap();
        assert_eq!(c.severity("transitive-wall-clock"), Severity::Warn);
        assert_eq!(c.severity("transitive-unordered-iteration"), Severity::Deny);
        assert!(!c.seeds_taint(
            "transitive-unordered-iteration",
            "crates/netsim/src/hash.rs"
        ));
        assert!(c.seeds_taint("transitive-unordered-iteration", "crates/tcp/src/conn.rs"));
        assert!(Config::parse("[transitive-wall-clock]\nseverity = \"loud\"\n").is_err());
    }

    #[test]
    fn enabled_takes_only_bare_booleans() {
        let on = Config::parse("[no-float-eq]\nenabled = true\n").unwrap();
        assert!(on.rule_applies("no-float-eq", "a.rs"));
        let off = Config::parse("[no-float-eq]\nenabled = false  # off\n").unwrap();
        assert!(!off.rule_applies("no-float-eq", "a.rs"));
        for bad in ["\"false\"", "flase", "False", "0", ""] {
            let err = Config::parse(&format!("[no-float-eq]\n\nenabled = {bad}\n")).unwrap_err();
            assert!(
                err.starts_with("Lint.toml:3: enabled must be"),
                "{bad}: {err}"
            );
        }
    }

    /// The workspace's own config, the seed for byte mutations.
    const WORKSPACE_LINT_TOML: &str = include_str!("../../../Lint.toml");

    /// TOML-subset fragments whose concatenations reach every branch
    /// of the parser: sections, keys, arrays (open and unterminated),
    /// quotes, comments, booleans and their near misses.
    const FRAGMENTS: &[&str] = &[
        "[no-wall-clock]",
        "[",
        "]",
        "=",
        " = ",
        "\"",
        "\"crates/tcp\"",
        ",",
        "#",
        "# c\n",
        "\n",
        "exclude",
        "enabled",
        "apply-paths",
        "allow-paths",
        "source-allow-paths",
        "severity",
        "true",
        "false",
        "\"warn\"",
        "flase",
        "é",
        " ",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        #[test]
        fn parse_never_panics_on_fragment_soup_or_bytes(
            picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..48),
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
        ) {
            let soup: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
            let _ = Config::parse(&soup);
            let _ = Config::parse(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn parse_never_panics_on_mutated_workspace_config(
            edits in proptest::collection::vec(
                (proptest::prelude::any::<usize>(), proptest::prelude::any::<u8>(), 0u8..3),
                1..8,
            )
        ) {
            let mut bytes = WORKSPACE_LINT_TOML.as_bytes().to_vec();
            for &(pos, byte, op) in &edits {
                let at = pos % (bytes.len() + 1);
                match op {
                    0 => bytes.insert(at, byte),
                    1 if at < bytes.len() => bytes[at] = byte,
                    _ if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => {}
                }
            }
            let _ = Config::parse(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn workspace_config_parses() {
        Config::parse(WORKSPACE_LINT_TOML).unwrap();
    }

    #[test]
    fn multi_line_arrays() {
        let c = Config::parse("exclude = [\n \"a\",\n \"b\",\n]\n").unwrap();
        assert_eq!(c.exclude, ["a", "b"]);
    }
}
