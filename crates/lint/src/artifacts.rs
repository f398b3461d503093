//! `trim-lint --artifacts`: the experiment-registry cross-checker.
//!
//! The repo's reproducibility story has four legs that can silently
//! drift apart: the experiment registry (`crates/bench/src/registry.rs`),
//! the narrative (`EXPERIMENTS.md`), the committed goldens (`results/`),
//! and the fuzz corpus (`corpus/*.spec`). This mode verifies, without
//! running a single simulation, that they still agree:
//!
//! - **TL101** — every registered experiment id appears in an
//!   `EXPERIMENTS.md` heading as the backticked bare id (`` `<id>` ``),
//!   matched exactly: `` `large_scale_100k` `` does not document
//!   `large_scale`.
//! - **TL102** — every artifact an experiment declares exists as
//!   `results/<name>.csv`, and conversely every committed top-level
//!   results CSV is declared by some experiment (no orphans).
//! - **TL103** — every declared artifact name appears as a string
//!   literal in the experiment's module, so the registry cannot claim
//!   CSVs the code no longer produces.
//! - **TL104** — every `corpus/*.spec` parses with
//!   `trim_workload::spec`, validates, and round-trips exactly through
//!   `to_text`/`from_text`.
//!
//! The registry is read *statically* with the same lexer the source
//! rules use: `id: "…"`, `campaign: experiments::<module>::…` and
//! `artifacts: &[…]` fields of each `ExperimentSpec` entry.

use std::fs;
use std::path::Path;

use trim_workload::spec::ScenarioSpec;

use crate::diag::Diagnostic;
use crate::lexer::{lex, TokenKind};

/// One experiment as declared in the registry source.
#[derive(Clone, Debug, Default)]
pub struct RegistryEntry {
    /// Stable id (`--only` key).
    pub id: String,
    /// Module under `experiments::` that builds the campaign.
    pub module: String,
    /// Declared top-level `results/*.csv` artifact stems.
    pub artifacts: Vec<String>,
    /// Line of the `id:` field, for diagnostics.
    pub line: u32,
}

const REGISTRY: &str = "crates/bench/src/registry.rs";
const EXPERIMENTS_MD: &str = "EXPERIMENTS.md";

fn art_diag(
    code: &'static str,
    rule: &'static str,
    path: &str,
    line: u32,
    msg: String,
) -> Diagnostic {
    Diagnostic {
        code,
        rule,
        path: path.to_string(),
        line,
        message: msg,
        severity: crate::diag::Severity::Deny,
    }
}

/// Statically parses the registry source into its entries.
pub fn parse_registry(src: &str) -> Result<Vec<RegistryEntry>, String> {
    let tokens = lex(src);
    let sig: Vec<_> = tokens.iter().filter(|t| !t.is_trivia()).collect();
    let text = |k: usize| -> &str { &src[sig[k].start..sig[k].end] };
    let mut entries: Vec<RegistryEntry> = Vec::new();
    let mut cur: Option<RegistryEntry> = None;
    let mut k = 0usize;
    while k < sig.len() {
        match text(k) {
            // The struct declaration also contains `id:` — only a string
            // literal value starts an entry.
            "id" if k + 2 < sig.len()
                && text(k + 1) == ":"
                && sig[k + 2].kind == TokenKind::Str =>
            {
                if let Some(e) = cur.take() {
                    entries.push(e);
                }
                cur = Some(RegistryEntry {
                    id: unquote(text(k + 2)),
                    line: sig[k].line,
                    ..RegistryEntry::default()
                });
                k += 3;
            }
            "campaign" if k + 4 < sig.len() && text(k + 1) == ":" => {
                if let Some(e) = cur.as_mut() {
                    if text(k + 2) == "experiments" && text(k + 3) == "::" {
                        e.module = text(k + 4).to_string();
                    }
                }
                k += 5;
            }
            "artifacts" if k + 3 < sig.len() && text(k + 1) == ":" => {
                // artifacts: &["a", "b", …]
                let mut j = k + 2;
                while j < sig.len() && text(j) != "[" {
                    j += 1;
                }
                j += 1;
                while j < sig.len() && text(j) != "]" {
                    if sig[j].kind == TokenKind::Str {
                        if let Some(e) = cur.as_mut() {
                            e.artifacts.push(unquote(text(j)));
                        }
                    }
                    j += 1;
                }
                k = j + 1;
            }
            _ => k += 1,
        }
    }
    if let Some(e) = cur.take() {
        entries.push(e);
    }
    if entries.is_empty() {
        return Err(format!("{REGISTRY}: no ExperimentSpec entries found"));
    }
    Ok(entries)
}

fn unquote(s: &str) -> String {
    s.trim_matches('"').to_string()
}

/// Whether the module's source can plausibly produce the artifact name
/// `a`: either it contains `"a"` verbatim, or it contains a format
/// string (a literal with `{…}` holes) whose fixed fragments match `a`
/// in order — e.g. `"fig4_6_{name}_detail"` produces
/// `fig4_6_reno_detail`. Fragments must anchor at both ends when the
/// literal does, and at least 4 fixed bytes are required so generic
/// format strings like `"{t:.1}"` never match.
fn module_produces(module_src: &str, a: &str) -> bool {
    for tok in lex(module_src) {
        if tok.kind != TokenKind::Str {
            continue;
        }
        let lit = unquote(&module_src[tok.start..tok.end]);
        if lit == a {
            return true;
        }
        if lit.contains('{') && format_matches(&lit, a) {
            return true;
        }
    }
    false
}

/// Matches a `format!`-style template's fixed fragments against `name`.
fn format_matches(template: &str, name: &str) -> bool {
    let mut frags: Vec<&str> = Vec::new();
    let mut rest = template;
    loop {
        match rest.find('{') {
            Some(open) => {
                frags.push(&rest[..open]);
                match rest[open..].find('}') {
                    Some(close) => rest = &rest[open + close + 1..],
                    None => return false, // malformed template
                }
            }
            None => {
                frags.push(rest);
                break;
            }
        }
    }
    let fixed: usize = frags.iter().map(|f| f.len()).sum();
    if fixed < 4 || frags.is_empty() {
        return false;
    }
    let mut pos = 0usize;
    for (i, frag) in frags.iter().enumerate() {
        if frag.is_empty() {
            continue;
        }
        let found = match name[pos..].find(frag) {
            Some(off) => pos + off,
            None => return false,
        };
        if i == 0 && found != 0 {
            return false; // template starts with a fixed prefix
        }
        pos = found + frag.len();
    }
    // A fixed tail in the template must also terminate the name.
    match frags.last() {
        Some(tail) if !tail.is_empty() => name.ends_with(tail) && pos == name.len(),
        _ => true,
    }
}

/// TL101: one diagnostic per experiment that no `EXPERIMENTS.md`
/// heading names as its backticked bare id.
fn undocumented(entries: &[RegistryEntry], experiments_md: &str) -> Vec<Diagnostic> {
    let headings: Vec<&str> = experiments_md
        .lines()
        .filter(|l| l.starts_with('#'))
        .collect();
    let documented = |id: &str| headings.iter().any(|h| h.contains(&format!("`{id}`")));
    let diag = |e: &RegistryEntry| {
        let msg = format!(
            "experiment `{0}` has no EXPERIMENTS.md section: add a heading naming \
             it as `` `{0}` `` describing paper vs. measured",
            e.id
        );
        art_diag("TL101", "artifact-experiment-doc", REGISTRY, e.line, msg)
    };
    entries
        .iter()
        .filter(|e| !documented(&e.id))
        .map(diag)
        .collect()
}

/// Runs every artifact cross-check against the workspace at `root`.
pub fn check_artifacts(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut out = Vec::new();
    let reg_src = fs::read_to_string(root.join(REGISTRY))
        .map_err(|e| format!("cannot read {REGISTRY}: {e}"))?;
    let entries = parse_registry(&reg_src)?;
    let experiments_md = fs::read_to_string(root.join(EXPERIMENTS_MD))
        .map_err(|e| format!("cannot read {EXPERIMENTS_MD}: {e}"))?;
    out.extend(undocumented(&entries, &experiments_md));

    let mut declared: Vec<String> = Vec::new();
    for e in &entries {
        // TL102 (forward): every declared artifact must be committed.
        let module_path = format!("crates/bench/src/experiments/{}.rs", e.module);
        let module_src = fs::read_to_string(root.join(&module_path)).unwrap_or_default();
        for a in &e.artifacts {
            declared.push(a.clone());
            let csv = format!("results/{a}.csv");
            if !root.join(&csv).is_file() {
                out.push(art_diag(
                    "TL102",
                    "artifact-results-csv",
                    REGISTRY,
                    e.line,
                    format!(
                        "experiment `{}` declares artifact `{a}` but `{csv}` is not \
                         committed; run the campaign and commit the golden",
                        e.id
                    ),
                ));
            }
            // TL103: the module must actually produce that artifact name,
            // either as a verbatim literal or through a format string.
            if !module_produces(&module_src, a) {
                out.push(art_diag(
                    "TL103",
                    "artifact-stale-declaration",
                    REGISTRY,
                    e.line,
                    format!(
                        "experiment `{}` declares artifact `{a}` but `{module_path}` \
                         never names it; the registry declaration is stale",
                        e.id
                    ),
                ));
            }
        }
        if e.artifacts.is_empty() {
            out.push(art_diag(
                "TL103",
                "artifact-stale-declaration",
                REGISTRY,
                e.line,
                format!(
                    "experiment `{}` declares no artifacts; every campaign reduces to \
                     at least one committed CSV",
                    e.id
                ),
            ));
        }
    }

    // TL102 (reverse): no orphaned top-level results CSVs.
    let results_dir = root.join("results");
    if results_dir.is_dir() {
        let mut names: Vec<String> = Vec::new();
        let rd = fs::read_dir(&results_dir).map_err(|e| format!("cannot read results/: {e}"))?;
        for entry in rd.flatten() {
            let p = entry.path();
            if p.extension().and_then(|e| e.to_str()) == Some("csv") {
                if let Some(stem) = p.file_stem().and_then(|s| s.to_str()) {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort();
        for stem in names {
            if !declared.iter().any(|d| d == &stem) {
                out.push(art_diag(
                    "TL102",
                    "artifact-results-csv",
                    &format!("results/{stem}.csv"),
                    0,
                    format!(
                        "committed results CSV `{stem}` is declared by no experiment in \
                         {REGISTRY}; add it to an `artifacts:` list or delete the file"
                    ),
                ));
            }
        }
    }

    // TL104: corpus specs parse, validate and round-trip.
    let corpus = root.join("corpus");
    if corpus.is_dir() {
        let mut specs: Vec<_> = fs::read_dir(&corpus)
            .map_err(|e| format!("cannot read corpus/: {e}"))?
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("spec"))
            .collect();
        specs.sort();
        for path in specs {
            let rel = format!(
                "corpus/{}",
                path.file_name()
                    .and_then(|n| n.to_str())
                    .unwrap_or("<non-utf8>")
            );
            let text = match fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    out.push(art_diag(
                        "TL104",
                        "artifact-corpus-spec",
                        &rel,
                        0,
                        format!("unreadable: {e}"),
                    ));
                    continue;
                }
            };
            match ScenarioSpec::from_text(&text) {
                Err(e) => out.push(art_diag(
                    "TL104",
                    "artifact-corpus-spec",
                    &rel,
                    0,
                    format!("does not parse as a ScenarioSpec: {e}"),
                )),
                Ok(spec) => {
                    if let Err(e) = spec.validate() {
                        out.push(art_diag(
                            "TL104",
                            "artifact-corpus-spec",
                            &rel,
                            0,
                            format!("fails validation: {e}"),
                        ));
                    } else {
                        match ScenarioSpec::from_text(&spec.to_text()) {
                            Ok(again) if again == spec => {}
                            Ok(_) => out.push(art_diag(
                                "TL104",
                                "artifact-corpus-spec",
                                &rel,
                                0,
                                "to_text/from_text round-trip is not the identity".to_string(),
                            )),
                            Err(e) => out.push(art_diag(
                                "TL104",
                                "artifact-corpus-spec",
                                &rel,
                                0,
                                format!("re-parse of to_text output failed: {e}"),
                            )),
                        }
                    }
                }
            }
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
pub static ALL: &[ExperimentSpec] = &[
    ExperimentSpec {
        id: "trace",
        title: "fig1-2 trace characterization",
        campaign: experiments::trace::campaign,
        artifacts: &["fig1_trains", "fig2a_size_cdf"],
    },
    ExperimentSpec {
        id: "large_scale_100k",
        title: "ext",
        campaign: experiments::large_scale::campaign_100k,
        artifacts: &["ext_scale_incast"],
    },
];
"#;

    #[test]
    fn registry_parse_extracts_entries() {
        let entries = parse_registry(SAMPLE).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].id, "trace");
        assert_eq!(entries[0].module, "trace");
        assert_eq!(entries[0].artifacts, ["fig1_trains", "fig2a_size_cdf"]);
        assert_eq!(entries[1].id, "large_scale_100k");
        assert_eq!(entries[1].module, "large_scale");
    }

    #[test]
    fn tl101_matches_the_exact_backticked_id() {
        let entry = |id: &str| RegistryEntry {
            id: id.to_string(),
            ..RegistryEntry::default()
        };
        // Neither the longer id nor a legacy `exp_<id>` binary name that
        // starts with `exp_a` documents `a`.
        let md = "# Doc\n## Longer id (`a_b`, was `exp_a_b`)\n";
        let diags = undocumented(&[entry("a"), entry("a_b")], md);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "TL101");
        assert!(diags[0].message.contains("experiment `a` has"));
    }

    #[test]
    fn registry_parse_rejects_empty() {
        assert!(parse_registry("pub fn nothing() {}").is_err());
    }

    #[test]
    fn format_templates_match_fixed_fragments_in_order() {
        assert!(format_matches("fig4_6_{name}_detail", "fig4_6_reno_detail"));
        assert!(format_matches("fig8_{label}", "fig8_exponential"));
        assert!(!format_matches("fig8_{label}", "fig9_uniform"));
        assert!(!format_matches(
            "fig4_6_{name}_detail",
            "fig4_6_reno_throughput"
        ));
        // Too little fixed text to be meaningful.
        assert!(!format_matches("{t:.1}", "fig8_uniform"));
        assert!(!format_matches("f{flows}_{proto}", "fig8_uniform"));
    }

    #[test]
    fn module_produces_accepts_literal_and_template() {
        let src = r#"fn f() { t.push(("fig10_fairness".to_string(), x)); let n = format!("fig10_{proto}"); }"#;
        assert!(module_produces(src, "fig10_fairness"));
        assert!(module_produces(src, "fig10_tcp"));
        assert!(!module_produces(src, "fig11_multihop"));
    }
}
