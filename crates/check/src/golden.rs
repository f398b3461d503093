//! Field-by-field CSV comparison with explicit tolerances, for the
//! golden-trace regression suite.
//!
//! Campaign CSVs are deterministic functions of `(campaign seed, job
//! key)`, so a re-run should reproduce the committed goldens exactly;
//! the tolerance exists to document the contract (and to absorb a
//! last-digit formatting difference should float formatting ever
//! change) rather than to hide real drift. Cells that parse as `f64`
//! on both sides compare numerically under [`Tolerance`]; all other
//! cells must match as strings.

use core::fmt;
use std::io;
use std::path::Path;

/// Numeric comparison tolerance: cells `x` (expected) and `y` (actual)
/// match when `|x - y| <= abs + rel * max(|x|, |y|)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tolerance {
    /// Relative tolerance.
    pub rel: f64,
    /// Absolute tolerance.
    pub abs: f64,
}

impl Tolerance {
    /// Bit-exact comparison (still via the parsed values, so `1.0` and
    /// `1` match).
    pub const EXACT: Tolerance = Tolerance { rel: 0.0, abs: 0.0 };

    /// The documented default for golden-trace regression: relative
    /// 1e-9, absolute 1e-12 — loose enough to absorb a least-significant
    /// digit of decimal formatting, tight enough that any behavioral
    /// change in the simulator fails the suite.
    pub const GOLDEN: Tolerance = Tolerance {
        rel: 1e-9,
        abs: 1e-12,
    };

    /// Whether two already-parsed numbers match under this tolerance.
    // Exact equality IS the identity fast path of the tolerance itself
    // (it also makes inf == inf match, which the epsilon form cannot).
    #[allow(clippy::float_cmp)]
    pub fn matches(&self, x: f64, y: f64) -> bool {
        if x == y {
            return true;
        }
        (x - y).abs() <= self.abs + self.rel * x.abs().max(y.abs())
    }
}

/// One cell (or structural) difference between an expected and an
/// actual CSV.
#[derive(Clone, Debug, PartialEq)]
pub struct Mismatch {
    /// Which table (file stem or caller-supplied name).
    pub name: String,
    /// 0-based line number (0 is the header row).
    pub line: usize,
    /// 0-based column, when the difference is cell-level.
    pub col: Option<usize>,
    /// The golden value (or shape).
    pub expected: String,
    /// The re-run value (or shape).
    pub actual: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} line {}", self.name, self.line)?;
        if let Some(col) = self.col {
            write!(f, " col {col}")?;
        }
        write!(f, ": expected '{}', got '{}'", self.expected, self.actual)
    }
}

fn cell_matches(expected: &str, actual: &str, tol: Tolerance) -> bool {
    if expected == actual {
        return true;
    }
    match (expected.parse::<f64>(), actual.parse::<f64>()) {
        (Ok(x), Ok(y)) => tol.matches(x, y),
        _ => false,
    }
}

/// Compares two CSV bodies field by field. `name` labels mismatches.
pub fn compare_csv_text(name: &str, expected: &str, actual: &str, tol: Tolerance) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let exp_lines: Vec<&str> = expected.lines().collect();
    let act_lines: Vec<&str> = actual.lines().collect();
    if exp_lines.len() != act_lines.len() {
        out.push(Mismatch {
            name: name.to_string(),
            line: exp_lines.len().min(act_lines.len()),
            col: None,
            expected: format!("{} lines", exp_lines.len()),
            actual: format!("{} lines", act_lines.len()),
        });
    }
    for (i, (e_line, a_line)) in exp_lines.iter().zip(&act_lines).enumerate() {
        let e_cells: Vec<&str> = e_line.split(',').collect();
        let a_cells: Vec<&str> = a_line.split(',').collect();
        if e_cells.len() != a_cells.len() {
            out.push(Mismatch {
                name: name.to_string(),
                line: i,
                col: None,
                expected: format!("{} cells", e_cells.len()),
                actual: format!("{} cells", a_cells.len()),
            });
            continue;
        }
        for (j, (e, a)) in e_cells.iter().zip(&a_cells).enumerate() {
            if !cell_matches(e, a, tol) {
                out.push(Mismatch {
                    name: name.to_string(),
                    line: i,
                    col: Some(j),
                    expected: e.to_string(),
                    actual: a.to_string(),
                });
            }
        }
    }
    out
}

/// Compares two CSV files field by field; the expected file's stem
/// labels any mismatches.
///
/// # Errors
///
/// Propagates filesystem errors (e.g. a missing file) — an absent
/// golden is an error, not a mismatch.
pub fn compare_csv_files(
    expected: &Path,
    actual: &Path,
    tol: Tolerance,
) -> io::Result<Vec<Mismatch>> {
    let name = expected
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let exp = std::fs::read_to_string(expected)?;
    let act = std::fs::read_to_string(actual)?;
    Ok(compare_csv_text(&name, &exp, &act, tol))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_text_matches() {
        assert!(compare_csv_text("t", "a,b\n1,2\n", "a,b\n1,2\n", Tolerance::EXACT).is_empty());
    }

    #[test]
    fn numeric_cells_compare_within_tolerance() {
        let tol = Tolerance {
            rel: 1e-9,
            abs: 0.0,
        };
        assert!(compare_csv_text("t", "x\n1000000000\n", "x\n1000000000.5\n", tol).is_empty());
        let far = compare_csv_text("t", "x\n1.0\n", "x\n1.1\n", tol);
        assert_eq!(far.len(), 1);
        assert_eq!(far[0].col, Some(0));
    }

    #[test]
    fn exact_tolerance_still_equates_formatting_variants() {
        // "1.0" vs "1" parse to the same value.
        assert!(compare_csv_text("t", "x\n1.0\n", "x\n1\n", Tolerance::EXACT).is_empty());
    }

    #[test]
    fn string_cells_must_match_exactly() {
        let d = compare_csv_text("t", "proto\nTRIM\n", "proto\nTCP\n", Tolerance::GOLDEN);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].expected, "TRIM");
        // Percent-suffixed cells are strings, so precision changes are
        // caught even though they contain digits.
        let p = compare_csv_text("t", "u\n80.5%\n", "u\n80.50%\n", Tolerance::GOLDEN);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn structural_differences_are_reported() {
        let rows = compare_csv_text("t", "x\n1\n2\n", "x\n1\n", Tolerance::GOLDEN);
        assert!(rows.iter().any(|m| m.col.is_none()));
        let cols = compare_csv_text("t", "x,y\n1,2\n", "x,y\n1\n", Tolerance::GOLDEN);
        assert!(cols.iter().any(|m| m.col.is_none()));
    }

    #[test]
    fn nan_never_matches() {
        let d = compare_csv_text("t", "x\nNaN\n", "x\nNaN\n", Tolerance::GOLDEN);
        // NaN == NaN textually — accepted as identical strings.
        assert!(d.is_empty());
        let d2 = compare_csv_text("t", "x\nNaN\n", "x\n1\n", Tolerance::GOLDEN);
        assert_eq!(d2.len(), 1);
    }

    #[test]
    fn file_comparison_round_trips() {
        let dir = std::env::temp_dir().join("trim_check_golden_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("g.csv"), "a,b\n1,2\n").unwrap();
        std::fs::write(dir.join("r.csv"), "a,b\n1,2\n").unwrap();
        let d =
            compare_csv_files(&dir.join("g.csv"), &dir.join("r.csv"), Tolerance::GOLDEN).unwrap();
        assert!(d.is_empty());
        assert!(compare_csv_files(
            &dir.join("missing.csv"),
            &dir.join("r.csv"),
            Tolerance::GOLDEN
        )
        .is_err());
    }

    /// CSV-ish fragments: numbers in several spellings, strings,
    /// empty cells, separators and both line endings.
    const FRAGMENTS: &[&str] = &[
        "1", "1.0", "2.5", "-0", "1e300", "NaN", "inf", "TRIM", "80.5%", "", ",", ",", "\n", "\n",
        "\r\n", " ", "\"", "é",
    ];

    fn csvish(picks: &[usize]) -> String {
        picks.iter().map(|&i| FRAGMENTS[i]).collect()
    }

    /// Whether `d` holds the whole-table line-count mismatch.
    fn reports_line_counts(d: &[Mismatch]) -> bool {
        d.iter()
            .any(|m| m.col.is_none() && m.expected.ends_with(" lines"))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        #[test]
        fn comparator_is_reflexive_total_and_counts_lines(
            x in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..40),
            y in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..40),
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
        ) {
            let (x, y) = (csvish(&x), csvish(&y));
            let raw = String::from_utf8_lossy(&bytes).into_owned();
            for t in [&x, &y, &raw] {
                proptest::prop_assert!(compare_csv_text("t", t, t, Tolerance::GOLDEN).is_empty());
            }
            for (e, a) in [(&x, &y), (&y, &raw), (&raw, &x)] {
                let d = compare_csv_text("t", e, a, Tolerance::GOLDEN);
                let differ = e.lines().count() != a.lines().count();
                proptest::prop_assert_eq!(reports_line_counts(&d), differ, "{:?} vs {:?}", e, a);
            }
        }
    }

    #[test]
    fn mismatch_display_names_the_cell() {
        let m = Mismatch {
            name: "fig1".into(),
            line: 3,
            col: Some(2),
            expected: "1.5".into(),
            actual: "1.6".into(),
        };
        let s = m.to_string();
        assert!(s.contains("fig1 line 3 col 2"));
        assert!(s.contains("'1.5'"));
    }
}
