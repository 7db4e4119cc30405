//! The one reader behind every plain-text input: link traces
//! ([`crate::trace::LinkTrace::parse`]), fault scripts
//! ([`crate::fault::FaultScript::parse`]) and flow-size CDFs
//! (`pcc_scenarios::SizeCdf::parse`).
//!
//! Every format shares one line discipline — `#` starts a comment (whole
//! line or trailing), blank lines are skipped, columns are separated by
//! whitespace — and one error discipline: a [`TextError`] names its format
//! and the 1-based line it is about, and parsing never panics. A format
//! only supplies its grammar: what its columns mean and which values are
//! legal.

use std::fmt;

/// A plain-text input that failed to parse: the format, the offending line
/// and why. Line 0 means the input as a whole.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TextError {
    /// The format's name, as the message spells it (`trace`, `fault
    /// script`, `size_cdf`).
    pub format: &'static str,
    /// 1-based line number in the input (0 for whole-input errors).
    pub line: usize,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} line {}: {}", self.format, self.line, self.reason)
    }
}

impl std::error::Error for TextError {}

/// An error in `format` about `line`.
pub fn err(format: &'static str, line: usize, reason: impl Into<String>) -> TextError {
    TextError {
        format,
        line,
        reason: reason.into(),
    }
}

/// Column `tok` of `line` as a finite number; the error names the column
/// as `what`.
pub fn num(format: &'static str, line: usize, tok: &str, what: &str) -> Result<f64, TextError> {
    tok.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| {
            err(
                format,
                line,
                format!("bad {what} `{tok}`: not a finite number"),
            )
        })
}

/// `(1-based line number, whitespace-separated columns)` for every line of
/// `text` that holds anything once its `#` comment is stripped.
pub fn lines(text: &str) -> impl Iterator<Item = (usize, Vec<&str>)> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let cols: Vec<&str> = raw
            .split('#')
            .next()
            .unwrap_or("")
            .split_whitespace()
            .collect();
        (!cols.is_empty()).then_some((i + 1, cols))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_strip_comments_and_count_raw_lines() {
        let got: Vec<_> = lines("# head\n\n a  b # tail\n#\n  c\t d\n").collect();
        assert_eq!(got, vec![(3, vec!["a", "b"]), (5, vec!["c", "d"])]);
    }

    #[test]
    fn num_rejects_junk_and_non_finite_values() {
        assert_eq!(num("demo", 2, "1.5", "rate"), Ok(1.5));
        for tok in ["x", "nan", "inf", "-inf", ""] {
            let e = num("demo", 2, tok, "rate").expect_err(tok);
            assert_eq!(
                e.to_string(),
                format!("demo line 2: bad rate `{tok}`: not a finite number")
            );
        }
    }
}
