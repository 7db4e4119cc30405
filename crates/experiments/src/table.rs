//! Plain-text table + CSV output for experiment results.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::Opts;

/// Set once any [`Table::save`] fails (see [`csv_write_failed`]).
static CSV_WRITE_FAILED: AtomicBool = AtomicBool::new(false);

/// Whether any table of this process failed to reach its CSV file. The
/// experiment entry points return tables, not results, so the binary
/// reads this to exit non-zero.
pub fn csv_write_failed() -> bool {
    CSV_WRITE_FAILED.load(Ordering::SeqCst)
}

/// A simple results table that prints aligned text and writes CSV.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column names.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Print the table and [`save`](Table::save) it — what an experiment
    /// does with a finished table.
    pub fn emit(&self, opts: &Opts, name: &str) {
        self.print();
        self.save(opts, name);
    }

    /// Write `<opts.out_dir>/<name>.csv`. A failure is reported on stderr
    /// with the path and the error, and remembered for
    /// [`csv_write_failed`].
    pub fn save(&self, opts: &Opts, name: &str) {
        let path = opts.out_dir.join(format!("{name}.csv"));
        if let Err(e) = self.write_csv(&path) {
            eprintln!("error: cannot write {}: {e}", path.display());
            CSV_WRITE_FAILED.store(true, Ordering::SeqCst);
        }
    }

    /// Write as CSV to `path`, creating its directory.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut f = fs::File::create(path)?;
        writeln!(f, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(())
    }
}

/// Format a float with sensible precision for tables.
pub fn fmt(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["proto", "mbps"]);
        t.row(vec!["pcc".into(), fmt(94.32189)]);
        t.row(vec!["cubic".into(), fmt(8.1)]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("94.3"));
        assert!(s.contains("8.10"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_bad_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_roundtrip() {
        let path = std::env::temp_dir().join("pcc_table_test/demo.csv");
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.write_csv(&path).expect("write");
        let content = std::fs::read_to_string(path).expect("read");
        assert_eq!(content, "a,b\n1,2\n");
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(123.456), "123");
        assert_eq!(fmt(12.345), "12.3");
        assert_eq!(fmt(1.234), "1.23");
        assert_eq!(fmt(0.1234), "0.1234");
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(f64::INFINITY), "inf");
    }
}
