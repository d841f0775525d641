//! ASCII table and CSV rendering for experiment output.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A simple experiment result table.
///
/// # Examples
///
/// ```
/// use xbar_exp::Table;
///
/// let mut t = Table::new("demo", &["name", "value"]);
/// t.row(["rd53", "544"]);
/// let text = t.to_ascii();
/// assert!(text.contains("rd53"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    #[must_use]
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells are blank, extras are dropped.
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned ASCII table.
    #[must_use]
    pub fn to_ascii(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate().take(cols) {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String| {
            for (c, w) in widths.iter().enumerate() {
                let _ = write!(out, "+{}", "-".repeat(w + 2));
                if c + 1 == cols {
                    out.push('+');
                    out.push('\n');
                }
            }
        };
        line(&mut out);
        for (c, h) in self.headers.iter().enumerate() {
            let _ = write!(out, "| {h:width$} ", width = widths[c]);
        }
        out.push('|');
        out.push('\n');
        line(&mut out);
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                let _ = write!(out, "| {cell:>width$} ", width = widths[c]);
            }
            out.push('|');
            out.push('\n');
        }
        line(&mut out);
        out
    }

    /// Renders RFC-4180-ish CSV (quotes cells containing commas/quotes).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Prints the ASCII rendering to stdout. Once a write fails, as when a
    /// reader has gone away, it prints nothing, as for every line the
    /// `xbar` CLI prints.
    pub fn print(&self) {
        crate::cli::out!("{}", self.to_ascii());
    }

    /// Writes the CSV rendering to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.to_csv())
    }
}

/// Formats a fraction as a percentage with one decimal.
#[must_use]
pub fn pct(fraction: f64) -> String {
    format!("{:.1}", fraction * 100.0)
}

/// Formats seconds with adaptive precision.
#[must_use]
pub fn secs(seconds: f64) -> String {
    if seconds < 0.001 {
        format!("{:.6}", seconds)
    } else {
        format!("{:.4}", seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_contains_all_cells() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(["1", "2"]);
        t.row(["333", "4"]);
        let s = t.to_ascii();
        assert!(s.contains("333"));
        assert!(s.contains("| a"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("t", &["a"]);
        t.row(["x,y"]);
        assert!(t.to_csv().contains("\"x,y\""));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new("t", &["a", "b", "c"]);
        t.row(["only"]);
        assert_eq!(t.len(), 1);
        let s = t.to_csv();
        assert!(s.lines().nth(1).expect("row").contains("only,,"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.985), "98.5");
        assert_eq!(secs(0.0001234), "0.000123");
        assert_eq!(secs(0.25), "0.2500");
    }
}
