//! Minimal ASCII table rendering for experiment harness output.
//!
//! The paper-figure experiments print the same rows/series the paper
//! reports; a small fixed-width table keeps that output readable without
//! pulling in a formatting crate.

use std::fmt::Write as _;

/// A simple column-aligned ASCII table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Rows shorter than the header are right-padded with
    /// empty cells; longer rows extend the implicit width.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string with column alignment and a header underline.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        let consider = |widths: &mut Vec<usize>, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        };
        consider(&mut widths, &self.header);
        for r in &self.rows {
            consider(&mut widths, r);
        }

        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, width) in widths.iter().enumerate().take(ncols) {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let pad = width.saturating_sub(cell.chars().count());
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                for _ in 0..pad {
                    out.push(' ');
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * ncols.saturating_sub(1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for r in &self.rows {
            write_row(&mut out, r);
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Format a float with a sensible number of digits for table cells.
pub fn fmt_f64(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["circuit", "cells", "cost"]);
        t.row(["highway", "56", "0.42"]);
        t.row(["c3540", "2243", "0.3711"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("circuit"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns align: "cells" column starts at same offset in all rows.
        let col = lines[0].find("cells").unwrap();
        assert_eq!(&lines[2][col..col + 2], "56");
    }

    #[test]
    fn handles_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1"]);
        t.row(["1", "2", "3"]);
        let s = t.render();
        assert!(s.contains('3'));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn fmt_f64_ranges() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(12345.6), "12346");
        assert_eq!(fmt_f64(42.1234), "42.12");
        assert_eq!(fmt_f64(0.123456), "0.1235");
    }
}
