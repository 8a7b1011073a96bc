//! Tiny CSV writer for experiment results.
//!
//! Only what the figure harnesses need: header + rows, RFC-4180-style quoting
//! of cells containing commas/quotes/newlines.

/// Accumulates rows and renders them as CSV text.
#[derive(Clone, Debug, Default)]
pub struct CsvWriter {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

fn quote(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

impl CsvWriter {
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        CsvWriter {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the CSV contents to a string.
    pub fn to_string_lossy(&self) -> String {
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| quote(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        emit(&mut out, &self.header);
        for r in &self.rows {
            emit(&mut out, r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_rendering() {
        let mut w = CsvWriter::new(["a", "b"]);
        w.row(["1", "2"]);
        assert_eq!(w.to_string_lossy(), "a,b\n1,2\n");
        assert_eq!(w.len(), 1);
        assert!(!w.is_empty());
    }

    #[test]
    fn quoting_rules() {
        let mut w = CsvWriter::new(["x"]);
        w.row(["has,comma"]);
        w.row(["has\"quote"]);
        w.row(["plain"]);
        let s = w.to_string_lossy();
        assert!(s.contains("\"has,comma\""));
        assert!(s.contains("\"has\"\"quote\""));
        assert!(s.contains("plain\n"));
    }
}
