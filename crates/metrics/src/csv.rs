//! Minimal CSV export.
//!
//! The figure binaries write their series as CSV so the curves can be
//! re-plotted with any external tool. Values never contain separators or
//! quotes (they are numbers and simple labels), so a full CSV
//! implementation is unnecessary — but fields are still escaped
//! defensively.

use std::fmt::Write as _;

/// An in-memory CSV document.
#[derive(Debug, Clone, Default)]
pub struct Csv {
    buf: String,
    columns: usize,
}

impl Csv {
    /// Starts a document with a header row.
    pub fn with_header(cols: &[&str]) -> Self {
        let mut c = Csv {
            buf: String::new(),
            columns: cols.len(),
        };
        c.raw_row(cols.iter().copied());
        c
    }

    fn raw_row<'a>(&mut self, fields: impl Iterator<Item = &'a str>) {
        let mut first = true;
        for f in fields {
            if !first {
                self.buf.push(',');
            }
            first = false;
            push_escaped(&mut self.buf, f);
        }
        self.buf.push('\n');
    }

    /// Appends a row of string fields.
    ///
    /// # Panics
    /// Panics if the arity differs from the header.
    pub fn row(&mut self, fields: &[&str]) {
        assert_eq!(fields.len(), self.columns, "CSV row arity mismatch");
        self.raw_row(fields.iter().copied());
    }

    /// Appends a row of numeric fields formatted with `{:.prec$}`.
    pub fn row_f64(&mut self, fields: &[f64], prec: usize) {
        assert_eq!(fields.len(), self.columns, "CSV row arity mismatch");
        let mut first = true;
        for f in fields {
            if !first {
                self.buf.push(',');
            }
            first = false;
            let _ = write!(self.buf, "{f:.prec$}");
        }
        self.buf.push('\n');
    }

    /// The document text.
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    /// Consumes the document into a `String`.
    pub fn into_string(self) -> String {
        self.buf
    }
}

fn push_escaped(buf: &mut String, field: &str) {
    if field.contains([',', '"', '\n']) {
        buf.push('"');
        for ch in field.chars() {
            if ch == '"' {
                buf.push('"');
            }
            buf.push(ch);
        }
        buf.push('"');
    } else {
        buf.push_str(field);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_and_rows() {
        let mut c = Csv::with_header(&["x", "y"]);
        c.row(&["1", "2"]);
        c.row_f64(&[1.23456, 2.76543], 2);
        assert_eq!(c.as_str(), "x,y\n1,2\n1.23,2.77\n");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut c = Csv::with_header(&["a"]);
        c.row(&["1", "2"]);
    }

    #[test]
    fn quoting_when_needed() {
        let mut c = Csv::with_header(&["label"]);
        c.row(&["has,comma"]);
        c.row(&["has\"quote"]);
        assert_eq!(c.as_str(), "label\n\"has,comma\"\n\"has\"\"quote\"\n");
    }
}
