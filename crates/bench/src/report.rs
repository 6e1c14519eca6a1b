//! Plain-text report formatting for the experiment binaries, and the
//! schema reference for the lint family's JSON failure report.
//!
//! # Lint failure reports
//!
//! All six lint binaries (`vlint`, `chaoslint`, `replaylint`,
//! `flowlint`, `storelint`, `regionlint`) emit one shared
//! single-line JSON schema on failure, built by
//! [`crate::lint::LintReport`]:
//!
//! ```json
//! { "tool": "vlint", "scale": 10,
//!   /* tool-specific counters as extra top-level integer keys */
//!   "failures": [ { "cell": "gzip:basic:sw_pred.ras",
//!                   "details": ["V01 ..."] } ]
//! }
//! ```
//!
//! A failing `cell` feeds back into that tool's `--repro` flag; the
//! `lintall` binary runs the family in sequence and aggregates exit
//! status.

/// Escapes a string for embedding in a JSON string literal (the lint
/// binaries emit structured failure reports without a JSON dependency).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A simple fixed-width table printer: benchmark rows, named numeric
/// columns, and an arithmetic-mean footer (the paper reports averages).
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
    precision: usize,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            precision: 2,
        }
    }

    /// Sets the number of digits after the decimal point (default 2).
    pub fn precision(mut self, p: usize) -> Table {
        self.precision = p;
        self
    }

    /// Appends a benchmark row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn row(&mut self, name: &str, values: &[f64]) {
        assert_eq!(values.len(), self.columns.len(), "column count mismatch");
        self.rows.push((name.to_string(), values.to_vec()));
    }

    /// Column-wise arithmetic means.
    pub fn averages(&self) -> Vec<f64> {
        let n = self.rows.len().max(1) as f64;
        (0..self.columns.len())
            .map(|c| self.rows.iter().map(|(_, v)| v[c]).sum::<f64>() / n)
            .collect()
    }

    /// Renders the table with an `Avg.` footer.
    pub fn render(&self) -> String {
        let name_w = self
            .rows
            .iter()
            .map(|(n, _)| n.len())
            .chain([4])
            .max()
            .unwrap()
            .max(9);
        let col_w = self
            .columns
            .iter()
            .map(|c| c.len().max(self.precision + 6))
            .collect::<Vec<_>>();
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&format!("{:<name_w$}", ""));
        for (c, w) in self.columns.iter().zip(&col_w) {
            out.push_str(&format!("  {c:>w$}"));
        }
        out.push('\n');
        let fmt_val = |v: f64, w: usize| format!("  {v:>w$.prec$}", prec = self.precision);
        for (name, vals) in &self.rows {
            out.push_str(&format!("{name:<name_w$}"));
            for (v, w) in vals.iter().zip(&col_w) {
                out.push_str(&fmt_val(*v, *w));
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<name_w$}", "Avg."));
        for (v, w) in self.averages().iter().zip(&col_w) {
            out.push_str(&fmt_val(*v, *w));
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_rows_and_average() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row("gzip", &[1.0, 2.0]);
        t.row("mcf", &[3.0, 4.0]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("gzip"));
        assert!(s.contains("Avg."));
        assert_eq!(t.averages(), vec![2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_arity_checked() {
        let mut t = Table::new("demo", &["a"]);
        t.row("x", &[1.0, 2.0]);
    }
}
