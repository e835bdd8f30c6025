//! Minimal markdown table printer for experiment output.

use std::io;

/// A markdown table under construction.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render as GitHub-flavoured markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(&widths) {
                s.push_str(&format!(" {c:<w$} |"));
            }
            s
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<1$}|", "", w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print with a title.
    pub fn print(&self, title: &str) {
        println!("\n## {title}\n");
        println!("{}", self.render());
    }

    /// Render as CSV (RFC-4180-ish: quotes around cells containing commas).
    pub fn to_csv(&self) -> String {
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Print the markdown table and also write `results/<slug>.csv` so the
    /// data is machine-readable (plot scripts, regression diffs). A CSV that
    /// cannot be written is an error naming its path: a run on a read-only
    /// tree must not pass for a regeneration.
    pub fn emit(&self, title: &str, slug: &str) -> io::Result<()> {
        self.print(title);
        let path = format!("results/{slug}.csv");
        std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(&path, self.to_csv()))
            .map_err(|e| io::Error::new(e.kind(), format!("{path}: {e}")))
    }
}

/// Format a float compactly.
pub fn f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["1".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("| a | long-header |"));
        assert!(r.contains("| 1 | 2           |"));
        assert!(r.lines().nth(1).unwrap().starts_with("|--"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(0.5), "0.500");
        assert_eq!(f(42.25), "42.2");
        assert_eq!(f(12345.6), "12346");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }
}
#[cfg(test)]
mod csv_tests {
    use super::*;

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["plain".into(), "with,comma".into()]);
        t.row(&["with\"quote".into(), "x".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
        assert!(csv.starts_with("a,b\n"));
    }
}
