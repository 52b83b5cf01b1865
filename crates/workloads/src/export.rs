//! Result tables: aligned console printing for reports and CLI output.

use std::fmt::Write as _;

/// A simple rectangular result table.
#[derive(Debug, Clone)]
pub struct ResultTable {
    /// Table name (the printed header).
    pub name: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells; ragged rows are padded when printed.
    pub rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            name: name.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.name);
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:<w$}", h, w = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header_line.join("  "));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let line: Vec<String> = (0..cols)
                .map(|i| {
                    format!(
                        "{:<w$}",
                        row.get(i).map(String::as_str).unwrap_or(""),
                        w = widths[i]
                    )
                })
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ResultTable {
        let mut t = ResultTable::new("demo", &["a", "bbbb", "c"]);
        t.push_row(["1", "2", "3"]);
        t.push_row(["1000", "2", "3"]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let s = table().render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // "1000" widens column a; header and rows align.
        assert!(lines[1].starts_with("a   "));
        assert!(lines[3].starts_with("1   "));
    }
}
